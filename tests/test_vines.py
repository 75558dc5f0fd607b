import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr

from copeda.copulas import (
    CopulaFamily,
    copula_sample,
    mvnormal_copula_sample,
    normal,
    product,
    tau_to_parameter,
)
from copeda import vines
from copeda.dependence import (indep_test_cvm, kendall_tau,
                               kendall_tau_matrix, pseudo_observations)
from copeda.vines import (
    RVineModel,
    VineType,
    describe_vine,
    fit_vine,
    select_dvine_order,
    vine_loglik,
    vine_sample,
)

NORMAL_ONLY = [CopulaFamily.NORMAL]
ALL_FAMILIES = [CopulaFamily.NORMAL, CopulaFamily.CLAYTON,
                CopulaFamily.FRANK, CopulaFamily.GUMBEL]


def rho_for_tau(tau):
    return math.sin(math.pi * tau / 2.0)


def sample_trivariate(taus, m, seed):
    """Normal-copula sample with pairwise taus (t12, t13, t23)."""
    t12, t13, t23 = taus
    R = np.array([[1.0, rho_for_tau(t12), rho_for_tau(t13)],
                  [rho_for_tau(t12), 1.0, rho_for_tau(t23)],
                  [rho_for_tau(t13), rho_for_tau(t23), 1.0]])
    np.linalg.cholesky(R)  # parameters must form a valid correlation matrix
    rng = np.random.default_rng(seed)
    return mvnormal_copula_sample(R, m, rng)


class TestModelValidation:
    def test_tree_sizes_enforced(self):
        with pytest.raises(ValueError):
            RVineModel(VineType.CVINE, (0, 1, 2), ((product(),),), 0)

    def test_product_beyond_truncation_enforced(self):
        trees = ((normal(0.5), normal(0.5)), (normal(0.5),))
        with pytest.raises(ValueError):
            RVineModel(VineType.CVINE, (0, 1, 2), trees, 1)


def cvine_order(U):
    """The roots ``fit_vine`` chooses when it fits every tree."""
    return fit_vine(U, VineType.CVINE, NORMAL_ONLY, 0.01, "none").order


class TestCvineOrder:
    def test_root_maximizes_tau_sum(self):
        U = sample_trivariate((0.8, 0.7, 0.55), 2000, 1)
        order = cvine_order(U)
        # oracle: exhaustive sums of absolute empirical taus
        taus = np.abs(kendall_tau_matrix(U)) - np.eye(3)
        assert order[0] == int(np.argmax(taus.sum(axis=1)))
        assert order[0] == 0

    def test_two_variables(self):
        rng = np.random.default_rng(2)
        assert cvine_order(rng.random((50, 2))) == (0, 1)

    def test_tie_breaks_to_lowest_index(self):
        # perfectly exchangeable columns: all taus equal
        rng = np.random.default_rng(3)
        x = rng.random(40)
        U = np.column_stack([x, x, x])
        assert cvine_order(U)[0] == 0


class TestDvineOrder:
    def test_three_variables_brute_force(self):
        U = sample_trivariate((0.8, 0.7, 0.55), 2000, 4)
        order = select_dvine_order(U)
        taus = np.abs(kendall_tau_matrix(U))

        def path_weight(path):
            return sum(taus[path[i], path[i + 1]] for i in range(len(path) - 1))

        best = max(
            (p for p in itertools.permutations(range(3))),
            key=path_weight)
        best = min(best, tuple(reversed(best)))
        assert order == best

    def test_two_variables(self):
        rng = np.random.default_rng(5)
        assert select_dvine_order(rng.random((50, 2))) == (0, 1)

    def test_chain_recovered(self):
        # strong consecutive dependence, zero elsewhere: an AR-like chain
        rng = np.random.default_rng(6)
        m = 1500
        x = np.empty((m, 4))
        x[:, 0] = rng.standard_normal(m)
        for j in range(1, 4):
            x[:, j] = 2.0 * x[:, j - 1] + rng.standard_normal(m)
        order = select_dvine_order(pseudo_observations(x))
        taus = np.abs(kendall_tau_matrix(pseudo_observations(x)))

        def path_weight(path):
            return sum(taus[path[i], path[i + 1]] for i in range(len(path) - 1))

        brute = max(itertools.permutations(range(4)), key=path_weight)
        assert path_weight(order) == pytest.approx(path_weight(brute), abs=1e-12)
        assert order in ((0, 1, 2, 3), (3, 2, 1, 0))


class TestFitVine:
    def test_independent_data_mostly_product(self):
        product_edges = total_edges = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            U = rng.random((300, 4))
            model = fit_vine(U, VineType.CVINE, ALL_FAMILIES, 0.01, "none")
            for c in model.trees[0]:
                product_edges += c.family is CopulaFamily.PRODUCT
                total_edges += 1
        assert product_edges >= 0.9 * total_edges

    def test_two_variable_normal_recovery(self):
        rng = np.random.default_rng(7)
        U = copula_sample(normal(0.707), 500, rng)
        model = fit_vine(U, VineType.CVINE, NORMAL_ONLY, 0.01, "aic")
        c = model.trees[0][0]
        assert c.family is CopulaFamily.NORMAL
        assert abs(c.theta - 0.707) <= 0.05

    def test_aic_truncates_dominant_root_structure(self):
        # data from a C-vine with one strong tree and conditional independence
        base = RVineModel(
            VineType.CVINE, (0, 1, 2, 3),
            ((normal(rho_for_tau(0.7)), normal(rho_for_tau(0.6)),
              normal(rho_for_tau(0.5))),
             (product(), product()),
             (product(),)),
            trunc_level=1)
        shallow = 0
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            U = vine_sample(base, 400, rng)
            model = fit_vine(U, VineType.CVINE, NORMAL_ONLY, 0.01, "aic")
            shallow += model.trunc_level <= 2
        assert shallow >= 16

    def test_candidate_restriction(self):
        rng = np.random.default_rng(8)
        U = copula_sample(normal(0.8), 400, rng)
        model = fit_vine(U, VineType.DVINE, NORMAL_ONLY, 0.01, "aic")
        for tree in model.trees:
            for c in tree:
                assert c.family in (CopulaFamily.NORMAL, CopulaFamily.PRODUCT)

    def test_determinism(self):
        U = sample_trivariate((0.6, 0.5, 0.4), 300, 9)
        m1 = fit_vine(U, VineType.DVINE, ALL_FAMILIES, 0.01, "aic")
        m2 = fit_vine(U, VineType.DVINE, ALL_FAMILIES, 0.01, "aic")
        assert m1 == m2


class TestVineSample:
    def test_all_product_independent(self):
        model = RVineModel(VineType.CVINE, (0, 1, 2),
                           ((product(), product()), (product(),)), 0)
        rng = np.random.default_rng(11)
        U = vine_sample(model, 2000, rng)
        for i, j in itertools.combinations(range(3), 2):
            assert abs(kendall_tau(U[:, i], U[:, j])) <= 0.05

    def test_two_variable_tau(self):
        model = RVineModel(VineType.DVINE, (0, 1), ((normal(0.7071),),), 1)
        rng = np.random.default_rng(12)
        U = vine_sample(model, 2000, rng)
        assert kendall_tau(U[:, 0], U[:, 1]) == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("vine_type", [VineType.CVINE, VineType.DVINE])
    def test_round_trip_recovers_tree_one(self, vine_type):
        trees = ((normal(rho_for_tau(0.6)), normal(rho_for_tau(0.5))),
                 (normal(rho_for_tau(0.2)),))
        model = RVineModel(vine_type, (0, 1, 2), trees, 2)
        rng = np.random.default_rng(13)
        U = vine_sample(model, 1000, rng)
        refit = fit_vine(U, vine_type, NORMAL_ONLY, 0.01, "none")
        fitted_taus = sorted(abs(2.0 * math.asin(c.theta) / math.pi)
                             for c in refit.trees[0]
                             if c.family is CopulaFamily.NORMAL)
        assert len(fitted_taus) == 2
        assert fitted_taus[0] == pytest.approx(0.5, abs=0.1)
        assert fitted_taus[1] == pytest.approx(0.6, abs=0.1)

    def test_sampling_deterministic(self):
        model = RVineModel(VineType.DVINE, (1, 0), ((normal(0.5),),), 1)
        u1 = vine_sample(model, 50, np.random.default_rng(14))
        u2 = vine_sample(model, 50, np.random.default_rng(14))
        assert np.array_equal(u1, u2)

    def test_dvine_pairwise_taus_match_theory(self):
        # three-variable D-vine with a known joint normal equivalent:
        # conditional rho r23|1 relates to unconditional via partial correlation
        r12, r23_1 = 0.6, 0.4
        model = RVineModel(
            VineType.DVINE, (0, 1, 2),
            ((normal(r12), normal(0.5)), (normal(r23_1),)), 2)
        rng = np.random.default_rng(15)
        U = vine_sample(model, 4000, rng)
        # tree-1 edges are unconditional pairs
        assert kendall_tau(U[:, 0], U[:, 1]) == pytest.approx(
            2 * math.asin(r12) / math.pi, abs=0.04)
        assert kendall_tau(U[:, 1], U[:, 2]) == pytest.approx(
            2 * math.asin(0.5) / math.pi, abs=0.04)
        # normal pair copulas compose into a joint normal copula: the
        # unconditional (1,3) correlation follows from the partial correlation
        r13 = r23_1 * math.sqrt((1 - r12 ** 2) * (1 - 0.5 ** 2)) + r12 * 0.5
        assert kendall_tau(U[:, 0], U[:, 2]) == pytest.approx(
            2 * math.asin(r13) / math.pi, abs=0.04)

    def test_cvine_pairwise_taus_follow_the_documented_layout(self):
        # order (0, 2, 1): tree 1 pairs root 0 with 1, then 2 (ascending
        # index), tree 2 pairs root 2 with 1 given 0
        r10, r20, r12_0 = 0.7, -0.3, 0.5
        model = RVineModel(
            VineType.CVINE, (0, 2, 1),
            ((normal(r10), normal(r20)), (normal(r12_0),)), 2)
        U = vine_sample(model, 4000, np.random.default_rng(20))
        r12 = r12_0 * math.sqrt((1 - r10 ** 2) * (1 - r20 ** 2)) + r10 * r20
        for (i, j), r in {(0, 1): r10, (0, 2): r20, (1, 2): r12}.items():
            assert kendall_tau(U[:, i], U[:, j]) == pytest.approx(
                2 * math.asin(r) / math.pi, abs=0.04)


class TestVineLoglik:
    def test_all_product_zero(self):
        model = RVineModel(VineType.CVINE, (0, 1, 2),
                           ((product(), product()), (product(),)), 0)
        rng = np.random.default_rng(16)
        assert vine_loglik(model, rng.random((100, 3))) == 0.0

    def test_two_variable_positive_on_own_sample(self):
        model = RVineModel(VineType.CVINE, (0, 1), ((normal(0.7),),), 1)
        rng = np.random.default_rng(17)
        U = vine_sample(model, 500, rng)
        assert vine_loglik(model, U) > 0.0

    def test_nested_trees_never_decrease_in_sample_loglik(self):
        U = sample_trivariate((0.7, 0.6, 0.5), 600, 18)
        full = fit_vine(U, VineType.CVINE, NORMAL_ONLY, 0.01, "none")
        truncated = RVineModel(
            full.vine_type, full.order,
            (full.trees[0], (product(),)), 1)
        assert vine_loglik(full, U) >= vine_loglik(truncated, U) - 1e-9


class TestSerialization:
    def test_describe_contains_structure(self):
        model = RVineModel(VineType.DVINE, (2, 0, 1),
                           ((normal(0.5), product()), (product(),)), 1)
        text = describe_vine(model)
        assert "dvine" in text
        assert "order=2,0,1" in text
        assert "trunc_level=1" in text
        assert "normal(theta=0.5)" in text
        assert "tree 2: product" in text


def regression_sample():
    """90 rows, 5 columns: normal-copula data with non-uniform margins,
    built without copeda so only the fitter is under test."""
    rng = np.random.default_rng(9)
    A = rng.standard_normal((5, 5))
    Z = rng.standard_normal((90, 5)) @ A.T
    U = ndtr(Z / np.sqrt((A * A).sum(axis=1)))
    return U ** np.array([1.0, 2.0, 1.0, 0.5, 1.0])


CVINE_EDGES = (
    "gumbel 0x1.c94e547ef8ebap+0", "normal -0x1.3eb96ca9c0f58p-2",
    "normal 0x1.2dc1fd07fb1dep-1", "normal -0x1.278f510e2435fp-1", "product",
    "clayton 0x1.080a4a9cf1d96p-1", "normal -0x1.9eb036215926dp-1",
    "frank 0x1.0f0a16917d721p+1", "gumbel 0x1.61c9f01970e50p+0",
    "normal -0x1.9691a0d0e2b95p-2")
DVINE_EDGES = (
    "normal 0x1.2dc1fd07fb1dep-1", "gumbel 0x1.c94e547ef8ebap+0",
    "normal -0x1.1f448ddcfdde8p-2", "frank -0x1.6f7a831f477bap+1", "product",
    "product", "normal -0x1.f7a140500d6aap-2", "clayton 0x1.219e95e4c6c3dp-1",
    "normal -0x1.7c5b129b19300p-1", "gumbel 0x1.10ae4c415c988p+1")

# p-values of the independence tests in call order, times the null's
# draws + 1: they pin each edge's statistic against its fixed null table
CVINE_TESTS = (1, 5, 1, 1, 182, 3, 1, 2, 1, 2)
DVINE_TESTS = (1, 1, 23, 1, 83, 111, 1, 2, 1, 1)

# (vine type, criterion) -> order, trunc_level, edges tree by tree,
# vine_loglik, independence tests; on this sample neither criterion
# truncates
VINE_REGRESSION = {
    ("cvine", criterion): ((4, 1, 2, 0, 3), 4, CVINE_EDGES,
                           "0x1.c11d22faee888p+6", CVINE_TESTS)
    for criterion in ("aic", "bic", "none")} | {
    ("dvine", criterion): ((2, 4, 0, 1, 3), 4, DVINE_EDGES,
                           "0x1.10a00d31b771bp+7", DVINE_TESTS)
    for criterion in ("aic", "bic", "none")}


class TestFitRegression:
    """Bit-exact fits on one fixed sample, so a refactor of the fitter
    cannot change the chosen structure, a parameter or a pre-test result."""

    @pytest.mark.parametrize("key", sorted(VINE_REGRESSION))
    def test_fit_and_loglik_bits(self, key, monkeypatch):
        vine_type, criterion = key
        order, trunc_level, edges, loglik, tests = VINE_REGRESSION[key]
        p_values = []

        def recorded_test(*args, **kwargs):
            result = indep_test_cvm(*args, **kwargs)
            p_values.append(round(result.p_value * 1001))
            return result

        monkeypatch.setattr(vines, "indep_test_cvm", recorded_test)
        U = regression_sample()
        model = fit_vine(U, vine_type, ALL_FAMILIES, 0.05, criterion)
        assert tuple(p_values) == tests
        assert model.order == order
        assert model.trunc_level == trunc_level
        assert tuple("product" if c.family is CopulaFamily.PRODUCT
                     else f"{c.family.value} {c.theta.hex()}"
                     for tree in model.trees for c in tree) == edges
        assert all(math.isnan(c.nu) for tree in model.trees for c in tree)
        assert vine_loglik(model, U).hex() == loglik


class TestFittedVineOnItsSample:
    """Fitting, log-likelihood and sampling read the same edges: a vine
    fitted to a sample scores it at least as well as the independence vine
    and draws data with the sample's pairwise taus."""

    @pytest.fixture(scope="class", params=sorted(VINE_REGRESSION),
                    ids="-".join)
    def fitted(self, request):
        vine_type, criterion = request.param
        U = regression_sample()
        return U, fit_vine(U, vine_type, ALL_FAMILIES, 0.05, criterion)

    def test_loglik_not_below_independence(self, fitted):
        U, model = fitted
        assert vine_loglik(model, U) >= 0.0

    def test_draws_keep_the_sample_taus(self, fitted):
        U, model = fitted
        draws = vine_sample(model, 20000, np.random.default_rng(21))
        gap = np.abs(kendall_tau_matrix(draws) - kendall_tau_matrix(U))
        assert gap.max() <= 0.3
