import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from copeda.copulas import (
    CopulaFamily,
    clayton,
    copula_sample,
    frank,
    gumbel,
    mvnormal_copula_sample,
    normal,
    product,
    student,
    tau_to_parameter,
)
from copeda import dependence, vines
from copeda.benchmarks import study_cell
from copeda.dependence import (indep_tests_cvm, kendall_tau,
                               kendall_tau_matrix, pseudo_observations)
from copeda.eda import eda_run, run_rng
from copeda.vines import (
    RVineModel,
    VineType,
    describe_vine,
    fit_vine,
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
            RVineModel(VineType.CVINE, (0, 1, 2), ((product(),),))

    def test_too_many_trees_rejected(self):
        # n trees on n variables, each of the size tree j would have
        for n in (1, 2, 3):
            trees = tuple((normal(0.5),) * (n - 1 - j) for j in range(n))
            with pytest.raises(ValueError, match=f"at most {n - 1} trees"):
                RVineModel(VineType.CVINE, tuple(range(n)), trees)
            assert RVineModel(VineType.CVINE, tuple(range(n)),
                              trees[:-1]).trunc_level == n - 1


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
        order = vines._dvine_path(kendall_tau_matrix(U))
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
        U = rng.random((50, 2))
        assert vines._dvine_path(kendall_tau_matrix(U)) == (0, 1)

    def test_chain_recovered(self):
        # strong consecutive dependence, zero elsewhere: an AR-like chain
        rng = np.random.default_rng(6)
        m = 1500
        x = np.empty((m, 4))
        x[:, 0] = rng.standard_normal(m)
        for j in range(1, 4):
            x[:, j] = 2.0 * x[:, j - 1] + rng.standard_normal(m)
        taus = kendall_tau_matrix(pseudo_observations(x))
        order = vines._dvine_path(taus)
        taus = np.abs(taus)

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
              normal(rho_for_tau(0.5))),))
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

    @pytest.mark.parametrize("sig_level", [np.nan, 0.0, 1.0, -1.0, 2.0])
    def test_sig_level_outside_unit_interval_rejected(self, sig_level):
        U = sample_trivariate((0.6, 0.5, 0.4), 50, 9)
        for vine_type in VineType:
            with pytest.raises(ValueError,
                               match=r"sig_level must be in \(0, 1\)"):
                fit_vine(U, vine_type, ALL_FAMILIES, sig_level, "aic")

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("options,message", [
        ((np.nan, "aic"), r"sig_level must be in \(0, 1\)"),
        ((0.01, "bogus"), "unknown criterion: bogus")])
    def test_options_checked_before_any_tree(self, n, options, message,
                                             monkeypatch):
        # one column has no tree to fit, and three columns must not fit
        # tree 1 before a bad criterion raises
        def no_tests(*args, **kwargs):
            raise AssertionError("a tree was fitted")

        monkeypatch.setattr(vines, "indep_tests_cvm", no_tests)
        U = np.random.default_rng(10).random((50, n))
        for vine_type in VineType:
            with pytest.raises(ValueError, match=message):
                fit_vine(U, vine_type, NORMAL_ONLY, *options)

    def test_determinism(self):
        U = sample_trivariate((0.6, 0.5, 0.4), 300, 9)
        m1 = fit_vine(U, VineType.DVINE, ALL_FAMILIES, 0.01, "aic")
        m2 = fit_vine(U, VineType.DVINE, ALL_FAMILIES, 0.01, "aic")
        assert m1 == m2


class TestVineSample:
    def test_all_product_independent(self):
        model = RVineModel(VineType.CVINE, (0, 1, 2),
                           ((product(), product()), (product(),)))
        rng = np.random.default_rng(11)
        U = vine_sample(model, 2000, rng)
        for i, j in itertools.combinations(range(3), 2):
            assert abs(kendall_tau(U[:, i], U[:, j])) <= 0.05

    def test_two_variable_tau(self):
        model = RVineModel(VineType.DVINE, (0, 1), ((normal(0.7071),),))
        rng = np.random.default_rng(12)
        U = vine_sample(model, 2000, rng)
        assert kendall_tau(U[:, 0], U[:, 1]) == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("vine_type", [VineType.CVINE, VineType.DVINE])
    def test_round_trip_recovers_tree_one(self, vine_type):
        trees = ((normal(rho_for_tau(0.6)), normal(rho_for_tau(0.5))),
                 (normal(rho_for_tau(0.2)),))
        model = RVineModel(vine_type, (0, 1, 2), trees)
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
        model = RVineModel(VineType.DVINE, (1, 0), ((normal(0.5),),))
        u1 = vine_sample(model, 50, np.random.default_rng(14))
        u2 = vine_sample(model, 50, np.random.default_rng(14))
        assert np.array_equal(u1, u2)

    def test_dvine_pairwise_taus_match_theory(self):
        # three-variable D-vine with a known joint normal equivalent:
        # conditional rho r23|1 relates to unconditional via partial correlation
        r12, r23_1 = 0.6, 0.4
        model = RVineModel(
            VineType.DVINE, (0, 1, 2),
            ((normal(r12), normal(0.5)), (normal(r23_1),)))
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
            ((normal(r10), normal(r20)), (normal(r12_0),)))
        U = vine_sample(model, 4000, np.random.default_rng(20))
        r12 = r12_0 * math.sqrt((1 - r10 ** 2) * (1 - r20 ** 2)) + r10 * r20
        for (i, j), r in {(0, 1): r10, (0, 2): r20, (1, 2): r12}.items():
            assert kendall_tau(U[:, i], U[:, j]) == pytest.approx(
                2 * math.asin(r) / math.pi, abs=0.04)


def mixed_trees(n, rng):
    """All n - 1 trees of an n-variable vine, the edges cycling through
    normal, Student, Clayton, Frank with theta < 0, Gumbel and product
    copulas from a random start."""
    makers = (lambda: normal(rng.uniform(-0.8, 0.8)),
              lambda: student(rng.uniform(-0.8, 0.8), rng.uniform(2.5, 10.0)),
              lambda: clayton(rng.uniform(0.3, 3.0)),
              lambda: frank(-rng.uniform(0.5, 8.0)),
              lambda: gumbel(rng.uniform(1.1, 3.0)),
              product)
    start = int(rng.integers(len(makers)))
    return tuple(tuple(makers[(start + j + e) % len(makers)]()
                       for e in range(n - 1 - j)) for j in range(n - 1))


class TestTruncation:
    """A vine truncated after tree t samples and scores as the same vine
    with trees t + 1..n - 1 written out as product copulas, bit for bit:
    the C-vine sampler starts from the last n - t variables, and the D-vine
    sampler conditions each path position on at most t predecessors."""

    @pytest.mark.parametrize("vine_type", list(VineType))
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_product_padding(self, vine_type, n):
        rng = np.random.default_rng(60 + n)
        for t in range(n):
            order = tuple(int(i) for i in rng.permutation(n))
            trees = mixed_trees(n, rng)
            padding = tuple((product(),) * (n - 1 - j)
                            for j in range(t, n - 1))
            truncated = RVineModel(vine_type, order, trees[:t])
            padded = RVineModel(vine_type, order, trees[:t] + padding)
            assert truncated.trunc_level == t
            draws = vine_sample(truncated, 300, np.random.default_rng(t))
            assert draws.tobytes() == vine_sample(
                padded, 300, np.random.default_rng(t)).tobytes()
            U = vine_sample(RVineModel(vine_type, order, trees), 300,
                            np.random.default_rng(70 + t))
            assert (vine_loglik(truncated, U).hex()
                    == vine_loglik(padded, U).hex())


class TestVineLoglik:
    def test_all_product_zero(self):
        model = RVineModel(VineType.CVINE, (0, 1, 2),
                           ((product(), product()), (product(),)))
        rng = np.random.default_rng(16)
        assert vine_loglik(model, rng.random((100, 3))) == 0.0

    def test_two_variable_positive_on_own_sample(self):
        model = RVineModel(VineType.CVINE, (0, 1), ((normal(0.7),),))
        rng = np.random.default_rng(17)
        U = vine_sample(model, 500, rng)
        assert vine_loglik(model, U) > 0.0

    def test_nested_trees_never_decrease_in_sample_loglik(self):
        U = sample_trivariate((0.7, 0.6, 0.5), 600, 18)
        full = fit_vine(U, VineType.CVINE, NORMAL_ONLY, 0.01, "none")
        truncated = RVineModel(full.vine_type, full.order, full.trees[:1])
        assert vine_loglik(full, U) >= vine_loglik(truncated, U) - 1e-9


class TestSerialization:
    def test_describe_contains_structure(self):
        # the dump lists the fitted trees alone
        model = RVineModel(VineType.DVINE, (2, 0, 1),
                           ((normal(0.5), product()),))
        text = describe_vine(model)
        assert "dvine" in text
        assert "order=2,0,1" in text
        assert "trunc_level=1" in text
        assert "normal(theta=0.5)" in text
        assert "tree 1: " in text
        assert "tree 2:" not in text


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
    "frank 0x1.0f0a16917d75bp+1", "gumbel 0x1.61c9f01970e50p+0",
    "normal -0x1.9691a0d0e2b95p-2")
DVINE_EDGES = (
    "normal 0x1.2dc1fd07fb1dep-1", "gumbel 0x1.c94e547ef8ebap+0",
    "normal -0x1.1f448ddcfdde8p-2", "frank -0x1.6f7a831f477c9p+1", "product",
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
                           "0x1.c11d22faee887p+6", CVINE_TESTS)
    for criterion in ("aic", "bic", "none")} | {
    ("dvine", criterion): ((2, 4, 0, 1, 3), 4, DVINE_EDGES,
                           "0x1.10a00d31b7717p+7", DVINE_TESTS)
    for criterion in ("aic", "bic", "none")}


class TestFitRegression:
    """Bit-exact fits on one fixed sample, so a refactor of the fitter
    cannot change the chosen structure, a parameter or a pre-test result."""

    @pytest.mark.parametrize("key", sorted(VINE_REGRESSION))
    def test_fit_and_loglik_bits(self, key, monkeypatch):
        vine_type, criterion = key
        order, trunc_level, edges, loglik, tests = VINE_REGRESSION[key]
        p_values, tree_sizes = [], []

        def recorded_tests(*args, **kwargs):
            results = indep_tests_cvm(*args, **kwargs)
            tree_sizes.append(len(results))
            p_values.extend(round(r.p_value * 1001) for r in results)
            return results

        monkeypatch.setattr(vines, "indep_tests_cvm", recorded_tests)
        U = regression_sample()
        model = fit_vine(U, vine_type, ALL_FAMILIES, 0.05, criterion)
        assert tuple(p_values) == tests
        assert tree_sizes == [4, 3, 2, 1]  # one pre-test call per tree
        assert model.order == order
        assert model.trunc_level == trunc_level
        assert tuple("product" if c.family is CopulaFamily.PRODUCT
                     else f"{c.family.value} {c.theta.hex()}"
                     for tree in model.trees for c in tree) == edges
        assert all(math.isnan(c.nu) for tree in model.trees for c in tree)
        assert vine_loglik(model, U).hex() == loglik


def tied_sample(seed):
    """60 rows, 5 columns rounded to 0.1 on scales 0.2 to 3, so the
    columns have ties, the narrower ones more."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((5, 5))
    Z = rng.standard_normal((60, 5)) @ A.T
    return np.round(Z * np.geomspace(0.2, 3.0, 5) / Z.std(axis=0), 1)


def model_bits(model):
    return (model.order, model.trunc_level,
            [(c.family, c.theta.hex(), c.nu.hex())
             for tree in model.trees for c in tree])


FIVE_FAMILIES = ("normal", "student", "clayton", "frank", "gumbel")


class TestWalkTaus:
    """``fit_vine`` hands GoF the taus of its tree walk's matrices.  On tied
    data an edge's ``kendall_tau(u, v)`` can differ in the last bit from
    ``kendall_tau(v, u)``; each sample below has such an edge that decides
    a fitted bit, so reading the other orientation would change the fit."""

    @pytest.mark.parametrize("vine_type, families, seed", [
        pytest.param("cvine", FIVE_FAMILIES, 29, id="cvine-five"),
        pytest.param("dvine", FIVE_FAMILIES, 29, id="dvine-five"),
        pytest.param("cvine", ("normal",), 73, id="cvine-normal"),
        pytest.param("dvine", ("normal",), 53, id="dvine-normal")])
    def test_fit_equals_gof_computing_its_own_tau(self, vine_type, families,
                                                  seed, monkeypatch):
        U = tied_sample(seed)
        gof = vines.gof_select_copula
        passed = []

        def walk_tau(u, v, candidates, tau=None):
            passed.append(tau is not None)
            return gof(u, v, candidates, tau)

        monkeypatch.setattr(vines, "gof_select_copula", walk_tau)
        model = fit_vine(U, vine_type, families)
        monkeypatch.setattr(vines, "gof_select_copula",
                            lambda u, v, candidates, tau=None:
                            gof(u, v, candidates))
        assert model_bits(model) == model_bits(
            fit_vine(U, vine_type, families))
        assert any(passed)

    def test_walk_taus_carry_each_edge_bits(self):
        # the tau matrix is orientation-exact, so the walk reads each edge
        # (u, v)'s tau with the bits of kendall_tau(u, v), tied columns
        # included: every C-vine tree, and the D-vine's tree 1
        U = tied_sample(29)
        flipped = 0
        for vine_type, depth in ((VineType.CVINE, 4), (VineType.DVINE, 1)):
            model = fit_vine(U, vine_type, FIVE_FAMILIES, criterion="none")
            walk = vines._TREES[vine_type](U)
            for tree in model.trees[:depth]:
                X, (first, second), taus = walk.tree()
                pairs = [(X[:, f], X[:, s]) for f, s in zip(first, second)]
                assert [taus[f, s].hex() for f, s in zip(first, second)] == [
                    kendall_tau(u, v).hex() for u, v in pairs]
                flipped += sum(kendall_tau(u, v) != kendall_tau(v, u)
                               for u, v in pairs)
                walk.advance(tree)
            assert walk.order == model.order
        assert flipped

    def test_no_gof_call_computes_its_own_tau(self, monkeypatch):
        # a D-vine's deeper trees get their dependent edges' taus from one
        # batched call at the paper's long samples (m = 290 at pop 965)
        def no_tau(*args):
            raise AssertionError("GoF computed its own tau")

        monkeypatch.setattr(dependence, "kendall_tau", no_tau)
        batches = []
        tau_matrix = vines._tau_matrix
        monkeypatch.setattr(vines, "_tau_matrix",
                            lambda X, pairs: batches.append(len(pairs[0]))
                            or tau_matrix(X, pairs))
        U = random_gaussian_sample(6, 290, 31)
        model = fit_vine(U, "dvine", FIVE_FAMILIES, criterion="none")
        deeper = [c for tree in model.trees[1:] for c in tree
                  if c.family is not CopulaFamily.PRODUCT]
        assert len(deeper) == sum(batches) >= 3
        assert len(batches) <= 4  # at most one call per deeper tree

    def test_structure_reads_one_orientation_per_pair(self):
        # on tied columns entries (a, b) and (b, a) can round apart; the
        # structure scores read pair {a, b}, a < b, by entry (a, b) alone:
        # the D-vine path ignores the lower triangle, and the C-vine's last
        # two variables tie exactly, the root going to the lower index
        U = tied_sample(21)
        T = kendall_tau_matrix(U)
        assert (T != T.T).any()
        noise = np.tril(np.random.default_rng(22).uniform(-1, 1, (5, 5)), -1)
        assert vines._dvine_path(np.triu(T) + noise) == vines._dvine_path(T)
        assert fit_vine(U, "cvine", FIVE_FAMILIES).order == (2, 3, 4, 0, 1)


class TestTreeRanks:
    def test_cvine_pretest_ranks_each_column_once(self, monkeypatch):
        # a C-vine tree over c columns has c - 1 edges that share the
        # root's column; its pre-test ranks the c columns, not 2 (c - 1)
        rows, per_tree = [], []
        le_ranks = dependence._le_ranks
        monkeypatch.setattr(dependence, "_le_ranks",
                            lambda X: rows.append(len(X)) or le_ranks(X))
        tests = vines.indep_tests_cvm

        def counted(*args, **kwargs):
            rows.clear()
            results = tests(*args, **kwargs)
            per_tree.append((len(results) + 1, sum(rows)))
            return results

        monkeypatch.setattr(vines, "indep_tests_cvm", counted)
        U = random_gaussian_sample(6, 60, 41)
        fit_vine(U, "cvine", FIVE_FAMILIES, criterion="none")
        assert per_tree == [(c, c) for c in range(6, 1, -1)]


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


def implied_correlation(model):
    """The correlation matrix of an all-normal or product vine, filled in
    tree order from its edges' partial correlations (Bedford & Cooke 2002):
    edge (a, b | S) with partial correlation rho gives
    r_a' R_S^-1 r_b + rho sqrt((1 - r_a' R_S^-1 r_a)(1 - r_b' R_S^-1 r_b)),
    r_x = R[S, x], and a product edge, as is every pair past the last
    fitted tree, has rho = 0."""
    n, o = model.dim, model.order
    R = np.eye(n)
    for j in range(n - 1):
        tree = (model.trees[j] if j < model.trunc_level
                else (product(),) * (n - 1 - j))
        if model.vine_type is VineType.CVINE:
            edges = [(v, o[j], list(o[:j])) for v in sorted(o[j + 1:])]
        else:
            edges = [(o[i], o[i + j + 1], list(o[i + 1:i + j + 1]))
                     for i in range(n - 1 - j)]
        for c, (a, b, S) in zip(tree, edges):
            assert c.family in (CopulaFamily.NORMAL, CopulaFamily.PRODUCT)
            rho = c.theta if c.family is CopulaFamily.NORMAL else 0.0
            inv = np.linalg.inv(R[np.ix_(S, S)]) if S else np.zeros((0, 0))
            ra, rb = R[S, a], R[S, b]
            R[a, b] = R[b, a] = ra @ inv @ rb + rho * math.sqrt(
                (1.0 - ra @ inv @ ra) * (1.0 - rb @ inv @ rb))
    return R


def gaussian_copula_loglik(R, U):
    """-1/2 sum over rows of log det R + z'(R^-1 - I) z, z = ndtri(U)."""
    z = ndtri(U)
    quad = np.einsum("ij,jk,ik->", z, np.linalg.inv(R) - np.eye(len(R)), z)
    return -0.5 * (len(U) * np.linalg.slogdet(R)[1] + quad)


def random_gaussian_sample(n, m, seed):
    """Pseudo-observations of m rows of a normal vector with a random
    correlation matrix."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * rng.uniform(0.0, 2.0, n)
    return pseudo_observations(
        rng.standard_normal((m, n)) @ (A + np.eye(n)).T)


# (vine type, n, m, truncation criterion, seed): n = 3-8 and m = 40-400,
# AIC-truncated (so trees end in product edges) and full
GAUSSIAN_VINES = [(vine_type, n, m, criterion, 100 + 10 * n + k)
                  for k, vine_type in enumerate(VineType)
                  for n, m, criterion in [(3, 40, "none"), (4, 400, "aic"),
                                          (5, 120, "none"), (6, 80, "aic"),
                                          (7, 250, "aic"), (8, 200, "none")]]


class TestGaussianVineOracle:
    """A vine of normal and product edges is the Gaussian copula of the
    correlation matrix its partial correlations imply."""

    @pytest.fixture(scope="class", params=GAUSSIAN_VINES,
                    ids=lambda p: f"{p[0].value}-n{p[1]}-m{p[2]}-{p[3]}")
    def fitted(self, request):
        vine_type, n, m, criterion, seed = request.param
        U = random_gaussian_sample(n, m, seed)
        model = fit_vine(U, vine_type, NORMAL_ONLY, 0.01, criterion)
        return U, model, implied_correlation(model)

    def test_loglik_is_the_gaussian_copula_loglik(self, fitted):
        U, model, R = fitted
        assert vine_loglik(model, U) == pytest.approx(
            gaussian_copula_loglik(R, U), rel=1e-10, abs=1e-10 * len(U))

    def test_sample_is_the_cholesky_map_of_the_same_draw(self, fitted):
        _, model, R = fitted
        m, o = 500, list(model.order)
        W = np.random.default_rng(22).random((m, model.dim))
        expected = np.empty_like(W)
        expected[:, o] = ndtr(ndtri(W) @ np.linalg.cholesky(R[np.ix_(o, o)]).T)
        draws = vine_sample(model, m, np.random.default_rng(22))
        assert np.allclose(draws, expected, rtol=0.0, atol=1e-9)


class TestPaperCellPins:
    """Run 0 of the paper's vine cells at Summation Cancellation size
    (10-D, published population sizes), pinned bit for bit: every tau,
    pre-test and fit of a run at pop 294 and 965 decides these bits."""

    @pytest.mark.slow
    @pytest.mark.parametrize("algorithm, pinned", [
        ("cveda", (157, 46158, "-0x1.869ffffff0a37p+16")),
        ("dveda", (128, 123520, "-0x1.869ffffff33fdp+16"))])
    def test_run_zero_bits(self, algorithm, pinned):
        spec, f, lower, upper = study_cell(algorithm, "summation-cancellation")
        result = eda_run(spec, f, lower, upper, run_rng(12345, 0))
        assert (result.num_gens, result.f_evals,
                float(result.best_eval).hex()) == pinned
