import itertools
import math

import numpy as np
import pytest
from scipy import special
from scipy.optimize import minimize_scalar

from copeda.algorithms import (
    ChainDependence,
    NormalDependence,
    ProductDependence,
    SearchModel,
    VineDependence,
    _normal_ml_rho,
    chain_permutation,
    describe_search_model,
    learn_model,
    sample_model,
)
from copeda.copulas import (
    RHO_MAX,
    CopulaFamily,
    clayton,
    copula_loglik,
    normal,
    student,
)
from copeda.dependence import kendall_tau
from copeda.eda import EdaSpec, TerminationSpec, run_rng
from copeda.margins import MarginKind, NormalMargin, fit_margin
from copeda.vines import RVineModel, VineType


# UMDA and GCEDA learning draws no random numbers
NO_DRAWS = np.random.default_rng(0)


def make_spec(algorithm, pop_size=100, margin=MarginKind.NORMAL,
              copulas=(CopulaFamily.NORMAL,), **kwargs):
    return EdaSpec(algorithm, pop_size, TerminationSpec(max_gen=10),
                   margin=margin, copulas=copulas, **kwargs)


def test_chain_algorithm_defaults_to_beta_margins():
    from copeda.margins import BetaRescaledMargin
    spec = EdaSpec("copula-mimic", 50, TerminationSpec(max_gen=5))
    pop = mvn_population(2, 0.5, 80, 77)
    model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0),
                        np.random.default_rng(78))
    assert isinstance(model.margins, BetaRescaledMargin)


def test_gceda_kernel_margins_use_tau_inversion():
    import math as _math
    from copeda.dependence import kendall_tau as _kt
    pop = mvn_population(2, 0.7, 200, 79)
    spec = make_spec("gceda", margin=MarginKind.KERNEL)
    model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0),
                        NO_DRAWS)
    expected = _math.sin(_math.pi * _kt(pop[:, 0], pop[:, 1]) / 2.0)
    assert model.dependence.correlation[0, 1] == pytest.approx(expected,
                                                               abs=1e-12)


def test_gceda_normal_margins_use_pearson():
    pop = mvn_population(2, 0.7, 200, 80)
    spec = make_spec("gceda", margin=MarginKind.NORMAL)
    model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0),
                        NO_DRAWS)
    expected = np.corrcoef(pop.T)[0, 1]
    assert model.dependence.correlation[0, 1] == pytest.approx(expected,
                                                               abs=1e-12)


def mvn_population(n, rho, m, seed):
    rng = np.random.default_rng(seed)
    R = np.full((n, n), rho) + (1 - rho) * np.eye(n)
    chol = np.linalg.cholesky(R)
    return rng.standard_normal((m, n)) @ chol.T


BOUNDS3 = (np.array([-10.0] * 3), np.array([10.0] * 3))


class TestCedaLearn:
    def test_umda_always_product(self):
        pop = mvn_population(3, 0.9, 200, 1)
        model = learn_model(make_spec("umda"), pop, *BOUNDS3, NO_DRAWS)
        assert isinstance(model.dependence, ProductDependence)

    def test_gceda_clips_comonotone_pair(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        pop = np.column_stack([x, 2.0 * x + 1.0, rng.standard_normal(100)])
        model = learn_model(make_spec("gceda"), pop, *BOUNDS3, NO_DRAWS)
        R = model.dependence.correlation
        assert R[0, 1] < 1.0
        np.linalg.cholesky(R)

    def test_gceda_correlation_is_factorizable(self):
        pop = mvn_population(3, 0.7, 150, 3)
        model = learn_model(make_spec("gceda"), pop, *BOUNDS3, NO_DRAWS)
        R = model.dependence.correlation
        assert np.allclose(R, R.T)
        assert np.allclose(np.diag(R), 1.0)
        np.linalg.cholesky(R)

    def test_emna_equivalence_moments(self):
        # normal margins + normal copula reproduce mean and covariance
        rng = np.random.default_rng(4)
        mean = np.array([1.0, -2.0, 0.5])
        cov = np.array([[2.0, 0.8, 0.2], [0.8, 1.0, 0.4], [0.2, 0.4, 1.5]])
        data = rng.multivariate_normal(mean, cov, size=800)
        model = learn_model(make_spec("gceda"), data,
                            np.full(3, -50.0), np.full(3, 50.0), NO_DRAWS)
        out = sample_model(model, 2000, np.full(3, -50.0), np.full(3, 50.0),
                           np.random.default_rng(5))
        assert np.allclose(out.mean(axis=0), data.mean(axis=0),
                           atol=0.1 * np.sqrt(np.diag(cov)))
        sample_cov = np.cov(out.T)
        data_cov = np.cov(data.T)
        assert np.all(np.abs(sample_cov - data_cov)
                      <= 0.1 * np.outer(np.sqrt(np.diag(data_cov)),
                                        np.sqrt(np.diag(data_cov))) + 0.05)


class TestCedaSample:
    def test_kernel_margins_solved_together_as_each_column(self):
        pop = mvn_population(3, 0.5, 120, 81)
        spec = make_spec("gceda", margin=MarginKind.KERNEL)
        model = learn_model(spec, pop, *BOUNDS3, NO_DRAWS)
        out = sample_model(model, 500, *BOUNDS3, np.random.default_rng(9))
        U = model.dependence.sample(500, 3, np.random.default_rng(9))
        for j in range(3):
            margin = fit_margin(MarginKind.KERNEL, pop[:, j],
                                BOUNDS3[0][j], BOUNDS3[1][j])
            assert np.array_equal(out[:, j], margin.quantile(U[:, j]))

    def test_no_margins_sample_empty_rows(self):
        for kind in MarginKind:
            margins = fit_margin(kind, np.zeros((4, 0)), np.zeros(0),
                                 np.zeros(0))
            out = sample_model(SearchModel(margins, ProductDependence()), 5,
                               np.zeros(0), np.zeros(0),
                               np.random.default_rng(0))
            assert out.shape == (5, 0)

    def test_product_independent_columns(self):
        pop = mvn_population(3, 0.9, 300, 6)
        model = learn_model(make_spec("umda"), pop, *BOUNDS3, NO_DRAWS)
        out = sample_model(model, 2000, *BOUNDS3, np.random.default_rng(7))
        for i, j in itertools.combinations(range(3), 2):
            assert abs(kendall_tau(out[:, i], out[:, j])) <= 0.05

    def test_identity_correlation_matches_product(self):
        margins = learn_model(make_spec("umda"),
                              mvn_population(2, 0.0, 300, 8),
                              np.full(2, -10.0), np.full(2, 10.0),
                              NO_DRAWS).margins
        model = SearchModel(margins, NormalDependence(np.eye(2)))
        out = sample_model(model, 2000, np.full(2, -10.0), np.full(2, 10.0),
                           np.random.default_rng(9))
        assert abs(kendall_tau(out[:, 0], out[:, 1])) <= 0.05

    def test_pearson_correlation_transfers(self):
        margins = learn_model(make_spec("umda"),
                              mvn_population(2, 0.0, 300, 10),
                              np.full(2, -10.0), np.full(2, 10.0),
                              NO_DRAWS).margins
        R = np.array([[1.0, 0.707], [0.707, 1.0]])
        model = SearchModel(margins, NormalDependence(R))
        out = sample_model(model, 2000, np.full(2, -10.0), np.full(2, 10.0),
                           np.random.default_rng(11))
        assert np.corrcoef(out.T)[0, 1] == pytest.approx(0.707, abs=0.07)


class TestVedaLearnSample:
    def test_independent_data_learns_product_vine(self):
        rng = np.random.default_rng(12)
        pop = rng.random((300, 4))
        spec = make_spec("cveda")
        model = learn_model(spec, pop, np.zeros(4), np.ones(4), rng)
        vine = model.dependence.vine
        products = sum(c.family is CopulaFamily.PRODUCT
                       for tree in vine.trees for c in tree)
        assert products >= 5  # out of 6 edges
        out = sample_model(model, 2000, np.zeros(4), np.ones(4),
                           np.random.default_rng(13))
        for i, j in itertools.combinations(range(4), 2):
            assert abs(kendall_tau(out[:, i], out[:, j])) <= 0.06

    def test_two_variable_normal_pair(self):
        pop = mvn_population(2, 0.8, 400, 14)
        spec = make_spec("cveda")
        model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0),
                            np.random.default_rng(15))
        c = model.dependence.vine.trees[0][0]
        assert c.family is CopulaFamily.NORMAL
        assert c.theta == pytest.approx(0.8, abs=0.05)

    def test_candidate_restriction(self):
        pop = mvn_population(4, 0.6, 300, 16)
        spec = make_spec("dveda", copulas=(CopulaFamily.NORMAL,))
        model = learn_model(spec, pop, np.full(4, -10.0), np.full(4, 10.0),
                            np.random.default_rng(17))
        for tree in model.dependence.vine.trees:
            for c in tree:
                assert c.family in (CopulaFamily.NORMAL, CopulaFamily.PRODUCT)

    def test_round_trip_preserves_tree_one_taus(self):
        pop = mvn_population(3, 0.6, 1000, 18)
        spec = make_spec("cveda", trunc_criterion="none")
        rng = np.random.default_rng(19)
        model = learn_model(spec, pop, np.full(3, -10.0), np.full(3, 10.0),
                            rng)
        out = sample_model(model, 1500, np.full(3, -10.0), np.full(3, 10.0),
                           rng)
        refit = learn_model(spec, out, np.full(3, -10.0),
                            np.full(3, 10.0), rng)
        original = sorted(abs(c.theta) for c in model.dependence.vine.trees[0])
        recovered = sorted(abs(c.theta) for c in refit.dependence.vine.trees[0])
        for a, b in zip(original, recovered):
            assert abs(2 * math.asin(a) / math.pi
                       - 2 * math.asin(b) / math.pi) <= 0.1

    def test_truncnorm_margins_respect_bounds(self):
        rng = np.random.default_rng(20)
        pop = rng.uniform(-1.0, 1.0, size=(200, 3))
        spec = make_spec("cveda", margin=MarginKind.TRUNC_NORMAL)
        model = learn_model(spec, pop, np.full(3, -1.0), np.full(3, 1.0), rng)
        out = sample_model(model, 2000, np.full(3, -1.0), np.full(3, 1.0), rng)
        assert np.all(out >= -1.0)
        assert np.all(out <= 1.0)


class TestChainPermutation:
    def test_strict_chain_recovered_brute_force(self):
        # mutual information pattern of a chain 0-1-2-3
        mi = np.zeros((4, 4))
        for i, j, val in [(0, 1, 1.0), (1, 2, 0.9), (2, 3, 0.8)]:
            mi[i, j] = mi[j, i] = val
        mi[0, 2] = mi[2, 0] = 0.05
        perm = chain_permutation(mi)

        def chain_weight(p):
            return sum(mi[p[k], p[k + 1]] for k in range(3))

        brute = max(itertools.permutations(range(4)), key=chain_weight)
        assert chain_weight(perm) == pytest.approx(chain_weight(brute))
        assert perm in ((0, 1, 2, 3), (3, 2, 1, 0))

    def test_two_variables(self):
        mi = np.array([[0.0, 0.3], [0.3, 0.0]])
        assert sorted(chain_permutation(mi)) == [0, 1]


class TestCopulaMimic:
    def test_two_variable_model(self):
        pop = mvn_population(2, 0.7, 150, 21)
        spec = make_spec("copula-mimic", margin=MarginKind.BETA_RESCALED)
        model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0),
                            np.random.default_rng(22))
        dep = model.dependence
        assert isinstance(dep, ChainDependence)
        assert sorted(dep.perm) == [0, 1]
        assert len(dep.copulas) == 1
        assert dep.copulas[0].family is CopulaFamily.NORMAL

    def test_chain_recovery_on_ar_data(self):
        # unit-variance chain with link strength decreasing away from the
        # 0-end, so consecutive dependence dominates everywhere the greedy
        # prepend-only construction looks
        rng = np.random.default_rng(23)
        m = 400
        coeffs = [0.95, 0.9, 0.85]
        x = np.empty((m, 4))
        x[:, 0] = rng.standard_normal(m)
        for j, c in enumerate(coeffs, start=1):
            x[:, j] = c * x[:, j - 1] + math.sqrt(1 - c * c) * rng.standard_normal(m)
        spec = make_spec("copula-mimic")
        model = learn_model(spec, x, np.full(4, -60.0),
                            np.full(4, 60.0), np.random.default_rng(24))
        perm = model.dependence.perm
        assert perm in ((0, 1, 2, 3), (3, 2, 1, 0))

    def test_frank_chain_supported(self):
        pop = mvn_population(3, 0.5, 120, 25)
        spec = make_spec("copula-mimic", copulas=(CopulaFamily.FRANK,))
        model = learn_model(spec, pop, np.full(3, -10.0), np.full(3, 10.0),
                            np.random.default_rng(26))
        for c in model.dependence.copulas:
            assert c.family in (CopulaFamily.FRANK, CopulaFamily.PRODUCT)

    def test_ml_refinement_close_to_truth(self):
        pop = mvn_population(2, 0.6, 500, 27)
        spec = make_spec("copula-mimic")
        model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0),
                            np.random.default_rng(28))
        assert model.dependence.copulas[0].theta == pytest.approx(0.6, abs=0.07)

    def test_sampling_preserves_chain_tau(self):
        pop = mvn_population(2, 0.8, 400, 29)
        spec = make_spec("copula-mimic")
        model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0),
                            np.random.default_rng(30))
        out = sample_model(model, 2000, np.full(2, -10.0), np.full(2, 10.0),
                           np.random.default_rng(31))
        expected_tau = 2 * math.asin(0.8) / math.pi
        assert kendall_tau(out[:, 0], out[:, 1]) == pytest.approx(
            expected_tau, abs=0.06)


def normal_pair(rho, m, seed, scale=1.0):
    """(m, 2) margin-CDF values of a normal pair; scale != 1 makes the
    margins wrong, so S differs from 2m."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, 2)) @ np.linalg.cholesky(
        [[1.0, rho], [rho, 1.0]]).T
    return special.ndtr(scale * z)


def grid_max_loglik(U2, points=4001):
    return max(copula_loglik(normal(r), U2)
               for r in np.linspace(-RHO_MAX, RHO_MAX, points))


def brent_rho(U2):
    res = minimize_scalar(lambda r: -copula_loglik(normal(r), U2),
                          bounds=(-RHO_MAX, RHO_MAX), method="bounded",
                          options={"xatol": 1e-6})
    return res.x


def assert_admissible_max(U2, rho):
    assert np.isfinite(rho) and -RHO_MAX <= rho <= RHO_MAX
    best = copula_loglik(normal(rho), U2)
    grid = grid_max_loglik(U2)
    assert np.isfinite(best)
    assert best >= grid - 1e-9 * max(1.0, abs(grid))


class TestNormalClosedForm:
    """The chain's normal links: one closed-form ML fit for every pair."""

    @pytest.mark.parametrize("rho,m,seed,scale", [
        (0.0, 52, 1, 1.0), (0.5, 52, 2, 1.0), (-0.8, 52, 3, 0.7),
        (0.95, 30, 4, 1.4), (-0.999, 52, 5, 1.0), (0.3, 8, 6, 2.5),
        (0.7, 500, 7, 0.4)])
    def test_maximises_loglik_on_a_grid(self, rho, m, seed, scale):
        U2 = normal_pair(rho, m, seed, scale)
        assert_admissible_max(U2, _normal_ml_rho(U2)[1, 0])

    def test_agrees_with_brent(self):
        rng = np.random.default_rng(40)
        for seed in range(60):
            U2 = normal_pair(rng.uniform(-0.99, 0.99), 52, 100 + seed,
                             rng.uniform(0.5, 1.5))
            assert _normal_ml_rho(U2)[1, 0] == pytest.approx(
                brent_rho(U2), abs=1e-6)

    def test_every_pair_of_a_matrix(self):
        U = special.ndtr(mvn_population(4, 0.6, 52, 41))
        rho = _normal_ml_rho(U)
        assert np.array_equal(rho, rho.T)
        assert np.all(np.diag(rho) == 0.0)
        for i, j in itertools.combinations(range(4), 2):
            assert rho[i, j] == _normal_ml_rho(U[:, [i, j]])[1, 0]

    def test_two_rows(self):
        U2 = np.array([[0.2, 0.3], [0.9, 0.6]])
        assert_admissible_max(U2, _normal_ml_rho(U2)[1, 0])

    @pytest.mark.parametrize("x", [[0.3, 0.8, 0.6, 0.1],
                                   [1e-6, 1 - 1e-6, 0.5, 1e-5]])
    def test_zero_cross_product(self, x):
        # v = 1/2 gives y = 0 exactly, so C = 0; the second sample has
        # S > m, where the only real root is 0
        U2 = np.column_stack([x, np.full(4, 0.5)])
        assert_admissible_max(U2, _normal_ml_rho(U2)[1, 0])

    def test_identical_columns(self):
        u = normal_pair(0.0, 52, 42)[:, 0]
        assert _normal_ml_rho(np.column_stack([u, u]))[1, 0] == RHO_MAX

    def test_antithetic_columns(self):
        u = normal_pair(0.0, 52, 43)[:, 0]
        assert _normal_ml_rho(np.column_stack([u, 1.0 - u]))[1, 0] == -RHO_MAX

    def test_boundary_values_are_clipped(self):
        U2 = normal_pair(0.6, 52, 44)
        U2[:3, 0] = 0.0
        U2[3:6, 1] = 1.0
        U2[6, :] = (0.0, 1.0)
        rho = _normal_ml_rho(U2)[1, 0]
        assert_admissible_max(U2, rho)
        assert rho == _normal_ml_rho(np.clip(U2, 1e-10, 1 - 1e-10))[1, 0]

    def test_learning_a_normal_chain_draws_nothing(self):
        pop = mvn_population(4, 0.5, 60, 45)
        rng = np.random.default_rng(46)
        state = rng.bit_generator.state
        model = learn_model(make_spec("copula-mimic"), pop, np.full(4, -10.0),
                            np.full(4, 10.0), rng)
        assert rng.bit_generator.state == state
        dep = model.dependence
        U = model.margins.cdf(pop)
        rho = _normal_ml_rho(U)
        assert [c.theta for c in dep.copulas] == [
            rho[a, b] for a, b in zip(dep.perm, dep.perm[1:])]


class TestDispatchAndIntrospection:
    @pytest.mark.parametrize("algorithm", ["umda", "gceda", "cveda", "dveda",
                                           "copula-mimic"])
    def test_every_learned_model_samples(self, algorithm):
        pop = mvn_population(3, 0.5, 60, 32)
        spec = make_spec(algorithm, pop_size=40)
        model = learn_model(spec, pop, *BOUNDS3, run_rng(1, 2))
        for pop_size in (1, 7):
            out = sample_model(model, pop_size, *BOUNDS3, run_rng(3, 4))
            assert out.shape == (pop_size, 3)
            assert np.all(np.isfinite(out))

    def test_family_counts(self):
        pop = mvn_population(3, 0.7, 200, 33)
        spec = make_spec("cveda")
        model = learn_model(spec, pop, *BOUNDS3, run_rng(5, 6))
        counts = model.dependence.family_counts()
        assert sum(counts.values()) == 3  # all pair copulas of a 3-dim vine

    def test_describe_mentions_structure(self):
        pop = mvn_population(2, 0.5, 100, 34)
        model = learn_model(make_spec("gceda"), pop,
                            np.full(2, -10.0), np.full(2, 10.0), run_rng(7, 8))
        text = describe_search_model(model)
        assert "normal copula" in text
        assert "margin 0" in text

    def test_describe_and_counts_of_each_structure(self):
        margins = NormalMargin(np.array([0.0, 2.0]), np.array([1.0, 0.5]))
        head = ("margin 0: NormalMargin(mu=0.0, sigma=1.0)\n"
                "margin 1: NormalMargin(mu=2.0, sigma=0.5)\n")
        vine = RVineModel(VineType.DVINE, (1, 0),
                          ((student(0.5, 4.0),),), 1)
        cases = [
            (ProductDependence(), "dependence: product", {}),
            (NormalDependence(np.array([[1.0, 0.25], [0.25, 1.0]])),
             "dependence: normal copula, correlation=\n"
             "[[1.   0.25]\n [0.25 1.  ]]", {}),
            (VineDependence(vine),
             "dependence: dvine order=1,0 trunc_level=1\n"
             "tree 1: student(rho=0.5,nu=4)", {"student": 1}),
            (ChainDependence((1, 0), (clayton(2.0),)),
             "dependence: chain perm=1,0\nlink 0: clayton(theta=2)",
             {"clayton": 1}),
        ]
        for dependence, text, nonzero in cases:
            model = SearchModel(margins, dependence)
            assert describe_search_model(model) == head + text
            assert dependence.family_counts() == {
                f.value: nonzero.get(f.value, 0) for f in CopulaFamily}
