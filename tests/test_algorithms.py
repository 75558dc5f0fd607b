import inspect
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.optimize import minimize_scalar

from copeda.algorithms import (
    ChainDependence,
    NormalDependence,
    ProductDependence,
    SearchModel,
    VineDependence,
    _DEPENDENCE,
    _cubic_real_parts,
    _normal_ml_rho,
    chain_permutation,
    describe_search_model,
    learn_model,
    sample_model,
)
from copeda.copulas import (
    INTERIOR_EPS,
    RHO_MAX,
    CopulaFamily,
    clayton,
    copula_hinv,
    copula_loglik,
    fit_frank,
    frank,
    gumbel,
    normal,
    student,
)
from copeda.dependence import copula_mutual_information, kendall_tau
from copeda.eda import EdaSpec, TerminationSpec, run_rng
from copeda.margins import (BetaRescaledMargin, MarginKind, NormalMargin,
                            fit_margin)
from copeda.vines import RVineModel, VineType


def make_spec(algorithm, pop_size=100, margin=MarginKind.NORMAL,
              copulas=(CopulaFamily.NORMAL,), **kwargs):
    return EdaSpec(algorithm, pop_size, TerminationSpec(max_gen=10),
                   margin=margin, copulas=copulas, **kwargs)


def test_chain_algorithm_defaults_to_beta_margins():
    spec = EdaSpec("copula-mimic", 50, TerminationSpec(max_gen=5))
    pop = mvn_population(2, 0.5, 80, 77)
    model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0))
    assert isinstance(model.margins, BetaRescaledMargin)


def test_gceda_kernel_margins_use_tau_inversion():
    import math as _math
    from copeda.dependence import kendall_tau as _kt
    pop = mvn_population(2, 0.7, 200, 79)
    spec = make_spec("gceda", margin=MarginKind.KERNEL)
    model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0))
    expected = _math.sin(_math.pi * _kt(pop[:, 0], pop[:, 1]) / 2.0)
    assert model.dependence.correlation[0, 1] == pytest.approx(expected,
                                                               abs=1e-12)


def test_gceda_tau_inversion_is_symmetric_on_ties():
    # the tau matrix is orientation-exact, and on columns with unequal tie
    # counts its two triangles round apart; pair {i, j}, i < j, takes the
    # tau of (X_i, X_j) in both triangles
    pop = np.round(np.random.default_rng(91).random((60, 4))
                   * [3.0, 8.0, 20.0, 1000.0])
    spec = make_spec("gceda", margin=MarginKind.KERNEL)
    R = learn_model(spec, pop, np.full(4, -1.0),
                    np.full(4, 1001.0)).dependence.correlation
    assert R.tobytes() == R.T.copy().tobytes()
    flipped = 0
    for i, j in itertools.combinations(range(4), 2):
        tau = kendall_tau(pop[:, i], pop[:, j])
        assert R[i, j].hex() == np.sin(np.pi * tau / 2.0).hex()
        flipped += tau != kendall_tau(pop[:, j], pop[:, i])
    assert flipped


def test_gceda_normal_margins_use_pearson():
    pop = mvn_population(2, 0.7, 200, 80)
    spec = make_spec("gceda", margin=MarginKind.NORMAL)
    model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0))
    expected = np.corrcoef(pop.T)[0, 1]
    assert model.dependence.correlation[0, 1] == pytest.approx(expected,
                                                               abs=1e-12)


class Raw:
    """Margins whose ``quantile`` and ``from_scores`` return their input,
    so a structure's ``sample`` returns its draw: uniforms or scores."""

    @staticmethod
    def quantile(p):
        return p

    @staticmethod
    def from_scores(z):
        return z


RAW = Raw()


def mvn_population(n, rho, m, seed):
    rng = np.random.default_rng(seed)
    R = np.full((n, n), rho) + (1 - rho) * np.eye(n)
    chol = np.linalg.cholesky(R)
    return rng.standard_normal((m, n)) @ chol.T


BOUNDS3 = (np.array([-10.0] * 3), np.array([10.0] * 3))


class TestCedaLearn:
    def test_umda_always_product(self):
        pop = mvn_population(3, 0.9, 200, 1)
        model = learn_model(make_spec("umda"), pop, *BOUNDS3)
        assert isinstance(model.dependence, ProductDependence)

    def test_gceda_clips_comonotone_pair(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        pop = np.column_stack([x, 2.0 * x + 1.0, rng.standard_normal(100)])
        model = learn_model(make_spec("gceda"), pop, *BOUNDS3)
        R = model.dependence.correlation
        assert R[0, 1] < 1.0
        np.linalg.cholesky(R)

    def test_gceda_correlation_is_factorizable(self):
        pop = mvn_population(3, 0.7, 150, 3)
        model = learn_model(make_spec("gceda"), pop, *BOUNDS3)
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
                            np.full(3, -50.0), np.full(3, 50.0))
        out = sample_model(model, 2000, np.random.default_rng(5))
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
        model = learn_model(spec, pop, *BOUNDS3)
        out = sample_model(model, 500, np.random.default_rng(9))
        Z = model.dependence.sample(RAW, 500, np.random.default_rng(9))
        for j in range(3):
            margin = fit_margin(MarginKind.KERNEL, pop[:, j],
                                BOUNDS3[0][j], BOUNDS3[1][j])
            assert np.array_equal(out[:, j],
                                  margin.quantile(special.ndtr(Z[:, j])))

    def test_no_margins_sample_empty_rows(self):
        for kind in MarginKind:
            margins = fit_margin(kind, np.zeros((4, 0)), np.zeros(0),
                                 np.zeros(0))
            out = sample_model(SearchModel(margins, ProductDependence(0)), 5,
                               np.random.default_rng(0))
            assert out.shape == (5, 0)

    def test_product_independent_columns(self):
        pop = mvn_population(3, 0.9, 300, 6)
        model = learn_model(make_spec("umda"), pop, *BOUNDS3)
        out = sample_model(model, 2000, np.random.default_rng(7))
        for i, j in itertools.combinations(range(3), 2):
            assert abs(kendall_tau(out[:, i], out[:, j])) <= 0.05

    def test_identity_correlation_matches_product(self):
        margins = learn_model(make_spec("umda"),
                              mvn_population(2, 0.0, 300, 8),
                              np.full(2, -10.0), np.full(2, 10.0)).margins
        model = SearchModel(margins, NormalDependence(np.eye(2)))
        out = sample_model(model, 2000, np.random.default_rng(9))
        assert abs(kendall_tau(out[:, 0], out[:, 1])) <= 0.05

    def test_product_draws_one_score_block(self):
        rng, twin = np.random.default_rng(37), np.random.default_rng(37)
        Z = ProductDependence(4).sample(RAW, 50, rng)
        assert Z.tobytes() == twin.standard_normal((50, 4)).tobytes()

    def test_normal_copula_draws_one_score_block_through_cholesky(self):
        R = np.array([[1.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.0]])
        rng, twin = np.random.default_rng(38), np.random.default_rng(38)
        Z = NormalDependence(R).sample(RAW, 50, rng)
        expected = twin.standard_normal((50, 3)) @ np.linalg.cholesky(R).T
        assert Z.tobytes() == expected.tobytes()

    def test_pearson_correlation_transfers(self):
        margins = learn_model(make_spec("umda"),
                              mvn_population(2, 0.0, 300, 10),
                              np.full(2, -10.0), np.full(2, 10.0)).margins
        R = np.array([[1.0, 0.707], [0.707, 1.0]])
        model = SearchModel(margins, NormalDependence(R))
        out = sample_model(model, 2000, np.random.default_rng(11))
        assert np.corrcoef(out.T)[0, 1] == pytest.approx(0.707, abs=0.07)


GAUSSIAN_STRUCTURES = pytest.mark.parametrize("dependence", [
    ProductDependence(3),
    NormalDependence(np.array([[1.0, 0.6, -0.3], [0.6, 1.0, 0.2],
                               [-0.3, 0.2, 1.0]])),
    ChainDependence((2, 0, 1), (normal(0.8), normal(-0.5))),
], ids=["product", "normal-copula", "normal-chain"])


class TestScoreRoute:
    """Gaussian structures hand normal scores to ``margins.from_scores``."""

    @GAUSSIAN_STRUCTURES
    @pytest.mark.parametrize("kind", [MarginKind.KERNEL,
                                      MarginKind.TRUNC_NORMAL,
                                      MarginKind.BETA_RESCALED])
    def test_other_margins_take_the_quantile_of_ndtr(self, dependence, kind):
        margins = fit_margin(kind, mvn_population(3, 0.5, 120, 35), *BOUNDS3)
        out = sample_model(SearchModel(margins, dependence), 300,
                           np.random.default_rng(36))
        Z = dependence.sample(RAW, 300, np.random.default_rng(36))
        assert out.tobytes() == margins.quantile(special.ndtr(Z)).tobytes()

    @pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (3.0, 0.5),
                                          (-250.0, 1e-3), (1e3, 40.0)])
    def test_normal_margin_skips_the_uniform_round_trip(self, mu, sigma):
        # mu + sigma z against the mu + sigma ndtri(clip(ndtr(z))) that
        # quantile gives, for |z| <= 7, inside the 1e-12 clip: the round
        # trip moves z by ndtr's rounding at z, about eps / phi(z), so the
        # two agree within 2 (sigma eps / phi(z) + one ulp of the result).
        rng = np.random.default_rng(37)
        z = np.concatenate([np.linspace(-7.0, 7.0, 20001),
                            rng.standard_normal(20000)])
        z = z[np.abs(z) <= 7.0]
        margin = NormalMargin(mu, sigma)
        new = margin.from_scores(z)
        old = margin.quantile(special.ndtr(z))
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        eps = np.finfo(float).eps
        assert np.all(np.abs(new - old)
                      <= 2.0 * (sigma * eps / phi + np.spacing(np.abs(new))))

    def test_umda_columns_have_the_margin_moments(self):
        # m normal draws per column: the sample mean is within 4.5 standard
        # errors sigma / sqrt(m) of mu, and the sample sd within 4.5 of its
        # standard error, about sigma / sqrt(2 (m - 1))
        mu, sigma = np.array([1.0, -2.0, 0.0]), np.array([0.5, 2.0, 1e-3])
        m = 40000
        out = sample_model(SearchModel(NormalMargin(mu, sigma),
                                       ProductDependence(3)),
                           m, np.random.default_rng(38))
        assert np.all(np.abs(out.mean(axis=0) - mu)
                      <= 4.5 * sigma / math.sqrt(m))
        assert np.all(np.abs(out.std(axis=0, ddof=1) - sigma)
                      <= 4.5 * sigma / math.sqrt(2.0 * (m - 1)))


class TestVedaLearnSample:
    def test_independent_data_learns_product_vine(self):
        rng = np.random.default_rng(12)
        pop = rng.random((300, 4))
        spec = make_spec("cveda")
        model = learn_model(spec, pop, np.zeros(4), np.ones(4))
        # a truncated pair counts as product
        assert model.dependence.family_counts()["product"] >= 5  # of 6
        out = sample_model(model, 2000, np.random.default_rng(13))
        for i, j in itertools.combinations(range(4), 2):
            assert abs(kendall_tau(out[:, i], out[:, j])) <= 0.06

    def test_two_variable_normal_pair(self):
        pop = mvn_population(2, 0.8, 400, 14)
        spec = make_spec("cveda")
        model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0))
        c = model.dependence.vine.trees[0][0]
        assert c.family is CopulaFamily.NORMAL
        assert c.theta == pytest.approx(0.8, abs=0.05)

    def test_candidate_restriction(self):
        pop = mvn_population(4, 0.6, 300, 16)
        spec = make_spec("dveda", copulas=(CopulaFamily.NORMAL,))
        model = learn_model(spec, pop, np.full(4, -10.0), np.full(4, 10.0))
        for tree in model.dependence.vine.trees:
            for c in tree:
                assert c.family in (CopulaFamily.NORMAL, CopulaFamily.PRODUCT)

    def test_round_trip_preserves_tree_one_taus(self):
        pop = mvn_population(3, 0.6, 1000, 18)
        spec = make_spec("cveda", trunc_criterion="none")
        rng = np.random.default_rng(19)
        model = learn_model(spec, pop, np.full(3, -10.0), np.full(3, 10.0))
        out = sample_model(model, 1500, rng)
        refit = learn_model(spec, out, np.full(3, -10.0), np.full(3, 10.0))
        original = sorted(abs(c.theta) for c in model.dependence.vine.trees[0])
        recovered = sorted(abs(c.theta) for c in refit.dependence.vine.trees[0])
        for a, b in zip(original, recovered):
            assert abs(2 * math.asin(a) / math.pi
                       - 2 * math.asin(b) / math.pi) <= 0.1

    def test_truncnorm_margins_respect_bounds(self):
        rng = np.random.default_rng(20)
        pop = rng.uniform(-1.0, 1.0, size=(200, 3))
        spec = make_spec("cveda", margin=MarginKind.TRUNC_NORMAL)
        model = learn_model(spec, pop, np.full(3, -1.0), np.full(3, 1.0))
        out = sample_model(model, 2000, rng)
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

    @staticmethod
    def numpy_scalar_permutation(mi):
        """The greedy chain indexing numpy scalars: the reference."""
        n = mi.shape[0]
        if n < 2:
            return tuple(range(n))
        best = (-np.inf, 1, 0)
        for i in range(1, n):
            for j in range(i):
                if mi[i, j] > best[0]:
                    best = (mi[i, j], i, j)
        perm = [best[1], best[2]]
        while len(perm) < n:
            head = perm[0]
            candidates = [k for k in range(n) if k not in perm]
            perm.insert(0, max(candidates, key=lambda c: (mi[c, head], -c)))
        return tuple(perm)

    @given(data=st.data(), n=st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_scalar_reference_on_ties(self, data, n):
        # entries from {0, 0.5, 1}, so ties decide most choices
        upper = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                   min_size=n * (n - 1) // 2,
                                   max_size=n * (n - 1) // 2))
        mi = np.zeros((n, n))
        i, j = np.triu_indices(n, 1)
        mi[i, j] = mi[j, i] = upper
        assert chain_permutation(mi) == self.numpy_scalar_permutation(mi)


# written by scripts/frank_mutual_information.py (mpmath, 30 digits)
FRANK_MI_TABLE = pathlib.Path(__file__).parent / "data" / \
    "frank_mutual_information.csv"


def frank_mutual_information(theta):
    """log(t / (1 - e^-t)) + 2 D1(t) - 2 at t = |theta|, the first Debye
    function D1 by 64-point Gauss-Legendre over [0, min(t, 40)] (past 40
    its integrand s / (e^s - 1) adds below 1e-15); 0 at theta = 0."""
    t = abs(theta)
    if t == 0.0:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    top = min(t, 40.0)
    s = 0.5 * top * (nodes + 1.0)
    debye = 0.5 * top * np.sum(weights * s / np.expm1(s)) / t
    return -math.log(-math.expm1(-t) / t) + 2.0 * debye - 2.0


class TestChainRanking:
    """copula-MIMIC ranks links by |theta|, which orders them as their
    mutual information does."""

    def test_frank_mutual_information_rises_strictly(self):
        theta, mi = np.loadtxt(FRANK_MI_TABLE, delimiter=",", skiprows=1,
                               unpack=True)
        assert (theta.size, theta[0], theta[-1]) == (300, 1e-3, 300.0)
        assert np.all(np.diff(theta) > 0.0)
        assert np.all(np.diff(mi) > 0.0)
        # the tests' float64 reference, against the table
        assert np.allclose([frank_mutual_information(t) for t in theta], mi,
                           rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("family", [CopulaFamily.NORMAL,
                                        CopulaFamily.FRANK])
    def test_learned_chain_is_the_mutual_information_chain(self, family):
        # two-factor samples: strong, weak, positive and negative links
        rng = np.random.default_rng(47)
        spec = make_spec("copula-mimic", copulas=(family,))
        n = 5
        i, j = np.triu_indices(n, 1)
        negative = 0
        for _ in range(24):
            loadings = rng.uniform(-1.0, 1.0, (n, 2))
            pop = (rng.standard_normal((60, 2)) @ loadings.T
                   + 0.6 * rng.standard_normal((60, n)))
            model = learn_model(spec, pop, np.full(n, -60.0),
                                np.full(n, 60.0))
            if family is CopulaFamily.NORMAL:
                theta = _normal_ml_rho(model.margins.to_scores(pop))
                mi = np.vectorize(lambda r: copula_mutual_information(
                    normal(r)))(theta)
            else:
                U = model.margins.cdf(pop)
                theta = np.zeros((n, n))
                for a, b in zip(i, j):
                    theta[a, b] = theta[b, a] = fit_frank(U[:, [b, a]]).theta
                mi = np.vectorize(frank_mutual_information)(theta)
            strengths = np.sort(np.abs(theta[i, j]))
            assert np.all(np.diff(strengths) > 1e-6 * strengths[1:])
            negative += np.count_nonzero(theta[i, j] < 0.0)
            assert model.dependence.perm == chain_permutation(mi)
        assert negative >= 24


class FixedUniforms:
    """Stands in for a Generator whose ``random`` returns set values."""

    def __init__(self, values):
        self.values = values

    def random(self, shape):
        assert shape == self.values.shape
        return self.values.copy()


class FixedNormals:
    """Stands in for a Generator whose ``standard_normal`` returns set
    values."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, shape):
        assert shape == self.values.shape
        return self.values.copy()


class TestChainSample:
    @staticmethod
    def copula_hinv_loop(dep, W):
        """The chain sampler as a loop of public ``copula_hinv`` calls,
        each clipping its own inputs: the reference."""
        n, m = W.shape
        U = np.empty((m, n))
        U[:, dep.perm[-1]] = W[0]
        for k in range(n - 2, -1, -1):
            U[:, dep.perm[k]] = copula_hinv(dep.copulas[k], W[n - 1 - k],
                                            U[:, dep.perm[k + 1]])
        return U

    @pytest.mark.parametrize("copulas", [
        (normal(0.7), frank(5.0), frank(-4.0), clayton(2.0), gumbel(3.0)),
        (gumbel(15.0), frank(30.0), frank(-30.0), clayton(20.0),
         normal(-0.999)),
    ], ids=["moderate", "strong"])
    def test_matches_copula_hinv_loop_bit_for_bit(self, copulas):
        # the sampler's (m, n) block drives draw r by column r, the loop's
        # (n, m) block by row r
        n, m = 6, 64
        W = np.random.default_rng(31).random((m, n))
        # exact 0, the largest double below 1 and the smallest subnormal in
        # every column, so the p clip binds; column 0, the last slot's
        # uniforms, also straddles the interior clip
        W[:3] = np.array([[0.0], [1.0 - 2.0**-53], [5e-324]])
        W[3:6, 0] = [1e-12, 1.0 - 1e-12, 0.5]
        dep = ChainDependence((3, 0, 5, 1, 4, 2), copulas)
        U = dep.sample(RAW, m, FixedUniforms(W))
        assert U.tobytes() == self.copula_hinv_loop(dep, W.T).tobytes()

    @staticmethod
    def fixed_scores(n=6, m=64):
        """An (m, n) block of normal scores for the all-normal chain:
        column 0, the last slot's, straddles +-6.36, the ``ndtri`` of the
        interior clip, and row 2 sits deep in the lower tail, where ``ndtr``
        is still exact enough for the loop's round trip."""
        G = np.random.default_rng(31).standard_normal((m, n))
        G[:2, 0] = [-6.5, 6.5]
        G[2] = -8.0
        return G

    @staticmethod
    def score_recurrence(dep, G):
        """The all-normal chain's normal scores, a row at a time,
        y <- sqrt(1 - rho^2) g + rho y: the reference of the factor."""
        n, m = G.shape
        Z = np.empty((m, n))
        y = Z[:, dep.perm[-1]] = G[0]
        for k in range(n - 2, -1, -1):
            rho = dep.copulas[k].theta
            y = Z[:, dep.perm[k]] = (G[n - 1 - k] * math.sqrt(1.0 - rho * rho)
                                     + rho * y)
        return Z

    NORMAL_CHAINS = pytest.mark.parametrize("rhos", [
        (0.7, -0.4, 0.2, -0.9, 0.5),
        (0.999, -0.999, 0.999, 0.999, -0.999),
        (0.999, 0.3, -0.999, -0.6, 0.999),
    ], ids=["moderate", "strong", "mixed"])

    @NORMAL_CHAINS
    def test_normal_chain_matches_score_recurrence(self, rhos):
        # A score is sum_k F[v, k] g_k, |F| <= 1, with each F entry a
        # product of at most n rounded factors: the factor's product and the
        # recurrence each come within (2n + 2) eps sum_k |g_k| of it, so
        # within twice that of each other.
        n, m = 6, 64
        G = self.fixed_scores(n, m)
        dep = ChainDependence((3, 0, 5, 1, 4, 2), tuple(map(normal, rhos)))
        Z = dep.sample(RAW, m, FixedNormals(G))
        tol = 4.0 * (n + 1) * np.finfo(float).eps * np.abs(G).sum(axis=1)
        assert np.all(np.abs(Z - self.score_recurrence(dep, G.T))
                      <= tol[:, None])

    @NORMAL_CHAINS
    def test_factor_is_the_markov_correlation(self, rhos):
        # F F^T has the product of the link rhos between two slots, 1 on
        # the diagonal, each entry a sum of n products of at most 2n
        # rounded factors; in draw order F is lower-triangular
        n, perm = 6, (3, 0, 5, 1, 4, 2)
        F = ChainDependence(perm, tuple(map(normal, rhos))).factor
        R = F @ F.T
        for a, b in itertools.product(range(n), repeat=2):
            rho = math.prod(rhos[min(a, b):max(a, b)])
            assert abs(R[perm[a], perm[b]] - rho) <= 4.0 * n * np.finfo(
                float).eps, (a, b)
        drawn = F[list(perm[::-1])]
        assert np.array_equal(drawn, np.tril(drawn))

    @pytest.mark.parametrize("perm", [(), (0,)], ids=["n0", "n1"])
    def test_normal_chain_of_fewer_than_two_variables(self, perm):
        n, m = len(perm), 5
        dep = ChainDependence(perm, ())
        assert np.array_equal(dep.factor, np.eye(n))
        rng, twin = np.random.default_rng(34), np.random.default_rng(34)
        Z = dep.sample(RAW, m, rng)
        assert Z.shape == (m, n)
        assert np.array_equal(Z, twin.standard_normal((m, n)))

    @NORMAL_CHAINS
    def test_normal_chain_draws_one_score_block(self, rhos):
        n, m = 6, 64
        dep = ChainDependence((3, 0, 5, 1, 4, 2), tuple(map(normal, rhos)))
        rng, twin = np.random.default_rng(32), np.random.default_rng(32)
        Z = dep.sample(RAW, m, rng)
        G = twin.standard_normal((m, n))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert Z.tobytes() == dep.sample(RAW, m, FixedNormals(G)).tobytes()
        # the last slot's scores are the block's first column as drawn
        assert np.array_equal(Z[:, 2], G[:, 0])

    @NORMAL_CHAINS
    def test_normal_chain_close_to_copula_hinv_loop(self, rhos):
        # The loop, fed W = ndtr(G), also rounds every score through ndtr
        # and ndtri, and it clamps a score past +-6.36 (the ndtri of the
        # interior clip) where the normal chain keeps it.  Samples whose loop
        # outputs are strictly interior never clamp, and the ndtr of their
        # scores agrees with the loop within 1e-12; the fixture's extreme
        # samples clamp and may not.
        G = self.fixed_scores()
        dep = ChainDependence((3, 0, 5, 1, 4, 2), tuple(map(normal, rhos)))
        U = special.ndtr(dep.sample(RAW, 64, FixedNormals(G)))
        loop = self.copula_hinv_loop(dep, special.ndtr(G).T)
        unclamped = np.all((loop > 1e-10) & (loop < 1.0 - 1e-10), axis=1)
        assert unclamped.sum() >= 60
        assert np.allclose(U[unclamped], loop[unclamped], rtol=0.0,
                           atol=1e-12)

class TestCopulaMimic:
    def test_two_variable_model(self):
        pop = mvn_population(2, 0.7, 150, 21)
        spec = make_spec("copula-mimic", margin=MarginKind.BETA_RESCALED)
        model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0))
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
        model = learn_model(spec, x, np.full(4, -60.0), np.full(4, 60.0))
        perm = model.dependence.perm
        assert perm in ((0, 1, 2, 3), (3, 2, 1, 0))

    def test_frank_chain_supported(self):
        pop = mvn_population(3, 0.5, 120, 25)
        spec = make_spec("copula-mimic", copulas=(CopulaFamily.FRANK,))
        model = learn_model(spec, pop, np.full(3, -10.0), np.full(3, 10.0))
        for c in model.dependence.copulas:
            assert c.family in (CopulaFamily.FRANK, CopulaFamily.PRODUCT)

    def test_ml_refinement_close_to_truth(self):
        pop = mvn_population(2, 0.6, 500, 27)
        spec = make_spec("copula-mimic")
        model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0))
        assert model.dependence.copulas[0].theta == pytest.approx(0.6, abs=0.07)

    def test_sampling_preserves_chain_tau(self):
        pop = mvn_population(2, 0.8, 400, 29)
        spec = make_spec("copula-mimic")
        model = learn_model(spec, pop, np.full(2, -10.0), np.full(2, 10.0))
        out = sample_model(model, 2000, np.random.default_rng(31))
        expected_tau = 2 * math.asin(0.8) / math.pi
        assert kendall_tau(out[:, 0], out[:, 1]) == pytest.approx(
            expected_tau, abs=0.06)

    def test_sampled_chain_is_markov(self):
        # A Gaussian Markov chain: the correlation of any two slots is the
        # product of the link rhos between them, unlinked pairs included.
        rhos = (0.8, -0.6, 0.9, 0.5)
        perm = (2, 4, 0, 3, 1)
        dep = ChainDependence(perm, tuple(map(normal, rhos)))
        m = 200_000
        X = dep.sample(NormalMargin(0.0, 1.0), m, np.random.default_rng(33))
        R = np.corrcoef(X.T)
        for a, b in itertools.combinations(range(5), 2):
            rho = math.prod(rhos[a:b])
            se = (1.0 - rho * rho) / math.sqrt(m)
            assert abs(R[perm[a], perm[b]] - rho) < 5.0 * se, (a, b)


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


# the uniform margin on (0, 1): its cdf, betainc(1, 1, x), is x bit for
# bit, so its to_scores is the interior-clipped ndtri of U that every
# margin kind but the normal one hands the chain's learning
UNIFORM = BetaRescaledMargin(0.0, 1.0, 1.0, 1.0)


def ml_rho(U):
    """``_normal_ml_rho`` of uniforms U, through their normal scores."""
    return _normal_ml_rho(UNIFORM.to_scores(U))


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
        assert_admissible_max(U2, ml_rho(U2)[1, 0])

    def test_agrees_with_brent(self):
        rng = np.random.default_rng(40)
        for seed in range(60):
            U2 = normal_pair(rng.uniform(-0.99, 0.99), 52, 100 + seed,
                             rng.uniform(0.5, 1.5))
            assert ml_rho(U2)[1, 0] == pytest.approx(
                brent_rho(U2), abs=1e-6)

    def test_every_pair_of_a_matrix(self):
        U = special.ndtr(mvn_population(4, 0.6, 52, 41))
        rho = ml_rho(U)
        assert np.array_equal(rho, rho.T)
        assert np.all(np.diag(rho) == 0.0)
        for i, j in itertools.combinations(range(4), 2):
            assert rho[i, j] == ml_rho(U[:, [i, j]])[1, 0]

    def test_two_rows(self):
        U2 = np.array([[0.2, 0.3], [0.9, 0.6]])
        assert_admissible_max(U2, ml_rho(U2)[1, 0])

    @pytest.mark.parametrize("x", [[0.3, 0.8, 0.6, 0.1],
                                   [1e-6, 1 - 1e-6, 0.5, 1e-5]])
    def test_zero_cross_product(self, x):
        # v = 1/2 gives y = 0 exactly, so C = 0; the second sample has
        # S > m, where the only real root is 0
        U2 = np.column_stack([x, np.full(4, 0.5)])
        assert_admissible_max(U2, ml_rho(U2)[1, 0])

    def test_identical_columns(self):
        u = normal_pair(0.0, 52, 42)[:, 0]
        assert ml_rho(np.column_stack([u, u]))[1, 0] == RHO_MAX

    def test_antithetic_columns(self):
        u = normal_pair(0.0, 52, 43)[:, 0]
        assert ml_rho(np.column_stack([u, 1.0 - u]))[1, 0] == -RHO_MAX

    def test_boundary_values_are_clipped(self):
        U2 = normal_pair(0.6, 52, 44)
        U2[:3, 0] = 0.0
        U2[3:6, 1] = 1.0
        U2[6, :] = (0.0, 1.0)
        rho = ml_rho(U2)[1, 0]
        assert_admissible_max(U2, rho)
        assert rho == ml_rho(np.clip(U2, 1e-10, 1 - 1e-10))[1, 0]

    def test_learning_a_normal_chain_draws_nothing(self):
        # no generator goes in: the links are the ML rhos, ranked by |rho|
        pop = mvn_population(4, 0.5, 60, 45)
        model = learn_model(make_spec("copula-mimic"), pop, np.full(4, -10.0),
                            np.full(4, 10.0))
        dep = model.dependence
        rho = _normal_ml_rho(model.margins.to_scores(pop))
        assert dep.perm == chain_permutation(np.abs(rho))
        assert [c.theta for c in dep.copulas] == [
            rho[a, b] for a, b in zip(dep.perm, dep.perm[1:])]

    def test_beta_margins_learn_from_clipped_ndtri_of_the_cdf(self):
        # every margin kind but the normal one learns from its CDF values,
        # clipped to the interior and mapped by ndtri, bit for bit
        pop = mvn_population(4, 0.5, 60, 46)
        spec = make_spec("copula-mimic", margin=MarginKind.BETA_RESCALED)
        model = learn_model(spec, pop, np.full(4, -10.0), np.full(4, 10.0))
        dep = model.dependence
        rho = _normal_ml_rho(special.ndtri(np.clip(
            model.margins.cdf(pop), INTERIOR_EPS, 1.0 - INTERIOR_EPS)))
        assert dep.perm == chain_permutation(np.abs(rho))
        assert [c.theta for c in dep.copulas] == [
            rho[a, b] for a, b in zip(dep.perm, dep.perm[1:])]


def companion_real_parts(C, S, m):
    """Real parts of the roots of -m r^3 + C r^2 + (m - S) r + C from
    batched companion-matrix ``eigvals``: the reference, sorted."""
    companion = np.zeros((C.size, 3, 3))
    companion[:, 0] = np.column_stack([C, m - S, C]) / m
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    return np.sort(np.linalg.eigvals(companion).real, axis=1)


def closed_form_real_parts(C, S, m):
    return np.sort(_cubic_real_parts(-C / m, (S - m) / m, -C / m), axis=1)


class TestCubicRoots:
    """The closed-form roots of ``_normal_ml_rho``'s cubic against the
    companion-matrix eigenvalues."""

    @pytest.mark.parametrize("m", [2, 8, 52, 500])
    def test_random_coefficients(self, m):
        # S >= 2|C| holds for every sample: sum(x^2 + y^2) >= 2|sum(xy)|
        rng = np.random.default_rng(m)
        C = rng.uniform(-40.0, 40.0, 2000) * m
        S = 2.0 * np.abs(C) + rng.exponential(m, 2000) * rng.uniform(0, 3)
        assert np.allclose(closed_form_real_parts(C, S, m),
                           companion_real_parts(C, S, m),
                           rtol=1e-12, atol=1e-12)

    def test_zero_cross_product(self):
        # C = 0: roots 0 and +-sqrt(1 - S/m), real when S < m
        S = np.array([0.0, 10.0, 51.0, 52.0, 53.0, 200.0])
        C = np.zeros_like(S)
        assert np.allclose(closed_form_real_parts(C, S, 52),
                           companion_real_parts(C, S, 52), rtol=0.0,
                           atol=1e-12)

    def test_identical_or_antithetic_columns(self):
        # S = 2|C|: r = sign(C) is a root
        C = np.array([-5000.0, -52.0, -3.0, 1e-9, 7.0, 26.0, 52.0, 5000.0])
        r = closed_form_real_parts(C, 2.0 * np.abs(C), 52)
        assert np.allclose(r, companion_real_parts(C, 2.0 * np.abs(C), 52),
                           rtol=0.0, atol=1e-9)
        assert np.allclose(np.abs(r - np.sign(C)[:, None]).min(axis=1), 0.0,
                           atol=1e-9)

    @pytest.mark.parametrize("double", [-3.0, -1.5, 0.5, 2.0, 4.0])
    @pytest.mark.parametrize("nudge", [0.0, 1e-12, -1e-12, 1e-7, -1e-7])
    def test_near_double_roots(self, double, nudge):
        # roots (double, double, single) need sum = product, so single =
        # 2 double / (double^2 - 1); C/m is the sum, S/m - 1 the pairwise
        # products.  A double root is exact to sqrt(eps) in either form.
        m = 52
        single = 2.0 * double / (double * double - 1.0)
        C = np.array([m * (2.0 * double + single)])
        S = m * (1.0 + double * double + 2.0 * double * single) * (1.0 + nudge)
        S = np.array([S])
        assert np.allclose(closed_form_real_parts(C, S, m),
                           companion_real_parts(C, S, m), rtol=0.0,
                           atol=1e-6 * max(1.0, abs(double)))


class TestDispatchAndIntrospection:
    def test_learning_takes_no_generator(self):
        assert list(inspect.signature(learn_model).parameters) == [
            "spec", "X", "lower", "upper"]
        for structure in _DEPENDENCE.values():
            assert list(inspect.signature(structure.learn).parameters) == [
                "spec", "X", "margins"]

    @pytest.mark.parametrize("algorithm", ["umda", "gceda", "cveda", "dveda",
                                           "copula-mimic"])
    def test_every_learned_model_samples(self, algorithm):
        pop = mvn_population(3, 0.5, 60, 32)
        spec = make_spec(algorithm, pop_size=40)
        model = learn_model(spec, pop, *BOUNDS3)
        for pop_size in (1, 7):
            out = sample_model(model, pop_size, run_rng(3, 4))
            assert out.shape == (pop_size, 3)
            assert np.all(np.isfinite(out))

    def test_family_counts(self):
        pop = mvn_population(3, 0.7, 200, 33)
        spec = make_spec("cveda")
        model = learn_model(spec, pop, *BOUNDS3)
        counts = model.dependence.family_counts()
        assert sum(counts.values()) == 3  # all pair copulas of a 3-dim vine

    def test_describe_mentions_structure(self):
        pop = mvn_population(2, 0.5, 100, 34)
        model = learn_model(make_spec("gceda"), pop,
                            np.full(2, -10.0), np.full(2, 10.0))
        text = describe_search_model(model)
        assert "normal copula" in text
        assert "margin 0" in text

    def test_describe_and_counts_of_each_structure(self):
        margins = NormalMargin(np.array([0.0, 2.0]), np.array([1.0, 0.5]))
        head = ("margin 0: NormalMargin(mu=0.0, sigma=1.0)\n"
                "margin 1: NormalMargin(mu=2.0, sigma=0.5)\n")
        vine = RVineModel(VineType.DVINE, (1, 0), ((student(0.5, 4.0),),))
        cases = [
            (ProductDependence(2), "dependence: product", {}),
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
