import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from copeda.copulas import (
    CopulaFamily,
    clayton,
    copula_sample,
    frank,
    mvnormal_copula_sample,
    normal,
    product,
)
from copeda import dependence
from copeda.dependence import (
    TAU_SIGN_MAX_M,
    DegenerateDataWarning,
    copula_mutual_information,
    empirical_copula_at,
    gof_select_copula,
    indep_test_cvm,
    kendall_tau,
    kendall_tau_matrix,
    make_positive_definite,
    pseudo_observations,
)


def brute_force_tau(x, y):
    # plain concordance count over all pairs, no tie handling needed
    conc = disc = 0
    for i, j in itertools.combinations(range(len(x)), 2):
        s = (x[i] - x[j]) * (y[i] - y[j])
        conc += s > 0
        disc += s < 0
    return (conc - disc) / (len(x) * (len(x) - 1) / 2)


class TestKendallTau:
    def test_perfect_concordance(self):
        assert kendall_tau([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_discordance(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_against_brute_force(self):
        x = [1, 2, 3, 4]
        y = [2, 1, 4, 3]
        assert kendall_tau(x, y) == pytest.approx(brute_force_tau(x, y))
        assert kendall_tau(x, y) == pytest.approx((4 - 2) / 6)

    def test_constant_vector_warns_and_returns_zero(self):
        with pytest.warns(DegenerateDataWarning):
            assert kendall_tau([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(8)
        X = rng.random((40, 3))
        M = kendall_tau_matrix(X)
        assert M[0, 1] == pytest.approx(kendall_tau(X[:, 0], X[:, 1]))
        assert np.allclose(M, M.T)
        assert np.allclose(np.diag(M), 1.0)

    @given(st.lists(st.floats(-40, 40), min_size=3, max_size=25, unique=True),
           st.lists(st.floats(-40, 40), min_size=3, max_size=25, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_monotone_invariance(self, xs, ys):
        m = min(len(xs), len(ys))
        x, y = np.array(xs[:m]), np.array(ys[:m])
        if (len(np.unique(np.exp(x / 50.0))) < m
                or len(np.unique(3.0 * y + 1.0)) < m):
            return  # transform introduced float ties; invariance needs none
        t = kendall_tau(x, y)
        assert kendall_tau(y, x) == pytest.approx(t)
        assert kendall_tau(np.exp(x / 50.0), y) == pytest.approx(t)
        assert kendall_tau(x, 3.0 * y + 1.0) == pytest.approx(t)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_tau_matrix(X):
    # the per-pair scipy loop the vectorised kernel must reproduce bit for bit
    n = X.shape[1]
    out = np.eye(n)
    for i, j in itertools.combinations(range(n), 2):
        x, y = X[:, i], X[:, j]
        if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
            tau = 0.0
        else:
            tau = stats.kendalltau(x, y).statistic
            tau = float(tau) if np.isfinite(tau) else 0.0
        out[i, j] = out[j, i] = tau
    return out


def tau_cases():
    rng = np.random.default_rng(21)
    yield "continuous", rng.random((31, 10))
    yield "ties", rng.integers(0, 4, (60, 6)).astype(float)
    yield "rounded", np.round(rng.normal(size=(52, 5)), 1)
    X = rng.random((33, 4))
    X[:, 2] = 0.5
    yield "constant column", X
    X = rng.random((40, 4))
    X[7, 1] = np.nan
    yield "nan", X
    X = rng.random((25, 3))
    X[3, 0] = np.inf
    yield "inf", X
    yield "m = 2", rng.random((2, 5))
    yield "m = 2 tied", np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 4.0]])
    yield "two columns, m = 150", rng.random((150, 2))
    yield "two columns, m = 200", rng.random((200, 2))
    yield "above the kernel cap", rng.integers(0, 50, (TAU_SIGN_MAX_M + 1, 4)) * 0.1
    for k in range(40):
        m, n = int(rng.integers(2, 90)), int(rng.integers(1, 9))
        yield f"random {k}", rng.integers(0, int(rng.integers(2, 9)), (m, n)) * 0.5


TAU_CASES = dict(tau_cases())


class TestTauMatchesScipyBitwise:
    @pytest.mark.parametrize("name", TAU_CASES)
    def test_matrix(self, name):
        X = TAU_CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDataWarning)
            assert same_bits(kendall_tau_matrix(X), reference_tau_matrix(X))

    @pytest.mark.parametrize(
        "name", [k for k, X in TAU_CASES.items() if X.shape[1] >= 2])
    def test_scalar(self, name):
        X = TAU_CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDataWarning)
            tau = kendall_tau(X[:, 0], X[:, 1])
        assert same_bits(tau, reference_tau_matrix(X[:, :2])[0, 1])

    def test_constant_column_warns_per_pair(self):
        X = np.random.default_rng(22).random((20, 4))
        X[:, 1] = 3.0
        with pytest.warns(DegenerateDataWarning) as record:
            M = kendall_tau_matrix(X)
        assert len(record) == 3
        assert np.all(M[1, [0, 2, 3]] == 0.0) and M[1, 1] == 1.0

    def test_fewer_than_two_rows_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau_matrix(np.zeros((1, 3)))


class TestPseudoObservations:
    def test_columns_are_scaled_ranks(self):
        X = np.array([[3.0, 10.0], [1.0, 30.0], [2.0, 20.0]])
        U = pseudo_observations(X)
        assert np.allclose(sorted(U[:, 0]), [0.25, 0.5, 0.75])
        assert np.all(U > 0) and np.all(U < 1)

    def test_ties_get_average_ranks(self):
        U = pseudo_observations(np.array([[1.0], [1.0], [2.0]]))
        assert U[0, 0] == pytest.approx(U[1, 0])


    def test_matches_per_column_rankdata_bitwise(self):
        rng = np.random.default_rng(23)
        for X in (rng.random((31, 10)), rng.integers(0, 3, (40, 5)) * 1.0,
                  np.array([[1.0, np.nan], [2.0, 0.5], [2.0, 0.1]]),
                  rng.random((1, 3))):
            ref = np.empty_like(X)
            for j in range(X.shape[1]):
                ref[:, j] = stats.rankdata(X[:, j], method="average") / (X.shape[0] + 1.0)
            assert same_bits(pseudo_observations(X), ref)


class TestEmpiricalCopula:
    def test_corners(self):
        rng = np.random.default_rng(3)
        U = rng.random((50, 2))
        assert empirical_copula_at(U, 1.0, 1.0) == 1.0
        assert empirical_copula_at(U, 0.0, 0.0) == 0.0

    def test_direct_count(self):
        U = np.array([[0.25, 0.25], [0.75, 0.75]])
        assert empirical_copula_at(U, 0.5, 0.5) == pytest.approx(0.5)

    def test_matches_brute_force_on_random_samples(self):
        rng = np.random.default_rng(4)
        U = rng.random((30, 2))
        for u, v in rng.random((20, 2)):
            count = sum(1 for a, b in U if a <= u and b <= v)
            assert empirical_copula_at(U, u, v) == pytest.approx(count / 30)

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(5)
        U = rng.random((40, 2))
        grid = np.linspace(0, 1, 11)
        vals = np.array([[empirical_copula_at(U, a, b) for b in grid] for a in grid])
        assert np.all(np.diff(vals, axis=0) >= 0)
        assert np.all(np.diff(vals, axis=1) >= 0)


def reference_indep_test_cvm(u, v, replicates, rng, sig_level=0.01):
    # one rng.permutation and one gathered indicator matrix per replicate
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m = u.size
    le_u = u[None, :] <= u[:, None]
    le_v = v[None, :] <= v[:, None]
    observed = float(np.sum(((le_u & le_v).mean(axis=1) - u * v) ** 2))
    exceed = 0
    for _ in range(replicates):
        perm = rng.permutation(m)
        cn_p = (le_u & le_v[np.ix_(perm, perm)]).mean(axis=1)
        exceed += float(np.sum((cn_p - u * v[perm]) ** 2)) >= observed
    p_value = (exceed + 1.0) / (replicates + 1.0)
    return observed, p_value, p_value >= sig_level


def cvm_cases():
    rng = np.random.default_rng(24)
    for m in (1, 2, 3, 31, 33, 60, 290):
        yield m, 100, rng.random(m), rng.random(m)
    u = rng.random(52)
    yield 52, 100, u, u + 0.05 * rng.random(52)
    yield 40, 100, rng.integers(0, 5, 40) / 5.0, rng.integers(0, 5, 40) / 5.0
    # constant u: every replicate's statistic sums the observed terms in
    # another order, so only the same summation order gives the same ties
    yield 31, 100, np.full(31, 0.5), rng.random(31)
    yield 60, 100, np.full(60, 0.5), rng.random(60)
    yield 31, 0, rng.random(31), rng.random(31)
    yield 31, 7, rng.random(31), rng.random(31)
    yield 200, 400, rng.random(200), rng.random(200)  # several row chunks
    u = rng.random(20)
    u[4] = np.nan
    yield 20, 30, u, rng.random(20)


CVM_CASES = list(cvm_cases())


class TestIndependenceTestMatchesLoop:
    @pytest.mark.parametrize(
        "m, replicates, u, v", CVM_CASES,
        ids=[f"{k}-m{c[0]}-B{c[1]}" for k, c in enumerate(CVM_CASES)])
    def test_result_and_generator_state(self, m, replicates, u, v):
        rng_new, rng_ref = np.random.default_rng(25), np.random.default_rng(25)
        res = indep_test_cvm(u, v, replicates=replicates, rng=rng_new)
        ref = reference_indep_test_cvm(u, v, replicates, rng_ref)
        assert same_bits(res.statistic, ref[0])
        assert same_bits(res.p_value, ref[1])
        assert res.independent == ref[2]
        assert rng_new.random() == rng_ref.random()


class TestEarlyStopping:
    """The test stops once its decision is settled; the decision, the
    generator state and the exact p-value still match the full loop."""

    @pytest.mark.parametrize("replicates", [0, 1, 7, 8, 9, 100, 400])
    def test_decision_before_p_value(self, replicates):
        for k, (m, _, u, v) in enumerate(CVM_CASES):
            ref_rng = np.random.default_rng(25)
            observed, p_value, _ = reference_indep_test_cvm(
                u, v, replicates, ref_rng)
            for sig_level in (0.005, 0.01, 0.05, 0.5, 0.999):
                rng = np.random.default_rng(25)
                res = indep_test_cvm(u, v, replicates=replicates, rng=rng,
                                     sig_level=sig_level)
                where = (k, sig_level)
                assert res.independent == (p_value >= sig_level), where
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert same_bits(res.statistic, observed), where
                assert same_bits(res.p_value, p_value), where

    def test_null_data_evaluates_under_half_the_replicates(self, monkeypatch):
        rows = []
        kernel = dependence._cvm_stats

        def counted(u, le_u, vp):
            rows.append(vp.shape[0])
            return kernel(u, le_u, vp)

        monkeypatch.setattr(dependence, "_cvm_stats", counted)
        data = np.random.default_rng(26)
        for seed in range(50):
            u, v = data.random(31), data.random(31)
            res = indep_test_cvm(u, v, replicates=100,
                                 rng=np.random.default_rng(seed))
            ref = reference_indep_test_cvm(u, v, 100,
                                           np.random.default_rng(seed))
            assert res.independent == ref[2]
        # one identity row per test gives the observed statistic
        assert sum(rows) - 50 < 50 * 100 // 2

    def test_negative_replicates_rejected(self):
        with pytest.raises(ValueError, match="replicates"):
            indep_test_cvm([0.2, 0.8], [0.6, 0.4], replicates=-1)


class TestIndepTestResult:
    def fresh(self, seed=27):
        rng = np.random.default_rng(seed)
        return indep_test_cvm(rng.random(31), rng.random(31), rng=rng)

    def test_pickles_before_and_after_p_value(self):
        res = self.fresh()
        loaded = pickle.loads(pickle.dumps(res))
        assert same_bits(loaded.p_value, res.p_value)
        assert loaded == res
        assert pickle.loads(pickle.dumps(res)) == res

    def test_repr_shows_the_three_fields(self):
        res = self.fresh()
        assert repr(res) == (f"IndepTestResult(statistic={res.statistic!r}, "
                             f"p_value={res.p_value!r}, "
                             f"independent={res.independent!r})")

    def test_equality_compares_the_three_fields(self):
        assert self.fresh() == self.fresh()
        assert hash(self.fresh()) == hash(self.fresh())
        assert self.fresh(27) != self.fresh(28)
        assert self.fresh() != (self.fresh().statistic, self.fresh().p_value,
                                self.fresh().independent)


class TestIndependenceTest:
    def test_false_positive_rate(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            u, v = rng.random(200), rng.random(200)
            res = indep_test_cvm(u, v, replicates=100, rng=rng, sig_level=0.01)
            hits += res.independent
        assert hits >= 95

    def test_comonotone_rejected(self):
        rng = np.random.default_rng(6)
        u = rng.random(200)
        res = indep_test_cvm(u, u, replicates=100, rng=rng, sig_level=0.01)
        assert res.p_value <= 0.01
        assert not res.independent

    def test_minimal_sample_is_valid(self):
        rng = np.random.default_rng(7)
        res = indep_test_cvm([0.2, 0.8], [0.6, 0.4], replicates=50, rng=rng)
        assert res.p_value >= 1.0 / 51.0
        assert 0.0 <= res.p_value <= 1.0


CANDIDATES = [CopulaFamily.NORMAL, CopulaFamily.CLAYTON,
              CopulaFamily.FRANK, CopulaFamily.GUMBEL]


class TestGofSelection:
    def test_recovers_clayton(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            uv = copula_sample(clayton(2.0), 500, rng)
            sel = gof_select_copula(uv[:, 0], uv[:, 1], CANDIDATES)
            hits += sel.family is CopulaFamily.CLAYTON
        assert hits >= 16

    def test_all_infeasible_returns_product(self):
        rng = np.random.default_rng(9)
        uv = copula_sample(normal(-0.6), 300, rng)
        sel = gof_select_copula(uv[:, 0], uv[:, 1],
                                [CopulaFamily.CLAYTON, CopulaFamily.GUMBEL])
        assert sel.family is CopulaFamily.PRODUCT

    def test_normal_data_prefers_elliptical_shapes(self):
        normal_or_frank = clayton_hits = 0
        for seed in range(100):
            rng = np.random.default_rng(50_000 + seed)
            uv = copula_sample(normal(0.707), 500, rng)
            sel = gof_select_copula(uv[:, 0], uv[:, 1], CANDIDATES)
            normal_or_frank += sel.family in (CopulaFamily.NORMAL, CopulaFamily.FRANK)
            clayton_hits += sel.family is CopulaFamily.CLAYTON
        assert normal_or_frank >= 90
        assert clayton_hits <= 10

    def test_parameters_stay_in_domain(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            uv = rng.random((60, 2))
            sel = gof_select_copula(uv[:, 0], uv[:, 1], CANDIDATES)
            # constructing the copula revalidates the domain; no exception means ok
            assert sel.family in set(CANDIDATES) | {CopulaFamily.PRODUCT}


class TestMutualInformation:
    def test_normal_zero(self):
        assert copula_mutual_information(normal(1e-12)) == pytest.approx(0.0)

    def test_normal_closed_form(self):
        expected = -0.5 * math.log(0.75)
        assert copula_mutual_information(normal(0.5)) == pytest.approx(expected,
                                                                       abs=1e-12)

    def test_product_exact_zero(self):
        rng = np.random.default_rng(11)
        assert copula_mutual_information(product(), rng) == 0.0

    def test_monte_carlo_path_close_to_truth(self):
        rng = np.random.default_rng(12)
        mi = copula_mutual_information(frank(5.0), rng, samples=5000)
        assert 0.1 < mi < 0.6


class TestMakePositiveDefinite:
    def test_pd_unchanged(self):
        R = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert np.array_equal(make_positive_definite(R), R)
        assert np.array_equal(make_positive_definite(np.eye(4)), np.eye(4))

    def test_repairs_three_by_three(self):
        R = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        fixed = make_positive_definite(R)
        assert np.min(np.linalg.eigvalsh(fixed)) >= 1e-9
        assert np.allclose(np.diag(fixed), 1.0)
        np.linalg.cholesky(fixed)

    def test_idempotent(self):
        R = np.array([[1.0, 0.95, 0.95], [0.95, 1.0, -0.95], [0.95, -0.95, 1.0]])
        once = make_positive_definite(R)
        twice = make_positive_definite(once)
        assert np.array_equal(once, twice)

    def test_random_non_pd_matrices(self):
        rng = np.random.default_rng(13)
        repaired = 0
        for _ in range(100):
            n = rng.integers(3, 8)
            M = rng.uniform(-1, 1, size=(n, n))
            R = 0.5 * (M + M.T)
            np.fill_diagonal(R, 1.0)
            fixed = make_positive_definite(R)
            assert np.min(np.linalg.eigvalsh(fixed)) >= 1e-9
            assert np.allclose(np.diag(fixed), 1.0)
            assert np.allclose(fixed, fixed.T)
            np.linalg.cholesky(fixed)
            repaired += 1
        assert repaired == 100


class TestPositiveDefiniteFallback:
    # a floor below every eigenvalue makes each eigenvalue pass a no-op, so
    # only the shrink toward the identity can repair the matrix
    R = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])

    def test_shrinks_toward_identity(self, monkeypatch):
        monkeypatch.setattr(dependence, "EIG_FLOOR", -np.inf)
        fixed = make_positive_definite(self.R)
        np.linalg.cholesky(fixed)
        assert np.array_equal(np.diag(fixed), np.ones(3))
        assert np.array_equal(fixed, fixed.T)
        weight = 1.0 - fixed[0, 1] / self.R[0, 1]
        assert 0.0 < weight < 1.0
        assert np.allclose(fixed, (1.0 - weight) * self.R + weight * np.eye(3),
                           rtol=0.0, atol=1e-15)
        # the smallest weight a = 2^-k that factorizes, not a larger one
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky((1.0 - weight / 2.0) * self.R
                               + weight / 2.0 * np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        R = np.eye(3)
        R[0, 2] = R[2, 0] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            make_positive_definite(R)
