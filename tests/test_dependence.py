import hashlib
import itertools
import math
import os
import pickle
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from copeda.copulas import (
    CopulaFamily,
    clayton,
    clip_tau,
    copula_sample,
    frank,
    mvnormal_copula_sample,
    normal,
    product,
    tau_to_parameter,
)
from copeda import dependence
from copeda.dependence import (
    TAU_SIGN_MAX_M,
    DegenerateDataWarning,
    copula_mutual_information,
    gof_select_copula,
    indep_test_cvm,
    indep_tests_cvm,
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
    # the per-pair scipy loop the vectorised kernel must reproduce bit for
    # bit, each entry (i, j) in its own orientation: x = X[:, i], y = X[:, j]
    n = X.shape[1]
    out = np.eye(n)
    for i, j in itertools.permutations(range(n), 2):
        x, y = X[:, i], X[:, j]
        if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
            tau = 0.0
        else:
            tau = stats.kendalltau(x, y).statistic
            tau = float(tau) if np.isfinite(tau) else 0.0
        out[i, j] = tau
    return out


def unequal_ties(rng, m):
    # columns rounded on different grids, so every pair's tie counts differ
    return np.round(rng.random((m, 4)) * [3.0, 8.0, 20.0, 1000.0])


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
    yield "unequal ties", unequal_ties(rng, 60)
    yield "unequal ties above the kernel cap", unequal_ties(rng, TAU_SIGN_MAX_M + 20)
    X = rng.integers(0, 5, (30, 3)) * 1.0
    X[4, 1] = np.inf
    yield "inf next to ties", X
    X = rng.random((40, 4))
    X[11, 1] = np.nan
    X[:, 3] = 0.25
    yield "nan and constant columns, m = 40", X


TAU_CASES = dict(tau_cases())


class TestTauMatchesScipyBitwise:
    @pytest.mark.parametrize("name", TAU_CASES)
    def test_matrix(self, name):
        X = TAU_CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDataWarning)
            assert same_bits(kendall_tau_matrix(X), reference_tau_matrix(X))

    @pytest.mark.parametrize("name", TAU_CASES)
    def test_entries_are_the_pair_taus(self, name):
        X = TAU_CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDataWarning)
            T = kendall_tau_matrix(X)
            for i, j in itertools.permutations(range(X.shape[1]), 2):
                assert T[i, j].hex() == kendall_tau(X[:, i], X[:, j]).hex()

    @pytest.mark.parametrize("m", [60, TAU_SIGN_MAX_M + 20])
    def test_orientations_differ_on_unequal_ties(self, m):
        # the orientation the oracle checks is visible: some pair's two
        # tie-term division orders round apart
        T = kendall_tau_matrix(unequal_ties(np.random.default_rng(24), m))
        assert (T != T.T).any()
        assert np.allclose(T, T.T, rtol=1e-15, atol=0.0)

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

    def test_infinite_constant_column_is_constant(self):
        # one infinity repeated is a constant column, found without an
        # inf - inf
        X = np.random.default_rng(26).random((20, 3))
        X[:, 1] = np.inf
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            M = kendall_tau_matrix(X)
        assert [w.category for w in record] == [DegenerateDataWarning] * 2
        assert np.all(M[1, [0, 2]] == 0.0) and np.all(M[[0, 2], 1] == 0.0)

    def test_fewer_than_two_rows_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau_matrix(np.zeros((1, 3)))

    def test_nan_and_constant_columns_stay_off_scipy(self):
        # the sign kernel maps their 0/0 to 0 inside its np.errstate, so the
        # only warnings are one DegenerateDataWarning per constant pair
        script = (
            "import sys, warnings\n"
            "import numpy as np\n"
            "from copeda.dependence import kendall_tau_matrix\n"
            "X = np.random.default_rng(25).random((40, 4))\n"
            "X[11, 1] = np.nan\n"
            "X[:, 3] = 0.25\n"
            "with warnings.catch_warnings(record=True) as record:\n"
            "    warnings.simplefilter('always')\n"
            "    T = kendall_tau_matrix(X)\n"
            "print([w.category.__name__ for w in record])\n"
            "print(T[[1, 1, 1, 0, 2, 3, 3, 3, 0, 2], "
            "[0, 2, 3, 1, 1, 0, 1, 2, 3, 3]].tolist())\n"
            "print('scipy.stats' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(dependence.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            str(["DegenerateDataWarning"] * 3), str([0.0] * 10), "False"]


class TestPseudoObservations:
    def test_columns_are_scaled_ranks(self):
        X = np.array([[3.0, 10.0], [1.0, 30.0], [2.0, 20.0]])
        U = pseudo_observations(X)
        assert np.allclose(sorted(U[:, 0]), [0.25, 0.5, 0.75])
        assert np.all(U > 0) and np.all(U < 1)

    def test_ties_get_average_ranks(self):
        U = pseudo_observations(np.array([[1.0], [1.0], [2.0]]))
        assert U[0, 0] == pytest.approx(U[1, 0])

    @pytest.mark.parametrize("X", [[1.0, 2.0, 3.0], 2.0, np.zeros((2, 2, 2))],
                             ids=["1-D", "scalar", "3-D"])
    def test_non_2d_input_rejected(self, X):
        with pytest.raises(ValueError, match="pseudo-observations need"):
            pseudo_observations(np.array(X))


    def test_matches_per_column_rankdata_bitwise(self):
        rng = np.random.default_rng(23)
        for X in (rng.random((31, 10)), rng.integers(0, 3, (40, 5)) * 1.0,
                  np.array([[1.0, np.nan], [2.0, 0.5], [2.0, 0.1]]),
                  rng.random((1, 3)), rng.random((88, 10))[::2, ::3],
                  np.array([[0.0, np.inf], [-0.0, -np.inf], [0.0, np.inf],
                            [1.0, 0.0]]),
                  np.zeros((0, 2)), np.zeros((4, 0))):
            ref = np.empty_like(X)
            for j in range(X.shape[1]):
                ref[:, j] = stats.rankdata(X[:, j], method="average") / (X.shape[0] + 1.0)
            assert same_bits(pseudo_observations(X), ref)


def reference_cvm_statistic(u, v):
    """m * integral of (C_n - st)^2, summed exactly over the rectangles on
    which the empirical copula of the <=-rank pseudo-observations is
    constant."""
    m = len(u)
    U = [Fraction(sum(x <= y for x in u), m + 1) for y in u]
    V = [Fraction(sum(x <= y for x in v), m + 1) for y in v]
    xs = sorted(set(U) | {Fraction(0), Fraction(1)})
    ys = sorted(set(V) | {Fraction(0), Fraction(1)})
    total = Fraction(0)
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            c = Fraction(sum(a <= x0 and b <= y0 for a, b in zip(U, V)), m)
            # integral of (c - st)^2 over [x0, x1] x [y0, y1]
            total += (c * c * (x1 - x0) * (y1 - y0)
                      - c * (x1 ** 2 - x0 ** 2) * (y1 ** 2 - y0 ** 2) / 2
                      + (x1 ** 3 - x0 ** 3) * (y1 ** 3 - y0 ** 3) / 9)
    return m * total


def cvm_cases():
    rng = np.random.default_rng(24)
    for m in (2, 3, 31, 60):
        yield rng.random(m), rng.random(m)
        yield rng.integers(0, 4, m) / 4.0, rng.integers(0, 3, m) / 3.0
    u = rng.random(60)
    yield u, u + 0.05 * rng.random(60)
    yield np.full(31, 0.5), rng.random(31)


CVM_CASES = list(cvm_cases())


class TestCvmStatistic:
    @pytest.mark.parametrize("u, v", CVM_CASES,
                             ids=[f"m{len(c[0])}-{k}"
                                  for k, c in enumerate(CVM_CASES)])
    def test_closed_form_matches_exact_integral(self, u, v):
        statistic = indep_test_cvm(u, v).statistic
        assert statistic == pytest.approx(
            float(reference_cvm_statistic(u, v)), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_equal_statistics_have_equal_bits(self, m):
        # different permutations often give the same statistic exactly;
        # the p-value compares them with >=, so each must round alike
        u = np.arange(m, dtype=float)
        by_value = {}
        for perm in itertools.permutations(range(m)):
            v = np.array(perm, dtype=float)
            by_value.setdefault(reference_cvm_statistic(u, v), set()).add(
                indep_test_cvm(u, v).statistic)
        assert all(len(bits) == 1 for bits in by_value.values())
        assert len(by_value) < math.factorial(m)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(28)
        u, v = rng.random(40), rng.random(40)
        v[::4] = v[1::4]  # ties too
        res = indep_test_cvm(u, v)
        assert indep_test_cvm(np.exp(3.0 * u) - 7.0, v ** 3) == res
        assert indep_test_cvm(u, np.floor(v * 1e6)) == res

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 9, 17, 31, 64, 70])
    def test_null_statistics_match_the_test_on_each_permutation(self, m):
        # the null's one-row form of the pair-sum kernel against its
        # row-by-row form and the one-pair test; up to m = 9 the pair sums
        # against the exact integral
        rng = np.random.default_rng(29)
        ranks = np.arange(1, m + 1)
        S = rng.permuted(np.tile(ranks, (25, 1)), axis=1)
        pairs = dependence._cvm_pair_sums(m + 1 - ranks[None], m + 1 - S)
        null = dependence._cvm_statistics(pairs, ranks, S)
        assert null == [res.statistic for res in indep_tests_cvm(
            np.tile(ranks, (25, 1)), S)]
        assert null == [indep_test_cvm(ranks, s).statistic for s in S]
        if m <= 9:
            a = m + 1
            for p, s in zip(pairs.tolist(), S):
                diag = int(((a * a - ranks ** 2) * (a * a - s ** 2)).sum())
                assert (Fraction(2 * a * a * p - m * diag, 2 * m * a ** 4)
                        + Fraction(m, 9)) == reference_cvm_statistic(ranks, s)

    @pytest.mark.parametrize("rows", [(1, 1), (1, 2), (2, 2)])
    def test_largest_pair_sum_is_exact(self, rows):
        # u = v at m = CVM_MAX_M: sum_ik min(i, k)^2, the largest sum a
        # pair reaches; min(i, k) = j on 2 (m - j) + 1 pairs
        m = dependence.CVM_MAX_M
        ranks = np.arange(1, m + 1)
        pairs = dependence._cvm_pair_sums(np.tile(ranks, (rows[0], 1)),
                                          np.tile(ranks, (rows[1], 1)))
        exact = sum(j * j * (2 * (m - j) + 1) for j in range(1, m + 1))
        assert pairs.tolist() == [exact] * rows[1]


NULL_DIGEST = (
    "import hashlib\n"
    "from copeda.dependence import _cvm_null\n"
    "print(hashlib.sha256(b''.join(_cvm_null(m).tobytes()\n"
    "                              for m in (2, 31, 60))).hexdigest())\n")


class TestCvmNull:
    def test_sorted_read_only_table_per_m(self):
        null = dependence._cvm_null(31)
        assert null.shape == (dependence.CVM_NULL_DRAWS,)
        assert np.all(np.diff(null) >= 0)
        assert not null.flags.writeable

    def test_same_bits_across_calls(self):
        first = dependence._cvm_null(31).copy()
        dependence._cvm_null.cache_clear()
        assert same_bits(dependence._cvm_null(31), first)

    def test_same_bits_across_processes(self):
        src = os.path.dirname(os.path.dirname(dependence.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = [subprocess.run(
            [sys.executable, "-c", NULL_DIGEST], capture_output=True,
            text=True, check=True,
            env={**os.environ, "PYTHONPATH": path}).stdout
            for _ in range(2)]
        here = hashlib.sha256(b"".join(dependence._cvm_null(m).tobytes()
                                       for m in (2, 31, 60))).hexdigest()
        assert digests == [here + "\n"] * 2

    @pytest.mark.parametrize("m, digest", [
        (2, "520f0a01c2272642694a8e057ec47ac8188f355274c8b9e6466599563c87eef9"),
        (3, "94239179206416901549da7f37693d5f8592c5499c1d85f2890bf35f7a43b7bf"),
        (5, "eaca7d47beb34b1c32a3e9141c29091305d522f2db9bd8d2315d24753dd524a8"),
        (8, "896b34e58b52964d1881758507c47058f52470aeb132cbb8754c59ccb1fc0ad6"),
        (9, "d8c467886a72586ae0f3cc44edba2a548ed633a475567ca80095452777bceebb"),
        (16, "3dcf0e6fffc3b35cdd25b07565065874e896736607d52a2ef170e6e52797025f"),
        (17, "3ac3bf8ee5ba43b23ed2e1dbe3bf3c9af06419b0c152d4100c56e5ec64907c17"),
        (31, "e05e319fb1dfa49252571fadcb848525bc4806b4a08f1a070daf9cd9067946f0"),
        (32, "fa5bc92ae4d10611167a6cfb646238ec514d92a9b935ae0fb9015fa2d8b1e583"),
        (33, "e86eb3bc16be6f4324d4546b96c09649244570fa49384e74cb15f020c2d95a32"),
        (60, "127e1c819ff89728127bcbea0cfb9d2c875dfad6d15670bf048263c18272b550"),
        (64, "991fc781e97aa9089e2f91baa4d22eb36294df508a6e1adfb8a132d7c81c8678"),
        (65, "6f74d323c5f5b3cfdc33f5be4e7c821c49f724be9ae39ca2ea777d70b657e688"),
        (88, "221c3953b1bc0537e1272e79a21ce871d753eda92065ab1949f57197355999da"),
        (290, "7048fabb57b083243c97371f3927be79f071029272e137243c7e309acb1d6c09"),
    ])
    def test_table_bits_are_pinned(self, m, digest):
        # each table's sha256, at sizes either side of powers of two
        assert hashlib.sha256(
            dependence._cvm_null(m).tobytes()).hexdigest() == digest

    def test_blocks_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(30)
        u, v = rng.random(60), rng.random(60)
        table, res = dependence._cvm_null(60).copy(), indep_test_cvm(u, v)
        dependence._cvm_null.cache_clear()
        monkeypatch.setattr(dependence, "CVM_BLOCK_CELLS", 100)
        assert same_bits(dependence._cvm_null(60), table)
        assert indep_test_cvm(u, v) == res
        dependence._cvm_null.cache_clear()


class TestIndepTestResult:
    def fresh(self, seed=27):
        rng = np.random.default_rng(seed)
        return indep_test_cvm(rng.random(31), rng.random(31))

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
            res = indep_test_cvm(u, v, sig_level=0.01)
            hits += res.independent
        assert hits >= 95

    def test_comonotone_rejected(self):
        rng = np.random.default_rng(6)
        u = rng.random(200)
        res = indep_test_cvm(u, u, sig_level=0.01)
        assert res.p_value == 1.0 / (dependence.CVM_NULL_DRAWS + 1)
        assert not res.independent

    def test_minimal_sample_is_valid(self):
        res = indep_test_cvm([0.2, 0.8], [0.6, 0.4])
        assert 1.0 / (dependence.CVM_NULL_DRAWS + 1) <= res.p_value <= 1.0

    def test_p_value_counts_the_null_at_or_above(self):
        rng = np.random.default_rng(31)
        samples = [(u, u + rng.uniform(0.0, 3.0) * rng.random(33))
                   for u in rng.random((20, 33))]
        # at m = 4 every statistic is one the null table holds
        samples += [(np.arange(4.0), np.array(perm, dtype=float))
                    for perm in itertools.permutations(range(4))]
        for u, v in samples:
            res = indep_test_cvm(u, v)
            null = dependence._cvm_null(len(u))
            exceed = int(np.count_nonzero(null >= res.statistic))
            assert res.p_value == (exceed + 1.0) / (null.size + 1.0)
            for sig_level in (0.005, 0.01, 0.05, 0.5):
                assert (indep_test_cvm(u, v, sig_level).independent
                        == (res.p_value >= sig_level))

    def test_fields_are_plain_python_values(self):
        res = indep_test_cvm(np.arange(10.0), np.arange(10.0) % 3)
        assert (type(res.statistic), type(res.p_value),
                type(res.independent)) == (float, float, bool)

    @pytest.mark.parametrize("u, v", [
        ([0.1, 0.2, 0.3], [0.1, 0.2]),
        (np.zeros((3, 2)), np.zeros((3, 2))),
    ])
    def test_unequal_lengths_rejected(self, u, v):
        with pytest.raises(ValueError, match="equally long"):
            indep_test_cvm(u, v)

    @pytest.mark.parametrize("m", [0, 1, dependence.CVM_MAX_M + 1])
    def test_sample_size_out_of_range_rejected(self, m):
        with pytest.raises(ValueError, match="m <="):
            indep_test_cvm(np.zeros(m), np.zeros(m))

    @pytest.mark.parametrize("sig_level", [np.nan, 0.0, 1.0, -1.0, 2.0])
    def test_sig_level_outside_unit_interval_rejected(self, sig_level):
        u = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError, match=r"sig_level must be in \(0, 1\)"):
            indep_test_cvm(u, u[::-1], sig_level)
        with pytest.raises(ValueError, match=r"sig_level must be in \(0, 1\)"):
            indep_tests_cvm(np.tile(u, (3, 1)), np.tile(u[::-1], (3, 1)),
                            sig_level)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        u = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError, match="finite"):
            indep_test_cvm(np.where(u == u[4], bad, u), u)
        with pytest.raises(ValueError, match="finite"):
            indep_test_cvm(u, np.where(u == u[7], bad, u))


def one_edge_reference(u, v, sig_level=0.01):
    """The test of one pair by the plainest route: searchsorted ranks and
    an outer-product pair sum, then the module's statistic and null."""
    m = len(u)
    r = np.searchsorted(np.sort(u), u, side="right")
    s = np.searchsorted(np.sort(v), v, side="right")
    ru, sv = m + 1 - r, m + 1 - s
    pairs = int(np.sum(np.minimum.outer(ru, ru) * np.minimum.outer(sv, sv),
                       dtype=np.int64))
    statistic = dependence._cvm_statistics(pairs, r, s)[0]
    null = dependence._cvm_null(m)
    exceed = int(np.count_nonzero(null >= statistic))
    p_value = (exceed + 1.0) / (null.size + 1.0)
    return dependence.IndepTestResult(statistic, p_value,
                                      bool(p_value >= sig_level))


def batched_cases(m, k=5, seed=32):
    rng = np.random.default_rng([seed, m])
    u = rng.random((k, m))
    yield "random", u, rng.random((k, m))
    tied = rng.integers(0, 4, (2, k, m)) / np.array([4.0, 3.0])[:, None, None]
    yield "tied", tied[0], tied[1]
    yield "near comonotone", u, u + 1e-3 * rng.random((k, m))


class TestBatchedIndepTest:
    """``indep_tests_cvm`` gives each row exactly the one-pair result."""

    @pytest.mark.parametrize("m", [2, 3, 31, 33, 88, 300, 1200])
    def test_rows_equal_one_pair_tests(self, m):
        for _, U, V in batched_cases(m):
            results = indep_tests_cvm(U, V, 0.05)
            assert len(results) == len(U)
            for res, u, v in zip(results, U, V):
                ref = one_edge_reference(u, v, 0.05)
                assert res == ref == indep_test_cvm(u, v, 0.05)
                assert same_bits(res.statistic, ref.statistic)

    @pytest.mark.parametrize("m", [31, 88])
    def test_block_boundaries_change_nothing(self, m, monkeypatch):
        # nine edges across blocks of two edges, then of a few rows
        U, V = np.random.default_rng(33).random((2, 9, m))
        whole = indep_tests_cvm(U, V)
        for cells in (2 * m * m, m * m - 1, 3 * m):
            monkeypatch.setattr(dependence, "CVM_BLOCK_CELLS", cells)
            assert indep_tests_cvm(U, V) == whole

    def test_no_edges(self):
        assert indep_tests_cvm(np.zeros((0, 5)), np.zeros((0, 5))) == []

    @pytest.mark.parametrize("U, V", [
        (np.zeros((2, 3)), np.zeros((2, 4))),
        (np.zeros((2, 3)), np.zeros((3, 3))),
        (np.zeros(3), np.zeros(3)),
        (np.zeros((2, 3, 3)), np.zeros((2, 3, 3))),
    ])
    def test_unequal_shapes_rejected(self, U, V):
        with pytest.raises(ValueError, match="equally long"):
            indep_tests_cvm(U, V)

    @pytest.mark.parametrize("m", [0, 1, dependence.CVM_MAX_M + 1])
    def test_sample_size_out_of_range_rejected(self, m):
        with pytest.raises(ValueError, match="m <="):
            indep_tests_cvm(np.zeros((3, m)), np.zeros((3, m)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        U = np.tile(np.linspace(0.0, 1.0, 20), (3, 1))
        V = U.copy()
        U[2, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            indep_tests_cvm(U, V)
        with pytest.raises(ValueError, match="finite"):
            indep_tests_cvm(V, U)


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

    @pytest.mark.parametrize("family", [CopulaFamily.NORMAL,
                                        CopulaFamily.FRANK])
    def test_single_family_is_not_scored(self, family, monkeypatch):
        calls = []
        real = dependence.copula_cdf

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dependence, "copula_cdf", counting)
        uv = copula_sample(normal(0.5), 200, np.random.default_rng(11))
        sel = gof_select_copula(uv[:, 0], uv[:, 1], [family])
        assert calls == []
        assert sel == tau_to_parameter(
            family, clip_tau(kendall_tau(uv[:, 0], uv[:, 1])))


def gof_cases():
    # name, pair, candidates, whether GoF must rank the pair
    rng = np.random.default_rng(12)
    uv = copula_sample(clayton(2.0), 150, rng)
    yield "one candidate", uv, [CopulaFamily.NORMAL], False
    yield "several candidates", uv, CANDIDATES, True
    yield "student", uv, [CopulaFamily.STUDENT], True
    yield "student among others", uv, [CopulaFamily.CLAYTON,
                                       CopulaFamily.STUDENT], True
    negative = copula_sample(normal(-0.5), 150, rng)
    yield "negative tau", negative, CANDIDATES, True
    yield "one feasible candidate", negative, [CopulaFamily.CLAYTON,
                                               CopulaFamily.NORMAL], False
    yield "ties", np.round(copula_sample(frank(4.0), 80, rng), 1), \
        [*CANDIDATES, CopulaFamily.STUDENT], True
    constant = rng.random((60, 2))
    constant[:, 0] = 0.25
    yield "constant column", constant, CANDIDATES, True
    yield "constant column, one candidate", constant, [CopulaFamily.NORMAL], \
        False


GOF_CASES = {case[0]: case[1:] for case in gof_cases()}


def copula_bits(c):
    return c.family, c.theta.hex(), c.nu.hex()


class TestGofPassedTau:
    """A caller's tau gives the fit GoF gets by computing it, and the pair
    is ranked only to fit a Student nu or to score two or more fits."""

    @pytest.mark.parametrize("name", GOF_CASES)
    def test_same_fit_as_without_tau(self, name, monkeypatch):
        uv, families, ranks = GOF_CASES[name]
        u, v = uv[:, 0], uv[:, 1]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always", DegenerateDataWarning)
            tau = kendall_tau(u, v)
            own = gof_select_copula(u, v, families)
        # a constant column warns once per computed tau, GoF's own included
        assert len(record) == (2 if np.ptp(u) == 0.0 else 0)
        ranked = []
        real = dependence.pseudo_observations
        monkeypatch.setattr(dependence, "pseudo_observations",
                            lambda X: ranked.append(X) or real(X))
        passed = gof_select_copula(u, v, families, tau)
        assert copula_bits(passed) == copula_bits(own)
        assert len(ranked) == ranks


class TestMutualInformation:
    def test_normal_zero(self):
        rng = np.random.default_rng(10)
        assert copula_mutual_information(normal(1e-12), rng) == \
            pytest.approx(0.0)

    def test_normal_closed_form(self):
        expected = -0.5 * math.log(0.75)
        rng = np.random.default_rng(10)
        assert copula_mutual_information(normal(0.5), rng) == \
            pytest.approx(expected, abs=1e-12)

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
