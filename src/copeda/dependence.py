"""Nonparametric dependence statistics and tests.

Kendall's tau, pseudo-observations, the rank Cramer-von Mises independence
test of Genest & Remillard (2004), CvM goodness-of-fit copula selection,
copula-entropy mutual information, and positive-definite repair of
correlation matrices.

The independence test's null distribution depends only on the sample size;
it is simulated once per size from a fixed seed and cached, so no test
draws from a caller's generator.  ``indep_tests_cvm`` tests a stack of
equally long pairs in one call (a vine fitter's whole tree);
``indep_test_cvm`` is its one-pair form.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .copulas import (
    BivariateCopula,
    CopulaFamily,
    UnsupportedTauError,
    clip_tau,
    copula_cdf,
    copula_logpdf,
    copula_sample,
    fit_student_dof,
    product,
    tau_to_parameter,
)

EIG_FLOOR = 1e-8  # smallest eigenvalue kept by the PD repair
# CvM independence test: null draws per sample size and their seed, rank
# cells held in one array (bounding memory), and the largest sample: the
# statistic's integer sums reach ~m^5, which int64 holds up to m = 6207.
CVM_NULL_DRAWS = 1000
CVM_NULL_SEED = 20040413
CVM_BLOCK_CELLS = 1 << 12
CVM_MAX_M = 6000


class DegenerateDataWarning(UserWarning):
    """A dependence statistic was requested on constant data."""


# When the pair-sign kernel runs in place of scipy's O(m log m) merge count
# (Knight 1966) pair by pair.  The kernel costs ~n m^2 and scipy ~n (n - 1) / 2
# calls, so the break-even m grows with the column count n: measured at
# m ~ 190, 310 and 520 for n = 2, 5 and 10 (m^2 ~ 30000 (n - 1)).  The cap
# bounds the sign matrix, n m (m - 1) / 2 floats: 3.6 MB at m = 300, n = 10.
TAU_SIGN_MAX_M = 300
TAU_SIGN_M2_PER_COLUMN = 30_000


def _sign_kernel_pays(m: int, n: int) -> bool:
    return 2 <= m <= TAU_SIGN_MAX_M and m * m <= TAU_SIGN_M2_PER_COLUMN * (n - 1)


@functools.lru_cache(maxsize=64)
def _upper_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(size, 1)``: every (i, j) with i < j."""
    pairs = np.triu_indices(size, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _sign_tau(X: np.ndarray) -> np.ndarray:
    """tau-b of every column pair of a finite, nowhere-constant sample.

    Row j of ``S`` holds the signs of column j's differences over all row
    pairs, so ``S @ S.T`` holds concordant minus discordant pair counts
    off the diagonal and untied pair counts on it.  The entries are -1, 0
    and 1, so the float64 (BLAS) sums are exact integers; the tau-b
    expression and clamp are scipy's, which keeps entry (i, j), i < j,
    equal to ``scipy.stats.kendalltau(X[:, i], X[:, j])`` bit for bit.
    """
    first, second = _upper_pairs(X.shape[0])
    S = np.sign(X[first] - X[second]).T
    G = S @ S.T
    root = np.sqrt(np.diag(G))
    T = np.clip(G / root[:, None] / root[None, :], -1.0, 1.0)
    i, j = _upper_pairs(X.shape[1])
    T[j, i] = T[i, j]  # keep scipy's (x = i, y = j) division order
    np.fill_diagonal(T, 1.0)
    return T


def kendall_tau(x, y) -> float:
    """Tie-corrected Kendall tau-b of two equally long vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("kendall_tau needs two equally long vectors, m >= 2")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        warnings.warn("constant input vector; tau set to 0",
                      DegenerateDataWarning, stacklevel=2)
        return 0.0
    if (_sign_kernel_pays(x.size, 2) and np.isfinite(x).all()
            and np.isfinite(y).all()):
        return float(_sign_tau(np.column_stack([x, y]))[0, 1])
    tau = stats.kendalltau(x, y).statistic
    return float(tau) if np.isfinite(tau) else 0.0


def kendall_tau_matrix(X) -> np.ndarray:
    """Symmetric matrix of pairwise tau-b values with unit diagonal.

    Finite, non-constant columns share one pair-sign kernel where it beats
    scipy (see ``TAU_SIGN_M2_PER_COLUMN``); every other pair goes through
    :func:`kendall_tau` (a constant column: warning and 0; NaN: 0).
    """
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    fast = np.zeros(n, dtype=bool)
    if m >= 2:
        fast = np.isfinite(X).all(axis=0) & (np.ptp(X, axis=0) != 0.0)
        if not _sign_kernel_pays(m, np.count_nonzero(fast)):
            fast[:] = False
    out = np.eye(n)
    if fast.any():
        out[np.ix_(fast, fast)] = _sign_tau(X[:, fast])
    for i in range(n):
        for j in range(i + 1, n):
            if not (fast[i] and fast[j]):
                out[i, j] = out[j, i] = kendall_tau(X[:, i], X[:, j])
    return out


def _le_ranks(X: np.ndarray) -> np.ndarray:
    """R[j, i] = #{l : X[j, l] <= X[j, i]}, row by row.

    In sorted order a value's count is one past the position of the last
    value equal to it, so ties share the largest rank.
    """
    k, m = X.shape
    flat = np.argsort(X, axis=1) + m * np.arange(k)[:, None]
    xs = X.ravel()[flat]
    last = np.full((k, m), m)
    last[:, :-1] = np.where(xs[:, 1:] != xs[:, :-1], np.arange(1, m), m)
    R = np.empty(k * m, dtype=np.intp)
    R[flat] = np.minimum.accumulate(last[:, ::-1], axis=1)[:, ::-1]
    return R.reshape(k, m)


def pseudo_observations(X) -> np.ndarray:
    """Column-wise rank/(m+1) transform with average ranks on ties.

    A value with ``below`` values under it and ``upto`` at or under it in
    its column averages the ranks below + 1 .. upto, (below + upto + 1) / 2,
    which are the bits of ``scipy.stats.rankdata(method="average")``; as
    there, a column holding a NaN is all NaN.  ``below`` is m minus the
    ``upto`` count of -x.
    """
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    upto = _le_ranks(np.concatenate([X.T, -X.T]))
    twice = (upto[:n] - upto[n:] + (m + 1)).T.astype(float)
    twice[:, np.isnan(X).any(axis=0)] = np.nan
    return twice / 2.0 / (m + 1.0)


@dataclass(frozen=True)
class IndepTestResult:
    """Outcome of the CvM independence test of one pair."""

    statistic: float
    p_value: float
    independent: bool


def _cvm_statistics(pairs, r, s) -> list[float]:
    """CvM statistics of rank samples, given their pair sums.

    ``r`` and ``s`` hold integer ranks along the last axis and ``pairs``
    each sample's sum_ik (m + 1 - max(r_i, r_k)) (m + 1 - max(s_i, s_k)).
    For U = r / (m + 1), V = s / (m + 1), m times the integral of
    (C_n(a, b) - a b)^2 over the unit square (Genest & Remillard 2004) is

        sum_ik (1 - max(U_i, U_k)) (1 - max(V_i, V_k)) / m
        - sum_i (1 - U_i^2) (1 - V_i^2) / 2 + m / 9.

    Times 2 m (m + 1)^4 its first two terms are an integer, formed exactly
    and divided once, so equal statistics get equal bits whatever ranks
    gave them: an observed statistic ties exactly with the null draws it
    equals.
    """
    m = np.shape(r)[-1]
    a = m + 1
    diag = ((a * a - r * r) * (a * a - s * s)).sum(axis=-1)
    return [(2 * a * a * p - m * d) / (2 * m * a ** 4) + m / 9.0
            for p, d in zip(np.ravel(pairs).tolist(), np.ravel(diag).tolist())]


def _permutation_pair_sums(s: np.ndarray) -> np.ndarray:
    """Pair sums of u ranks 1..m against each row of ``s``, a permutation.

    With u in rank order, w_k = m - k (k from 0) and b = m + 1 - s, the
    pair sum is sum_k w_k (b_k + 2 sum_{i<k} min(b_i, b_k)).  The inner
    sums are taken over the sibling blocks of a bottom-up merge sort: each
    value of a right half looks up the count and sum of the smaller values
    in its sorted left half, in log2(m) array passes instead of m^2 pairs.
    Rows are padded to a power of two with b = w = 0, which adds nothing.
    """
    rows, m = s.shape
    size = 1 << (m - 1).bit_length()
    b = np.zeros((rows, size), dtype=np.int64)
    b[:, :m] = m + 1 - s
    w = np.zeros(size, dtype=np.int64)
    w[:m] = np.arange(m, 0, -1)
    total = b @ w
    h = 1
    while h < size:
        halves = b.reshape(-1, 2, h)
        left, right = np.sort(halves[:, 0], axis=1), halves[:, 1]
        # b lies in [0, m], so shifting block j by j (m + 1) sorts every
        # left half as one array
        block = np.arange(len(halves))[:, None]
        below = np.searchsorted((left + (m + 1) * block).ravel(),
                                (right + (m + 1) * block).ravel())
        below = below.reshape(-1, h) - h * block
        prefix = np.zeros((len(halves), h + 1), dtype=np.int64)
        np.cumsum(left, axis=1, out=prefix[:, 1:])
        mins = np.take_along_axis(prefix, below, axis=1) + right * (h - below)
        total += 2 * (mins.reshape(rows, -1)
                      @ w.reshape(-1, 2, h)[:, 1].ravel())
        h *= 2
    return total


@functools.lru_cache(maxsize=64)
def _cvm_null(m: int) -> np.ndarray:
    """Sorted statistics of ``CVM_NULL_DRAWS`` random rank permutations.

    Under independence the ranks of v are a uniformly random permutation
    of those of u whatever the margins, so one table per m serves every
    test of that size.  The draws come from a generator seeded by
    (``CVM_NULL_SEED``, m) alone, in blocks of at most ``CVM_BLOCK_CELLS``
    padded cells.  The table is read-only.
    """
    rng = np.random.default_rng([CVM_NULL_SEED, m])
    ranks = np.arange(1, m + 1)
    per_block = max(1, CVM_BLOCK_CELLS // (1 << (m - 1).bit_length()))
    null = []
    for lo in range(0, CVM_NULL_DRAWS, per_block):
        s = rng.permuted(
            np.tile(ranks, (min(per_block, CVM_NULL_DRAWS - lo), 1)), axis=1)
        null += _cvm_statistics(_permutation_pair_sums(s), ranks, s)
    null = np.sort(null)
    null.flags.writeable = False
    return null


def _cvm_pair_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ik min(a_i, a_k) min(b_i, b_k) of each row pair of (k, m) ints.

    The (edges, rows, m) products are formed in blocks of at most
    ``CVM_BLOCK_CELLS`` cells: several whole edges at a time while m^2
    fits, row blocks of one edge beyond.  Each sum is an exact integer.

    It scores the observed statistics, the merge-sort
    ``_permutation_pair_sums`` the null.  A merge-sort version with per-row
    weights gives bit-identical sums here, but on a 2-vCPU VM it was 4-6x
    slower at a 10-D vine's tree sizes (9 edges: 228 against 52 us at
    m = 31, 349 against 57 us at m = 33), and faster only on long samples
    (1.7 against 17 ms at m = 2000), so each kernel keeps its own job.
    """
    k, m = a.shape
    rows = min(m, max(1, CVM_BLOCK_CELLS // m))
    edges = max(1, CVM_BLOCK_CELLS // (rows * m))
    pairs = np.zeros(k, dtype=np.int64)
    for e in range(0, k, edges):
        ae, be = a[e:e + edges], b[e:e + edges]
        for lo in range(0, m, rows):
            pairs[e:e + edges] += (
                np.minimum(ae[:, lo:lo + rows, None], ae[:, None])
                * np.minimum(be[:, lo:lo + rows, None], be[:, None])
            ).sum(axis=(1, 2))
    return pairs


def indep_tests_cvm(U, V, sig_level: float = 0.01) -> list[IndepTestResult]:
    """Rank Cramer-von Mises independence test of each row pair (U[j], V[j]).

    ``U`` and ``V`` are (k, m) stacks of k equally long pairs, and the
    result holds one :class:`IndepTestResult` per row.  The statistic is
    :func:`_cvm_statistics` on the ranks R_i = #{k : u_k <= u_i} (ties
    share the largest rank, as the empirical copula's ``<=`` does).  Its
    null distribution depends on m alone and is simulated once per m
    (:func:`_cvm_null`), as the R copula package's ``indepTestSim`` does,
    so the test draws nothing from any run's generator.  The p-value is
    (#null >= statistic + 1) / (B + 1), and the pair counts as
    independent when ``p_value >= sig_level``.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape or U.ndim != 2 or not 2 <= U.shape[1] <= CVM_MAX_M:
        raise ValueError("the CvM independence test needs equally long "
                         f"vectors, 2 <= m <= {CVM_MAX_M}")
    if not (np.isfinite(U).all() and np.isfinite(V).all()):
        raise ValueError("the CvM independence test needs finite values")
    m = U.shape[1]
    r, s = _le_ranks(U), _le_ranks(V)
    # m + 1 - max(r_i, r_k) = min(m + 1 - r_i, m + 1 - r_k)
    statistics = _cvm_statistics(_cvm_pair_sums(m + 1 - r, m + 1 - s), r, s)
    null = _cvm_null(m)
    below = np.searchsorted(null, statistics, side="left").tolist()
    results = []
    for statistic, n_below in zip(statistics, below):
        p_value = (null.size - n_below + 1.0) / (null.size + 1.0)
        results.append(
            IndepTestResult(statistic, p_value, bool(p_value >= sig_level)))
    return results


def indep_test_cvm(u, v, sig_level: float = 0.01) -> IndepTestResult:
    """:func:`indep_tests_cvm` of one pair of equally long vectors."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("indep_test_cvm needs two equally long vectors")
    return indep_tests_cvm(u[None], np.asarray(v, dtype=float)[None],
                           sig_level)[0]


def gof_select_copula(u, v, candidates) -> BivariateCopula:
    """Moment-fit each candidate family and keep the CvM-closest one.

    Each feasible candidate is fitted by tau inversion (the Student family
    additionally gets a profile-likelihood degrees-of-freedom fit) and
    scored by ``sum_i (C_n(u_i, v_i) - C_theta(u_i, v_i))^2`` evaluated at
    the pseudo-observations of the input, which removes marginal noise from
    the comparison.  Families that cannot represent the observed tau are
    skipped; if every candidate is skipped the product copula is returned.
    """
    U = pseudo_observations(np.column_stack([u, v]))
    u, v = U[:, 0], U[:, 1]
    tau = clip_tau(kendall_tau(u, v))
    cn = ((u[None, :] <= u[:, None]) & (v[None, :] <= v[:, None])).mean(axis=1)
    best: BivariateCopula | None = None
    best_stat = np.inf
    for family in candidates:
        family = CopulaFamily(family)
        if family is CopulaFamily.PRODUCT:
            continue
        try:
            cop = tau_to_parameter(family, tau)
        except UnsupportedTauError:
            continue
        if family is CopulaFamily.STUDENT and cop.family is CopulaFamily.STUDENT:
            cop = fit_student_dof(np.column_stack([u, v]), cop.theta)
        stat = float(np.sum((cn - copula_cdf(cop, u, v)) ** 2))
        if stat < best_stat:
            best, best_stat = cop, stat
    return best if best is not None else product()


def copula_mutual_information(c: BivariateCopula, rng: np.random.Generator,
                              samples: int = 100) -> float:
    """Mutual information of the coupled pair via the copula entropy.

    The normal family has the closed form -log(1 - rho^2)/2; other families
    are estimated by a Monte-Carlo average of the log density over
    ``samples`` draws from the copula itself, taken from ``rng``.  The
    estimate is floored at zero.
    """
    if c.family is CopulaFamily.NORMAL:
        return float(-0.5 * np.log1p(-c.theta * c.theta))
    if c.family is CopulaFamily.PRODUCT:
        return 0.0
    U = copula_sample(c, samples, rng)
    mi = float(np.mean(copula_logpdf(c, U[:, 0], U[:, 1])))
    return max(mi, 0.0)


def _factorizes(M: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def make_positive_definite(R) -> np.ndarray:
    """Repair a correlation matrix so a Cholesky factorization exists.

    A matrix that already factorizes is returned unchanged.  Otherwise the
    eigenvalues are floored at 1e-8, the matrix is reconstructed and
    rescaled back to unit diagonal.  If 20 such passes still do not
    factorize, the input is shrunk toward the identity, (1 - a) R + a I
    for a = 2^-30, 2^-29, ..., 1, and the first that factorizes is
    returned; a = 1 is the identity, so the repair always ends.  A matrix
    with a NaN or infinite entry raises ``LinAlgError``.
    """
    R = np.asarray(R, dtype=float)
    if not np.all(np.isfinite(R)):
        raise np.linalg.LinAlgError("correlation matrix has non-finite entries")
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 1.0)
    current = R
    for _ in range(20):
        if _factorizes(current):
            return current
        eigval, eigvec = np.linalg.eigh(current)
        eigval = np.maximum(eigval, EIG_FLOOR)
        rebuilt = (eigvec * eigval) @ eigvec.T
        d = np.sqrt(np.diag(rebuilt))
        rebuilt = rebuilt / np.outer(d, d)
        rebuilt = 0.5 * (rebuilt + rebuilt.T)
        np.fill_diagonal(rebuilt, 1.0)
        current = rebuilt
    if _factorizes(current):
        return current
    identity = np.eye(R.shape[0])
    for k in range(30, 0, -1):
        shrunk = (1.0 - 2.0 ** -k) * R + 2.0 ** -k * identity
        if _factorizes(shrunk):
            return shrunk
    return identity
