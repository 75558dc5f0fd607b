"""Nonparametric dependence statistics and tests.

Kendall's tau, pseudo-observations, the rank Cramer-von Mises independence
test of Genest & Remillard (2004), CvM goodness-of-fit copula selection,
the closed-form mutual information of the normal and product copulas, and
positive-definite repair of correlation matrices.  Entry (i, j) of the tau
matrix is the tau of the ordered pair (X_i, X_j), and ``kendall_tau``
reads entry (0, 1).  Each call counts every pair with one of two exact
kernels, the pair-sign kernel for short samples and Knight's (1966) merge
count for long ones or ones with an infinite value; both give the
integer counts that ``scipy.stats.kendalltau`` forms, and so its bits.

The independence test's null distribution depends only on the sample size;
it is simulated once per size from a fixed seed and cached, so no test
draws from a caller's generator.  One exact pair-sum kernel,
``_cvm_pair_sums``, scores both the observed statistics and the null's
permutations: its float64 sums of integers stay below 2^53, so they are
exact in any order, and ``einsum`` takes them on one thread, without BLAS.
``indep_tests_cvm`` tests column pairs of one sample in one call (a vine
fitter's whole tree), addressed by column index as ``_tau_matrix``
addresses them, and ranks each column once; ``indep_test_cvm`` is its
one-pair form.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .copulas import (
    BivariateCopula,
    CopulaFamily,
    UnsupportedTauError,
    clip_tau,
    copula_cdf,
    fit_student_dof,
    product,
    tau_to_parameter,
)

EIG_FLOOR = 1e-8  # smallest eigenvalue kept by the PD repair
# CvM independence test: null draws per sample size and their seed, rank
# cells held in one array (bounding memory), and the largest sample: the
# pair sums reach m^4, exact in float64 up to m = 9741, and the diagonal
# sums ~m^5, which int64 holds up to m = 6207.
CVM_NULL_DRAWS = 1000
CVM_NULL_SEED = 20040413
CVM_BLOCK_CELLS = 1 << 14
CVM_MAX_M = 6000


class DegenerateDataWarning(UserWarning):
    """A dependence statistic was requested on constant data."""


# The largest sample the pair-sign kernel takes; longer ones, and any with
# an infinite value, go to the Knight count.  The sign kernel costs ~n m^2
# for n columns and Knight ~n (n - 1) / 2 m log m plus a fixed ~0.1 ms, so
# the crossover grows slowly with n: on a 2-vCPU VM it was m ~ 90 for
# n = 2 to 5 columns and for stacks of 1 to 8 pairs, and m ~ 150-160 for
# n = 10 and 12.  The cap sits at the study dimension's crossover; below
# it the sign kernel is at most 2.5 times Knight's time (n = 2, m = 150).
# It also bounds the sign matrix, n m (m - 1) / 2 floats: 0.9 MB at n = 10.
TAU_SIGN_MAX_M = 150


@functools.lru_cache(maxsize=64)
def _upper_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(size, 1)``: every (i, j) with i < j."""
    pairs = np.triu_indices(size, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _sign_counts(X: np.ndarray, pairs) -> np.ndarray:
    """Count matrix G of an (m, n) sample with no infinite value: every
    column pair's concordant minus discordant pairs off the diagonal and
    each column's untied pairs on it; NaN for a column holding a NaN.

    Row j of ``S`` holds the signs of column j's differences over all row
    pairs, so G = ``S @ S.T``, for all pairs whatever ``pairs`` asks.  The
    entries are -1, 0 and 1, so the float64 (BLAS) sums are exact
    integers.
    """
    a, b = _upper_pairs(len(X))
    S = np.sign(X[a] - X[b]).T
    return S @ S.T


def _inversions(Y: np.ndarray) -> np.ndarray:
    """#{i < j : Y[r, i] > Y[r, j]} of each row r of (k, m) ranks 1..m.

    A bottom-up merge count over rows padded to a power of two with m + 1,
    which is above every rank and sits at the end, so it adds no pair.
    The levels whose halves are shorter than eight compare the halves
    directly; each later level sorts its blocks of two sorted halves with
    the right half's values tagged odd, 2 y + 1, so that a left value sorts
    before an equal right one.  A right value at position p of its block
    and q of its half then has p - q left values at or below it and
    w - p + q above it.
    """
    k, m = Y.shape
    size = max(8, 1 << (m - 1).bit_length())
    Z = np.full((k, size), m + 1, dtype=np.int64)
    Z[:, :m] = Y
    dis = np.zeros(k, dtype=np.int64)
    w = 1
    while w < 8:
        H = Z.reshape(k, size // (2 * w), 2, w)
        above = H[:, :, 0, :, None] > H[:, :, 1, None, :]
        dis += np.count_nonzero(above.reshape(k, size * w // 2), axis=1)
        w *= 2
    Z = np.sort(Z.reshape(-1, w), axis=1)
    while w < size:
        B = Z.reshape(-1, 2 * w) << 1
        B[:, w:] += 1
        B.sort(axis=1)
        blocks = size // (2 * w)
        right = ((B & 1) @ np.arange(2 * w)).reshape(k, blocks)
        dis += blocks * (w * w + w * (w - 1) // 2) - right.sum(axis=1)
        Z = B >> 1
        w *= 2
    return dis


def _knight_counts(X: np.ndarray, pairs) -> np.ndarray:
    """The G of :func:`_sign_counts` by Knight's (1966) O(m log m) merge
    count, for any sample, infinite values included; off the diagonal it
    fills only the column pairs ``pairs = (first, second)``.

    Ranks in which ties share the largest value (``_le_ranks``) sum to
    m (m + 1) / 2 plus the tied pairs: that gives each column's ties and,
    from the ranks of each pair's key (x rank, y rank), its joint ties.
    Sorted by that key, a pair's discordant pairs are the strict
    inversions of its y ranks.  Then, as in ``scipy.stats.kendalltau``,
    concordant minus discordant is tot - x ties - y ties + joint ties -
    2 dis, and the untied pairs tot - ties, tot = m (m - 1) / 2.
    """
    first, second = pairs
    m = X.shape[0]
    base, tot = m * (m + 1) // 2, m * (m - 1) // 2
    R = _le_ranks(X.T)
    key = R[first] * (m + 1) + R[second]
    ties = R.sum(axis=1) - base
    joint = _le_ranks(key).sum(axis=1) - base
    key.sort(axis=1)
    dis = _inversions(key % (m + 1))
    G = np.diag(np.where(np.isnan(X).any(axis=0), np.nan, tot - ties))
    G[first, second] = G[second, first] = (
        tot - ties[first] - ties[second] + joint - 2 * dis)
    return G


def _tau_matrix(X: np.ndarray, pairs) -> np.ndarray:
    """tau-b of the ordered column pairs (i, j) of an (m, n) sample, for
    the pairs ``pairs = (first, second)`` in both orders:
    G[i, j] / sqrt(G[i, i]) / sqrt(G[j, j]), clamped, which is scipy's
    expression for x = column i, y = column j.  G comes from the sign
    kernel up to ``TAU_SIGN_MAX_M`` rows with no infinite value, else from
    Knight's count; the two give the same integers.  A pair with a
    constant column gives 0 and a ``DegenerateDataWarning`` at the
    caller's caller, and a NaN tau gives 0.
    """
    first, second = pairs
    constant = (X == X[0]).all(axis=0)
    for _ in range(np.count_nonzero(constant[first] | constant[second])):
        warnings.warn("constant input vector; tau set to 0",
                      DegenerateDataWarning, stacklevel=3)
    kernel = (_sign_counts if len(X) <= TAU_SIGN_MAX_M
              and not np.isinf(X).any() else _knight_counts)
    G = kernel(X, pairs)
    root = np.sqrt(np.diag(G))
    with np.errstate(invalid="ignore"):  # a constant column's 0/0
        T = np.clip(G / root[:, None] / root[None, :], -1.0, 1.0)
    T[np.isnan(T)] = 0.0
    return T


def kendall_tau_matrix(X) -> np.ndarray:
    """Matrix of the tau-b values of the ordered column pairs of an (m, n)
    sample, m >= 2, with unit diagonal.

    Entry (i, j), i != j, has the bits of ``scipy.stats.kendalltau(X[:, i],
    X[:, j]).statistic``, which tau-b divides by column i's tie term first:
    where the two columns' tie counts differ, entries (i, j) and (j, i)
    can differ in the last bit.  A pair with a constant column gives 0 and
    a ``DegenerateDataWarning``, and a NaN tau gives 0.  One kernel counts
    every pair: the pair-sign kernel up to ``TAU_SIGN_MAX_M`` rows, else
    Knight's merge count.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("Kendall's tau needs an (m, n) sample, m >= 2")
    T = _tau_matrix(X, _upper_pairs(X.shape[1]))
    np.fill_diagonal(T, 1.0)
    return T


def _symmetric_taus(T: np.ndarray) -> np.ndarray:
    """Tau matrix ``T`` with each pair {i, j}, i < j, read from entry
    (i, j) in both triangles, and 0 on the diagonal, so that a score built
    on it does not depend on which orientation's tie-term division rounds
    up."""
    upper = np.triu(T, 1)
    return upper + upper.T


def kendall_tau(x, y) -> float:
    """Tau-b of two equally long vectors; see :func:`kendall_tau_matrix`."""
    if np.ndim(x) != 1 or np.shape(x) != np.shape(y):
        raise ValueError("kendall_tau needs two equally long vectors, m >= 2")
    return float(kendall_tau_matrix(np.column_stack([x, y]))[0, 1])


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
    if X.ndim != 2:
        raise ValueError("pseudo-observations need an (m, n) sample")
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


@functools.lru_cache(maxsize=64)
def _cvm_null(m: int) -> np.ndarray:
    """Sorted statistics of ``CVM_NULL_DRAWS`` random rank permutations.

    Under independence the ranks of v are a uniformly random permutation
    of those of u whatever the margins, so one table per m serves every
    test of that size.  The draws come from a generator seeded by
    (``CVM_NULL_SEED``, m) alone, in row blocks of at most
    ``CVM_BLOCK_CELLS`` cells (any blocking draws the same stream), and
    ``_cvm_pair_sums`` scores each block against the ranks 1..m.  The
    build costs ~m^2 per draw: on a 2-vCPU VM about 4 ms at m = 31,
    0.14 s at m = 290, 0.55 s at m = 600 and 6.3 s at m = 2000.  The
    table is read-only.
    """
    rng = np.random.default_rng([CVM_NULL_SEED, m])
    ranks = np.arange(1, m + 1)
    per_block = max(1, CVM_BLOCK_CELLS // m)
    null = []
    for lo in range(0, CVM_NULL_DRAWS, per_block):
        s = rng.permuted(
            np.tile(ranks, (min(per_block, CVM_NULL_DRAWS - lo), 1)), axis=1)
        null += _cvm_statistics(
            _cvm_pair_sums(m + 1 - ranks[None], m + 1 - s), ranks, s)
    null = np.sort(null)
    null.flags.writeable = False
    return null


def _cvm_pair_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ik min(a_i, a_k) min(b_i, b_k) of each row of (k, m) ints ``b``.

    ``a`` holds one row per row of ``b``, or one row for them all.  The
    sum runs over a block of rows i against the columns k >= its first
    row, in float64 tables of at most ``CVM_BLOCK_CELLS`` cells (several
    whole rows of ``b`` at a time while they fit); ``a``'s table doubles
    each pair past the block, which stands for both of its orders.  A
    one-row ``a``'s table serves every row of a block.  The sums are
    ``einsum``'s own loops, not BLAS, which would spread a long row over
    every core.  Each product is an integer <= 2 m^2 and every partial sum
    is at most m^4 < 2^53 (m <= ``CVM_MAX_M``), so each sum is exact in
    any order.
    """
    k, m = b.shape
    a, b = a.astype(float), b.astype(float)
    rows = min(m, max(1, CVM_BLOCK_CELLS // m))
    edges = max(1, CVM_BLOCK_CELLS // (rows * m))
    shared = len(a) == 1
    pairs = np.zeros(k, dtype=np.int64)
    for lo in range(0, m, rows):
        for e in range(0, k, edges):
            if e == 0 or not shared:  # a one-row a's table serves all e
                ae = a if shared else a[e:e + edges]
                ta = np.minimum(ae[:, lo:lo + rows, None], ae[:, None, lo:])
                ta[:, :, rows:] *= 2
            be = b[e:e + edges]
            tb = np.minimum(be[:, lo:lo + rows, None], be[:, None, lo:])
            # a one-row a's table broadcasts over the block's rows
            sums = np.einsum("eik,eik->e", ta, tb)
            pairs[e:e + edges] += sums.astype(np.int64)
    return pairs


def indep_tests_cvm(X, pairs, sig_level: float = 0.01) -> list[IndepTestResult]:
    """Rank Cramer-von Mises independence test of each column pair of ``X``.

    ``X`` is an (m, c) sample and ``pairs = (first, second)`` lists the
    tested pairs (X[:, first[j]], X[:, second[j]]) by column index, as
    ``_tau_matrix`` takes them; the result holds one
    :class:`IndepTestResult` per pair.  Each column is ranked once,
    R_i = #{k : x_k <= x_i} (ties share the largest rank, as the empirical
    copula's ``<=`` does), and the statistic is :func:`_cvm_statistics` on
    a pair's ranks.  Its null distribution depends on m alone and is
    simulated once per m (:func:`_cvm_null`), as the R copula package's
    ``indepTestSim`` does, so the test draws nothing from any run's
    generator.  The p-value is (#null >= statistic + 1) / (B + 1), and the
    pair counts as independent when ``p_value >= sig_level``,
    0 < ``sig_level`` < 1.
    """
    if not 0.0 < sig_level < 1.0:  # also catches NaN
        raise ValueError("sig_level must be in (0, 1)")
    X = np.asarray(X, dtype=float)
    first, second = pairs
    if X.ndim != 2 or not 2 <= X.shape[0] <= CVM_MAX_M:
        raise ValueError("the CvM independence test needs an (m, c) sample, "
                         f"2 <= m <= {CVM_MAX_M}")
    if len(first) != len(second):
        raise ValueError("the CvM independence test needs equally long "
                         "first and second column indices")
    if not np.isfinite(X).all():
        raise ValueError("the CvM independence test needs finite values")
    m = X.shape[0]
    R = _le_ranks(X.T)
    r, s = R[first], R[second]
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
    if np.ndim(u) != 1 or np.shape(u) != np.shape(v):
        raise ValueError("indep_test_cvm needs two equally long vectors")
    return indep_tests_cvm(np.column_stack([u, v]), ([0], [1]), sig_level)[0]


def gof_select_copula(u, v, candidates, tau=None) -> BivariateCopula:
    """Moment-fit each candidate family and keep the CvM-closest one.

    ``tau`` is the pair's Kendall tau, ``kendall_tau(u, v)``; a caller that
    already has it passes it in, and without it the tau is computed here.
    Tau depends on ranks alone, so it is the same on the pair and on its
    pseudo-observations.  Each feasible candidate is fitted by tau
    inversion (the Student family additionally gets a profile-likelihood
    degrees-of-freedom fit).  Families that cannot represent the tau are
    skipped; if every candidate is skipped the product copula is returned,
    and if one fit is left it is returned unscored.  Otherwise each fit is
    scored by ``sum_i (C_n(u_i, v_i) - C_theta(u_i, v_i))^2`` at the
    pseudo-observations of the input, which removes marginal noise from
    the comparison, and the first lowest score wins.  The pair is ranked
    only to fit a Student nu or to score two or more fits.
    """
    tau = clip_tau(kendall_tau(u, v) if tau is None else tau)
    fits = []
    for family in candidates:
        family = CopulaFamily(family)
        if family is CopulaFamily.PRODUCT:
            continue
        try:
            fits.append(tau_to_parameter(family, tau))
        except UnsupportedTauError:
            continue
    if not fits:
        return product()
    if len(fits) == 1 and fits[0].family is not CopulaFamily.STUDENT:
        return fits[0]
    U = pseudo_observations(np.column_stack([u, v]))
    fits = [fit_student_dof(U, c.theta) if c.family is CopulaFamily.STUDENT
            else c for c in fits]
    if len(fits) == 1:
        return fits[0]
    u, v = U[:, 0], U[:, 1]
    cn = ((u[None, :] <= u[:, None]) & (v[None, :] <= v[:, None])).mean(axis=1)
    return min(fits, key=lambda c: float(np.sum((cn - copula_cdf(c, u, v)) ** 2)))


def copula_mutual_information(c: BivariateCopula) -> float:
    """Mutual information of a pair coupled by a normal or product copula.

    The normal family's is -log(1 - rho^2)/2 and the product's is 0; any
    other family raises ``ValueError``.  A chain ranks its links by
    |theta| instead, which orders one-parameter links as their mutual
    information does (``ChainDependence.learn``).
    """
    if c.family is CopulaFamily.NORMAL:
        return float(-0.5 * np.log1p(-c.theta * c.theta))
    if c.family is CopulaFamily.PRODUCT:
        return 0.0
    raise ValueError(f"no closed-form mutual information for {c.family.value}")


def _factorizes(M: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def make_positive_definite(R) -> np.ndarray:
    """Repair a correlation matrix so a Cholesky factorization exists.

    A matrix that already factorizes is returned unchanged.  Otherwise one
    pass floors the eigenvalues at 1e-8, reconstructs the matrix and
    rescales it back to unit diagonal.  If that does not factorize, the
    input is shrunk toward the identity, (1 - a) R + a I for a = 2^-30,
    2^-29, ..., 1, and the first that factorizes is returned; a = 1 is the
    identity, so the repair always ends.  A matrix with a NaN or infinite
    entry raises ``LinAlgError``.
    """
    R = np.asarray(R, dtype=float)
    if not np.all(np.isfinite(R)):
        raise np.linalg.LinAlgError("correlation matrix has non-finite entries")
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 1.0)
    if _factorizes(R):
        return R
    eigval, eigvec = np.linalg.eigh(R)
    rebuilt = (eigvec * np.maximum(eigval, EIG_FLOOR)) @ eigvec.T
    d = np.sqrt(np.diag(rebuilt))
    rebuilt = rebuilt / np.outer(d, d)
    rebuilt = 0.5 * (rebuilt + rebuilt.T)
    np.fill_diagonal(rebuilt, 1.0)
    if _factorizes(rebuilt):
        return rebuilt
    identity = np.eye(R.shape[0])
    for k in range(30, 0, -1):
        shrunk = (1.0 - 2.0 ** -k) * R + 2.0 ** -k * identity
        if _factorizes(shrunk):
            return shrunk
    return identity
