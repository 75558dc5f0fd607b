"""Nonparametric dependence statistics and tests.

Kendall's tau, pseudo-observations, the rank Cramer-von Mises independence
test of Genest & Remillard (2004), CvM goodness-of-fit copula selection,
copula-entropy mutual information, and positive-definite repair of
correlation matrices.  Entry (i, j) of the tau matrix is the tau of the
ordered pair (X_i, X_j), and ``kendall_tau`` reads entry (0, 1).  Each
call takes one kernel for the whole matrix: the pair-sign kernel, or a
per-pair fallback for long samples or ones with an infinite value, which
is copeda's only use of ``scipy.stats``: it imports the module on first
use, not at import.

The independence test's null distribution depends only on the sample size;
it is simulated once per size from a fixed seed and cached, so no test
draws from a caller's generator.  One exact pair-sum kernel,
``_cvm_pair_sums``, scores both the observed statistics and the null's
permutations: its float64 sums of integers stay below 2^53, so they are
exact in any order and under any BLAS kernel.  ``indep_tests_cvm`` tests
a stack of equally long pairs in one call (a vine fitter's whole tree);
``indep_test_cvm`` is its one-pair form.
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
    copula_logpdf,
    copula_sample,
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


# When the pair-sign kernel runs in place of scipy's O(m log m) merge count
# (Knight 1966) pair by pair.  The kernel costs ~n m^2 and scipy ~n (n - 1) / 2
# calls, so the break-even m grows with the column count n: measured at
# m ~ 190, 310 and 520 for n = 2, 5 and 10 (m^2 ~ 30000 (n - 1)).  The cap
# bounds the sign matrix, n m (m - 1) / 2 floats: 3.6 MB at m = 300, n = 10.
TAU_SIGN_MAX_M = 300
TAU_SIGN_M2_PER_COLUMN = 30_000


@functools.lru_cache(maxsize=64)
def _upper_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(size, 1)``: every (i, j) with i < j."""
    pairs = np.triu_indices(size, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _sign_tau(X: np.ndarray) -> np.ndarray:
    """tau-b of every ordered column pair (i, j) of a sample with no
    infinite value; NaN where column i or j is constant or holds a NaN.

    Row j of ``S`` holds the signs of column j's differences over all row
    pairs, so ``S @ S.T`` holds concordant minus discordant pair counts
    off the diagonal and untied pair counts on it.  The entries are -1, 0
    and 1, so the float64 (BLAS) sums are exact integers, and
    G[i, j] / sqrt(G[i, i]) / sqrt(G[j, j]), clamped, is scipy's expression
    for x = column i, y = column j: entry (i, j) has the bits of
    ``scipy.stats.kendalltau(X[:, i], X[:, j])``.  A constant column's
    entries are 0/0.
    """
    first, second = _upper_pairs(X.shape[0])
    S = np.sign(X[first] - X[second]).T
    G = S @ S.T
    root = np.sqrt(np.diag(G))
    with np.errstate(invalid="ignore"):
        return np.clip(G / root[:, None] / root[None, :], -1.0, 1.0)


def kendall_tau_matrix(X) -> np.ndarray:
    """Matrix of the tau-b values of the ordered column pairs of an (m, n)
    sample, m >= 2, with unit diagonal.

    Entry (i, j), i != j, has the bits of ``scipy.stats.kendalltau(X[:, i],
    X[:, j]).statistic``, which tau-b divides by column i's tie term first:
    where the two columns' tie counts differ, entries (i, j) and (j, i)
    can differ in the last bit.  A pair with a constant column gives 0 and
    a ``DegenerateDataWarning``, and a NaN tau gives 0.  The whole matrix
    comes from a pair-sign kernel where it beats scipy's merge count
    (``TAU_SIGN_M2_PER_COLUMN``) and no value is infinite; otherwise every
    pair goes to scipy, once per orientation when either column has ties.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("Kendall's tau needs an (m, n) sample, m >= 2")
    m, n = X.shape
    i, j = _upper_pairs(n)
    constant = (X == X[0]).all(axis=0)
    for _ in range(np.count_nonzero(constant[i] | constant[j])):
        warnings.warn("constant input vector; tau set to 0",
                      DegenerateDataWarning, stacklevel=2)
    if (m <= TAU_SIGN_MAX_M and m * m <= TAU_SIGN_M2_PER_COLUMN * (n - 1)
            and not np.isinf(X).any()):
        T = _sign_tau(X)
    else:
        T = np.zeros((n, n))
        s = np.sort(X, axis=0)
        tied = (s[1:] == s[:-1]).any(axis=0)
        for a, b in zip(i.tolist(), j.tolist()):
            if not (constant[a] or constant[b]):
                from scipy import stats  # loaded on first use only
                T[a, b] = stats.kendalltau(X[:, a], X[:, b]).statistic
                T[b, a] = (stats.kendalltau(X[:, b], X[:, a]).statistic
                           if tied[a] or tied[b] else T[a, b])
    T[np.isnan(T)] = 0.0
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
    one-row ``a`` serves every row of a block through one matrix-vector
    product.  Each product is an integer <= 2 m^2 and every partial sum
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
            sums = (tb.reshape(len(be), -1) @ ta.ravel() if shared
                    else np.einsum("eik,eik->e", ta, tb))
            pairs[e:e + edges] += sums.astype(np.int64)
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
    independent when ``p_value >= sig_level``, 0 < ``sig_level`` < 1.
    """
    if not 0.0 < sig_level < 1.0:  # also catches NaN
        raise ValueError("sig_level must be in (0, 1)")
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape or U.ndim != 2 or not 2 <= U.shape[1] <= CVM_MAX_M:
        raise ValueError("the CvM independence test needs equally long "
                         f"vectors, 2 <= m <= {CVM_MAX_M}")
    if not (np.isfinite(U).all() and np.isfinite(V).all()):
        raise ValueError("the CvM independence test needs finite values")
    k, m = U.shape
    ranks = _le_ranks(np.concatenate([U, V]))
    r, s = ranks[:k], ranks[k:]
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
