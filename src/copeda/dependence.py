"""Nonparametric dependence statistics and tests.

Kendall's tau, pseudo-observations, the empirical copula, the rank
Cramer-von Mises independence test of Genest & Remillard (2004), CvM
goodness-of-fit copula selection, copula-entropy mutual information, and
positive-definite repair of correlation matrices.

The independence test's null distribution depends only on the sample size;
it is simulated once per size from a fixed seed and cached, so no test
draws from a caller's generator.
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


def _sign_tau(X: np.ndarray) -> np.ndarray:
    """tau-b of every column pair of a finite, nowhere-constant sample.

    Row j of ``S`` holds the signs of column j's differences over all row
    pairs, so ``S @ S.T`` holds concordant minus discordant pair counts
    off the diagonal and untied pair counts on it.  The entries are -1, 0
    and 1, so the float64 (BLAS) sums are exact integers; the tau-b
    expression and clamp are scipy's, which keeps entry (i, j), i < j,
    equal to ``scipy.stats.kendalltau(X[:, i], X[:, j])`` bit for bit.
    """
    first, second = np.triu_indices(X.shape[0], 1)
    S = np.array([np.sign(col[first] - col[second]) for col in X.T])
    G = S @ S.T
    root = np.sqrt(np.diag(G))
    T = np.clip(G / root[:, None] / root[None, :], -1.0, 1.0)
    lower = np.tril_indices(X.shape[1], -1)
    T[lower] = T.T[lower]  # keep scipy's (x = i, y = j) division order
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


def pseudo_observations(X) -> np.ndarray:
    """Column-wise rank/(m+1) transform with average ranks on ties."""
    X = np.asarray(X, dtype=float)
    return stats.rankdata(X, method="average", axis=0) / (X.shape[0] + 1.0)


def empirical_copula_at(U, u: float, v: float) -> float:
    """Empirical copula of a two-column sample at the point (u, v)."""
    U = np.asarray(U, dtype=float)
    return float(np.mean((U[:, 0] <= u) & (U[:, 1] <= v)))


@dataclass(frozen=True)
class IndepTestResult:
    """Outcome of :func:`indep_test_cvm`."""

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


def indep_test_cvm(u, v, sig_level: float = 0.01) -> IndepTestResult:
    """Rank Cramer-von Mises independence test of two equally long vectors.

    The statistic is :func:`_cvm_statistics` on the ranks
    R_i = #{k : u_k <= u_i} (ties share the largest rank, as the
    empirical copula's ``<=`` does).  Its null distribution depends on m
    alone and is simulated once per m (:func:`_cvm_null`), as the R copula
    package's ``indepTestSim`` does, so the test draws nothing from any
    run's generator.  The p-value is (#null >= statistic + 1) / (B + 1),
    and the pair counts as independent when ``p_value >= sig_level``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m = u.size
    if u.shape != v.shape or u.ndim != 1 or not 2 <= m <= CVM_MAX_M:
        raise ValueError("indep_test_cvm needs two equally long vectors, "
                         f"2 <= m <= {CVM_MAX_M}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("indep_test_cvm needs finite values")
    r = np.searchsorted(np.sort(u), u, side="right")
    s = np.searchsorted(np.sort(v), v, side="right")
    # m + 1 - max(r_i, r_k) = min(m + 1 - r_i, m + 1 - r_k), in row blocks
    ru, sv, rows = m + 1 - r, m + 1 - s, max(1, CVM_BLOCK_CELLS // m)
    pairs = sum(int(np.sum(np.minimum.outer(ru[lo:lo + rows], ru)
                           * np.minimum.outer(sv[lo:lo + rows], sv)))
                for lo in range(0, m, rows))
    statistic = _cvm_statistics(pairs, r, s)[0]
    null = _cvm_null(m)
    exceed = null.size - int(np.searchsorted(null, statistic, side="left"))
    p_value = (exceed + 1.0) / (null.size + 1.0)
    return IndepTestResult(statistic, p_value, bool(p_value >= sig_level))


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


def copula_mutual_information(c: BivariateCopula,
                              rng: np.random.Generator | None = None,
                              samples: int = 100) -> float:
    """Mutual information of the coupled pair via the copula entropy.

    The normal family has the closed form -log(1 - rho^2)/2; other families
    are estimated by a Monte-Carlo average of the log density over draws
    from the copula itself.  The estimate is floored at zero.
    """
    if c.family is CopulaFamily.NORMAL:
        return float(-0.5 * np.log1p(-c.theta * c.theta))
    if c.family is CopulaFamily.PRODUCT:
        return 0.0
    if rng is None:
        rng = np.random.default_rng()
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
