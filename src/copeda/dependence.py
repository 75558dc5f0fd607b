"""Nonparametric dependence statistics and tests.

Kendall's tau, pseudo-observations, the empirical copula, a permutation
Cramer-von Mises independence test, CvM goodness-of-fit copula selection,
copula-entropy mutual information, and positive-definite repair of
correlation matrices.

The independence test draws all its permutations up front but evaluates
their statistics only until the accept/reject decision is settled; the
exact p-value is completed on first access.
"""

from __future__ import annotations

import bisect
import functools
import warnings

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
# Booleans per chunk of the CvM replicate indicators (rows x m x replicates).
_CVM_CHUNK_CELLS = 1 << 20
# Replicates per CvM block before the last, which takes the rest.
_CVM_BLOCKS = (8, 32)


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


def _empirical_copula_at_sample(le_u: np.ndarray, le_v: np.ndarray) -> np.ndarray:
    # C_n at the sample points from precomputed "<=" indicator matrices
    return (le_u & le_v).mean(axis=1)


class IndepTestResult:
    """Outcome of :func:`indep_test_cvm`: a value of three fields.

    ``statistic`` and ``independent`` are set when the test returns.
    ``p_value`` may still owe the replicates the decision did not need;
    its first access evaluates them from the stored arrays, so it is
    always the exact permutation p-value.  ``==``, ``hash`` and ``repr``
    use the three fields; the result pickles with its arrays.
    """

    def __init__(self, statistic: float, independent: bool, exceed: int,
                 replicates: int, pending: tuple | None = None):
        self.statistic = statistic
        self.independent = independent
        self._exceed = exceed
        self._replicates = replicates
        # (u, le_u, permuted v rows) of the replicates not yet evaluated
        self._pending = pending

    @property
    def p_value(self) -> float:
        if self._pending is not None:
            rest = _cvm_stats(*self._pending)
            self._exceed += int(np.count_nonzero(rest >= self.statistic))
            self._pending = None
        return (self._exceed + 1.0) / (self._replicates + 1.0)

    def _key(self):
        return self.statistic, self.p_value, self.independent

    def __eq__(self, other):
        if not isinstance(other, IndepTestResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"IndepTestResult(statistic={self.statistic!r}, "
                f"p_value={self.p_value!r}, independent={self.independent!r})")


def _cvm_stats(u: np.ndarray, le_u: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """CvM statistic of ``u`` against each row of ``vp`` (v reordered)."""
    n, m = vp.shape
    vt = vp.T.copy()  # replicates on the fast axis keep the inner loops long
    counts = np.empty((n, m), dtype=np.int32)
    rows = max(1, _CVM_CHUNK_CELLS // max(m * n, 1))
    for lo in range(0, m, rows):
        # le[i, k, b] = (vp_bk <= vp_bi): le_v[np.ix_(perm, perm)] per replicate
        le = vt[None, :, :] <= vt[lo:lo + rows, None, :]
        le &= le_u[lo:lo + rows, :, None]
        counts[:, lo:lo + rows] = le.view(np.uint8).sum(axis=1, dtype=np.int32).T
    # exact counts / m equal the indicator means of C_n, and each C-ordered
    # row sums in the order np.sum gives one replicate's 1-D array
    return np.sum((counts / m - u * vp) ** 2, axis=1)


@functools.lru_cache(maxsize=64)
def _exceed_needed(replicates: int, sig_level: float) -> int:
    """Fewest exceedances e with ``(e + 1) / (B + 1) >= sig_level``.

    The same float test as ``p_value >= sig_level``; the quotient grows
    with e, so a bisection finds it.  B + 1 when no count passes.
    """
    return bisect.bisect_left(
        range(replicates + 1), True,
        key=lambda e: (e + 1.0) / (replicates + 1.0) >= sig_level)


def indep_test_cvm(u, v, replicates: int = 100,
                   rng: np.random.Generator | None = None,
                   sig_level: float = 0.01) -> IndepTestResult:
    """Cramer-von Mises independence test with a permutation p-value.

    The statistic is ``sum_i (C_n(u_i, v_i) - u_i v_i)^2``; the p-value is
    the fraction of replicates (one margin permuted) at least as large as
    the observed statistic, with the (r + 1) / (B + 1) correction, and the
    pair counts as independent when ``p_value >= sig_level``.

    All ``replicates`` permutations are drawn up front, so the generator
    advances as if every replicate ran.  Their statistics are evaluated in
    blocks of 8, 32 and the rest, stopping once the count of replicates
    at least as large as the observed one settles the decision either way.
    ``p_value`` evaluates any replicates left over on first access.
    """
    if replicates < 0:
        raise ValueError(f"replicates must be >= 0, got {replicates}")
    if rng is None:
        rng = np.random.default_rng()
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m = u.size
    le_u = u[None, :] <= u[:, None]   # le_u[i, k] = (u_k <= u_i)
    # row 0, the identity, gives the observed statistic; the rest are the
    # same draws, in the same order, as one rng.permutation(m) per replicate
    idx = np.empty((replicates + 1, m), dtype=np.intp)
    idx[:] = np.arange(m)
    rng.permuted(idx[1:], axis=1, out=idx[1:])
    need = _exceed_needed(replicates, sig_level)
    first = _cvm_stats(u, le_u, v[idx[:1 + _CVM_BLOCKS[0]]])
    observed = float(first[0])
    exceed = int(np.count_nonzero(first[1:] >= observed))
    done = first.size  # rows of idx evaluated
    for block in _CVM_BLOCKS[1:] + (replicates,):
        # settled: enough exceedances, or too few replicates left for them
        if exceed >= need or exceed + replicates + 1 - done < need:
            break
        more = _cvm_stats(u, le_u, v[idx[done:done + block]])
        exceed += int(np.count_nonzero(more >= observed))
        done += more.size
    pending = (u, le_u, v[idx[done:]]) if done <= replicates else None
    return IndepTestResult(observed, exceed >= need, exceed, replicates,
                           pending)


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
    le_u = u[None, :] <= u[:, None]
    le_v = v[None, :] <= v[:, None]
    cn = _empirical_copula_at_sample(le_u, le_v)
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
