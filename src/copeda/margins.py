"""Univariate marginal models: fit, CDF and quantile.

Four kinds are supported: a normal fitted by sample mean and (n - 1)
standard deviation, a normal-kernel smoothed empirical distribution with
Silverman rule-of-thumb bandwidth, a truncated normal bound to the problem
box, and a beta distribution fitted after linearly rescaling the data into
(0, 1).  The n - 1 denominator matters: the maximum-likelihood variance
systematically underestimates the spread of small selected populations,
which compounds over generations and causes premature convergence at the
population sizes the benchmark studies pin down.

The kernel quantile has no closed form.  The CDF F and density f at the
knots [min - 4h, sorted sample, max + 4h] give each probability a bracket
between adjacent knots and a start: the inverse cubic Hermite interpolant
of x as a function of F across the bracket, with end slopes 1/f clipped at
three times the secant's (Fritsch & Carlson 1980), so that the start is
monotone in p and inside the bracket.  From there, one pass over the
sample per iteration gives F and its first three derivatives for a Halley
step (Newton's where Halley's correction is large) inside the bracket,
which every residual narrows; a step that would leave it is replaced by
its midpoint, so the iteration cannot diverge where the density is tiny.
A point stops once its residual is at F's rounding level, once a small
Halley step predicts that the next residual will be, or at the resolution
of a 44-step bisection of the support, mostly after one CDF evaluation
past the knots.  Probabilities at or beyond the CDF at either end of the
support map to that end.

Every kind fits, evaluates and inverts stacked columns: fitted to (m, n)
rows, a margin's parameters are (n,) arrays (the kernel's sample is
(n, m)), and ``cdf`` and ``quantile`` map (..., n) arrays, each column bit
for bit as its own (m,) fit, whose fields are floats, would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np
from scipy import special
from scipy.optimize import minimize
from scipy.stats import beta as _beta

from .copulas import _as_result

SIGMA_FLOOR = 1e-300      # anti-zero floor only; must not cap precision
BANDWIDTH_FLOOR = 1e-8
_P_EPS = 1e-12            # interior clamp for quantile probabilities
_NEWTON_MAX_ITER = 100    # hard cap; midpoint steps alone converge in 46
_BLOCK = 2 ** 17          # points x sample size a kernel cdf/quantile block holds
_EPS = np.finfo(float).eps
_SQRT_2PI = np.sqrt(2.0 * np.pi)


class MarginKind(str, Enum):
    NORMAL = "normal"
    KERNEL = "kernel"
    TRUNC_NORMAL = "truncnorm"
    BETA_RESCALED = "beta"


@dataclass(frozen=True, eq=False)
class NormalMargin:
    mu: float | np.ndarray
    sigma: float | np.ndarray
    kind = MarginKind.NORMAL

    def cdf(self, x):
        return _as_result(
            special.ndtr((np.asarray(x, float) - self.mu) / self.sigma), x)

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        return _as_result(self.mu + self.sigma * special.ndtri(p), p)


@dataclass(frozen=True, eq=False)
class KernelMargin:
    """Normal-kernel smoothed empirical distribution.

    ``sample`` is one column's (m,) sample with a float ``bandwidth``, or
    n columns' (n, m) samples with an (n,) ``bandwidth``; the last axis of
    x and p then runs over the columns.
    """

    sample: np.ndarray
    bandwidth: float | np.ndarray
    kind = MarginKind.KERNEL

    def cdf(self, x):
        # in blocks of points: the whole (m, n, m) kernel table of m rows
        # would take n times one column's memory
        x = np.asarray(x, float)
        h = np.asarray(self.bandwidth)[..., None]
        points = math.prod(x.shape[:x.ndim - np.ndim(self.bandwidth)])
        rows = x.reshape(points, *np.shape(self.bandwidth))
        out = np.empty(rows.shape)
        step = max(1, _BLOCK // max(self.sample.size, 1))
        for s in range(0, points, step):
            z = (rows[s:s + step, ..., None] - self.sample) / h
            out[s:s + step] = special.ndtr(z).sum(axis=-1) / z.shape[-1]
        return _as_result(out.reshape(x.shape), x)

    def quantile(self, p):
        # Each p's bracket [lo, hi] between adjacent knots, then a Hermite
        # start and the safeguarded Halley iteration of ``_kernel_solve``.
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        if p.size == 0:  # no points, or a margin over no columns
            return p
        S = self.sample.reshape(-1, self.sample.shape[-1])
        (n, m), h = S.shape, np.reshape(self.bandwidth, -1)
        if self.sample.ndim > 1 and p.shape[-1:] != (n,):
            raise ValueError(f"p's last axis must have the {n} columns")
        P = p.reshape(-1, n)
        knots = np.concatenate(((S.min(axis=1) - 4.0 * h)[:, None],
                                np.sort(S, axis=1),
                                (S.max(axis=1) + 4.0 * h)[:, None]), axis=1)
        z = (knots[:, :, None] - S[:, None, :]) / h[:, None, None]
        F = special.ndtr(z).sum(axis=-1) / m
        f = np.exp(-0.5 * z * z).sum(axis=-1) / m / (h[:, None] * _SQRT_2PI)
        # p at or beyond F at a support end maps to that end; NaN stays NaN
        x = np.where(P <= F[:, 0], knots[:, 0],
                     np.where(P >= F[:, -1], knots[:, -1], np.nan))
        todo = np.flatnonzero((P > F[:, 0]) & (P < F[:, -1]))
        col, target = todo % n, P.ravel()[todo]
        k = np.column_stack([np.searchsorted(F[c], P[:, c], side="right")
                             for c in range(n)]).ravel()[todo]
        lo, hi = knots[col, k - 1], knots[col, k]
        t = (target - F[col, k - 1]) / (F[col, k] - F[col, k - 1])
        # Inverse cubic Hermite in F: slopes dx/dF = 1/f at the ends, as
        # multiples of the secant's, clipped at 3 (Fritsch & Carlson 1980)
        # so the cubic is monotone and stays in the bracket.
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = (F[col, k] - F[col, k - 1]) / (hi - lo)
            a0 = np.minimum(secant / f[col, k - 1], 3.0)
            a1 = np.minimum(secant / f[col, k], 3.0)
            u = 1.0 - t
            cur = lo + (hi - lo) * t * (t * (3.0 - 2.0 * t)
                                        + u * (u * a0 - t * a1))
        cur = np.where(np.isfinite(cur), np.clip(cur, lo, hi),
                       lo + t * (hi - lo))
        # the 44-step bisection's resolution of each column's support
        span = 2.0 ** -46 * (knots[:, -1] - knots[:, 0])
        out = x.ravel()
        rows = max(1, _BLOCK // m)
        for s in range(0, todo.size, rows):
            b = slice(s, s + rows)
            out[todo[b]] = _kernel_solve(S, h, span, col[b], target[b],
                                         lo[b], hi[b], cur[b])
        return _as_result(out.reshape(p.shape), p)


def _kernel_solve(S, h, span, col, target, lo, hi, cur):
    """x with F(x) = target for each point, F being column ``col``'s CDF.

    One pass over the sample per iteration gives F and, from one exp row,
    its first three derivatives.  The Halley step x - (r/f) / (1 - a), with
    r = F(x) - target and a = r F'' / (2 f^2), is taken where |a| <= 1/2,
    Newton's elsewhere; a step that leaves the bracket, which every residual
    narrows, is replaced by the bracket's midpoint.  A point stops once its
    residual is at F's rounding level, its step or bracket is within the
    tolerance, or a Halley step d predicts a next residual f K d^3 at that
    level, K = |(F''/2f)^2 - F'''/(6f)| being Halley's error constant.  The
    prediction also needs d <= h/10^4: the next term, of order (d/h)^4 in
    the residual, is then at the rounding level too, even where K is ~0.
    """
    m = S.shape[1]
    x = np.empty(target.size)
    todo = np.arange(target.size)
    for _ in range(_NEWTON_MAX_ITER):
        # two (points, m) arrays, reused in place: z, then ndtr(z) and the
        # exp row e, giving the sums of e, z e and z^2 e
        hc = h[col]
        z = S[col]
        np.subtract(cur[:, None], z, out=z)
        np.divide(z, hc[:, None], out=z)
        w = special.ndtr(z)
        resid = w.sum(axis=-1) / m - target
        np.multiply(z, z, out=w)
        np.multiply(w, -0.5, out=w)
        e0 = np.exp(w, out=w).sum(axis=-1)
        e1 = np.multiply(z, w, out=w).sum(axis=-1)
        e2 = np.multiply(z, w, out=w).sum(axis=-1)
        lo = np.where(resid < 0.0, cur, lo)
        hi = np.where(resid > 0.0, cur, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dens = e0 / m / (hc * _SQRT_2PI)
            newton = resid / dens
            bend = -e1 / (2.0 * hc * e0)                   # F'' / (2f)
            a = newton * bend
            halley = np.abs(a) <= 0.5
            step = cur - np.where(halley, newton / (1.0 - a), newton)
            K = np.abs(bend * bend - (e2 - e0) / (6.0 * hc * hc * e0))
        inside = (step >= lo) & (step <= hi)
        nxt = np.where(inside, step, 0.5 * (lo + hi))
        d = np.abs(nxt - cur)
        tol = np.maximum(span[col], 4.0 * _EPS * np.abs(nxt))
        # at F's rounding level the residual's sign is noise, and where
        # the density is small Newton would hop between two points a
        # step > tol apart until the iteration cap
        exact = np.abs(resid) <= 4.0 * _EPS * target
        settled = (inside & halley & (d <= 1e-4 * hc)
                   & (dens * K * d ** 3 <= 4.0 * _EPS * target))
        done = exact | settled | (d <= tol) | (hi - lo <= tol)
        x[todo] = np.where(exact, cur, nxt)
        keep = ~done
        todo, col, target, lo, hi, cur = (todo[keep], col[keep], target[keep],
                                          lo[keep], hi[keep], nxt[keep])
        if todo.size == 0:
            break
    return x


@dataclass(frozen=True, eq=False)
class TruncNormalMargin:
    mu: float | np.ndarray
    sigma: float | np.ndarray
    lower: float | np.ndarray
    upper: float | np.ndarray
    kind = MarginKind.TRUNC_NORMAL

    def _tails(self):
        zl = special.ndtr((self.lower - self.mu) / self.sigma)
        zu = special.ndtr((self.upper - self.mu) / self.sigma)
        return zl, np.maximum(zu - zl, 1e-300)

    def cdf(self, x):
        x = np.asarray(x, float)
        zl, span = self._tails()
        raw = (special.ndtr((x - self.mu) / self.sigma) - zl) / span
        return _as_result(np.clip(raw, 0.0, 1.0), x)

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        zl, span = self._tails()
        x = self.mu + self.sigma * special.ndtri(np.clip(zl + p * span, 1e-300, 1.0))
        return _as_result(np.clip(x, self.lower, self.upper), p)


@dataclass(frozen=True, eq=False)
class BetaRescaledMargin:
    lower: float | np.ndarray
    upper: float | np.ndarray
    a: float | np.ndarray
    b: float | np.ndarray
    kind = MarginKind.BETA_RESCALED

    def cdf(self, x):
        y = (np.asarray(x, float) - self.lower) / (self.upper - self.lower)
        return _as_result(_beta.cdf(np.clip(y, 0.0, 1.0), self.a, self.b), x)

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        y = _beta.ppf(p, self.a, self.b)
        return _as_result(self.lower + y * (self.upper - self.lower), p)


MarginModel = NormalMargin | KernelMargin | TruncNormalMargin | BetaRescaledMargin


def _columns(margin: MarginModel) -> list[MarginModel]:
    """A margin with float fields per column; fitted to n columns, every
    field is an array with the columns on its first axis."""
    values = [getattr(margin, f.name) for f in fields(margin)]
    if any(np.ndim(v) == 0 for v in values):
        return [margin]
    return [type(margin)(*(float(v) if np.ndim(v) == 0 else v for v in column))
            for column in zip(*values)]


def _silverman_bandwidth(S: np.ndarray, sd):
    """R's bw.nrd0 of each sample along the last axis of S."""
    m = S.shape[-1]
    q25, q75 = np.percentile(S, [25, 75], axis=-1)
    # R's bw.nrd0: the sd alone when the IQR is 0; a constant sample floors
    spread = np.minimum(sd, (q75 - q25) / 1.34)
    # m ** -0.2 as a Python int power: numpy's power differs from it in the
    # last bit at some m (51, 70, 79, ...)
    return np.maximum(0.9 * np.where(spread, spread, sd) * m ** -0.2,
                      BANDWIDTH_FLOOR)


def _beta_loglik(y: np.ndarray):
    """(a, b) -> sum_i log beta(y_i; a, b) of a sample inside (0, 1).

    The sample enters only through m, sum log y and sum log(1 - y):
    (a - 1) sum log y + (b - 1) sum log(1 - y) - m log B(a, b).
    """
    m = y.size
    log_y, log_1my = float(np.log(y).sum()), float(np.log1p(-y).sum())

    def loglik(a, b):
        return ((a - 1.0) * log_y + (b - 1.0) * log_1my
                - m * special.betaln(a, b))

    return loglik


def _fit_beta(sample: np.ndarray, lower: float, upper: float) -> tuple[float, float]:
    # Nelder-Mead from (1, 1), as copulaedas's beta margin runs R's optim
    y = np.clip((sample - lower) / (upper - lower), 1e-6, 1.0 - 1e-6)
    loglik = _beta_loglik(y)

    def negloglik(s):
        a, b = s
        if a <= 0 or b <= 0:
            return np.inf
        return -float(loglik(a, b))

    try:
        res = minimize(negloglik, x0=[1.0, 1.0], method="Nelder-Mead")
        a, b = res.x
        # keep the point also when Nelder-Mead stops at its iteration cap:
        # on a tight sample that point is far nearer than uniform (1, 1)
        if np.isfinite(negloglik(res.x)) and a > 0 and b > 0:
            return float(a), float(b)
    except (ValueError, FloatingPointError):
        pass
    return 1.0, 1.0


def fit_margin(kind: MarginKind, sample, lower, upper) -> MarginModel:
    """Fit a marginal model of the given kind to each column of a sample.

    (m, n) rows give one margin with (n,) parameter arrays, and an (m,)
    sample its one column, with float fields.  ``lower`` and ``upper`` are
    the problem bounds, scalars or (n,); the normal and kernel kinds ignore
    them, the truncated normal and rescaled beta attach them as the support.
    """
    kind = MarginKind(kind)
    X = np.asarray(sample, dtype=float)
    if X.ndim == 1:
        return _columns(fit_margin(kind, X[:, None], lower, upper))[0]
    if X.ndim != 2 or len(X) < 2:
        raise ValueError("need (m,) or (m, n) observations with m >= 2")
    m = len(X)
    # one contiguous row per column: numpy's pairwise sums along it give
    # each column the bits of its own (m,) fit
    S = np.array(X.T, order="C")
    lower = np.array(np.broadcast_to(lower, len(S)), dtype=float)
    upper = np.array(np.broadcast_to(upper, len(S)), dtype=float)
    if not np.all(lower < upper):
        raise ValueError(f"invalid bounds: [{lower}, {upper}]")
    # the steps, and so the bits, of x.mean() and x.std(ddof=1) of each
    # column; a NaN or infinite entry makes the sd NaN (so does |x| > ~1e154)
    mean = np.add.reduce(S, axis=1) / m
    dev = S - mean[:, None]
    sd = np.sqrt(np.add.reduce(dev * dev, axis=1) / (m - 1))
    if not np.all(np.isfinite(sd)):
        raise ValueError("cannot fit a margin to a non-finite sample "
                         "(a NaN or infinite value, or a variance overflow)")
    sigma = np.maximum(sd, SIGMA_FLOOR)
    if kind is MarginKind.NORMAL:
        return NormalMargin(mean, sigma)
    if kind is MarginKind.KERNEL:
        return KernelMargin(S, _silverman_bandwidth(S, sd))
    if kind is MarginKind.TRUNC_NORMAL:
        return TruncNormalMargin(mean, sigma, lower, upper)
    # scipy's Nelder-Mead takes one objective: one run per column
    a, b = np.reshape([_fit_beta(*column) for column in zip(S, lower, upper)],
                      (-1, 2)).T
    return BetaRescaledMargin(lower, upper, a, b)
