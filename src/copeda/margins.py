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
support map to that end.  A ``KernelMargin`` may stack several columns;
they are then solved together, each exactly as on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
_BLOCK = 2 ** 17          # points x sample size a kernel-quantile block holds
_EPS = np.finfo(float).eps
_SQRT_2PI = np.sqrt(2.0 * np.pi)


class MarginKind(str, Enum):
    NORMAL = "normal"
    KERNEL = "kernel"
    TRUNC_NORMAL = "truncnorm"
    BETA_RESCALED = "beta"


@dataclass(frozen=True)
class NormalMargin:
    mu: float
    sigma: float
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

    ``sample`` is one column's (m,) sample with a scalar ``bandwidth``, or
    n columns stacked as (n, m) with an (n,) ``bandwidth`` (``stack``);
    stacked, the last axis of x and p runs over the columns, and every
    column gets exactly the result its own margin would give.
    """

    sample: np.ndarray
    bandwidth: float | np.ndarray
    kind = MarginKind.KERNEL

    @classmethod
    def stack(cls, margins) -> KernelMargin:
        """One margin over the columns of ``margins``, for one solve."""
        return cls(np.stack([k.sample for k in margins]),
                   np.array([k.bandwidth for k in margins]))

    def cdf(self, x):
        x = np.asarray(x, float)
        h = np.asarray(self.bandwidth)[..., None]
        z = (x[..., None] - self.sample) / h
        return _as_result(special.ndtr(z).sum(axis=-1) / z.shape[-1], x)

    def quantile(self, p):
        # Each p's bracket [lo, hi] between adjacent knots, then a Hermite
        # start and the safeguarded Halley iteration of ``_kernel_solve``.
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
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


@dataclass(frozen=True)
class TruncNormalMargin:
    mu: float
    sigma: float
    lower: float
    upper: float
    kind = MarginKind.TRUNC_NORMAL

    def _tails(self):
        zl = special.ndtr((self.lower - self.mu) / self.sigma)
        zu = special.ndtr((self.upper - self.mu) / self.sigma)
        return zl, max(zu - zl, 1e-300)

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


@dataclass(frozen=True)
class BetaRescaledMargin:
    lower: float
    upper: float
    a: float
    b: float
    kind = MarginKind.BETA_RESCALED

    def cdf(self, x):
        y = (np.asarray(x, float) - self.lower) / (self.upper - self.lower)
        return _as_result(_beta.cdf(np.clip(y, 0.0, 1.0), self.a, self.b), x)

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        y = _beta.ppf(p, self.a, self.b)
        return _as_result(self.lower + y * (self.upper - self.lower), p)


MarginModel = NormalMargin | KernelMargin | TruncNormalMargin | BetaRescaledMargin


def _silverman_bandwidth(sample: np.ndarray, sd: float) -> float:
    m = sample.size
    q25, q75 = np.percentile(sample, [25, 75])
    iqr = float(q75 - q25)
    # R's bw.nrd0: the sd alone when the IQR is 0; a constant sample floors
    spread = min(sd, iqr / 1.34) or sd
    return max(0.9 * spread * m ** (-0.2), BANDWIDTH_FLOOR)


def _fit_beta(sample: np.ndarray, lower: float, upper: float) -> tuple[float, float]:
    y = np.clip((sample - lower) / (upper - lower), 1e-6, 1.0 - 1e-6)

    def negloglik(s):
        a, b = s
        if a <= 0 or b <= 0:
            return np.inf
        return -float(np.sum(_beta.logpdf(y, a, b)))

    try:
        res = minimize(negloglik, x0=[1.0, 1.0], method="Nelder-Mead")
        a, b = res.x
        if res.success and np.isfinite(negloglik(res.x)) and a > 0 and b > 0:
            return float(a), float(b)
    except (ValueError, FloatingPointError):
        pass
    return 1.0, 1.0


def fit_margin(kind: MarginKind, sample, lower: float, upper: float) -> MarginModel:
    """Fit a marginal model of the given kind to a sample.

    ``lower`` and ``upper`` are the problem bounds of the variable; the
    normal and kernel kinds ignore them, the truncated normal and rescaled
    beta attach them as the support.
    """
    kind = MarginKind(kind)
    sample = np.asarray(sample, dtype=float)
    if sample.size < 2:
        raise ValueError("need at least two observations to fit a margin")
    if not lower < upper:
        raise ValueError(f"invalid bounds: [{lower}, {upper}]")
    # a NaN or infinite entry makes the sd NaN (so does |x| > ~1e154)
    sd = float(sample.std(ddof=1))
    if not math.isfinite(sd):
        raise ValueError("cannot fit a margin to a non-finite sample "
                         "(a NaN or infinite value, or a variance overflow)")
    if kind is MarginKind.NORMAL:
        return NormalMargin(float(sample.mean()), max(sd, SIGMA_FLOOR))
    if kind is MarginKind.KERNEL:
        return KernelMargin(sample.copy(), _silverman_bandwidth(sample, sd))
    if kind is MarginKind.TRUNC_NORMAL:
        return TruncNormalMargin(float(sample.mean()), max(sd, SIGMA_FLOOR),
                                 float(lower), float(upper))
    a, b = _fit_beta(sample, lower, upper)
    return BetaRescaledMargin(float(lower), float(upper), a, b)
