"""Univariate marginal models: fit, CDF and quantile.

Four kinds are supported: a normal fitted by sample mean and (n - 1)
standard deviation, a normal-kernel smoothed empirical distribution with
Silverman rule-of-thumb bandwidth, a truncated normal bound to the problem
box, and a beta distribution fitted after linearly rescaling the data into
(0, 1).  The n - 1 denominator matters: the maximum-likelihood variance
systematically underestimates the spread of small selected populations,
which compounds over generations and causes premature convergence at the
population sizes the benchmark studies pin down.

The kernel quantile has no closed form.  It is found by Newton's method on
the smoothed CDF, using the kernel density as the derivative, inside a
bracket between adjacent sorted sample points that every step narrows; a
step that would leave the bracket is replaced by its midpoint, so the
iteration cannot diverge where the density is tiny.  It stops at the
resolution of a 44-step bisection of the support [min - 4h, max + 4h], or
once the residual is at the CDF's rounding level, usually after three or
four CDF evaluations.  Probabilities at or beyond the CDF at either end of
the support map to that end.
"""

from __future__ import annotations

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
    sample: np.ndarray
    bandwidth: float
    kind = MarginKind.KERNEL

    def cdf(self, x):
        x = np.asarray(x, float)
        z = (x[..., None] - self.sample) / self.bandwidth
        return _as_result(special.ndtr(z).mean(axis=-1), x)

    def quantile(self, p):
        # Safeguarded Newton on F(x) - p over the support [min - 4h, max + 4h].
        # The CDF at the sorted sample gives each p a bracket [lo, hi] with
        # F(lo) <= p < F(hi); each step shrinks it by the residual's sign and
        # falls back to the midpoint when the Newton step leaves it.  A step
        # onto a bracket end is kept: the residual there can be exactly 0.
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        h = self.bandwidth
        knots = np.concatenate(([self.sample.min() - 4.0 * h],
                                np.sort(self.sample),
                                [self.sample.max() + 4.0 * h]))
        f_knots = self.cdf(knots)
        flat = p.ravel()
        x = np.full(flat.shape, np.nan)  # a NaN p stays NaN
        x[flat <= f_knots[0]] = knots[0]
        x[flat >= f_knots[-1]] = knots[-1]
        todo = np.flatnonzero((flat > f_knots[0]) & (flat < f_knots[-1]))
        # the 44-step bisection's resolution, floored at a few ulp of x
        tol_span = 2.0 ** -46 * (knots[-1] - knots[0])
        k = np.searchsorted(f_knots, flat[todo], side="right")
        lo, hi, target = knots[k - 1], knots[k], flat[todo]
        # start from the linear interpolant of F across the bracket
        cur = lo + (target - f_knots[k - 1]) / (f_knots[k] - f_knots[k - 1]) \
            * (hi - lo)
        for _ in range(_NEWTON_MAX_ITER):
            z = (cur[:, None] - self.sample) / h
            resid = special.ndtr(z).mean(axis=-1) - target
            dens = np.exp(-0.5 * z * z).mean(axis=-1) / (h * _SQRT_2PI)
            lo = np.where(resid < 0.0, cur, lo)
            hi = np.where(resid > 0.0, cur, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = cur - resid / dens
            nxt = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            tol = np.maximum(tol_span, 4.0 * _EPS * np.abs(nxt))
            # at F's rounding level the residual's sign is noise, and where
            # the density is small Newton would hop between two points a
            # step > tol apart until the iteration cap
            exact = np.abs(resid) <= 4.0 * _EPS * target
            done = exact | (np.abs(nxt - cur) <= tol) | (hi - lo <= tol)
            x[todo] = np.where(exact, cur, nxt)
            keep = ~done
            todo, target, lo, hi, cur = (todo[keep], target[keep], lo[keep],
                                         hi[keep], nxt[keep])
            if todo.size == 0:
                break
        return _as_result(x.reshape(p.shape), p)


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


def _silverman_bandwidth(sample: np.ndarray) -> float:
    m = sample.size
    sd = float(np.std(sample, ddof=1))
    q25, q75 = np.percentile(sample, [25, 75])
    iqr = float(q75 - q25)
    h = 0.9 * min(sd, iqr / 1.34) * m ** (-0.2)
    return max(h, BANDWIDTH_FLOOR)


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
    if kind is MarginKind.NORMAL:
        return NormalMargin(float(sample.mean()),
                            max(float(sample.std(ddof=1)), SIGMA_FLOOR))
    if kind is MarginKind.KERNEL:
        return KernelMargin(sample.copy(), _silverman_bandwidth(sample))
    if kind is MarginKind.TRUNC_NORMAL:
        return TruncNormalMargin(float(sample.mean()),
                                 max(float(sample.std(ddof=1)), SIGMA_FLOOR),
                                 float(lower), float(upper))
    a, b = _fit_beta(sample, lower, upper)
    return BetaRescaledMargin(float(lower), float(upper), a, b)
