"""Univariate marginal models: fit, CDF and quantile.

Four kinds are supported: a normal fitted by sample mean and (n - 1)
standard deviation, a normal-kernel smoothed empirical distribution with
Silverman rule-of-thumb bandwidth, a truncated normal bound to the problem
box, and a beta distribution fitted after linearly rescaling the data into
(0, 1).  The n - 1 denominator matters: the maximum-likelihood variance
systematically underestimates the spread of small selected populations,
which compounds over generations and causes premature convergence at the
population sizes the benchmark studies pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special
from scipy.optimize import minimize
from scipy.stats import beta as _beta

SIGMA_FLOOR = 1e-300      # anti-zero floor only; must not cap precision
BANDWIDTH_FLOOR = 1e-8
_P_EPS = 1e-12            # interior clamp for quantile probabilities


class MarginKind(str, Enum):
    NORMAL = "normal"
    KERNEL = "kernel"
    TRUNC_NORMAL = "truncnorm"
    BETA_RESCALED = "beta"


def _scalar_or_array(x, *inputs):
    if all(np.ndim(i) == 0 for i in inputs):
        return float(x)
    return x


@dataclass(frozen=True)
class NormalMargin:
    mu: float
    sigma: float
    kind = MarginKind.NORMAL

    def cdf(self, x):
        return _scalar_or_array(
            special.ndtr((np.asarray(x, float) - self.mu) / self.sigma), x)

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        return _scalar_or_array(self.mu + self.sigma * special.ndtri(p), p)


@dataclass(frozen=True, eq=False)
class KernelMargin:
    sample: np.ndarray
    bandwidth: float
    kind = MarginKind.KERNEL

    def cdf(self, x):
        x = np.asarray(x, float)
        z = (x[..., None] - self.sample) / self.bandwidth
        return _scalar_or_array(special.ndtr(z).mean(axis=-1), x)

    def quantile(self, p):
        # monotone bisection on the smoothed CDF over the data range +/- 4h
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        lo = np.full(p.shape, self.sample.min() - 4.0 * self.bandwidth)
        hi = np.full(p.shape, self.sample.max() + 4.0 * self.bandwidth)
        for _ in range(44):  # relative width ~1e-13 of the initial bracket
            mid = 0.5 * (lo + hi)
            low_side = self.cdf(mid) < p
            lo = np.where(low_side, mid, lo)
            hi = np.where(low_side, hi, mid)
        return _scalar_or_array(0.5 * (lo + hi), p)


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
        return _scalar_or_array(np.clip(raw, 0.0, 1.0), x)

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        zl, span = self._tails()
        x = self.mu + self.sigma * special.ndtri(np.clip(zl + p * span, 1e-300, 1.0))
        return _scalar_or_array(np.clip(x, self.lower, self.upper), p)


@dataclass(frozen=True)
class BetaRescaledMargin:
    lower: float
    upper: float
    a: float
    b: float
    kind = MarginKind.BETA_RESCALED

    def cdf(self, x):
        y = (np.asarray(x, float) - self.lower) / (self.upper - self.lower)
        return _scalar_or_array(_beta.cdf(np.clip(y, 0.0, 1.0), self.a, self.b), x)

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        y = _beta.ppf(p, self.a, self.b)
        return _scalar_or_array(self.lower + y * (self.upper - self.lower), p)


MarginModel = NormalMargin | KernelMargin | TruncNormalMargin | BetaRescaledMargin


def _silverman_bandwidth(sample: np.ndarray) -> float:
    m = sample.size
    sd = float(np.std(sample, ddof=1))
    iqr = float(np.percentile(sample, 75) - np.percentile(sample, 25))
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


def margin_cdf(model: MarginModel, x):
    """Cumulative distribution function of a fitted margin."""
    return model.cdf(x)


def margin_quantile(model: MarginModel, p):
    """Quantile (inverse CDF) of a fitted margin."""
    return model.quantile(p)
