"""Univariate marginal models: fit, CDF, quantile and normal scores.

Four kinds are supported: a normal fitted by sample mean and (n - 1)
standard deviation, a normal-kernel smoothed empirical distribution with
Silverman rule-of-thumb bandwidth, a truncated normal bound to the problem
box, and a maximum-likelihood beta of the data linearly rescaled into
(0, 1).  The n - 1 denominator matters: the maximum-likelihood variance
systematically underestimates the spread of small selected populations,
which compounds over generations and causes premature convergence at the
population sizes the benchmark studies pin down.

The kernel quantile has no closed form.  One table at the knots [min - 4h,
sorted sample, max + 4h], from one ndtr and one exp over the (knot, sample)
pairs, holds F's Taylor coefficients in t = (x - knot)/h up to degree 14:
c_0 = F and c_q = (-1)^(q-1) mean(He_(q-1)(z) phi(z)) / q! over the sample,
He being the probabilists' Hermite polynomials, the expansion of the fast
Gauss transform (Greengard & Strain 1991).  F at the knots gives each
probability a bracket between adjacent knots and a start: the inverse
cubic Hermite interpolant of x in normal scores y = ndtri(F), with end
slopes dx/dy = phi(y)/f clipped at three times the secant's (Fritsch &
Carlson 1980), so that the start is monotone in p and inside the bracket.
Two Newton steps on the polynomial of the knot nearer the start (the
sample's end in an outer interval) then need no pass over the sample.  A
point's iterate is kept where Newton's error bound and the remainder bound,
from Cramer's inequality |He_n(z)| exp(-z^2/4) <= 1.0865 sqrt(n!), hold its
residual at F's rounding level.  The others, mostly in the outer intervals
and wide gaps, go on from the iterate, or from the start where the iterate
left the bracket.  One pass over the sample per iteration gives F and its
first three derivatives for a Halley step (Newton's where Halley's
correction is large) inside the bracket, which every residual narrows; a
step that would leave it is replaced by its midpoint, so the iteration
cannot diverge where the density is tiny.  A point stops once its residual
is at F's rounding level, once a small Halley step predicts that the next
residual will be, or at the resolution of a 44-step bisection of the
support, mostly after one pass.  Probabilities at or beyond the CDF at
either end of the support map to that end.

Every kind fits, evaluates and inverts stacked columns: fitted to (m, n)
rows, a margin's parameters are (n,) arrays (the kernel's sample is
(n, m)), and ``cdf`` and ``quantile`` map (..., n) arrays, each column bit
for bit as its own (m,) fit, whose fields are floats, would.

A dependence structure hands the margins its draw in the form it samples:
uniforms to ``quantile``, or, from a Gaussian structure, normal scores z to
``from_scores``, which is ``quantile(ndtr(z))``: mu + sigma z in closed
form for the normal kind, with no ``ndtr``, clip or ``ndtri``, and exactly
that computation, bit for bit, for every other kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np
from scipy import special

SIGMA_FLOOR = 1e-300      # anti-zero floor only; must not cap precision
BANDWIDTH_FLOOR = 1e-8
_P_EPS = 1e-12            # interior clamp for quantile probabilities
_NEWTON_MAX_ITER = 100    # hard cap; midpoint steps alone converge in 46
_BETA_TIGHT = 1e6         # moment a + b from which a beta keeps the moments
_BETA_CAP = 1e15          # a + b of a constant column's beta
_BETA_MAX_ITER = 50       # hard cap; most columns take 3 to 6 Newton steps
_BLOCK = 2 ** 17          # points x sample size a kernel cdf/quantile block holds
_EPS = np.finfo(float).eps
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_TAYLOR_DEGREE = 14       # Q: degree of F's polynomial at a knot
_TAYLOR_STEPS = 2         # Newton steps on it before a point goes exact
# row q - 1 maps the sums of z^j phi(z)/phi(0) over the sample to m c_q:
# He_(q-1)'s power coefficients times (-1)^(q-1) / (sqrt(2 pi) q!)
_TAYLOR_ROWS = np.array([
    np.pad(np.polynomial.hermite_e.herme2poly([0] * q + [1]),
           (0, _TAYLOR_DEGREE - 1 - q))
    * (-1.0) ** q / (_SQRT_2PI * math.factorial(q + 1))
    for q in range(_TAYLOR_DEGREE)])
# bounds on F's derivatives in t = (x - knot)/h: max|F''| / 2, and
# max|F^(Q+1)| / (Q+1)!, which bounds the Taylor remainder over |t|^(Q+1),
# by Cramer's inequality |He_n(z)| exp(-z^2/4) <= 1.0865 sqrt(n!)
_CURVE_MAX = 0.5 / math.sqrt(2.0 * math.pi * math.e)
_TAYLOR_BOUND = (1.0865 * math.sqrt(math.factorial(_TAYLOR_DEGREE))
                 / (_SQRT_2PI * math.factorial(_TAYLOR_DEGREE + 1)))


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
        return special.ndtr((np.asarray(x, float) - self.mu) / self.sigma)

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        return self.mu + self.sigma * special.ndtri(p)

    def from_scores(self, z):
        return self.mu + self.sigma * z


class _ScoresViaQuantile:
    """``from_scores`` of a margin with no closed form in normal scores."""

    def from_scores(self, z):
        return self.quantile(special.ndtr(z))


@dataclass(frozen=True, eq=False)
class KernelMargin(_ScoresViaQuantile):
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
        return out.reshape(x.shape)[()]

    def quantile(self, p):
        # Each p's bracket [lo, hi] between adjacent knots and a start;
        # then Newton on the Taylor polynomial of a knot of the bracket,
        # and the safeguarded Halley iteration of ``_kernel_solve`` for the
        # points that polynomial cannot certify.
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        if p.size == 0:  # no points, or a margin over no columns
            return p
        # the sorted sample: its z rows are monotone, which ndtr takes
        # faster, and its knots are the sample itself
        S = np.sort(self.sample.reshape(-1, self.sample.shape[-1]), axis=1)
        (n, m), h = S.shape, np.reshape(self.bandwidth, -1)
        if self.sample.ndim > 1 and p.shape[-1:] != (n,):
            raise ValueError(f"p's last axis must have the {n} columns")
        P = p.reshape(-1, n)
        knots, C = _knot_table(S, h)
        F = C[0]
        # p at or beyond F at a support end maps to that end; NaN stays NaN
        x = np.where(P <= F[:, 0], knots[:, 0],
                     np.where(P >= F[:, -1], knots[:, -1], np.nan))
        todo = np.flatnonzero((P > F[:, 0]) & (P < F[:, -1]))
        col, target = todo % n, P.ravel()[todo]
        k = np.column_stack([np.searchsorted(F[c], P[:, c], side="right")
                             for c in range(n)]).ravel()[todo]
        # the start: the inverse cubic Hermite of x in normal scores
        # y = ndtri(F), in which a kernel's tail is a line, with slopes
        # dx/dy = phi(y)/f at the ends as multiples of the secant's,
        # clipped at 3 (Fritsch & Carlson 1980) so that the cubic is
        # monotone and stays in the bracket
        Y = special.ndtri(F)
        dydx = C[1] * _SQRT_2PI * np.exp(0.5 * Y * Y) / h[:, None]  # f/phi(y)
        i = col * (m + 2) + k
        lo, hi = knots.ravel()[i - 1], knots.ravel()[i]
        y0, y1 = Y.ravel()[i - 1], Y.ravel()[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (special.ndtri(target) - y0) / (y1 - y0)
            secant = (y1 - y0) / (hi - lo)
            a0 = np.minimum(secant / dydx.ravel()[i - 1], 3.0)
            a1 = np.minimum(secant / dydx.ravel()[i], 3.0)
            u = 1.0 - t
            cur = lo + (hi - lo) * t * (t * (3.0 - 2.0 * t)
                                        + u * (u * a0 - t * a1))
        # no start where y does not resolve the bracket
        cur = np.where(np.isfinite(cur), np.clip(cur, lo, hi), 0.5 * (lo + hi))
        # the 44-step bisection's resolution of each column's support
        span = 2.0 ** -46 * (knots[:, -1] - knots[:, 0])
        # the knot nearer the start, or the sample's end in an outer
        # interval: about the outer knots F is a far tail
        near = np.clip(k - (cur - lo <= hi - cur), 1, m)
        out = x.ravel()
        rows = max(1, _BLOCK // m)
        for s in range(0, todo.size, rows):
            b = slice(s, s + rows)
            xb, ok = _taylor_solve(C, knots, h, col[b], near[b], target[b],
                                   cur[b])
            # in its bracket, the iterate is certified or the exact
            # solve's start
            inside = (xb >= lo[b]) & (xb <= hi[b])
            bad = np.flatnonzero(~(ok & inside))
            if bad.size:
                start = np.where(inside[bad], xb[bad], cur[b][bad])
                xb[bad] = _kernel_solve(S, h, span, col[b][bad],
                                        target[b][bad], lo[b][bad],
                                        hi[b][bad], start)
            out[todo[b]] = xb
        return out.reshape(p.shape)[()]


def _knot_table(S, h):
    """The knots [min - 4h, sample, max + 4h] of each row of S, a sorted
    (n, m) sample, and F's Taylor coefficients there in t = (x - knot)/h,
    (Q + 1, n, m + 2): c_0 = F and, for q >= 1, the sample means of
    (-1)^(q-1) He_(q-1)(z) phi(z) / q!, z = (knot - s)/h, from the sums of
    z^j phi(z) over the sample.
    """
    n, m = S.shape
    knots = np.concatenate(((S[:, 0] - 4.0 * h)[:, None], S,
                            (S[:, -1] + 4.0 * h)[:, None]), axis=1)
    z = (knots[:, :, None] - S[:, None, :]) / h[:, None, None]
    C = np.empty((_TAYLOR_DEGREE + 1, n, m + 2))
    C[0] = special.ndtr(z).sum(axis=-1) / m
    # the sums of z^j phi(z)/phi(0), with the sample on the leading axis,
    # in two arrays of z's size
    z = np.moveaxis(z, -1, 0).copy()
    w = z * z
    w *= -0.5
    np.exp(w, out=w)
    moments = np.empty((_TAYLOR_DEGREE, n, m + 2))
    for j in range(_TAYLOR_DEGREE):
        np.add.reduce(w, axis=0, out=moments[j])
        if j + 1 < _TAYLOR_DEGREE:
            np.multiply(w, z, out=w)
    C[1:] = np.einsum("qj,jnk->qnk", _TAYLOR_ROWS, moments) / m
    return knots, C


def _taylor_solve(C, knots, h, col, near, target, cur):
    """Newton's iterate on F's Taylor polynomial P about knot ``near`` of
    column ``col`` for each point, and whether it is certified as x.

    ``_TAYLOR_STEPS`` Newton steps from ``cur``, in t = (x - knot)/h.  The
    iterate is certified where F's residual there is bounded at F's
    rounding level, 4 eps target, by the sum of Newton's error bound,
    max|F''| step^2 / 2, and of P's remainder, from Cramer's
    |He_Q(z)| exp(-z^2/4) <= 1.0865 sqrt(Q!).
    """
    hc = h[col]
    knot = knots[col, near]
    coef = C.reshape(len(C), -1)[:, col * knots.shape[1] + near]
    t = (cur - knot) / hc
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_TAYLOR_STEPS):
            val, der = coef[-1], np.zeros(t.size)
            for c in coef[-2::-1]:
                der = der * t + val
                val = val * t + c
            step = (val - target) / der
            t = t - step
        bound = (_CURVE_MAX * step * step
                 + _TAYLOR_BOUND * np.abs(t) ** (_TAYLOR_DEGREE + 1))
        return knot + hc * t, bound <= 4.0 * _EPS * target


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
            # step > tol apart until the iteration cap; where it underflows
            # K is NaN and no step is settled
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
class TruncNormalMargin(_ScoresViaQuantile):
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
        return np.clip(raw, 0.0, 1.0)

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        zl, span = self._tails()
        x = self.mu + self.sigma * special.ndtri(np.clip(zl + p * span, 1e-300, 1.0))
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class BetaRescaledMargin(_ScoresViaQuantile):
    lower: float | np.ndarray
    upper: float | np.ndarray
    a: float | np.ndarray
    b: float | np.ndarray
    kind = MarginKind.BETA_RESCALED

    def cdf(self, x):
        y = (np.asarray(x, float) - self.lower) / (self.upper - self.lower)
        return special.betainc(self.a, self.b, np.clip(y, 0.0, 1.0))

    def quantile(self, p):
        p = np.clip(np.asarray(p, float), _P_EPS, 1.0 - _P_EPS)
        y = special.betaincinv(self.a, self.b, p)
        return self.lower + y * (self.upper - self.lower)


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


def _fit_beta(Y: np.ndarray) -> np.ndarray:
    """Maximum-likelihood (a, b) of each row of Y, an (n, m) sample in (0, 1).

    Newton steps in (log a, log b) from the moment estimate, on the score
    equations psi(a) - psi(a + b) = mean log y, psi(b) - psi(a + b) = mean
    log(1 - y), until a row's step is below 1e-9.  A row whose moment a + b
    is 1e6 or more keeps the moments: there float64 cannot resolve the
    equations, and the beta, normal to ~1e-6, has its ML point at them.  A
    constant row's a + b is capped near where ``betaincinv`` loses accuracy.
    """
    mean, var = Y.mean(axis=-1), Y.var(axis=-1)
    with np.errstate(divide="ignore"):
        size = np.minimum(mean * (1.0 - mean) / var - 1.0, _BETA_CAP)
    s = np.log([mean * size, (1.0 - mean) * size])
    target = np.array([np.log(Y).mean(axis=-1), np.log1p(-Y).mean(axis=-1)])
    todo = np.flatnonzero(size < _BETA_TIGHT)
    for _ in range(_BETA_MAX_ITER):
        if todo.size == 0:
            break
        a, b = ab = np.exp(s[:, todo])
        g = special.digamma(ab) - special.digamma(a + b) - target[:, todo]
        (ta, tb), tab = special.zeta(2.0, ab), special.zeta(2.0, a + b)
        # the score's Jacobian in (log a, log b), inverted in closed form
        j11, j12, j21, j22 = a * (ta - tab), -b * tab, -a * tab, b * (tb - tab)
        step = np.array([j22 * g[0] - j12 * g[1], j11 * g[1] - j21 * g[0]])
        step /= j11 * j22 - j12 * j21
        s[:, todo] -= step
        todo = todo[np.abs(step).max(axis=0) > 1e-9]
    return np.exp(s)


def _mean_sd(S: np.ndarray):
    """Mean and sample standard deviation (ddof 1) along the last axis.

    These are the steps, and so the bits, of ``x.mean()`` and
    ``x.std(ddof=1)`` of each contiguous row, without their wrappers.
    """
    m = S.shape[-1]
    mean = np.add.reduce(S, axis=-1) / m
    dev = S - mean[..., None]
    return mean, np.sqrt(np.add.reduce(dev * dev, axis=-1) / (m - 1))


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
    # one contiguous row per column: numpy's pairwise sums along it give
    # each column the bits of its own (m,) fit
    S = np.array(X.T, order="C")
    lower = np.array(np.broadcast_to(lower, len(S)), dtype=float)
    upper = np.array(np.broadcast_to(upper, len(S)), dtype=float)
    if not np.all(lower < upper):
        raise ValueError(f"invalid bounds: [{lower}, {upper}]")
    # a NaN or infinite entry makes the sd NaN (so does |x| > ~1e154)
    mean, sd = _mean_sd(S)
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
    span = (upper - lower)[:, None]
    a, b = _fit_beta(np.clip((S - lower[:, None]) / span, 1e-6, 1.0 - 1e-6))
    return BetaRescaledMargin(lower, upper, a, b)
