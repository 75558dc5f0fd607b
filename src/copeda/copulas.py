"""Parametric bivariate copulas and the multivariate normal copula.

Families: product (independence), normal, Student t, Clayton, Frank and
Gumbel.  Each family supports density, CDF, conditional distribution
(h-function), inverse h-function, sampling and moment-based parameter
estimation through Kendall's tau.  One table, ``_FAMILY_OPS``, holds each
family's log density, CDF, h and h-inverse at interior points; the public
functions clip their arguments and look the family up.  Each is a closed
form or one fixed vectorised rule: the Student CDF is a 64-node
Gauss-Legendre sum over Plackett's identity, Frank's tau a dilogarithm and
the Gumbel h-inverse a few monotone Newton steps.  Clayton and Gumbel are
evaluated in log space so that extreme dependence parameters do not
overflow.  Frank with theta < 0 is the 90-degree rotation of Frank(-theta),
the copula of (1 - U, V), derived once from the Frank row by ``_rotated``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special

INTERIOR_EPS = 1e-10       # clamp for (0,1) arguments of densities and h
RHO_MAX = 1.0 - 1e-8       # largest admissible |rho| for normal/Student
FRANK_THETA_MAX = 300.0    # |theta| cap keeping exp(-theta*(u+v)) in range
STUDENT_NU_MIN = 1.0
STUDENT_NU_MAX = 100.0


class CopulaFamily(str, Enum):
    PRODUCT = "product"
    NORMAL = "normal"
    STUDENT = "student"
    CLAYTON = "clayton"
    FRANK = "frank"
    GUMBEL = "gumbel"


class ParameterError(ValueError):
    """Copula parameter outside the family's admissible domain."""


class UnsupportedTauError(ValueError):
    """Kendall tau not attainable by the requested family."""


@dataclass(frozen=True)
class BivariateCopula:
    """A parametric bivariate copula: family tag plus parameters.

    ``theta`` is the dependence parameter (the correlation rho for the
    normal and Student families); ``nu`` is the Student degrees of freedom
    and is ignored by every other family.
    """

    family: CopulaFamily
    theta: float = 0.0
    nu: float = math.nan

    def __post_init__(self):
        f, th = self.family, self.theta
        if f in (CopulaFamily.NORMAL, CopulaFamily.STUDENT):
            if not -1.0 < th < 1.0:
                raise ParameterError(f"{f.value}: rho must be in (-1, 1), got {th}")
        elif f is CopulaFamily.CLAYTON:
            if not th > 0.0:
                raise ParameterError(f"clayton: theta must be > 0, got {th}")
        elif f is CopulaFamily.GUMBEL:
            if not th >= 1.0:
                raise ParameterError(f"gumbel: theta must be >= 1, got {th}")
        elif f is CopulaFamily.FRANK:
            if th == 0.0 or not math.isfinite(th):
                raise ParameterError("frank: theta must be finite and nonzero")
            if abs(th) > FRANK_THETA_MAX:
                raise ParameterError(f"frank: |theta| capped at {FRANK_THETA_MAX}")
        if f is CopulaFamily.STUDENT and not self.nu >= STUDENT_NU_MIN:
            raise ParameterError(f"student: nu must be >= {STUDENT_NU_MIN}, got {self.nu}")

    @property
    def n_params(self) -> int:
        if self.family is CopulaFamily.PRODUCT:
            return 0
        return 2 if self.family is CopulaFamily.STUDENT else 1

    def __str__(self) -> str:
        if self.family is CopulaFamily.PRODUCT:
            return "product"
        if self.family is CopulaFamily.STUDENT:
            return f"student(rho={self.theta:.6g},nu={self.nu:.6g})"
        return f"{self.family.value}(theta={self.theta:.6g})"


_PRODUCT_COPULA = BivariateCopula(CopulaFamily.PRODUCT)


def product() -> BivariateCopula:
    """The independence copula; every call returns the one frozen instance."""
    return _PRODUCT_COPULA


def normal(rho: float) -> BivariateCopula:
    return BivariateCopula(CopulaFamily.NORMAL, float(rho))


def student(rho: float, nu: float) -> BivariateCopula:
    return BivariateCopula(CopulaFamily.STUDENT, float(rho), float(nu))


def clayton(theta: float) -> BivariateCopula:
    return BivariateCopula(CopulaFamily.CLAYTON, float(theta))


def frank(theta: float) -> BivariateCopula:
    return BivariateCopula(CopulaFamily.FRANK, float(theta))


def gumbel(theta: float) -> BivariateCopula:
    return BivariateCopula(CopulaFamily.GUMBEL, float(theta))


def _interior(u):
    return np.clip(np.asarray(u, dtype=float), INTERIOR_EPS, 1.0 - INTERIOR_EPS)


# ---------------------------------------------------------------------------
# log densities


def _normal_logpdf(rho, u, v):
    x = special.ndtri(u)
    y = special.ndtri(v)
    r2 = 1.0 - rho * rho
    return -0.5 * np.log(r2) + (2.0 * rho * x * y - rho * rho * (x * x + y * y)) / (2.0 * r2)


def _student_logpdf(rho, nu, u, v):
    x = special.stdtrit(nu, u)
    y = special.stdtrit(nu, v)
    r2 = 1.0 - rho * rho
    q = (x * x - 2.0 * rho * x * y + y * y) / r2
    const = (special.gammaln((nu + 2.0) / 2.0) + special.gammaln(nu / 2.0)
             - 2.0 * special.gammaln((nu + 1.0) / 2.0))
    return (const - 0.5 * np.log(r2)
            - 0.5 * (nu + 2.0) * np.log1p(q / nu)
            + 0.5 * (nu + 1.0) * (np.log1p(x * x / nu) + np.log1p(y * y / nu)))


def _clayton_logS(theta, u, v):
    # log(u^-theta + v^-theta - 1), stable for large theta
    a = -theta * np.log(u)
    b = -theta * np.log(v)
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))


def _clayton_logpdf(theta, u, v):
    s = _clayton_logS(theta, u, v)
    return (np.log1p(theta) - (theta + 1.0) * (np.log(u) + np.log(v))
            - (2.0 + 1.0 / theta) * s)


def _frank_logD(theta, u, v):
    # log of e^{-theta u} + e^{-theta v} - e^{-theta(u+v)} - e^{-theta}, theta > 0
    a = -theta * u
    b = -theta * v
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m)
                      - np.exp(a + b - m) - np.exp(-theta - m))


def _frank_logpdf(theta, u, v):
    # positive theta only; negative handled by reflection at the dispatcher
    return (np.log(theta) + np.log(-np.expm1(-theta)) - theta * (u + v)
            - 2.0 * _frank_logD(theta, u, v))


def _gumbel_parts(theta, u, v):
    lx = np.log(-np.log(u))
    ly = np.log(-np.log(v))
    a = theta * lx
    b = theta * ly
    m = np.maximum(a, b)
    log_s = m + np.log(np.exp(a - m) + np.exp(b - m))  # log((-log u)^th + (-log v)^th)
    log_cdf = -np.exp(log_s / theta)
    return lx, ly, log_s, log_cdf


def _gumbel_logpdf(theta, u, v):
    lx, ly, log_s, log_cdf = _gumbel_parts(theta, u, v)
    bracket = np.log1p((theta - 1.0) * np.exp(-log_s / theta))
    return (log_cdf - np.log(u) - np.log(v) + (theta - 1.0) * (lx + ly)
            + (2.0 / theta - 2.0) * log_s + bracket)


# ---------------------------------------------------------------------------
# CDFs


def _bvn_cdf(x, y, rho):
    """Standard bivariate normal CDF via Owen's T function."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if abs(rho) < 1e-14:
        return special.ndtr(x) * special.ndtr(y)
    if rho > 1.0 - 1e-14:
        return special.ndtr(np.minimum(x, y))
    if rho < -1.0 + 1e-14:
        return np.clip(special.ndtr(x) + special.ndtr(y) - 1.0, 0.0, None)
    # nudge exact zeros so the a-arguments below stay finite
    xs = np.where(x == 0.0, 1e-300, x)
    ys = np.where(y == 0.0, 1e-300, y)
    r = math.sqrt(1.0 - rho * rho)
    ax = np.clip((ys - rho * xs) / (xs * r), -1e10, 1e10)
    ay = np.clip((xs - rho * ys) / (ys * r), -1e10, 1e10)
    delta = np.where(xs * ys < 0, 0.5, 0.0)
    out = (0.5 * (special.ndtr(xs) + special.ndtr(ys))
           - special.owens_t(xs, ax) - special.owens_t(ys, ay) - delta)
    return np.clip(out, 0.0, 1.0)


# _student_cdf's rule: 64 Gauss-Legendre nodes s in (0, 1) mapped by
# phi = L s^3, so the nodes are s^3 and the weights carry dphi/ds / L = 3 s^2
_S, _W = np.polynomial.legendre.leggauss(64)
_STUDENT_NODES, _STUDENT_WEIGHTS = ((_S + 1.0) / 2.0) ** 3, 0.375 * _W * (_S + 1.0) ** 2


def _student_cdf(rho, nu, u, v):
    # Plackett's identity for the bivariate t (Genz 2004): C leaves the
    # Frechet bound at r = sign(rho) by dC/dr = (1 + (x^2 - 2rxy + y^2) /
    # (nu (1 - r^2)))^(-nu/2) / (2 pi sqrt(1 - r^2)), which in
    # phi = pi/2 - asin|r| over [0, L] is the power alone over 2 pi
    x = special.stdtrit(nu, u)[..., None]
    y = special.stdtrit(nu, v)[..., None]
    sign = 1.0 if rho >= 0.0 else -1.0
    big_l = 0.5 * math.pi - math.asin(abs(rho))
    phi = big_l * _STUDENT_NODES
    # the quadratic form over nu (1 - r^2), written without cancellation
    q = (((x - sign * y) ** 2 + 4.0 * sign * x * y * np.sin(0.5 * phi) ** 2)
         / (nu * np.sin(phi) ** 2))
    integral = np.sum(_STUDENT_WEIGHTS * np.exp(-0.5 * nu * np.log1p(q)), axis=-1)
    bound = np.minimum(u, v) if sign > 0.0 else np.maximum(u + v - 1.0, 0.0)
    return bound - sign * big_l / (2.0 * math.pi) * integral


def _frank_cdf(theta, u, v):
    # C = -(1/theta) * log(D / (1 - e^-theta)) with D in log space, theta > 0
    return -(_frank_logD(theta, u, v) - np.log1p(-np.exp(-theta))) / theta


# ---------------------------------------------------------------------------
# h-functions (conditional CDF of U given V = v) and their inverses


def _normal_h(rho, u, v):
    x = special.ndtri(u)
    y = special.ndtri(v)
    return special.ndtr((x - rho * y) / math.sqrt(1.0 - rho * rho))


def _normal_hinv(rho, p, v):
    y = special.ndtri(v)
    x = special.ndtri(p) * math.sqrt(1.0 - rho * rho) + rho * y
    return special.ndtr(x)


def _student_h(rho, nu, u, v):
    x = special.stdtrit(nu, u)
    y = special.stdtrit(nu, v)
    denom = np.sqrt((nu + y * y) * (1.0 - rho * rho) / (nu + 1.0))
    return special.stdtr(nu + 1.0, (x - rho * y) / denom)


def _student_hinv(rho, nu, p, v):
    y = special.stdtrit(nu, v)
    denom = np.sqrt((nu + y * y) * (1.0 - rho * rho) / (nu + 1.0))
    x = special.stdtrit(nu + 1.0, p) * denom + rho * y
    return special.stdtr(nu, x)


def _clayton_h(theta, u, v):
    s = _clayton_logS(theta, u, v)
    return np.exp(-(theta + 1.0) * np.log(v) - (1.0 + 1.0 / theta) * s)


def _clayton_hinv(theta, p, v):
    # u = [(p v^(theta+1))^(-theta/(theta+1)) - v^-theta + 1]^(-1/theta)
    t1 = (-theta / (theta + 1.0)) * (np.log(p) + (theta + 1.0) * np.log(v))
    t2 = -theta * np.log(v)
    inner = t1 + np.log(1.0 - np.exp(t2 - t1) + np.exp(-t1))
    return np.exp(-inner / theta)


def _frank_h(theta, u, v):
    # positive theta; log-space form avoids cancellation at large theta
    log_h = np.log1p(-np.exp(-theta * u)) - theta * v - _frank_logD(theta, u, v)
    return np.exp(log_h)


def _frank_hinv(theta, p, v):
    beta = np.exp(-theta * v)
    gamma = math.exp(-theta)
    alpha = (beta * (1.0 - p) + p * gamma) / (beta + p * (1.0 - beta))
    return -np.log(alpha) / theta


def _gumbel_h(theta, u, v):
    _, ly, log_s, log_cdf = _gumbel_parts(theta, u, v)
    return np.exp(log_cdf + (theta - 1.0) * ly + (1.0 / theta - 1.0) * log_s - np.log(v))


def _gumbel_hinv(theta, p, v):
    # with b = -log v and d = ((-log u)^theta + b^theta)^(1/theta) - b >= 0,
    # h(u | v) = p is g(d) = d + (theta - 1) log1p(d / b) + log p = 0, concave
    # and increasing.  Either term of g alone bounds the root from above; one
    # Newton step from the smaller bound lands in [0, root], and the next
    # ones climb to it
    b = -np.log(v)
    target = -np.log(p)
    with np.errstate(divide="ignore"):  # theta = 1 leaves the first bound
        d = b * np.expm1(np.minimum(np.log1p(target / b), target / (theta - 1.0)))
    for _ in range(50):
        step = ((d + (theta - 1.0) * np.log1p(d / b) - target)
                / (1.0 + (theta - 1.0) / (b + d)))
        d -= step
        if np.all(np.abs(step) <= 1e-12 * d):
            break
    # -log u = (b + d) (1 - (b / (b + d))^theta)^(1/theta), which cannot overflow
    return np.exp(-(b + d) * (-np.expm1(-theta * np.log1p(d / b))) ** (1.0 / theta))


# ---------------------------------------------------------------------------
# the family table and the public operations


# a family's operations at interior points, each op(copula, u or p, v)
_Ops = namedtuple("_Ops", "logpdf cdf h hinv")


def _rotated(ops: _Ops) -> _Ops:
    """Operations of the copula of (1 - U, V) from those of (U, V)."""
    return _Ops(lambda c, u, v: ops.logpdf(c, 1.0 - u, v),
                lambda c, u, v: v - ops.cdf(c, 1.0 - u, v),
                lambda c, u, v: 1.0 - ops.h(c, 1.0 - u, v),
                lambda c, p, v: 1.0 - ops.hinv(c, 1.0 - p, v))


_FAMILY_OPS = {
    CopulaFamily.PRODUCT: _Ops(
        lambda c, u, v: np.zeros(np.broadcast(u, v).shape)[()],
        lambda c, u, v: u * v,
        lambda c, u, v: u * np.ones_like(v),
        lambda c, p, v: p * np.ones_like(v)),
    CopulaFamily.NORMAL: _Ops(
        lambda c, u, v: _normal_logpdf(c.theta, u, v),
        lambda c, u, v: _bvn_cdf(special.ndtri(u), special.ndtri(v), c.theta),
        lambda c, u, v: _normal_h(c.theta, u, v),
        lambda c, p, v: _normal_hinv(c.theta, p, v)),
    CopulaFamily.STUDENT: _Ops(
        lambda c, u, v: _student_logpdf(c.theta, c.nu, u, v),
        lambda c, u, v: _student_cdf(c.theta, c.nu, u, v),
        lambda c, u, v: _student_h(c.theta, c.nu, u, v),
        lambda c, p, v: _student_hinv(c.theta, c.nu, p, v)),
    CopulaFamily.CLAYTON: _Ops(
        lambda c, u, v: _clayton_logpdf(c.theta, u, v),
        lambda c, u, v: np.exp(-_clayton_logS(c.theta, u, v) / c.theta),
        lambda c, u, v: _clayton_h(c.theta, u, v),
        lambda c, p, v: _clayton_hinv(c.theta, p, v)),
    CopulaFamily.FRANK: _Ops(  # theta > 0; see _row for theta < 0
        lambda c, u, v: _frank_logpdf(c.theta, u, v),
        lambda c, u, v: _frank_cdf(c.theta, u, v),
        lambda c, u, v: _frank_h(c.theta, u, v),
        lambda c, p, v: _frank_hinv(c.theta, p, v)),
    CopulaFamily.GUMBEL: _Ops(
        lambda c, u, v: _gumbel_logpdf(c.theta, u, v),
        lambda c, u, v: np.exp(_gumbel_parts(c.theta, u, v)[3]),
        lambda c, u, v: _gumbel_h(c.theta, u, v),
        lambda c, p, v: _gumbel_hinv(c.theta, p, v)),
}
_FRANK_ROTATED = _rotated(_FAMILY_OPS[CopulaFamily.FRANK])


def _row(c: BivariateCopula) -> tuple[_Ops, BivariateCopula]:
    """The operations for ``c`` and the copula they take: Frank with
    theta < 0 is the rotated Frank row at -theta."""
    if c.family is CopulaFamily.FRANK and c.theta < 0:
        return _FRANK_ROTATED, frank(-c.theta)
    return _FAMILY_OPS[c.family], c


def copula_logpdf(c: BivariateCopula, u, v):
    """Log density of the copula at interior-clamped ``(u, v)``."""
    ops, c = _row(c)
    return ops.logpdf(c, _interior(u), _interior(v))


def copula_cdf(c: BivariateCopula, u, v):
    """Copula CDF with exact boundary behavior C(u,0)=0, C(u,1)=u."""
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    ops, c = _row(c)
    res = np.asarray(ops.cdf(c, _interior(ua), _interior(va)), dtype=float)
    res = np.where(va >= 1.0, np.clip(ua, 0.0, 1.0), res)
    res = np.where(ua >= 1.0, np.clip(va, 0.0, 1.0), res)
    res = np.where((ua <= 0.0) | (va <= 0.0), 0.0, res)
    return np.clip(res, 0.0, 1.0)


def copula_h(c: BivariateCopula, u, v):
    """Conditional CDF of U given V = v (the partial derivative of C in v)."""
    ops, c = _row(c)
    return np.clip(ops.h(c, _interior(u), _interior(v)), 0.0, 1.0)


def copula_hinv(c: BivariateCopula, p, v):
    """Inverse of the h-function in its first argument.

    ``v`` is clipped to the interior and the probability ``p`` against
    exact 0/1 only. Conditional probabilities far below the interior clamp
    are meaningful (strong dependence pushes h to ~1e-25 at grid corners)
    and must invert exactly. The result is interior, so it passes through
    as the next call's ``v`` unchanged.
    """
    ops, c = _row(c)
    p = np.clip(np.asarray(p, dtype=float), 1e-300, 1.0 - 1e-16)
    return np.clip(ops.hinv(c, p, _interior(v)), INTERIOR_EPS,
                   1.0 - INTERIOR_EPS)


# ---------------------------------------------------------------------------
# sampling


def copula_sample(c: BivariateCopula, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``m`` pairs by the conditional distribution method.

    V is uniform, W is uniform and U = hinv(W | V), so the pair (U, V) has
    uniform margins and the dependence of ``c``.
    """
    v = rng.random(m)
    w = rng.random(m)
    u = copula_hinv(c, w, v)
    return np.column_stack([u, v])


def mvnormal_copula_sample(correlation: np.ndarray, m: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Sample from the multivariate normal copula with the given correlation."""
    chol = np.linalg.cholesky(np.asarray(correlation, dtype=float))
    return special.ndtr(rng.standard_normal((m, len(chol))) @ chol.T)


# ---------------------------------------------------------------------------
# Kendall tau conversions


def clip_tau(tau: float) -> float:
    """Clamp an empirical tau away from +-1 so moment inversion stays valid.

    Exact ties and comonotone pairs do occur in nearly converged selected
    populations.
    """
    return float(np.clip(tau, -(1.0 - 1e-8), 1.0 - 1e-8))


# Frank tau's Taylor series, 4 B_2k theta^(2k-1) / ((2k + 1) (2k)!) for
# k = 1..8, which the closed form's cancellation needs below |theta| = 1/2
_FRANK_TAU_SERIES = (-3617 / 45350147082240000, 1 / 280215936000,
                     -691 / 4249941696000, 1 / 131725440, -1 / 2721600,
                     1 / 52920, -1 / 900, 1 / 9)


def _frank_tau(theta: float) -> float:
    # tau = 1 - 4/t + (4/t^2) int_0^t s/(e^s - 1) ds with t = |theta|, odd in
    # theta; the integral is pi^2/6 + t log(1 - e^-t) - Li2(e^-t)
    t = abs(theta)
    if t < 0.5:
        acc = 0.0
        for c in _FRANK_TAU_SERIES:
            acc = acc * theta * theta + c
        return theta * acc
    w = -math.expm1(-t)  # 1 - e^-t, and Li2(e^-t) = spence(1 - e^-t)
    integral = math.pi ** 2 / 6.0 + t * math.log(w) - float(special.spence(w))
    return math.copysign(1.0 - 4.0 / t + 4.0 * integral / (t * t), theta)


def tau_to_parameter(family: CopulaFamily, tau: float) -> BivariateCopula:
    """Moment fit: copula of the family whose theoretical tau matches ``tau``.

    A tau of zero collapses to the product copula for every family.  Clayton
    and Gumbel cannot represent negative dependence and raise
    :class:`UnsupportedTauError` for tau <= 0.
    """
    tau = float(tau)
    if not -1.0 < tau < 1.0:
        raise ParameterError(f"tau must be in (-1, 1), got {tau}")
    if family is CopulaFamily.PRODUCT or tau == 0.0:
        return product()
    if family in (CopulaFamily.NORMAL, CopulaFamily.STUDENT):
        rho = float(np.clip(math.sin(math.pi * tau / 2.0), -RHO_MAX, RHO_MAX))
        if family is CopulaFamily.NORMAL:
            return normal(rho)
        return student(rho, 30.0)  # placeholder nu; refine with fit_student_dof
    if family is CopulaFamily.CLAYTON:
        if tau <= 0.0:
            raise UnsupportedTauError("clayton requires tau > 0")
        return clayton(2.0 * tau / (1.0 - tau))
    if family is CopulaFamily.GUMBEL:
        if tau <= 0.0:
            raise UnsupportedTauError("gumbel requires tau > 0")
        return gumbel(1.0 / (1.0 - tau))
    # Frank: invert tau(theta) numerically on theta > 0, use odd symmetry
    target = abs(tau)
    if target < 1e-8:  # where brentq's f(a) f(b) can underflow
        theta = 9.0 * target  # 9 tau (1 + 0.81 tau^2 + ...) to rounding
    elif target >= _frank_tau(FRANK_THETA_MAX):
        theta = FRANK_THETA_MAX
    else:
        from scipy.optimize import brentq  # loaded on first use only
        # tau(theta) <= theta / 9, and tau(18 tau) > tau while tau < 0.3;
        # xtol is below theta's rounding, so rtol alone stops the search
        hi = 18.0 * target if target < 0.3 else FRANK_THETA_MAX
        theta = brentq(lambda t: _frank_tau(t) - target, 4.5 * target, hi,
                       xtol=1e-15 * target, rtol=8.9e-16)
    return frank(math.copysign(theta, tau))


def parameter_to_tau(c: BivariateCopula) -> float:
    """Theoretical Kendall tau of the copula."""
    f = c.family
    if f is CopulaFamily.PRODUCT:
        return 0.0
    if f in (CopulaFamily.NORMAL, CopulaFamily.STUDENT):
        return 2.0 * math.asin(c.theta) / math.pi
    if f is CopulaFamily.CLAYTON:
        return c.theta / (c.theta + 2.0)
    if f is CopulaFamily.GUMBEL:
        return 1.0 - 1.0 / c.theta
    return _frank_tau(c.theta)


# ---------------------------------------------------------------------------
# likelihood


def copula_loglik(c: BivariateCopula, U: np.ndarray) -> float:
    """Sum of log densities over the rows of an (m, 2) matrix."""
    U = np.asarray(U, dtype=float)
    return float(np.sum(copula_logpdf(c, U[:, 0], U[:, 1])))


def _bounded_ml(make, U: np.ndarray, bounds, xatol: float) -> BivariateCopula:
    """``make(x)`` at the x in ``bounds`` that maximizes the log-likelihood
    on U, by bounded Brent search to ``xatol``; a copula that ``make`` or
    the likelihood rejects scores -inf."""
    from scipy.optimize import minimize_scalar  # loaded on first use only

    def negloglik(x):
        try:
            return -copula_loglik(make(x), U)
        except (ValueError, FloatingPointError):
            return np.inf

    res = minimize_scalar(negloglik, bounds=bounds, method="bounded",
                          options={"xatol": xatol})
    return make(float(res.x))


def fit_frank(U: np.ndarray) -> BivariateCopula:
    """ML Frank copula of the two columns of U, theta in [-300, 300] to
    1e-6; the product copula where |theta| <= 1e-8."""
    return _bounded_ml(
        lambda theta: frank(theta) if abs(theta) > 1e-8 else product(), U,
        (-FRANK_THETA_MAX, FRANK_THETA_MAX), 1e-6)


def fit_student_dof(U: np.ndarray, rho: float) -> BivariateCopula:
    """Profile-likelihood fit of the Student degrees of freedom.

    Bounded Brent search on log(nu) over [1, 100] with the correlation held
    fixed, to 1e-5 in log(nu); about a dozen likelihood evaluations.
    """
    rho = float(np.clip(rho, -RHO_MAX, RHO_MAX))
    return _bounded_ml(
        lambda log_nu: student(rho, math.exp(log_nu)), U,
        (math.log(STUDENT_NU_MIN), math.log(STUDENT_NU_MAX)), 1e-5)
