import hashlib
import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.stats import kendalltau, kstest, multivariate_normal

from copeda import copulas
from copeda.copulas import (
    BivariateCopula,
    CopulaFamily,
    ParameterError,
    UnsupportedTauError,
    clayton,
    copula_cdf,
    copula_h,
    copula_hinv,
    copula_loglik,
    copula_logpdf,
    copula_sample,
    fit_frank,
    fit_student_dof,
    frank,
    gumbel,
    mvnormal_copula_sample,
    normal,
    parameter_to_tau,
    product,
    student,
    tau_to_parameter,
)

GRID = np.linspace(0.08, 0.92, 10)

# one representative copula per family at moderate dependence
SAMPLE_COPULAS = [
    product(),
    normal(0.5),
    student(0.5, 4.0),
    clayton(2.0),
    frank(5.0),
    frank(-5.0),
    gumbel(2.0),
]


def fitted(family, tau):
    c = tau_to_parameter(family, tau)
    if family is CopulaFamily.STUDENT:
        c = student(c.theta, 4.0)
    return c


class TestParameterDomains:
    def test_invalid_parameters_raise(self):
        with pytest.raises(ParameterError):
            normal(1.0)
        with pytest.raises(ParameterError):
            clayton(0.0)
        with pytest.raises(ParameterError):
            gumbel(0.9)
        with pytest.raises(ParameterError):
            frank(0.0)
        with pytest.raises(ParameterError):
            student(0.5, 0.5)

    def test_param_counts(self):
        assert product().n_params == 0
        assert normal(0.3).n_params == 1
        assert student(0.3, 5.0).n_params == 2

    def test_text_form(self):
        assert str(product()) == "product"
        assert str(normal(0.5)) == "normal(theta=0.5)"
        assert str(student(-0.25, 4.0)) == "student(rho=-0.25,nu=4)"
        assert str(clayton(1.23456789)) == "clayton(theta=1.23457)"
        assert str(frank(-3.0)) == "frank(theta=-3)"


class TestPdf:
    def test_product_is_one(self):
        assert np.exp(copula_logpdf(product(), 0.3, 0.8)) == pytest.approx(1.0)

    def test_normal_center_closed_form(self):
        # at u = v = 1/2 the normal density is 1/sqrt(1 - rho^2)
        assert np.exp(copula_logpdf(normal(0.5), 0.5, 0.5)) == pytest.approx(
            1.0 / math.sqrt(0.75), abs=1e-12)

    @pytest.mark.parametrize("c", [normal(0.5), clayton(2.0), frank(5.0),
                                   frank(-5.0), gumbel(2.0)])
    def test_matches_mixed_finite_difference_of_cdf(self, c):
        # oracle: c(u,v) = d2 C / du dv by central differences
        d = 1e-4
        for u in (0.3, 0.5, 0.7):
            for v in (0.35, 0.6, 0.8):
                fd = (copula_cdf(c, u + d, v + d) - copula_cdf(c, u + d, v - d)
                      - copula_cdf(c, u - d, v + d) + copula_cdf(c, u - d, v - d)
                      ) / (4 * d * d)
                assert np.exp(copula_logpdf(c, u, v)) == pytest.approx(
                    fd, abs=1e-3)


class TestCdf:
    def test_product(self):
        assert copula_cdf(product(), 0.3, 0.8) == pytest.approx(0.24)

    @pytest.mark.parametrize("c", SAMPLE_COPULAS)
    def test_boundaries_exact(self, c):
        for w in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert copula_cdf(c, w, 1.0) == pytest.approx(w, abs=1e-12)
            assert copula_cdf(c, 1.0, w) == pytest.approx(w, abs=1e-12)
            assert copula_cdf(c, w, 0.0) == 0.0
            assert copula_cdf(c, 0.0, w) == 0.0

    def test_clayton_closed_form(self):
        # (u^-2 + v^-2 - 1)^(-1/2) at (0.5, 0.5) = 1/sqrt(7)
        assert copula_cdf(clayton(2.0), 0.5, 0.5) == pytest.approx(
            7.0 ** -0.5, abs=1e-12)

    def test_clayton_monte_carlo(self):
        rng = np.random.default_rng(42)
        uv = copula_sample(clayton(2.0), 100_000, rng)
        emp = np.mean((uv[:, 0] <= 0.5) & (uv[:, 1] <= 0.5))
        assert abs(emp - copula_cdf(clayton(2.0), 0.5, 0.5)) < 0.01

    def test_normal_against_scipy_mvn(self):
        # independent oracle: scipy's bivariate normal CDF
        for rho in (-0.8, -0.3, 0.3, 0.7, 0.95):
            mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
            from scipy.special import ndtri
            for u in (0.1, 0.5, 0.75):
                for v in (0.2, 0.5, 0.9):
                    expected = mvn.cdf([ndtri(u), ndtri(v)])
                    assert copula_cdf(normal(rho), u, v) == pytest.approx(
                        expected, abs=1e-9)

    def test_student_cdf_consistency(self):
        # quadrature CDF checked against Monte Carlo at documented accuracy
        c = student(0.5, 4.0)
        rng = np.random.default_rng(7)
        uv = copula_sample(c, 100_000, rng)
        for u, v in [(0.3, 0.4), (0.5, 0.5), (0.8, 0.6)]:
            emp = np.mean((uv[:, 0] <= u) & (uv[:, 1] <= v))
            assert copula_cdf(c, u, v) == pytest.approx(emp, abs=0.01)

    @pytest.mark.parametrize("nu", [1.0, 4.0, 100.0])
    @pytest.mark.parametrize("rho", [copulas.RHO_MAX, 0.999, 0.5, 0.0, -0.5,
                                     -0.999, -copulas.RHO_MAX])
    def test_student_orthant_identity(self, rho, nu):
        # P(X <= 0, Y <= 0) of an elliptical pair is 1/4 + asin(rho)/(2 pi)
        assert copula_cdf(student(rho, nu), 0.5, 0.5) == pytest.approx(
            0.25 + math.asin(rho) / (2.0 * math.pi), abs=1e-12)

    def test_student_against_quadrature_of_h(self):
        # independent oracle: C(u, v) = int_0^v h(u | t) dt by adaptive
        # quadrature, split where h's transition in t sits (x = rho y(t));
        # beyond |rho| = 0.999 the oracle itself loses accuracy
        eps = copulas.INTERIOR_EPS
        points = [(0.3, 0.4), (0.5, 0.5), (0.2, 0.2), (0.9, 0.9),
                  (0.4, 0.4 + 1e-6), (0.7, 0.7 + 1e-9), (0.3, 0.7),
                  (0.9, 0.1), (0.05, 0.95), (eps, 0.5), (0.5, eps),
                  (1 - eps, 0.3), (0.3, 1 - eps), (eps, eps),
                  (1 - eps, 1 - eps), (eps, 1 - eps)]
        for rho in (-0.999, -0.9, -0.5, 0.0, 0.5, 0.9, 0.999):
            for nu in (1.0, 2.5, 4.0, 30.0, 100.0):
                for u, v in points:
                    x = special.stdtrit(nu, u)
                    kink = special.stdtr(nu, x / rho) if rho else 0.0
                    expected, abserr = quad(
                        lambda t: copulas._student_h(rho, nu, u, t), 0.0, v,
                        epsabs=1e-13, epsrel=1e-11, limit=200,
                        points=[kink] if 0.0 < kink < v else None,
                        full_output=1)[:2]
                    assert abserr < 1e-10
                    assert copula_cdf(student(rho, nu), u, v) == pytest.approx(
                        expected, abs=1e-7)

    @pytest.mark.parametrize("c", SAMPLE_COPULAS)
    def test_two_increasing(self, c):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u1, u2 = np.sort(rng.random(2))
            v1, v2 = np.sort(rng.random(2))
            vol = (copula_cdf(c, u2, v2) - copula_cdf(c, u1, v2)
                   - copula_cdf(c, u2, v1) + copula_cdf(c, u1, v1))
            assert vol >= -1e-12


class TestHFunction:
    def test_product_identity(self):
        assert copula_h(product(), 0.3, 0.9) == pytest.approx(0.3)

    def test_normal_independence(self):
        for u in GRID:
            assert copula_h(normal(1e-15), u, 0.37) == pytest.approx(u, abs=1e-9)

    def test_normal_closed_form_midpoint(self):
        assert copula_h(normal(0.7071), 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("c", [normal(0.6), student(0.5, 4.0), clayton(2.0),
                                   frank(4.0), frank(-4.0), gumbel(1.8)])
    def test_matches_finite_difference_of_cdf(self, c):
        # oracle: h(u|v) = dC/dv by central differences
        d = 1e-5
        for u in (0.25, 0.5, 0.75):
            for v in (0.3, 0.55, 0.8):
                fd = (copula_cdf(c, u, v + d) - copula_cdf(c, u, v - d)) / (2 * d)
                assert copula_h(c, u, v) == pytest.approx(fd, abs=5e-5)

    @pytest.mark.parametrize("c", SAMPLE_COPULAS)
    def test_nondecreasing_in_u(self, c):
        for v in (0.2, 0.5, 0.8):
            vals = copula_h(c, GRID, v)
            assert np.all(np.diff(vals) >= -1e-12)


class TestHInverse:
    def test_product(self):
        assert copula_hinv(product(), 0.42, 0.9) == pytest.approx(0.42)

    @pytest.mark.parametrize("c", SAMPLE_COPULAS)
    def test_round_trip_on_grid(self, c):
        for tau_grid_u in GRID:
            for v in GRID:
                h = copula_h(c, tau_grid_u, v)
                back = copula_hinv(c, h, v)
                assert back == pytest.approx(tau_grid_u, abs=1e-8)

    def test_gumbel_bisection_tolerance(self):
        u = copula_hinv(gumbel(2.0), 0.3, 0.6)
        assert abs(copula_h(gumbel(2.0), u, 0.6) - 0.3) <= 1e-10

    @pytest.mark.parametrize("theta", [1.0 + 1e-9, 1.001, 1.25, 2.0, 20.0,
                                       100.0])
    def test_gumbel_round_trip_over_the_range(self, theta):
        # h(hinv(p | v) | v) = p to 1e-10 wherever hinv is inside the clamp,
        # plus what one double of u moves h: c(u, v) ulp(u), which near
        # u = v = 1 exceeds 1e-10 for any inverse
        c = gumbel(theta)
        p, v = np.meshgrid(
            np.concatenate([[1e-300, 1e-100, 1e-20, 1e-8],
                            np.linspace(0.01, 0.99, 25),
                            [1 - 1e-8, 1 - 1e-12, 1 - 1e-16]]),
            np.concatenate([[1e-10, 1e-6, 1e-3], np.linspace(0.02, 0.98, 17),
                            [1 - 1e-3, 1 - 1e-6, 1 - 1e-10]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u = copula_hinv(c, p, v)
            err = np.abs(copula_h(c, u, v) - p)
            bound = 1e-10 + np.exp(copula_logpdf(c, u, v)) * np.spacing(u)
        inside = (u > copulas.INTERIOR_EPS) & (u < 1 - copulas.INTERIOR_EPS)
        assert inside.mean() > 0.8
        assert np.all(err[inside] <= bound[inside])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# The Student log density, h and h-inverse written on scipy.stats.t, whose
# ppf and cdf the copula module's scipy.special calls must reproduce bit for
# bit.  Arguments are already clipped as copula_logpdf/_h/_hinv clip them.
def reference_student_logpdf(rho, nu, u, v):
    x, y = stats.t.ppf(u, nu), stats.t.ppf(v, nu)
    r2 = 1.0 - rho * rho
    q = (x * x - 2.0 * rho * x * y + y * y) / r2
    const = (special.gammaln((nu + 2.0) / 2.0) + special.gammaln(nu / 2.0)
             - 2.0 * special.gammaln((nu + 1.0) / 2.0))
    return (const - 0.5 * np.log(r2)
            - 0.5 * (nu + 2.0) * np.log1p(q / nu)
            + 0.5 * (nu + 1.0) * (np.log1p(x * x / nu) + np.log1p(y * y / nu)))


def reference_student_h(rho, nu, u, v):
    x, y = stats.t.ppf(u, nu), stats.t.ppf(v, nu)
    denom = np.sqrt((nu + y * y) * (1.0 - rho * rho) / (nu + 1.0))
    return stats.t.cdf((x - rho * y) / denom, nu + 1.0)


def reference_student_hinv(rho, nu, p, v):
    y = stats.t.ppf(v, nu)
    denom = np.sqrt((nu + y * y) * (1.0 - rho * rho) / (nu + 1.0))
    return stats.t.cdf(stats.t.ppf(p, nu + 1.0) * denom + rho * y, nu)


def student_points(seed):
    """Random (p, u, v) points, then every pair of the clip edges."""
    rng = np.random.default_rng(seed)
    edges = np.array([0.0, 1e-300, 1e-20, 1e-10, 0.5, 1.0 - 1e-10,
                      1.0 - 1e-16, 1.0])
    p, u, v = rng.random((3, 20000))
    eu, ev = np.meshgrid(edges, edges)
    return (np.concatenate([p, eu.ravel()]), np.concatenate([u, eu.ravel()]),
            np.concatenate([v, ev.ravel()]))


class TestStudentMatchesScipyBitwise:
    @pytest.mark.parametrize("rho, nu", [(0.5, 4.0), (-0.93, 1.0),
                                         (0.2, 37.5), (0.99, 100.0)])
    def test_copula_functions(self, rho, nu):
        c = student(rho, nu)
        p, u, v = student_points(61)
        lo, hi = copulas.INTERIOR_EPS, 1.0 - copulas.INTERIOR_EPS
        uu, vv = np.clip(u, lo, hi), np.clip(v, lo, hi)
        pp = np.clip(p, 1e-300, 1.0 - 1e-16)
        assert same_bits(copula_logpdf(c, u, v),
                         reference_student_logpdf(rho, nu, uu, vv))
        assert same_bits(copula_h(c, u, v),
                         np.clip(reference_student_h(rho, nu, uu, vv), 0, 1))
        assert same_bits(copula_hinv(c, p, v), np.clip(
            reference_student_hinv(rho, nu, pp, vv), lo, hi))
        assert same_bits(copula_h(c, 0.3, 0.8),
                         reference_student_h(rho, nu, 0.3, 0.8))

    def test_array_nu(self):
        p, u, v = student_points(62)
        lo, hi = copulas.INTERIOR_EPS, 1.0 - copulas.INTERIOR_EPS
        u, v = np.clip(u, lo, hi), np.clip(v, lo, hi)
        p = np.clip(p, 1e-300, 1.0 - 1e-16)
        nu = np.random.default_rng(63).uniform(1.0, 100.0, p.size)
        for ours, reference, args in [
                (copulas._student_logpdf, reference_student_logpdf, (u, v)),
                (copulas._student_h, reference_student_h, (u, v)),
                (copulas._student_hinv, reference_student_hinv, (p, v))]:
            assert same_bits(ours(0.6, nu, *args),
                             reference(0.6, nu, *args))


# sha256 (first 16 hex digits) of the float.hex of each public operation
# over every (a, v) pair of EDGE_GRID, row-major with v on the rows
EDGE_GRID = np.array([0.0, 1e-10, 0.3, 0.7, 1.0 - 1e-10, 1.0])
PINNED_COPULAS = {"product": product(), "normal": normal(0.6),
                  "student": student(-0.4, 5.0), "clayton": clayton(2.5),
                  "frank": frank(4.0), "frank-": frank(-4.0),
                  "gumbel": gumbel(1.8)}
FAMILY_BITS = {
    ("product", "copula_logpdf"): "7aabb289757a707a",
    ("product", "copula_cdf"): "9f1825660d53bd26",
    ("product", "copula_h"): "29b214d2b8a4e7c0",
    ("product", "copula_hinv"): "29b214d2b8a4e7c0",
    ("normal", "copula_logpdf"): "9b52a15521243b23",
    ("normal", "copula_cdf"): "0066ca4a64109f6a",
    ("normal", "copula_h"): "6c6924a5ca82bd4c",
    ("normal", "copula_hinv"): "f64afeed877609e1",
    ("student", "copula_logpdf"): "4f4781a1847ff9ea",
    ("student", "copula_cdf"): "5873c3592d5521cd",
    ("student", "copula_h"): "11b627b3e4a5136d",
    ("student", "copula_hinv"): "ddaa862baec52962",
    ("clayton", "copula_logpdf"): "827341e12207e468",
    ("clayton", "copula_cdf"): "4bb6fa685d466d80",
    ("clayton", "copula_h"): "5a197b1d16a69a03",
    ("clayton", "copula_hinv"): "f7809243cdcf66c8",
    ("frank", "copula_logpdf"): "b71aa0f53acec51a",
    ("frank", "copula_cdf"): "75bf4f04298de8f3",
    ("frank", "copula_h"): "1e73da0513a4e1d3",
    ("frank", "copula_hinv"): "b6f6ce6faf4155a4",
    ("frank-", "copula_logpdf"): "555205b039bf8556",
    ("frank-", "copula_cdf"): "c552de84aa41f12b",
    ("frank-", "copula_h"): "36bebb88219465ac",
    ("frank-", "copula_hinv"): "a40fffacfdde7b68",
    ("gumbel", "copula_logpdf"): "4a3246c5873a1d5d",
    ("gumbel", "copula_cdf"): "b662898b8fc8c3d1",
    ("gumbel", "copula_h"): "0217965cfd82612f",
    ("gumbel", "copula_hinv"): "503bb7f68492e813",
}


class TestFamilyBits:
    """Every family's density, CDF, h and h-inverse keep their bits,
    clip edges included, so restructuring the families changes no result."""

    @pytest.mark.parametrize("name, op", sorted(FAMILY_BITS), ids="-".join)
    def test_operation_bits(self, name, op):
        a, v = np.meshgrid(EDGE_GRID, EDGE_GRID)
        out = np.asarray(getattr(copulas, op)(PINNED_COPULAS[name], a, v))
        text = " ".join(x.hex() for x in out.ravel().tolist())
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == FAMILY_BITS[name, op]


class TestSampling:
    def test_product_tau_near_zero(self):
        rng = np.random.default_rng(123)
        uv = copula_sample(product(), 2000, rng)
        assert abs(kendalltau(uv[:, 0], uv[:, 1]).statistic) < 0.05

    def test_normal_tau_half(self):
        rng = np.random.default_rng(123)
        uv = copula_sample(normal(math.sin(math.pi * 0.25)), 2000, rng)
        assert kendalltau(uv[:, 0], uv[:, 1]).statistic == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("c", SAMPLE_COPULAS)
    def test_uniform_margins(self, c):
        rng = np.random.default_rng(99)
        uv = copula_sample(c, 2000, rng)
        assert kstest(uv[:, 0], "uniform").pvalue > 0.01
        assert kstest(uv[:, 1], "uniform").pvalue > 0.01

    @pytest.mark.parametrize("family", [CopulaFamily.NORMAL, CopulaFamily.STUDENT,
                                        CopulaFamily.CLAYTON, CopulaFamily.FRANK,
                                        CopulaFamily.GUMBEL])
    @pytest.mark.parametrize("tau", [0.2, 0.5, 0.8])
    def test_sampled_tau_matches_theory(self, family, tau):
        # crc32, not hash(): str hashes are salted per process
        rng = np.random.default_rng(zlib.crc32(f"{family.value}:{tau}".encode()))
        c = fitted(family, tau)
        uv = copula_sample(c, 2000, rng)
        assert kendalltau(uv[:, 0], uv[:, 1]).statistic == pytest.approx(tau, abs=0.05)


class TestTauConversions:
    def test_normal(self):
        c = tau_to_parameter(CopulaFamily.NORMAL, 0.5)
        assert c.theta == pytest.approx(math.sin(math.pi / 4), abs=1e-12)

    def test_clayton(self):
        assert tau_to_parameter(CopulaFamily.CLAYTON, 0.5).theta == pytest.approx(2.0)

    def test_gumbel(self):
        assert tau_to_parameter(CopulaFamily.GUMBEL, 0.5).theta == pytest.approx(2.0)

    def test_frank_zero_collapses_to_product(self):
        assert tau_to_parameter(CopulaFamily.FRANK, 0.0).family is CopulaFamily.PRODUCT

    def test_negative_tau_unsupported(self):
        with pytest.raises(UnsupportedTauError):
            tau_to_parameter(CopulaFamily.CLAYTON, -0.3)
        with pytest.raises(UnsupportedTauError):
            tau_to_parameter(CopulaFamily.GUMBEL, -0.3)

    def test_parameter_to_tau_known_values(self):
        assert parameter_to_tau(product()) == 0.0
        assert parameter_to_tau(normal(math.sin(math.pi / 4))) == pytest.approx(0.5)
        assert parameter_to_tau(clayton(2.0)) == pytest.approx(0.5)

    def test_frank_tau_against_quadrature_oracle(self):
        # independent oracle: tau = 1 - 4/theta + (4/theta^2) int_0^theta t/(e^t-1) dt
        for theta in (0.5, 2.0, 5.0, 12.0, -3.0):
            integral, _ = quad(lambda t: t / math.expm1(t) if t else 1.0,
                               0.0, abs(theta))
            expected = 1.0 - 4.0 / abs(theta) + 4.0 * integral / theta ** 2
            expected = math.copysign(expected, theta)
            assert parameter_to_tau(frank(theta)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("tau", [1e-12, 1e-9, 1e-6, 2e-5, 0.5, 0.98,
                                     1e-160, 5e-324])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_frank_round_trip_to_small_tau(self, tau, sign):
        # an untied edge's tau is a multiple of 1/N with N = m(m - 1)/2, so
        # large samples reach |tau| near 0, where theta is near 9 tau; the
        # root search's sign test would underflow below |tau| ~ 1e-154
        c = tau_to_parameter(CopulaFamily.FRANK, sign * tau)
        assert c.family is CopulaFamily.FRANK
        assert parameter_to_tau(c) == pytest.approx(sign * tau, rel=1e-9,
                                                    abs=0.0)

    def test_frank_series_meets_the_root_search(self):
        # just above the switch at |tau| = 1e-8 the search gives the
        # series' theta to rounding
        for tau in (1e-8, 1.5e-8, 4e-8):
            theta = tau_to_parameter(CopulaFamily.FRANK, tau).theta
            assert theta == pytest.approx(9.0 * tau * (1.0 + 0.81 * tau * tau),
                                          rel=4e-16)

    @pytest.mark.parametrize("family", [CopulaFamily.NORMAL, CopulaFamily.STUDENT,
                                        CopulaFamily.CLAYTON, CopulaFamily.FRANK,
                                        CopulaFamily.GUMBEL])
    @pytest.mark.parametrize("tau", [-0.7, -0.2, 0.2, 0.5, 0.8, 0.95])
    def test_round_trip(self, family, tau):
        if tau <= 0 and family in (CopulaFamily.CLAYTON, CopulaFamily.GUMBEL):
            pytest.skip("negative tau unsupported")
        c = tau_to_parameter(family, tau)
        assert parameter_to_tau(c) == pytest.approx(tau, abs=1e-6)


class TestLoglik:
    def test_product_zero(self):
        rng = np.random.default_rng(5)
        U = rng.random((100, 2))
        assert copula_loglik(product(), U) == 0.0

    def test_single_row_normal(self):
        ll = copula_loglik(normal(0.5), np.array([[0.5, 0.5]]))
        assert ll == pytest.approx(math.log(1.0 / math.sqrt(0.75)), abs=1e-9)

    def test_normal_beats_product_on_own_sample(self):
        rng = np.random.default_rng(21)
        U = copula_sample(normal(0.5), 500, rng)
        assert copula_loglik(normal(0.5), U) > 0.0


class TestFitStudentDof:
    def test_recovers_low_dof(self):
        rng = np.random.default_rng(31)
        U = copula_sample(student(0.5, 4.0), 1000, rng)
        fit = fit_student_dof(U, 0.5)
        assert 2.0 <= fit.nu <= 10.0

    def test_normal_data_pushes_dof_high(self):
        rng = np.random.default_rng(32)
        U = copula_sample(normal(0.5), 1000, rng)
        assert fit_student_dof(U, 0.5).nu >= 20.0

    def test_terminates_within_budget(self, monkeypatch):
        import copeda.copulas as mod
        calls = {"n": 0}
        orig = mod.copula_loglik

        def counting(c, U):
            calls["n"] += 1
            return orig(c, U)

        monkeypatch.setattr(mod, "copula_loglik", counting)
        m = 40
        grid = (np.arange(m) + 0.5) / m
        U = np.column_stack([grid, grid[::-1] if False else grid])
        mod.fit_student_dof(U, 0.3)
        assert calls["n"] <= 100


def reference_frank_ml(U2):
    """copula-MIMIC's Frank fit as it was before ``fit_frank`` took over."""
    def make(theta):
        return frank(theta) if abs(theta) > 1e-8 else product()

    def negloglik(param):
        try:
            return -copula_loglik(make(param), U2)
        except (ValueError, FloatingPointError):
            return np.inf

    res = minimize_scalar(negloglik, bounds=(-300.0, 300.0),
                          method="bounded", options={"xatol": 1e-6})
    return make(float(res.x))


def mirrored_sample(seed):
    """Pairs on a 1/64 grid plus their mirror images (1 - u, v): 1 - u is
    exact, so the Frank likelihood is even in theta, maximal at 0."""
    rng = np.random.default_rng(seed)
    S = rng.integers(1, 64, size=(19, 2)) / 64.0
    return np.vstack([S, np.column_stack([1.0 - S[:, 0], S[:, 1]])])


class TestFitFrank:
    @pytest.mark.parametrize("source, m", [
        (frank(5.0), 80), (frank(-3.0), 80), (clayton(4.0), 60),
        (normal(0.95), 40), (product(), 50)])
    def test_matches_the_old_search_bit_for_bit(self, source, m):
        U = copula_sample(source, m, np.random.default_rng(7))
        fit, ref = fit_frank(U), reference_frank_ml(U)
        assert fit.family is ref.family is CopulaFamily.FRANK
        assert same_bits(fit.theta, ref.theta)

    def test_near_independent_samples(self):
        # seed 0 fits the product copula, seeds 1 and 2 a |theta| < 1e-5
        for seed in range(3):
            U = mirrored_sample(seed)
            fit, ref = fit_frank(U), reference_frank_ml(U)
            assert fit.family is ref.family
            assert same_bits(fit.theta, ref.theta)
            assert (fit == product()) is (seed == 0)


class TestMultivariateNormalCopula:
    def test_identity_independence(self):
        rng = np.random.default_rng(77)
        U = mvnormal_copula_sample(np.eye(3), 2000, rng)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(kendalltau(U[:, i], U[:, j]).statistic) < 0.05

    def test_bivariate_tau(self):
        rng = np.random.default_rng(78)
        rho = math.sin(math.pi * 0.25)
        R = np.array([[1.0, rho], [rho, 1.0]])
        U = mvnormal_copula_sample(R, 2000, rng)
        assert kendalltau(U[:, 0], U[:, 1]).statistic == pytest.approx(0.5, abs=0.05)

    def test_univariate_uniform(self):
        rng = np.random.default_rng(79)
        U = mvnormal_copula_sample(np.eye(1), 2000, rng)
        assert kstest(U[:, 0], "uniform").pvalue > 0.01


@st.composite
def copulas_strategy(draw):
    family = draw(st.sampled_from([CopulaFamily.NORMAL, CopulaFamily.CLAYTON,
                                   CopulaFamily.FRANK, CopulaFamily.GUMBEL]))
    if family in (CopulaFamily.CLAYTON, CopulaFamily.GUMBEL):
        tau = draw(st.floats(min_value=0.05, max_value=0.85))
    else:
        tau = draw(st.floats(min_value=-0.85, max_value=0.85).filter(
            lambda t: abs(t) > 0.05))
    return fitted(family, tau)


class TestProperties:
    # h(hinv(p, v), v) = p, checked in p: hinv(h(u, v), v) = u cannot hold
    # to any fixed tolerance where h is within rounding of 0 or 1 (normal,
    # theta 0.957, u = 0.75, v = 0.0625 gives h = 1 - 7.9e-14, whose distance
    # from 1 a double holds to three digits).  The closed-form inverses and
    # the Gumbel Newton solve are exact to rounding, so 1e-10 allows a
    # copula density up to about 1e6 at hinv(p, v).
    @given(copulas_strategy(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_hinv_h_identity(self, c, p, v):
        assert copula_h(c, copula_hinv(c, p, v), v) == pytest.approx(p, abs=1e-10)

    @given(copulas_strategy(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_cdf_within_frechet_bounds(self, c, u, v):
        val = copula_cdf(c, u, v)
        assert max(u + v - 1.0, 0.0) - 1e-9 <= val <= min(u, v) + 1e-9

    @given(st.floats(-0.9, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_normal_tau_round_trip(self, tau):
        c = tau_to_parameter(CopulaFamily.NORMAL, tau)
        assert parameter_to_tau(c) == pytest.approx(tau, abs=1e-8)
