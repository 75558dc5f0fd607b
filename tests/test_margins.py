import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from copeda import margins
from copeda.copulas import (
    clayton,
    copula_cdf,
    copula_h,
    copula_hinv,
    copula_logpdf,
    copula_pdf,
    frank,
    gumbel,
    normal,
    product,
    student,
)
from copeda.margins import (
    BetaRescaledMargin,
    KernelMargin,
    MarginKind,
    NormalMargin,
    TruncNormalMargin,
    fit_margin,
)

P_GRID = np.arange(0.01, 1.0, 0.01)
TAIL_GRID = np.concatenate([np.logspace(-2, -11, 40), 1.0 - np.logspace(-2, -11, 40)])


def all_kind_models():
    rng = np.random.default_rng(2024)
    sample = rng.normal(1.5, 2.0, size=200)
    sample = np.clip(sample, -8.0, 11.0)
    return [
        fit_margin(MarginKind.NORMAL, sample, -8.0, 11.0),
        fit_margin(MarginKind.KERNEL, sample, -8.0, 11.0),
        fit_margin(MarginKind.TRUNC_NORMAL, sample, -8.0, 11.0),
        fit_margin(MarginKind.BETA_RESCALED, sample, -8.0, 11.0),
    ]


# every margin kind's cdf and quantile, and every public copula operation
# of each family row, negative-theta Frank included
COPULA_ROWS = {"product": product(), "normal": normal(0.5),
               "student": student(0.5, 4.0), "clayton": clayton(2.0),
               "frank": frank(5.0), "frank-negative": frank(-5.0),
               "gumbel": gumbel(2.0)}
SCALAR_RULE_CASES = (
    [pytest.param((m.cdf, m.quantile), 1, id=m.kind.value)
     for m in all_kind_models()]
    + [pytest.param(tuple(functools.partial(op, c) for op in (
        copula_logpdf, copula_pdf, copula_cdf, copula_h, copula_hinv)), 2,
        id=f"copula-{name}") for name, c in COPULA_ROWS.items()])
# by arity: the scalar arguments, then array arguments whose first
# broadcast entry is those scalars
SCALAR_RULE_ARGS = {
    1: ((0.3,), [(np.array([0.3]),), ([0.3],), (np.array([[0.3], [0.6]]),)]),
    2: ((0.3, 0.6), [([0.3], 0.6), (0.3, np.array([0.6])),
                     (np.array([[0.3], [0.6]]), np.array([0.6, 0.9, 0.2]))]),
}


class TestFit:
    def test_normal_fit(self):
        # sample mean and n-1 standard deviation: {-1,0,1} has ssq 2 over 2
        model = fit_margin(MarginKind.NORMAL, [-1.0, 0.0, 1.0], -5, 5)
        assert model.mu == pytest.approx(0.0)
        assert model.sigma == pytest.approx(1.0, abs=1e-12)
        # hand check on a second sample: {2, 4, 4, 6}: mean 4, ssq 8 over 3
        model = fit_margin(MarginKind.NORMAL, [2.0, 4.0, 4.0, 6.0], -9, 9)
        assert model.mu == pytest.approx(4.0)
        assert model.sigma == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)

    def test_beta_on_uniform_sample(self):
        rng = np.random.default_rng(321)
        model = fit_margin(MarginKind.BETA_RESCALED, rng.random(5000), 0.0, 1.0)
        assert 0.9 <= model.a <= 1.1
        assert 0.9 <= model.b <= 1.1

    def test_beta_tight_sample_keeps_its_moments(self):
        # moment a + b ~ 3e10: the fit keeps the moment estimate, far nearer
        # than the uniform margin (1, 1)
        sample = 0.3 + 1e-5 * np.linspace(-1.0, 1.0, 52)
        model = fit_margin(MarginKind.BETA_RESCALED, sample, -1.0, 1.0)
        assert (model.a, model.b) != (1.0, 1.0)
        assert model.quantile(0.5) == pytest.approx(0.3, abs=0.01)

    def test_beta_solves_the_score_equations(self):
        # psi(a) - psi(a + b) = mean log y, psi(b) - psi(a + b) = mean
        # log(1 - y), at the rounding level of the digamma values
        rng = np.random.default_rng(17)
        X = np.column_stack([rng.beta(a, b, 60)
                             for a, b in ((0.5, 3.0), (2.0, 2.0), (8.0, 0.7))])
        model = fit_margin(MarginKind.BETA_RESCALED, X, 0.0, 1.0)
        Y = np.clip(X, 1e-6, 1.0 - 1e-6)
        a, b = model.a, model.b
        total = special.digamma(a + b)
        assert np.all(np.abs(special.digamma(a) - total
                             - np.log(Y).mean(axis=0)) <= 1e-12)
        assert np.all(np.abs(special.digamma(b) - total
                             - np.log1p(-Y).mean(axis=0)) <= 1e-12)

    def test_beta_converged_sample_fits_its_moments(self):
        # a Sphere population near the optimum: a + b ~ 6e12, where the
        # beta is normal and its ML point is the sample's mean and variance
        sample = 2.4e-4 * np.random.default_rng(5).standard_normal(52)
        model = fit_margin(MarginKind.BETA_RESCALED, sample, -600.0, 600.0)
        a, b, span = model.a, model.b, 1200.0
        mean = -600.0 + span * a / (a + b)
        var = span ** 2 * a * b / ((a + b) ** 2 * (a + b + 1.0))
        assert abs(mean - sample.mean()) <= 0.01 * sample.std()
        assert var / sample.var() == pytest.approx(1.0, rel=0.01)

    def test_beta_constant_column(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_margin(MarginKind.BETA_RESCALED, np.full(10, 0.25),
                               -1.0, 1.0)
        assert 0.0 < model.a < np.inf and 0.0 < model.b < np.inf
        assert -1.0 + 2.0 * model.a / (model.a + model.b) == \
            pytest.approx(0.25, rel=1e-12)

    def test_kernel_constant_sample(self):
        model = fit_margin(MarginKind.KERNEL, [5.0, 5.0, 5.0], 0.0, 10.0)
        assert model.bandwidth == pytest.approx(1e-8)
        assert model.quantile(0.5) == pytest.approx(5.0, abs=1e-9)

    def test_degenerate_sample_keeps_positive_sigma(self):
        model = fit_margin(MarginKind.NORMAL, [2.0, 2.0], 0.0, 10.0)
        assert model.sigma > 0.0

    def test_too_short_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_margin(MarginKind.NORMAL, [1.0], 0.0, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", list(MarginKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_sample_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="non-finite"):
            fit_margin(kind, [0.0, 1.0, bad, 2.0], -5.0, 5.0)

    def test_kernel_bandwidth_falls_back_to_sd_when_iqr_is_zero(self):
        # R's bw.nrd0: 0.9 * sd * m^-0.2 when the IQR is 0, not the floor
        sample = [0.0, 0.0, 0.0, 0.0, 1.0]
        model = fit_margin(MarginKind.KERNEL, sample, -5.0, 5.0)
        sd = np.std(sample, ddof=1)
        assert model.bandwidth == pytest.approx(0.9 * sd * 5 ** -0.2,
                                                rel=1e-12)
        assert model.bandwidth == pytest.approx(0.29, abs=0.005)


class TestFitBits:
    def test_normal_fit_has_the_bits_of_mean_and_std(self):
        # strided columns of many sizes and scales, as the EDA loop fits them
        rng = np.random.default_rng(41)
        for m in (2, 3, 7, 31, 62, 129, 700):
            for scale in (1e-8, 1e-3, 1.0, 1e3):
                X = 5.0 + scale * rng.standard_normal((m, 4))
                for j in range(4):
                    col = X[:, j]
                    for kind in (MarginKind.NORMAL, MarginKind.TRUNC_NORMAL):
                        model = fit_margin(kind, col, -10.0, 20.0)
                        assert model.mu.hex() == float(np.mean(col)).hex()
                        assert (model.sigma.hex()
                                == float(np.std(col, ddof=1)).hex())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", list(MarginKind), ids=lambda k: k.value)
    def test_matrix_fit_equals_column_fits(self, kind):
        # one fit of a strided (m, n) matrix against n fits of its columns:
        # every field, cdf and quantile bit for bit; the third column is
        # tight (a beta keeps its moments) and the last constant
        rng = np.random.default_rng(43)
        lower, upper = np.array([-10.0, -9.0, -11.0, -8.0]), np.full(4, 20.0)
        for m in (2, 3, 31, 51, 70, 700):
            for scale in (1e-8, 1e-3, 1.0, 1e3):
                X = (5.0 + scale * rng.standard_normal((m, 8)))[:, ::2]
                X[:, 2] = 5.0 + 1e-4 * rng.standard_normal(m)
                X[:, 3] = 4.0
                model = fit_margin(kind, X, lower, upper)
                singles = [fit_margin(kind, X[:, j], lower[j], upper[j])
                           for j in range(4)]
                for j, (column, single) in enumerate(
                        zip(margins._columns(model), singles)):
                    assert type(column) is type(single)
                    for field in dataclasses.fields(single):
                        mine = getattr(column, field.name)
                        theirs = getattr(single, field.name)
                        assert type(mine) is type(theirs), field.name
                        assert np.array_equal(mine, theirs), (m, scale, j)
                P = rng.random((9, 4))
                P[0], P[1, :2], P[1, 2:] = np.nan, 0.0, 1.0
                Q = model.quantile(P)
                assert np.array_equal(
                    Q, np.column_stack([single.quantile(P[:, j])
                                        for j, single in enumerate(singles)]),
                    equal_nan=True)
                x = np.vstack([X[:5], Q[2:]])
                assert np.array_equal(
                    model.cdf(x),
                    np.column_stack([single.cdf(x[:, j])
                                     for j, single in enumerate(singles)]),
                    equal_nan=True)

    def test_one_column_fit_has_float_fields(self):
        for kind in MarginKind:
            model = fit_margin(kind, [0.5, 1.0, 2.0], 0.0, 3.0)
            assert len(margins._columns(model)) == 1
            for field in dataclasses.fields(model):
                if field.name != "sample":
                    assert type(getattr(model, field.name)) is float


class TestCdf:
    def test_standard_normal_midpoint(self):
        assert NormalMargin(0.0, 1.0).cdf(0.0) == pytest.approx(0.5)

    def test_beta_uniform_case(self):
        assert BetaRescaledMargin(0.0, 1.0, 1.0, 1.0).cdf(0.3) == \
            pytest.approx(0.3)

    def test_truncnorm_upper_bound(self):
        assert TruncNormalMargin(0.0, 1.0, -1.0, 1.0).cdf(1.0) == \
            pytest.approx(1.0)

    @pytest.mark.parametrize("model", all_kind_models())
    def test_monotone(self, model):
        xs = np.linspace(-9.0, 12.0, 120)
        vals = np.array([model.cdf(x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)

    def test_kernel_tails(self):
        model = all_kind_models()[1]
        lo = model.sample.min() - 8.0 * model.bandwidth
        hi = model.sample.max() + 8.0 * model.bandwidth
        assert model.cdf(lo) < 1e-6
        assert model.cdf(hi) > 1.0 - 1e-6


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBetaMatchesScipyBitwise:
    """The beta margin's scipy.special calls against scipy.stats.beta."""

    def test_stacked_columns_and_clip_edges(self):
        rng = np.random.default_rng(71)
        lower, upper = np.array([-5.0, 0.0, -600.0, 2.0]), np.array(
            [5.0, 1.0, 300.0, 2.5])
        a, b = rng.uniform(0.05, 60.0, (2, 4))
        model = BetaRescaledMargin(lower, upper, a, b)
        edges = np.array([0.0, 1e-300, 1e-12, 1e-10, 0.5, 1.0 - 1e-10,
                          1.0 - 1e-12, 1.0])
        p = np.concatenate([rng.random((20000, 4)),
                            np.repeat(edges, 4).reshape(-1, 4)])
        x = lower + (upper - lower) * np.concatenate([
            rng.uniform(-0.1, 1.1, (20000, 4)), p[-8:]])
        y = np.clip((x - lower) / (upper - lower), 0.0, 1.0)
        assert same_bits(model.cdf(x), stats.beta.cdf(y, a, b))
        q = stats.beta.ppf(np.clip(p, 1e-12, 1.0 - 1e-12), a, b)
        assert same_bits(model.quantile(p),
                              lower + q * (upper - lower))

    def test_scalar_fields(self):
        model = BetaRescaledMargin(-2.0, 3.0, 0.7, 4.2)
        for x in (-2.0, -1.3, 0.0, 2.9, 3.0):
            ref = stats.beta.cdf((x + 2.0) / 5.0, 0.7, 4.2)
            assert same_bits(model.cdf(x), ref)
        for p in (1e-12, 0.01, 0.5, 0.99, 1.0 - 1e-12):
            ref = -2.0 + stats.beta.ppf(p, 0.7, 4.2) * 5.0
            assert same_bits(model.quantile(p), ref)


class TestQuantile:
    def test_standard_normal_median(self):
        assert NormalMargin(0.0, 1.0).quantile(0.5) == pytest.approx(0.0)

    def test_beta_uniform_rescaled(self):
        assert BetaRescaledMargin(-2.0, 2.0, 1.0, 1.0).quantile(0.75) == \
            pytest.approx(1.0)

    @pytest.mark.parametrize("model", all_kind_models())
    def test_cdf_round_trip(self, model):
        for p in P_GRID:
            x = model.quantile(p)
            assert model.cdf(x) == pytest.approx(p, abs=1e-6)

    def test_truncnorm_stays_in_support(self):
        model = TruncNormalMargin(0.3, 2.5, -1.0, 1.0)
        qs = model.quantile(P_GRID)
        assert np.all(qs >= -1.0)
        assert np.all(qs <= 1.0)

    def test_vectorized_matches_scalar(self):
        model = all_kind_models()[1]
        ps = np.array([0.1, 0.4, 0.9])
        vec = model.quantile(ps)
        for p, q in zip(ps, vec):
            assert model.quantile(p) == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize("functions, arity", SCALAR_RULE_CASES)
    def test_only_scalar_input_gives_float(self, functions, arity):
        # numpy's rule: scalars give an np.float64, which is a float, and
        # any array argument gives an array of the broadcast shape
        scalar, arrays = SCALAR_RULE_ARGS[arity]
        for f in functions:
            assert isinstance(f(*scalar), float)
            for args in arrays:
                out = f(*args)
                assert isinstance(out, np.ndarray)
                assert out.shape == np.broadcast_shapes(*map(np.shape, args))
                assert out.flat[0] == f(*scalar)


class TestProperties:
    @given(st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=40),
           st.sampled_from(list(MarginKind)))
    @settings(max_examples=60, deadline=None)
    def test_quantile_cdf_round_trip_random_samples(self, data, kind):
        sample = np.asarray(data)
        if np.ptp(sample) < 1e-6:
            return  # degenerate; covered by the explicit floor tests
        model = fit_margin(kind, sample, -60.0, 60.0)
        if isinstance(model, KernelMargin) and model.bandwidth <= 1e-8:
            return  # floored bandwidth makes the CDF a step function
        for p in (0.05, 0.5, 0.95):
            x = model.quantile(p)
            assert model.cdf(x) == pytest.approx(p, abs=1e-5)


def bisection_quantile(model, p):
    """Reference: 44 bisection steps on the kernel CDF over [min - 4h, max + 4h]."""
    p = np.clip(np.asarray(p, float), 1e-12, 1.0 - 1e-12)
    lo = np.full(p.shape, model.sample.min() - 4.0 * model.bandwidth)
    hi = np.full(p.shape, model.sample.max() + 4.0 * model.bandwidth)
    for _ in range(44):
        mid = 0.5 * (lo + hi)
        low_side = model.cdf(mid) < p
        lo = np.where(low_side, mid, lo)
        hi = np.where(low_side, hi, mid)
    return 0.5 * (lo + hi)


def assert_as_accurate_as_bisection(model, ps):
    ps = np.asarray(ps, float)
    target = np.clip(ps, 1e-12, 1.0 - 1e-12)
    newton = np.abs(model.cdf(model.quantile(ps)) - target)
    bisect = np.abs(model.cdf(bisection_quantile(model, ps)) - target)
    assert np.all(newton <= bisect + 1e-12)


def kernel(sample):
    return fit_margin(MarginKind.KERNEL, sample, -1e4, 1e4)


class TestKernelQuantile:
    def test_grid_as_accurate_as_bisection(self):
        model = all_kind_models()[1]
        assert_as_accurate_as_bisection(model, P_GRID)
        assert_as_accurate_as_bisection(model, TAIL_GRID)

    def test_tail_clamps_are_the_support_ends(self):
        model = all_kind_models()[1]
        h = model.bandwidth
        assert model.quantile(1e-12) == model.sample.min() - 4.0 * h
        assert model.quantile(1.0 - 1e-12) == model.sample.max() + 4.0 * h
        assert model.quantile(0.0) == model.sample.min() - 4.0 * h
        assert model.quantile(1.0) == model.sample.max() + 4.0 * h

    def test_floored_bandwidth_constant_sample(self):
        model = kernel([5.0, 5.0, 5.0])
        assert model.bandwidth == 1e-8
        assert model.quantile(0.5) == 5.0
        qs = model.quantile(P_GRID)
        assert np.all((qs >= 5.0 - 4e-8) & (qs <= 5.0 + 4e-8))
        assert np.all(np.diff(qs) >= 0.0)
        assert_as_accurate_as_bisection(model, P_GRID)

    def test_two_far_apart_clusters(self):
        # Both quartiles fall in the big cluster, so h is about 0.4 and the
        # CDF is flat at 5/6 across the gap, where the density underflows.
        rng = np.random.default_rng(7)
        model = kernel(np.concatenate([rng.normal(0.0, 1.0, 50),
                                       rng.normal(1000.0, 1.0, 10)]))
        assert model.bandwidth < 1.0
        gap = model.cdf(500.0)
        ps = np.concatenate([P_GRID, [gap, gap - 1e-9, gap + 1e-9]])
        assert_as_accurate_as_bisection(model, ps)
        qs = model.quantile(P_GRID)
        assert np.all(np.diff(qs) >= 0.0)
        assert np.all(qs[P_GRID < 0.83] < 10.0)
        assert np.all(qs[P_GRID > 0.84] > 990.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_warning_where_the_density_underflows(self):
        # for p just above the big cluster's share, 8/9, the exact solve
        # starts in the gap, where the density underflows to 0 and
        # Halley's error constant is NaN
        model = kernel([-1.65, -0.49, -0.82, -0.12, 0.28, -0.46, -0.37,
                        -0.46, 1001.0])
        ps = np.linspace(0.8, 0.99, 20001)
        assert_as_accurate_as_bisection(model, ps)

    def test_ends_at_the_rounding_level_of_the_cdf(self, monkeypatch):
        # Near p = 1 the residual cannot fall below F's rounding error, and
        # with a small density Newton's step there exceeds the x tolerance.
        model = kernel(np.random.default_rng(0).normal(0.0, 30.0, 60))
        calls = []
        ndtr = special.ndtr

        def counting_ndtr(z):
            calls.append(np.shape(z))
            return ndtr(z)

        monkeypatch.setattr(special, "ndtr", counting_ndtr)
        qs = model.quantile(TAIL_GRID)
        monkeypatch.undo()
        assert len(calls) <= 20  # one CDF at the knots, then the iterations
        assert len(calls) < margins._NEWTON_MAX_ITER
        assert_as_accurate_as_bisection(model, TAIL_GRID)
        assert np.array_equal(qs, model.quantile(TAIL_GRID))

    def test_shapes(self):
        model = all_kind_models()[1]
        ps = np.array([[1e-13, 0.3], [0.7, 1.0 - 1e-13]])
        qs = model.quantile(ps)
        assert qs.shape == (2, 2)
        for p, q in zip(ps.flat, qs.flat):
            assert model.quantile(float(p)) == q
        single = model.quantile(np.array([0.3]))
        assert single.shape == (1,) and single[0] == model.quantile(0.3)
        assert model.quantile(np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("model", all_kind_models(),
                             ids=lambda m: m.kind.value)
    def test_nan_probability_gives_nan(self, model):
        assert math.isnan(model.quantile(float("nan")))
        qs = model.quantile(np.array([0.3, np.nan]))
        assert qs[0] == model.quantile(0.3) and np.isnan(qs[1])

    @given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=40),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_random_samples_as_accurate_as_bisection(self, data, ps):
        assert_as_accurate_as_bisection(kernel(np.asarray(data)), ps)


# one column of a stacked margin: m draws of one of four shapes
COLUMN = st.tuples(
    st.sampled_from(["normal", "ties", "constant", "clusters"]),
    st.integers(0, 2 ** 32 - 1))


def make_column(shape, seed, m):
    rng = np.random.default_rng(seed)
    if shape == "normal":
        return rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 10.0), m)
    if shape == "ties":
        return np.round(rng.normal(0.0, 2.0, m))
    if shape == "constant":
        return np.full(m, rng.uniform(-5.0, 5.0))
    big = m - m // 5
    return np.concatenate([rng.normal(0.0, 1.0, big),
                           rng.normal(1000.0, 1.0, m - big)])


class TestStackedKernelQuantile:
    @given(st.lists(COLUMN, min_size=1, max_size=6), st.integers(2, 60),
           st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stacked_solve_equals_each_column(self, spec, m, rows, seed):
        columns = [make_column(shape, s, m) for shape, s in spec]
        singles = [kernel(column) for column in columns]
        stacked = kernel(np.column_stack(columns))
        rng = np.random.default_rng(seed)
        P = rng.random((rows, len(singles)))
        P.flat[rng.integers(0, P.size, min(P.size, 3))] = np.nan
        P.flat[rng.integers(0, P.size, min(P.size, 3))] = 0.0
        P.flat[rng.integers(0, P.size, min(P.size, 3))] = 1.0
        Q = stacked.quantile(P)
        assert Q.shape == P.shape
        for j, single in enumerate(singles):
            assert np.array_equal(Q[:, j], single.quantile(P[:, j]),
                                  equal_nan=True)
        assert np.array_equal(stacked.cdf(Q[:4]),
                              np.column_stack([single.cdf(Q[:4, j])
                                               for j, single
                                               in enumerate(singles)]),
                              equal_nan=True)

    def test_blocks_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(13)
        stacked = kernel(
            np.column_stack([rng.normal(0.0, 1.0, 30) for _ in range(3)]))
        P = rng.random((50, 3))
        whole = stacked.quantile(P)
        F = stacked.cdf(whole)
        monkeypatch.setattr(margins, "_BLOCK", 7 * 30)  # 7 points a block
        assert np.array_equal(stacked.quantile(P), whole)
        assert np.array_equal(stacked.cdf(whole), F)  # 2 rows of 3 a block

    def test_probabilities_must_have_one_column_per_margin(self):
        stacked = kernel(np.tile([[0.0], [1.0], [2.0]], 3))
        with pytest.raises(ValueError, match="3 columns"):
            stacked.quantile(np.full((4, 2), 0.5))

    def test_about_one_cdf_row_per_point(self, monkeypatch):
        # the knot table is one (m + 2, m) CDF call; after it, most points
        # are certified on the knot's Taylor polynomial with no CDF row
        m, points = 60, 200
        model = kernel(np.random.default_rng(11).normal(0.0, 1.0, m))
        ps = np.random.default_rng(12).random(points)
        rows = []
        ndtr = special.ndtr

        def counting_ndtr(z):
            rows.append(math.prod(np.shape(z)[:-1]))
            return ndtr(z)

        monkeypatch.setattr(special, "ndtr", counting_ndtr)
        model.quantile(ps)
        monkeypatch.undo()
        assert rows[0] == m + 2
        assert sum(rows[1:]) <= 0.25 * points


class TestTaylorKernelQuantile:
    @given(st.lists(COLUMN, min_size=1, max_size=4), st.integers(2, 60),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stacked_columns(self, spec, m, seed):
        # as accurate as bisection and monotone in p in every column, each
        # column as its one-column fit, and every point the polynomial
        # does not certify as the exact solve of that point alone
        columns = [make_column(shape, s, m) for shape, s in spec]
        stacked = kernel(np.column_stack(columns))
        P = np.sort(np.random.default_rng(seed).random((70, len(columns))),
                    axis=0)
        solve, routed = margins._kernel_solve, []

        def recording_solve(*args):
            routed.append((args, solve(*args)))
            return routed[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(margins, "_kernel_solve", recording_solve)
            Q = stacked.quantile(P)
        assert np.all(np.diff(Q, axis=0) >= 0.0)
        for j, column in enumerate(columns):
            single = kernel(column)
            assert np.array_equal(Q[:, j], single.quantile(P[:, j]))
            assert_as_accurate_as_bisection(single, P[:, j])
        for (S, h, span, *points), x in routed:
            for i, xi in enumerate(x):
                alone = solve(S, h, span, *(a[i:i + 1] for a in points))
                assert alone[0] == xi

    @pytest.mark.parametrize("shape", ["normal", "ties", "clusters"])
    def test_remainder_within_cramer_bound(self, shape):
        # |He_n(z)| exp(-z^2/4) <= 1.0865 sqrt(n!) bounds F's Taylor
        # remainder at each knot by _TAYLOR_BOUND |t|^(Q + 1), t in
        # bandwidths, up to the rounding of the two evaluations
        model = kernel(make_column(shape, 5, 40))
        h = model.bandwidth
        S = np.sort(model.sample)[None, :]
        knots, C = margins._knot_table(S, np.array([h]))
        t = np.linspace(-1.0, 1.0, 41)
        for k in range(1, knots.shape[1] - 1):
            x = knots[0, k] + h * t
            exact_t = (x - knots[0, k]) / h
            bound = (margins._TAYLOR_BOUND
                     * np.abs(exact_t) ** (margins._TAYLOR_DEGREE + 1))
            taylor = np.polynomial.polynomial.polyval(exact_t, C[:, 0, k])
            gap = np.abs(taylor - model.cdf(x))
            assert np.all(gap <= bound + 16.0 * np.finfo(float).eps)

    def test_cramer_constant(self):
        z = np.linspace(-40.0, 40.0, 80001)
        for n in range(margins._TAYLOR_DEGREE + 1):
            he = np.polynomial.hermite_e.hermeval(z, [0] * n + [1])
            assert np.max(np.abs(he) * np.exp(-z * z / 4)) \
                <= 1.0865 * math.sqrt(math.factorial(n))
