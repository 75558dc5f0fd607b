import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from copeda.margins import (
    BetaRescaledMargin,
    KernelMargin,
    MarginKind,
    NormalMargin,
    TruncNormalMargin,
    fit_margin,
)

P_GRID = np.arange(0.01, 1.0, 0.01)


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

    @pytest.mark.parametrize("model", all_kind_models(),
                             ids=lambda m: m.kind.value)
    def test_only_scalar_input_gives_float(self, model):
        assert isinstance(model.quantile(0.3), float)
        for p in (np.array([0.3]), [0.3], np.array([[0.3], [0.6]])):
            q = model.quantile(p)
            assert isinstance(q, np.ndarray) and q.shape == np.shape(p)
            assert q.flat[0] == model.quantile(0.3)


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
