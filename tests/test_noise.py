import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from dpselect import Exponential, Gumbel, Laplace, RngState, quantile, samples

ALL_KINDS = [
    Exponential(0.5),
    Exponential(1.0),
    Exponential(2.7),
    Laplace(0.5),
    Laplace(1.0),
    Laplace(3.0),
    Gumbel(0.5),
    Gumbel(1.0),
    Gumbel(3.0),
]


class TestQuantile:
    def test_exponential_median(self):
        assert quantile(Exponential(1.0), 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_laplace_median(self):
        assert quantile(Laplace(1.0), 0.5) == 0.0

    def test_gumbel_median(self):
        expected = -math.log(math.log(2.0))  # about 0.366513
        assert quantile(Gumbel(1.0), 0.5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
    def test_domain_is_open_interval(self, u):
        with pytest.raises(ValueError):
            quantile(Laplace(1.0), u)

    @pytest.mark.parametrize("kind", [Exponential(1.3), Laplace(0.8), Gumbel(2.0)])
    @pytest.mark.parametrize("u", [1e-12, 0.5, 1.0 - 1e-12])
    def test_scalar_matches_array_formula(self, kind, u):
        assert quantile(kind, u) == kind.quantile(np.array([u]))[0]

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_quantile_inverts_cdf(self, u):
        for kind in (Exponential(1.3), Laplace(0.8), Gumbel(2.0)):
            assert kind.cdf(quantile(kind, u)) == pytest.approx(u, abs=1e-9)


class TestCdf:
    def test_exponential_support_boundary(self):
        assert Exponential(1.0).cdf(0.0) == 0.0
        assert Exponential(1.0).cdf(-0.5) == 0.0

    def test_exponential_at_one(self):
        assert Exponential(1.0).cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_laplace_symmetry_point(self):
        assert Laplace(1.0).cdf(0.0) == 0.5

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_limits(self, kind):
        assert kind.cdf(-1e9) == pytest.approx(0.0, abs=1e-300)
        assert kind.cdf(1e9) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(x1=st.floats(-50, 50), x2=st.floats(-50, 50))
    def test_nondecreasing(self, kind, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        assert kind.cdf(lo) <= kind.cdf(hi)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pdf_integrates_to_cdf_increment(self, kind):
        # crude two-point check that pdf is the derivative of cdf
        for x in (-1.3, 0.0, 0.7, 2.1):
            h = 1e-6
            numeric = (kind.cdf(x + h) - kind.cdf(x - h)) / (2 * h)
            if isinstance(kind, Exponential) and abs(x) < h:
                continue  # density jump at the support boundary
            assert numeric == pytest.approx(kind.pdf(x), rel=1e-4, abs=1e-9)


def _math_cdf(kind, x):
    if isinstance(kind, Exponential):
        return 0.0 if x < 0.0 else -math.expm1(-kind.rate * x)
    if isinstance(kind, Laplace):
        if x < 0.0:
            return 0.5 * math.exp(x / kind.scale)
        return 1.0 - 0.5 * math.exp(-x / kind.scale)
    t = -x / kind.scale
    return 0.0 if t >= 700.0 else math.exp(-math.exp(t))


def _math_pdf(kind, x):
    if isinstance(kind, Exponential):
        return 0.0 if x < 0.0 else kind.rate * math.exp(-kind.rate * x)
    if isinstance(kind, Laplace):
        return math.exp(-abs(x) / kind.scale) / (2.0 * kind.scale)
    t = x / kind.scale
    return 0.0 if t <= -700.0 else math.exp(-t - math.exp(-t)) / kind.scale


def _extreme_points(kind):
    # +-1e9, 0, and the Gumbel guard points t = +-700 (where the formulas
    # clamp) and t = +-710 (where an unclamped exp(t) overflows)
    unit = 1.0 / kind.rate if isinstance(kind, Exponential) else kind.scale
    guards = [sign * t * unit for t in (700.0, 710.0) for sign in (-1.0, 1.0)]
    return np.array(sorted([-1e9, 0.0, 1e9, *guards]))


class TestArrayFormulas:
    """cdf and pdf are numpy formulas: one array call per quadrature point."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("formula", ["cdf", "pdf"])
    def test_array_call_equals_scalar_calls_bit_for_bit(self, kind, formula):
        f = getattr(kind, formula)
        x = _extreme_points(kind)
        one_by_one = np.array([f(float(v)) for v in x])
        assert f(x).tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("formula", ["cdf", "pdf"])
    def test_matches_math_reference_within_two_ulp(self, kind, formula):
        reference = {"cdf": _math_cdf, "pdf": _math_pdf}[formula]
        x = _extreme_points(kind)
        for got, v in zip(getattr(kind, formula)(x), x):
            want = reference(kind, float(v))
            assert abs(got - want) <= 2.0 * math.ulp(want), (v, got, want)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_no_overflow_invalid_or_divide(self, kind):
        # underflow to a subnormal or 0 in the far tails is the right answer
        # (cdf(-1e9) is 0), and numpy never reports it by default
        x = np.concatenate([_extreme_points(kind), [-np.inf, np.inf]])
        with np.errstate(all="raise", under="ignore"):
            cdf, pdf = kind.cdf(x), kind.pdf(x)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert pdf[0] == 0.0 and pdf[-1] == 0.0


class TestSampling:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_kolmogorov_smirnov_against_cdf(self, kind):
        rng = RngState(20240817)
        draws = samples(kind, rng, 100_000)
        result = stats.kstest(draws, kind.cdf)
        assert result.pvalue >= 0.001

    def test_exponential_draws_nonnegative(self):
        draws = samples(Exponential(0.7), RngState(5), 50_000)
        assert draws.min() >= 0.0

    @pytest.mark.parametrize("s,t", [(0.5, 0.5), (1.0, 2.0)])
    def test_exponential_memorylessness(self, s, t):
        kind = Exponential(1.0)
        draws = samples(kind, RngState(99), 400_000)
        beyond_s = draws[draws > s]
        estimate = np.mean(beyond_s > s + t)
        target = math.exp(-kind.rate * t)
        stderr = math.sqrt(target * (1.0 - target) / beyond_s.size)
        assert abs(estimate - target) <= 3.0 * stderr

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equal_seeds_give_identical_streams(self, kind):
        a = RngState(123)
        b = RngState(123)
        assert [samples(kind, a, 1)[0] for _ in range(200)] == [
            samples(kind, b, 1)[0] for _ in range(200)
        ]

    @pytest.mark.parametrize("kind", [Exponential(1.3), Laplace(0.8), Gumbel(2.0)])
    def test_batch_matches_scalar_stream(self, kind):
        batch = samples(kind, RngState(11), 64)
        rng = RngState(11)
        one_by_one = np.concatenate([samples(kind, rng, 1) for _ in range(64)])
        assert np.array_equal(batch, one_by_one)


class TestRngState:
    def test_uniform_stream_matches_batch(self):
        a = RngState(42)
        b = RngState(42)
        assert [a.uniform() for _ in range(8)] == b.uniforms(8).tolist()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range_enforced(self, seed):
        with pytest.raises(ValueError):
            RngState(seed)

    def test_permutation_is_uniformly_seeded(self):
        assert RngState(3).permutation(5) == RngState(3).permutation(5)


class TestParameterValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_rate_or_scale_rejected(self, bad):
        with pytest.raises(ValueError):
            Exponential(bad)
        with pytest.raises(ValueError):
            Laplace(bad)
        with pytest.raises(ValueError):
            Gumbel(bad)
