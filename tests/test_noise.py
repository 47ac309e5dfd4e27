import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from dpselect import (
    Exponential,
    Gumbel,
    Laplace,
    ProbabilityTable,
    RngState,
    em_exact_distribution,
    empirical_distribution,
    pf_exact_distribution,
    quantile,
    rnm_exact_quadrature,
    rnm_expo_exact_distribution,
    samples,
)
from dpselect.noise import NOISE_FAMILIES

from helpers import make_instance, sampled_verdict

ALL_KINDS = [
    pytest.param(Exponential(), id="exponential"),
    pytest.param(Laplace(), id="laplace"),
    pytest.param(Gumbel(), id="gumbel"),
]


class TestQuantile:
    def test_exponential_median(self):
        assert quantile(Exponential(), 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_laplace_median(self):
        assert quantile(Laplace(), 0.5) == 0.0

    def test_gumbel_median(self):
        expected = -math.log(math.log(2.0))  # about 0.366513
        assert quantile(Gumbel(), 0.5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
    def test_domain_is_open_interval(self, u):
        with pytest.raises(ValueError):
            quantile(Laplace(), u)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("u", [1e-12, 0.5, 1.0 - 1e-12])
    def test_scalar_matches_array_formula(self, kind, u):
        assert quantile(kind, u) == kind.quantile(np.array([u]))[0]

    # the uniform stream's extremes, both sides of 0.5 one ulp away, and 0.5
    LAPLACE_GRID = [2.0**-53, 0.25, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 0.75, 1.0 - 2.0**-53]

    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_laplace_matches_two_branch_formula_bit_for_bit(self, as_array):
        def two_branch(u):
            return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))

        points = [np.array(self.LAPLACE_GRID)] if as_array else self.LAPLACE_GRID
        for got, want in [(Laplace().quantile(u), two_branch(u)) for u in points]:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.signbit(Laplace().quantile(0.5))  # -0.0, as -log(1)

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_quantile_inverts_cdf(self, u):
        for kind in NOISE_FAMILIES.values():
            assert kind.cdf(quantile(kind, u)) == pytest.approx(u, abs=1e-9)


class TestCdf:
    def test_exponential_support_boundary(self):
        assert Exponential().cdf(0.0) == 0.0
        assert Exponential().cdf(-0.5) == 0.0

    def test_exponential_at_one(self):
        assert Exponential().cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_laplace_symmetry_point(self):
        assert Laplace().cdf(0.0) == 0.5

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
        return 0.0 if x < 0.0 else -math.expm1(-x)
    if isinstance(kind, Laplace):
        return 0.5 * math.exp(x) if x < 0.0 else 1.0 - 0.5 * math.exp(-x)
    return 0.0 if x <= -700.0 else math.exp(-math.exp(-x))


def _math_pdf(kind, x):
    if isinstance(kind, Exponential):
        return 0.0 if x < 0.0 else math.exp(-x)
    if isinstance(kind, Laplace):
        return math.exp(-abs(x)) / 2.0
    return 0.0 if x <= -700.0 else math.exp(-x - math.exp(-x))


# +-1e9, 0, and the Gumbel guard points +-700 (where the formulas clamp) and
# +-710 (where an unclamped exp overflows)
EXTREME_POINTS = np.array([-1e9, -710.0, -700.0, 0.0, 700.0, 710.0, 1e9])


class TestArrayFormulas:
    """cdf and pdf are numpy formulas: one array call per quadrature point."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("formula", ["cdf", "pdf"])
    def test_array_call_equals_scalar_calls_bit_for_bit(self, kind, formula):
        f = getattr(kind, formula)
        x = EXTREME_POINTS
        one_by_one = np.array([f(float(v)) for v in x])
        assert f(x).tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("formula", ["cdf", "pdf"])
    def test_matches_math_reference_within_two_ulp(self, kind, formula):
        reference = {"cdf": _math_cdf, "pdf": _math_pdf}[formula]
        x = EXTREME_POINTS
        for got, v in zip(getattr(kind, formula)(x), x):
            want = reference(kind, float(v))
            assert abs(got - want) <= 2.0 * math.ulp(want), (v, got, want)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_no_overflow_invalid_or_divide(self, kind):
        # underflow to a subnormal or 0 in the far tails is the right answer
        # (cdf(-1e9) is 0), and numpy never reports it by default
        x = np.concatenate([EXTREME_POINTS, [-np.inf, np.inf]])
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
        draws = samples(Exponential(), RngState(5), 50_000)
        assert draws.min() >= 0.0

    @pytest.mark.parametrize("s,t", [(0.5, 0.5), (1.0, 2.0)])
    def test_exponential_memorylessness(self, s, t):
        kind = Exponential()
        draws = samples(kind, RngState(99), 400_000)
        beyond_s = draws[draws > s]
        estimate = np.mean(beyond_s > s + t)
        target = math.exp(-t)
        stderr = math.sqrt(target * (1.0 - target) / beyond_s.size)
        assert abs(estimate - target) <= 3.0 * stderr

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equal_seeds_give_identical_streams(self, kind):
        a = RngState(123)
        b = RngState(123)
        assert [samples(kind, a, 1)[0] for _ in range(200)] == [
            samples(kind, b, 1)[0] for _ in range(200)
        ]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_batch_matches_scalar_stream(self, kind):
        batch = samples(kind, RngState(11), 64)
        rng = RngState(11)
        one_by_one = np.concatenate([samples(kind, rng, 1) for _ in range(64)])
        assert np.array_equal(batch, one_by_one)


class TestNoiseGolden:
    """The unit laws pinned bit for bit: per family, a digest of 4,096 seeded
    draws, of the quantile at the uniform stream's extremes and on a grid,
    and of cdf and pdf on a grid that holds the Gumbel guard points
    t = +-700 (where the formulas clamp) and +-710 (where an unclamped
    exp(t) overflows)."""

    U_GRID = np.concatenate([[2.0**-53, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53],
                             np.linspace(0.001, 0.999, 999)])
    X_GRID = np.concatenate([[-1e9, -710.0, -700.0, -0.0, 700.0, 710.0, 1e9],
                             np.linspace(-40.0, 40.0, 641)])
    DIGESTS = {
        "exponential": {"samples": "ddfd30873d8cef1c", "quantile": "a7da1efd2a8bb802",
                        "cdf": "bd43d79d8850945b", "pdf": "17ab2f027cd13781"},
        "laplace": {"samples": "a7251f8397248ffd", "quantile": "e85ff8550f388aed",
                    "cdf": "388589874651f081", "pdf": "c03550b11d76b58e"},
        "gumbel": {"samples": "7fb07a6368d1bd17", "quantile": "a0cb928d84368a7b",
                   "cdf": "5d7fe42041e2ba90", "pdf": "c72a6d2fed64a136"},
    }

    @pytest.mark.parametrize("formula", ["samples", "quantile", "cdf", "pdf"])
    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    def test_law_unchanged(self, family, formula):
        kind = NOISE_FAMILIES[family]
        values = {
            "samples": lambda: samples(kind, RngState(2026), 4096),
            "quantile": lambda: kind.quantile(self.U_GRID),
            "cdf": lambda: kind.cdf(self.X_GRID),
            "pdf": lambda: kind.pdf(self.X_GRID),
        }[formula]()
        digest = hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes())
        assert digest.hexdigest()[:16] == self.DIGESTS[family][formula]


class TestRngState:
    def test_uniform_stream_matches_batch(self):
        a = RngState(42)
        b = RngState(42)
        assert [a.uniform() for _ in range(8)] == b.uniforms(8).tolist()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range_enforced(self, seed):
        with pytest.raises(ValueError):
            RngState(seed)

    @pytest.mark.parametrize("seed", [1.9, 1.0, "12"])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        # int() would truncate 1.9 to seed 1's stream and parse "12"
        with pytest.raises(ValueError, match="integer"):
            RngState(seed)

    def test_numpy_integer_seed_accepted(self):
        assert RngState(np.uint64(12)).uniforms(4).tolist() == RngState(12).uniforms(4).tolist()

    def test_empirical_table_rejects_a_fractional_seed(self):
        with pytest.raises(ValueError, match="integer"):
            empirical_distribution("pf", make_instance([1.0, 0.0]), 1000, seed=1.9)

    def test_permutation_is_uniformly_seeded(self):
        assert RngState(3).permutation(5) == RngState(3).permutation(5)


class TestUnitLaws:
    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    def test_families_take_no_parameters(self, family):
        kind = NOISE_FAMILIES[family]
        assert type(kind)() == kind and type(kind).__name__.lower() == family
        with pytest.raises(TypeError):
            type(kind)(2.0)


# the runner-up's win probability between two outcomes t noise scales apart:
# the chance that the difference of two unit draws exceeds t
RUNNER_UP_WINS = {
    "exponential": lambda t: 0.5 * math.exp(-t),
    "laplace": lambda t: 0.5 * math.exp(-t) * (1.0 + t / 2.0),
    "gumbel": lambda t: 1.0 / (1.0 + math.exp(t)),
}

# each route from a two-outcome instance to a table: (noise family, route,
# stated error bound)
SCALE_ROUTES = {
    "pf-exact": ("exponential", pf_exact_distribution, 1e-12),
    "rnm-expo-exact": ("exponential", rnm_expo_exact_distribution, 1e-12),
    "em-exact": ("gumbel", em_exact_distribution, 1e-12),
    **{f"quadrature-{family}": (family, lambda inst, f=family: rnm_exact_quadrature(inst, f),
                                1e-9) for family in ("exponential", "laplace", "gumbel")},
}


class TestNoiseScale:
    """The families are unit laws: the noise scale b = 2 * sensitivity / eps
    enters only through gamma = (q - max q) / b. So two outcomes 1.5 noise
    scales apart get the same table at every scale, from b = 1e-300 (rate
    1e300) to b = 1.7e308 (a subnormal rate); a rate that divided where it
    should multiply would pull the runner-up to 0 or to 1/2."""

    GAP = 1.5
    SCALES = [1e-300, 0.5, 1.0, 2.7, 3.0, 1.7e308]

    def instance(self, scale):
        half = 0.5 * self.GAP * scale
        return make_instance([half, -half], epsilon=2.0 / scale)

    def table(self, family):
        p = RUNNER_UP_WINS[family](self.GAP)
        return ProbabilityTable(("o0", "o1"), (1.0 - p, p), "closed-form")

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("route", sorted(SCALE_ROUTES))
    def test_table_depends_on_the_gap_in_noise_scales(self, route, scale):
        family, fn, bound = SCALE_ROUTES[route]
        got = fn(self.instance(scale)).probabilities
        want = self.table(family).probabilities
        assert np.abs(np.subtract(got, want)).max() <= bound, (got, want)

    @pytest.mark.parametrize("scale", [1e-300, 2.7, 1.7e308])
    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    def test_sampler_follows_the_law_at_every_scale(self, family, scale):
        name = {"exponential": "rnm-expo", "laplace": "rnm-laplace", "gumbel": "rnm-gumbel"}
        _, gof = sampled_verdict(name[family], self.instance(scale), 20_000, 20,
                                 self.table(family))
        assert gof.passed
