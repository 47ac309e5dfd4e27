"""The three noise distributions used by the selection mechanisms, and a
seedable sampler for them.

Each family is one parameter-free class that owns the formulas of its unit
law: `negated_quantile`, minus the inverse CDF (`quantile`, the one
negation shared by every family), and `cdf_pdf`, which writes the CDF
into a caller's array and returns the density, from one shared pass: one
exp for Laplace, three for Gumbel, one clamp for exponential noise. `cdf`
and `pdf` read their half off it. The mechanisms and the quadrature route
add this noise to the scores in units of the noise scale, gamma = rate *
(q - max q), so no draw is ever scaled. All formulas are numpy, so one
serves a float and an array: the quadrature integrand evaluates every
outcome's factor in one call, and either quantile can write every step
into an array `out`, u itself included. Arguments are clamped so that no
`exp` overflows, even far outside the support: the Gumbel formulas stop
at |x| = 700, where the true value is already 0.

Sampling is inverse-CDF from a single uniform draw per sample, so every
stream is reproducible from its seed and directly checkable against the
analytic CDF.
"""

from __future__ import annotations

import operator
from typing import Union

import numpy as np

from .core import Record

# Smallest nonzero value the uniform stream can produce; substituting it for
# an exact 0.0 draw keeps the log-based quantiles finite.
_U_FLOOR = 2.0 ** -53


class _UnitLaw(Record):
    """A record without fields, so two families are equal when of one
    type; quantile, the negation of the family's negated_quantile, and
    cdf and pdf, each read off the family's one shared pass, cdf_pdf."""

    def quantile(self, u: float | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.negative(self.negated_quantile(u, out), out=out)

    def cdf(self, x: float | np.ndarray) -> np.ndarray:
        return self.cdf_pdf(x, np.empty(np.shape(x)))[0]

    def pdf(self, x: float | np.ndarray) -> np.ndarray:
        return self.cdf_pdf(x, np.empty(np.shape(x)))[1]


class Exponential(_UnitLaw):
    """Nonnegative noise, density exp(-x) for x >= 0."""

    def negated_quantile(self, u: float | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.log1p(np.negative(u, out=out), out=out)

    def cdf_pdf(self, x: float | np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        minus = -np.maximum(x, 0.0)
        np.negative(np.expm1(minus), out=out)
        return out, np.exp(minus) * (x >= 0.0)  # a mask without a branch per point


class Laplace(_UnitLaw):
    """Symmetric noise, density exp(-|x|) / 2."""

    def negated_quantile(self, u: float | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # -log(2u) below 0.5 and log(2(1 - u)) from it, bit for bit with no
        # branch: 1 - u is exact there, and u = 0.5 gives 0.0 (quantile -0.0)
        sign, low = 0.5 - u, np.minimum(u, 1.0 - u, out=out)  # sign before out is written
        low = np.log(np.multiply(low, 2.0, out=out), out=out)
        return np.copysign(low, sign, out=out)

    def cdf_pdf(self, x: float | np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # half of exp(-|x|) is both the lower tail and the density; the CDF
        # is |0 - half| = half below 0 and |1 - half| = 1 - half from it
        half = 0.5 * np.exp(-np.abs(x))
        np.subtract(x >= 0.0, half, out=out)
        return np.abs(out, out=out), half


class Gumbel(_UnitLaw):
    """Max-stable noise, density exp(-x - exp(-x))."""

    def negated_quantile(self, u: float | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.log(np.negative(np.log(u, out=out), out=out), out=out)

    def cdf_pdf(self, x: float | np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # exp(-x) would overflow from x = -710; both are already 0 at -700
        minus = np.minimum(-x, 700.0)
        e = np.exp(minus)
        np.exp(-e, out=out)
        return out, np.exp(minus - e)


NoiseKind = Union[Exponential, Laplace, Gumbel]

# noise family -> its unit law, the noise every mechanism and the quadrature
# route add to the scores in units of the noise scale
NOISE_FAMILIES: dict[str, NoiseKind] = {
    "exponential": Exponential(),
    "laplace": Laplace(),
    "gumbel": Gumbel(),
}


class RngState:
    """Deterministic pseudo-random stream seeded by an unsigned 64-bit int.

    Same seed, same stream, bit for bit. A state is single-owner and
    mutable: concurrent tasks must each use an independently seeded state.
    A seed that is not a Python or numpy integer, such as 1.9 or "12",
    raises ValueError: truncating 1.9 would draw seed 1's stream.
    """

    def __init__(self, seed: int = 0):
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {seed!r}") from None
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
        self._gen = np.random.default_rng(seed)

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1); same stream as n successive uniform() calls."""
        return self._gen.random(n)

    def integers(self, n: int) -> int:
        """One unbiased integer in [0, n)."""
        return int(self._gen.integers(n))

    def permutation(self, n: int) -> list[int]:
        """Uniform random permutation of range(n), via the generator's
        Fisher-Yates shuffle."""
        return self._gen.permutation(n).tolist()


def quantile(kind: NoiseKind, u: float) -> float:
    """Inverse CDF at u, defined for 0 < u < 1."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile needs 0 < u < 1, got {u!r}")
    return float(kind.quantile(u))


def floored_uniforms(rng: RngState, n: int) -> np.ndarray:
    """n uniform draws, an exact 0.0 raised in place to _U_FLOOR."""
    u = rng.uniforms(n)
    return np.maximum(u, _U_FLOOR, out=u)


def samples(kind: NoiseKind, rng: RngState, n: int) -> np.ndarray:
    """n draws, each the inverse-CDF transform of one floored uniform, in place."""
    u = floored_uniforms(rng, n)
    return kind.quantile(u, out=u)
