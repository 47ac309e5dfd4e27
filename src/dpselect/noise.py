"""The three noise distributions used by the selection mechanisms, and a
seedable sampler for them.

Each family is one class that owns its formulas: `quantile` (the inverse
CDF), `cdf` and `pdf`. All three are numpy, so one formula serves a float
and an array: the quadrature integrand evaluates every outcome's factor in
one call. Arguments are clamped so that no `exp` overflows, even far
outside the support: the Gumbel formulas stop at |t| = 700, where the
true value is already 0.

Exponential noise is parameterized by its rate (inverse of its scale);
Laplace and Gumbel noise by their scale. Keeping the two conventions
explicit avoids the classic rate/scale inversion bug. The mechanisms use
only the unit-scale members in NOISE_FAMILIES: they add noise to the
scores in units of the noise scale, so no draw is ever scaled.

Sampling is inverse-CDF from a single uniform draw per sample, so every
stream is reproducible from its seed and directly checkable against the
analytic CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

# Smallest nonzero value the uniform stream can produce; substituting it for
# an exact 0.0 draw keeps the log-based quantiles finite.
_U_FLOOR = 2.0 ** -53


def _set_positive_finite(obj, field: str) -> None:
    """Store obj.field as a float, rejecting anything not positive and finite."""
    value = float(getattr(obj, field))
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{field} must be positive and finite, got {value!r}")
    object.__setattr__(obj, field, value)


@dataclass(frozen=True)
class Exponential:
    """Nonnegative noise, density rate * exp(-rate * x) for x >= 0."""

    rate: float

    def __post_init__(self) -> None:
        _set_positive_finite(self, "rate")

    def quantile(self, u: float | np.ndarray) -> np.ndarray:
        return -np.log1p(-u) / self.rate

    def cdf(self, x: float | np.ndarray) -> np.ndarray:
        return -np.expm1(-self.rate * np.maximum(x, 0.0))

    def pdf(self, x: float | np.ndarray) -> np.ndarray:
        return np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))


@dataclass(frozen=True)
class Laplace:
    """Symmetric noise, density exp(-|x| / scale) / (2 * scale)."""

    scale: float

    def __post_init__(self) -> None:
        _set_positive_finite(self, "scale")

    def quantile(self, u: float | np.ndarray) -> np.ndarray:
        # scale * log(2u) below 0.5 and -scale * log(2(1 - u)) from it, bit for
        # bit with no branch: 1 - u is exact there, and u = 0.5 gives -0.0
        return -np.copysign(self.scale * np.log(2.0 * np.minimum(u, 1.0 - u)), 0.5 - u)

    def cdf(self, x: float | np.ndarray) -> np.ndarray:
        # |x| / -scale is x / scale below 0 and -x / scale above, bit for bit
        tail = 0.5 * np.exp(np.abs(x) / -self.scale)
        return np.where(x < 0.0, tail, 1.0 - tail)

    def pdf(self, x: float | np.ndarray) -> np.ndarray:
        return np.exp(np.abs(x) / -self.scale) / (2.0 * self.scale)


@dataclass(frozen=True)
class Gumbel:
    """Max-stable noise, density exp(-x/scale - exp(-x/scale)) / scale."""

    scale: float

    def __post_init__(self) -> None:
        _set_positive_finite(self, "scale")

    def quantile(self, u: float | np.ndarray) -> np.ndarray:
        return -self.scale * np.log(-np.log(u))

    def cdf(self, x: float | np.ndarray) -> np.ndarray:
        # exp(t) would overflow from t = 710; the CDF is already 0 at t = 700
        t = np.minimum(-x / self.scale, 700.0)
        return np.exp(-np.exp(t))

    def pdf(self, x: float | np.ndarray) -> np.ndarray:
        # exp(-t) would overflow from t = -710; the density is already 0 at -700
        t = np.maximum(x / self.scale, -700.0)
        return np.exp(-t - np.exp(-t)) / self.scale


NoiseKind = Union[Exponential, Laplace, Gumbel]

# noise family -> its unit-scale member, the noise every mechanism and the
# quadrature route add to the scores in units of the noise scale
NOISE_FAMILIES: dict[str, NoiseKind] = {
    "exponential": Exponential(1.0),
    "laplace": Laplace(1.0),
    "gumbel": Gumbel(1.0),
}


class RngState:
    """Deterministic pseudo-random stream seeded by an unsigned 64-bit int.

    Same seed, same stream, bit for bit. A state is single-owner and
    mutable: concurrent tasks must each use an independently seeded state.
    """

    def __init__(self, seed: int = 0):
        seed = int(seed)
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


def samples(kind: NoiseKind, rng: RngState, n: int) -> np.ndarray:
    """n draws, each the inverse-CDF transform of one uniform draw."""
    return kind.quantile(np.maximum(rng.uniforms(n), _U_FLOOR))
