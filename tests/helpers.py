"""Shared test fixtures: instance factory, hypothesis strategies, a
fresh-interpreter runner and its scipy-blocking probe, a stream of fixed
uniforms and the one path from seeded draws to a chi-square verdict."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import numpy as np

import dpselect
from dpselect import (
    PrivacyParams,
    QualityVector,
    RngState,
    chi_square_gof,
    empirical_counts,
    validate_instance,
)


def run_python(*args, **env):
    """Run a fresh interpreter that imports dpselect from the tested tree.
    Keyword arguments set environment variables; None unsets one."""
    src = str(Path(dpselect.__file__).resolve().parents[1])
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child_env.get("PYTHONPATH")]))
    for name, value in env.items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env, timeout=120,
    )


# For `python -c`, with a JSON [commands, scripts] argument: makes scipy
# unimportable and records every attempt to import it, then runs each
# command through cli.main and each script as __main__ with no arguments,
# and prints as the last line the exit codes, each script's stdout and the
# scipy and numpy.polynomial modules loaded or tried.
NO_SCIPY_PROBE = """
import contextlib, io, json, runpy, sys
tried = []

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            tried.append(name)
            raise ModuleNotFoundError(f"No module named {name!r}")

sys.meta_path.insert(0, NoScipy())
from dpselect.cli import main
commands, scripts = json.loads(sys.argv[1])
codes = [main(argv) for argv in commands]
outputs = []
for path in scripts:
    sys.argv = [path]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(path, run_name="__main__")
    outputs.append(out.getvalue())
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                or m.startswith("numpy.polynomial"))
print(json.dumps({"codes": codes, "outputs": outputs, "loaded": loaded, "tried": tried}))
"""


class FixedUniforms:
    """A stand-in for RngState that serves the given uniforms, cycled in
    order, to uniform() and uniforms(n), and visits outcomes in index
    order: permutation(n) is range(n)."""

    def __init__(self, *uniforms: float):
        self._uniforms = itertools.cycle(uniforms)

    def uniform(self) -> float:
        return next(self._uniforms)

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([next(self._uniforms) for _ in range(n)])

    def permutation(self, n: int) -> list[int]:
        return list(range(n))


# the smallest epsilon PrivacyParams accepts at sensitivity 1: its rate,
# epsilon / 2, is the smallest subnormal, 5e-324, where 5e-324 / 2 rounds to 0
SMALLEST_EPSILON = 1e-323


def rational_coin_game(p):
    """E_i = E[1 / (1 + S_-i)] of the coin game that keeps outcome j with
    probability p[j], each float taken exactly, in exact rationals by the
    DP's own recurrences: pre_i the count law of coins 0..i-1, g_i[s] the
    mean of 1 / (1 + s + S) over the kept coins among i+1..k-1, and
    E_i = pre_i . g_i. About 0.3 s at k = 64 and a few seconds at k = 128."""
    p = [Fraction(float(x)) for x in p]
    pre = [[Fraction(1)]]
    for p_j in p[:-1]:
        law = pre[-1]
        pre.append([a * (1 - p_j) + b * p_j for a, b in zip(law + [0], [0] + law)])
    g = [Fraction(1, 1 + s) for s in range(len(p))]  # g_(k-1)
    means = [None] * len(p)
    for i in reversed(range(len(p))):
        means[i] = sum(a * b for a, b in zip(pre[i], g))
        # g_(i-1) on the counts pre_(i-1) can take, 0..i-1
        g = [g[s] * (1 - p[i]) + g[s + 1] * p[i] for s in range(i)]
    return means


def make_instance(scores, epsilon=1.0, sensitivity=1.0, labels=None):
    scores = tuple(float(s) for s in scores)
    if labels is None:
        labels = tuple(f"o{i}" for i in range(len(scores)))
    return validate_instance(
        QualityVector(tuple(labels), scores), PrivacyParams(epsilon, sensitivity)
    )


# the significance of every sampled chi-square verdict in the tests
SIGNIFICANCE = 0.001


def draw_counts(mechanism, inst, n, seed):
    """Outcome counts of n seeded draws. A mechanism name draws through
    empirical_counts; a single-draw function of (instance, rng), such as
    the reference walks permute_and_flip and intermediate_a, runs once per
    draw on one RngState(seed)."""
    if isinstance(mechanism, str):
        return empirical_counts(mechanism, inst, n, seed)
    rng = RngState(seed)
    counts = [0] * len(inst.quality)
    for _ in range(n):
        counts[mechanism(inst, rng).index] += 1
    return counts


def sampled_verdict(mechanism, inst, n, seed, expected):
    """draw_counts(mechanism, inst, n, seed) and their chi-square goodness
    of fit against the expected table at SIGNIFICANCE."""
    counts = draw_counts(mechanism, inst, n, seed)
    return counts, chi_square_gof(counts, expected, SIGNIFICANCE)


@st.composite
def instances(draw, k_min=1, k_max=8):
    k = draw(st.integers(k_min, k_max))
    scores = draw(
        st.lists(
            st.floats(min_value=-20.0, max_value=20.0),
            min_size=k,
            max_size=k,
        )
    )
    epsilon = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0, 4.0]))
    sensitivity = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return make_instance(scores, epsilon, sensitivity)
