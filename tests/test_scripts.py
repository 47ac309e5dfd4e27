"""Smoke runs of the experiment scripts on tiny grids, so a change to the
public names they import cannot break them unnoticed."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpselect

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTATION_GATE = load_script("mutation_gate")


def start_script(name, *argv):
    src = str(Path(dpselect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def run_script(name, *argv):
    proc = start_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert rows
    return rows


def test_equivalence_experiment():
    rows = run_script(
        "equivalence_experiment.py", "--instances", "3", "--epsilons", "1.0",
        "--k-values", "4", "--samples", "2000",
    )
    assert [(r["epsilon"], r["k"]) for r in rows] == [(1.0, 4)]
    for row in rows:
        assert row["worst_exact_tv"] <= 1e-8
        assert row["worst_quadrature_tv"] <= 1e-8
        assert 0.0 <= row["chi_square_p_alg_a"] <= 1.0
        assert 0.0 <= row["chi_square_p_alg_b"] <= 1.0
        assert 0.0 < row["detectable_divergence_alg_a"] < 1.0
        assert 0.0 < row["detectable_divergence_alg_b"] < 1.0


def test_equivalence_experiment_up_to_the_outcome_limit():
    """Every row compares the DP with both rnm-expo routes, at every k."""
    rows = run_script(
        "equivalence_experiment.py", "--k-values", "1", "20", "21", "256", "--instances", "2",
        "--samples", "2000",
    )
    assert [(r["epsilon"], r["k"]) for r in rows] == [
        (epsilon, k) for epsilon in (0.1, 1.0, 4.0) for k in (1, 20, 21, 256)
    ]
    for row in rows:
        assert "rnm_expo_route" not in row
        assert row["worst_exact_tv"] <= 1e-8
        assert row["worst_quadrature_tv"] <= 1e-8


def test_utility_experiment():
    rows = run_script("utility_experiment.py", "--instances", "20", "--epsilons", "1.0")
    assert [r["epsilon"] for r in rows] == [1.0]
    for row in rows:
        assert row["instances"] == 20
        assert row["dominance_violations"] == 0
        # pf's largest advantage over em: positive when pf dominates
        assert row["largest_em_minus_pf"] > 0.0


@pytest.mark.parametrize("name,flag", [
    ("equivalence_experiment.py", "--instances"),
    ("equivalence_experiment.py", "--samples"),
    ("utility_experiment.py", "--instances"),
])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_count_below_one_is_a_usage_error(name, flag, count):
    proc = start_script(name, flag, count, "--epsilons", "1.0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr
    assert f"{flag} must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name,argv,message", [
    ("utility_experiment.py", "--k-max 1", "--k-max must be between 2 and 256"),
    ("utility_experiment.py", "--k-max 257", "--k-max must be between 2 and 256"),
    ("utility_experiment.py", "--epsilons 0", "--epsilons: epsilon must be"),
    ("utility_experiment.py", "--epsilons 1.0 -2", "--epsilons: epsilon must be"),
    ("equivalence_experiment.py", "--k-values 0", "--k-values must be between 1 and 256"),
    ("equivalence_experiment.py", "--k-values 4 257", "--k-values must be between 1 and 256"),
    ("equivalence_experiment.py", "--epsilons 0", "--epsilons: epsilon must be"),
    ("equivalence_experiment.py", "--epsilons 1.0 nan", "--epsilons: epsilon must be"),
])
def test_grid_value_out_of_range_is_a_usage_error(name, argv, message):
    proc = start_script(name, "--instances", "2", *argv.split())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("mutant", MUTATION_GATE.MUTANTS, ids=lambda m: m.id)
def test_mutant_is_not_stale(mutant):
    """Each mutant of scripts/mutation_gate.py still applies to one place
    and names test files that exist; CI runs the gate itself."""
    assert mutant.old != mutant.new
    assert MUTATION_GATE.occurrences(mutant) == 1
    assert mutant.tests and all((ROOT / t.split("::")[0]).is_file() for t in mutant.tests)
