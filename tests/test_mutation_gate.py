"""The committed mutants of scripts/mutation_gate.py still apply to the
source tree. CI runs the gate itself."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("mutation_gate",
                                               ROOT / "scripts" / "mutation_gate.py")
MUTATION_GATE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(MUTATION_GATE)


@pytest.mark.parametrize("mutant", MUTATION_GATE.MUTANTS, ids=lambda m: m.id)
def test_mutant_is_not_stale(mutant):
    """Each mutant still applies to one place and names test files that
    exist."""
    assert mutant.old != mutant.new
    assert MUTATION_GATE.occurrences(mutant) == 1
    assert mutant.tests and all((ROOT / t.split("::")[0]).is_file() for t in mutant.tests)
