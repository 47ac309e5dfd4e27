"""The committed mutants of scripts/mutation_gate.py still apply to the
source tree, and scripts/mutation_sweep.py builds its mutants as it
states. CI runs the gate itself; the sweep runs by hand."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTATION_GATE = _load("mutation_gate")
MUTATION_SWEEP = _load("mutation_sweep")


@pytest.mark.parametrize("mutant", MUTATION_GATE.MUTANTS, ids=lambda m: m.id)
def test_mutant_is_not_stale(mutant):
    """Each mutant still applies to one place and names test files that
    exist."""
    assert mutant.old != mutant.new
    assert MUTATION_GATE.occurrences(mutant) == 1
    assert mutant.tests and all((ROOT / t.split("::")[0]).is_file() for t in mutant.tests)


def test_sweep_replaces_one_statement_per_mutant():
    """Every sweep mutant is its file with one statement, at the line and
    column its id names, replaced by `pass`, and compiles where the
    statement spans several lines; docstrings, imports, definitions and
    pass are never a mutant. One mutant, applied
    to a temporary copy, changes only its own file there."""
    sweep = list(MUTATION_SWEEP.mutants())
    assert len({mutant.id for mutant, _ in sweep}) == len(sweep) > 600
    for mutant, statement in sweep:
        _, line, column = mutant.id.rsplit(":", 2)
        lines = mutant.old.splitlines(keepends=True)
        head = "".join(lines[: int(line) - 1]) + lines[int(line) - 1][: int(column)]
        rest = mutant.old[len(head):]
        assert mutant.old == (ROOT / mutant.file).read_text()
        assert rest.startswith(statement) and statement != "pass" and not statement.startswith(
            ('"', "import ", "from ", "def ", "class ", "@"))
        assert mutant.new.startswith(head + "pass")
        assert rest.endswith(mutant.new[len(head) + 4:]) and len(rest) > len(mutant.new) - len(head)
        if "\n" in rest[: len(mutant.old) - len(mutant.new) + 4]:  # a span of several lines
            compile(mutant.new, mutant.file, "exec", dont_inherit=True)
        assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)
    mutant = next(m for m, _ in sweep if m.file.endswith("oracle.py"))
    with MUTATION_GATE.mutated_copy(mutant) as copy:
        assert (copy / mutant.file).read_text() == mutant.new
        assert ((copy / "src/dpselect/cli.py").read_text()
                == (ROOT / "src/dpselect/cli.py").read_text())
