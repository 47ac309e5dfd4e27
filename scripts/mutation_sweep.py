"""Mutation sweep: every statement of src/ replaced by `pass`, one at a time.

A mutant replaces one statement of src/dpselect/*.py, with all it spans
(a compound statement's whole body too), by `pass`. Docstrings, imports,
function and class definitions and `pass` itself are left alone. Each
mutant first runs the test files related to its module (its own
tests/test_<module>.py and every test file that names the module in an
import) and is killed at the first failure. A mutant that survives them
runs against the whole suite but tests/test_mutation_gate.py, whose
tests check the gate's and this sweep's unmutated text, and survives the
sweep if every test passes there too. Copies, the memory cap and the
pytest runs are scripts/mutation_gate.py's.

The sweep is not a gate: an equivalent mutant survives by design. ROADMAP
item N triages each survivor into a test and a gate mutant, an
equivalent with its reason, or deleted code. The whole sweep takes about
40 minutes on 2 vCPUs. Prints one JSON line per mutant on standard error
and, at the end, the survivors as one JSON list on standard output; exits
1 if the unmutated suite fails, 0 otherwise. Standard library only; run
from any directory:

    python3 scripts/mutation_sweep.py > survivors.json
"""

from __future__ import annotations

import ast
import json
import re
import sys
import time
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent))
from mutation_gate import ROOT, Mutant, run_tests  # noqa: E402

SOURCES = ROOT / "src" / "dpselect"
# the whole suite; the gate's own tests would fail on any changed text
WHOLE_SUITE = ("tests", "--ignore=tests/test_mutation_gate.py")
# modules no test imports by name: the package's tests and `python -m dpselect`'s
RELATED = {"__init__": ("tests/test_package.py",), "__main__": ("tests/test_cli.py",)}


def _is_kept(node: ast.stmt) -> bool:
    """Whether a statement is left alone: a docstring or other bare
    string, an import, a definition or a pass."""
    if isinstance(node, ast.Expr):
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    return isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef, ast.Pass))


def related_tests(module: str) -> tuple[str, ...]:
    """The test files that exercise a module of src/dpselect: RELATED's,
    or tests/test_<module>.py and every test file whose imports name it."""
    if module in RELATED:
        return RELATED[module]
    named = re.compile(rf"^\s*(from|import)\s.*\b{re.escape(module)}\b", re.M)
    return tuple(sorted(
        f"tests/{path.name}" for path in (ROOT / "tests").glob("test_*.py")
        if path.name != "test_mutation_gate.py"
        and (path.stem == f"test_{module}" or named.search(path.read_text()))))


def mutants() -> Iterator[tuple[Mutant, str]]:
    """Each statement's mutant, with the statement's first line, in file
    and source order; the id is file:line:column. The mutant's old text
    is its whole file, so it occurs exactly once, and its new text the
    file with the statement's span, found by the byte offsets ast
    reports, replaced by `pass`."""
    for path in sorted(SOURCES.glob("*.py")):
        data = path.read_bytes()
        starts = [0]
        for line in data.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        statements = [node for node in ast.walk(ast.parse(data))
                      if isinstance(node, ast.stmt) and not _is_kept(node)]
        file = path.relative_to(ROOT).as_posix()
        tests = related_tests(path.stem)
        for node in sorted(statements, key=lambda n: (n.lineno, n.col_offset)):
            begin = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            new = data[:begin] + b"pass" + data[end:]
            yield (Mutant(f"{file}:{node.lineno}:{node.col_offset}", file, data.decode(),
                          new.decode(), tests),
                   data[begin:end].decode().splitlines()[0])


def main() -> int:
    start = time.perf_counter()
    code = run_tests(None, list(WHOLE_SUITE))
    print(json.dumps({"id": "unmutated", "pytest_exit": code,
                      "seconds": round(time.perf_counter() - start, 2)}),
          file=sys.stderr, flush=True)
    if code != 0:
        return 1
    survivors = []
    for mutant, statement in mutants():
        start = time.perf_counter()
        # any failure, collection errors included, kills the mutant
        killed = run_tests(mutant, list(mutant.tests)) != 0
        if not killed:
            killed = run_tests(mutant, list(WHOLE_SUITE)) != 0
        print(json.dumps({"id": mutant.id, "status": "killed" if killed else "survived",
                          "statement": statement,
                          "seconds": round(time.perf_counter() - start, 2)}),
              file=sys.stderr, flush=True)
        if not killed:
            survivors.append({"id": mutant.id, "statement": statement})
    print(json.dumps(survivors, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
