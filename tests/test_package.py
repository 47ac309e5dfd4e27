"""The package surface, seen from a fresh interpreter: `import dpselect`
loads no numpy, and every public name and submodule resolves on first
access."""

import json

import pytest

import dpselect

from helpers import run_python

SUBMODULES = ("audit", "cli", "core", "errors", "formats", "mechanisms", "noise", "oracle")


def probe(code):
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_numpy():
    loaded = probe("import json, sys, dpselect\n"
                   "print(json.dumps(sorted(m for m in sys.modules "
                   "if m.split('.')[0] in ('numpy', 'scipy'))))")
    assert loaded == []


def test_import_after_numpy_loads_the_library_at_once():
    # numpy's BLAS pool already runs, so nothing is left to defer
    loaded = probe("import json, sys, numpy, dpselect\n"
                   "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dpselect'))))")
    assert loaded == ["dpselect", *(f"dpselect.{m}" for m in SUBMODULES if m != "cli")]


def test_every_public_name_and_submodule_resolves():
    result = probe(f"""
import json, sys, dpselect
submodules = {SUBMODULES!r}
resolved = {{name: getattr(dpselect, name) for name in (*dpselect.__all__, *submodules)}}
homes = [sys.modules[f"dpselect.{{m}}"] for m in submodules]
missing = object()  # a name no home defines cannot match, whatever it resolved to
print(json.dumps({{
    "all": dpselect.__all__,
    "dir": dir(dpselect),
    "modules": [resolved[m].__name__ for m in submodules],
    "unowned": [name for name, value in resolved.items() if name not in submodules
                and not any(getattr(home, name, missing) is value for home in homes)],
}}))
""")
    assert result["all"] == sorted(set(result["all"]))
    assert {"errors", "formats", "permute_and_flip", "privacy_ratio_audit"} <= set(result["all"])
    assert result["dir"] == result["all"]
    assert result["modules"] == [f"dpselect.{m}" for m in SUBMODULES]
    assert result["unowned"] == []


def test_star_import_binds_all():
    unbound = probe("import json, dpselect\nfrom dpselect import *\n"
                    "print(json.dumps([n for n in dpselect.__all__ if n not in globals()]))")
    assert unbound == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        dpselect.no_such_name
    with pytest.raises(ImportError):
        from dpselect import no_such_name  # noqa: F401
    assert dpselect.__version__ == "0.1.0"
