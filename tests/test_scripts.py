"""scripts/reproduce.py: the paper's two claims as one record from seed 0,
with the verdicts README reports."""

import json
from pathlib import Path

from helpers import NO_SCIPY_PROBE, run_python

REPRODUCE = str(Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py")
EQUIVALENCE_KEYS = {
    "epsilon", "k", "instances", "worst_exact_tv", "worst_quadrature_tv",
    "chi_square_p_alg_a", "chi_square_p_alg_b",
    "detectable_divergence_alg_a", "detectable_divergence_alg_b",
}
UTILITY_KEYS = {
    "epsilon", "instances", "mean_expected_error_pf", "mean_expected_error_em",
    "largest_em_minus_pf", "dominance_violations",
}


def test_record_from_seed_0():
    """One run in a fresh interpreter with scipy unimportable, which never
    tries to import it. equivalence: eps in {0.1, 1, 4} by ten k up to 256,
    both rnm-expo routes within 1e-8 of the DP in every row, and the 60
    seeded chi-square verdicts of alg-a and alg-b at 0.001 pass. Measured:
    TVs at most 2.2e-15 (exact) and 2.5e-13 (quadrature), smallest p-value
    0.022, powers 2.1e-4 to 1.1e-3. utility: seven epsilons, pf's error
    never above em's and below it on some instance in every row. About 5 s
    on 2 Xeon vCPUs."""
    proc = run_python("-c", NO_SCIPY_PROBE, json.dumps([[], [REPRODUCE]]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    (output,) = result.pop("outputs")
    assert result == {"codes": [], "loaded": [], "tried": []}
    record = json.loads(output)
    assert record.keys() == {"seed", "equivalence", "utility"}
    assert record["seed"] == 0

    equivalence = record["equivalence"]
    assert len(equivalence) == 30
    assert {32, 64, 128, 256} <= {r["k"] for r in equivalence}
    for row in equivalence:
        assert row.keys() == EQUIVALENCE_KEYS
        assert row["instances"] == 20
        assert row["worst_exact_tv"] <= 1e-8
        assert row["worst_quadrature_tv"] <= 1e-8
        assert min(row["chi_square_p_alg_a"], row["chi_square_p_alg_b"]) >= 0.001
        assert 0.0 < row["detectable_divergence_alg_a"] < 1.0
        assert 0.0 < row["detectable_divergence_alg_b"] < 1.0

    utility = record["utility"]
    assert len(utility) == 7
    for row in utility:
        assert row.keys() == UTILITY_KEYS
        assert row["instances"] == 200
        assert row["dominance_violations"] == 0
        # pf's largest advantage over em: positive when pf dominates
        assert row["largest_em_minus_pf"] > 0.0


def test_takes_no_option_but_help():
    """The grid is the script's constants: --help describes the record,
    and any option is a usage error before a row is computed."""
    proc = run_python(REPRODUCE, "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: reproduce.py [-h]\n")
    assert '{"seed": 0, "equivalence": [...], "utility": [...]}' in proc.stdout
    proc = run_python(REPRODUCE, "--seed", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --seed 1" in proc.stderr
