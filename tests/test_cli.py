import json
import math
import os
import re
from pathlib import Path

import pytest

import dpselect.cli
from dpselect import (
    PrivacyParams,
    chi_square_gof,
    empirical_counts,
    formats,
    privacy_ratio_audit,
    rnm_expo_exact_distribution,
    validate_instance,
)
from dpselect.cli import main

from helpers import NO_SCIPY_PROBE, run_python

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


@pytest.fixture
def scores_file(tmp_path):
    path = tmp_path / "scores.json"
    path.write_text('{"labels": ["a", "b"], "scores": [1.0, 0.0]}')
    return str(path)


@pytest.fixture
def single_score_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"labels": ["a"], "scores": [0.0]}')
    return str(path)


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(
        json.dumps(
            {
                "pairs": [
                    {
                        "q1": {"labels": ["a", "b"], "scores": [1.0, 0.0]},
                        "q2": {"labels": ["a", "b"], "scores": [0.0, 1.0]},
                    }
                ]
            }
        )
    )
    return str(path)


# k = 20 and k = 256 scores on a grid of 1/4 and 1/25.6, each in a shuffled order
K20_SCORES = [(7 * i % 20) / 4 for i in range(20)]
K256_SCORES = [(37 * i % 256) / 25.6 - 5 for i in range(256)]


def write_scores(directory, scores):
    path = directory / f"scores{len(scores)}.json"
    path.write_text(json.dumps({"labels": [f"o{i}" for i in range(len(scores))],
                                "scores": scores}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    record = json.loads(captured.out) if captured.out.strip() else None
    return code, record, captured.err


class TestSelect:
    def test_single_outcome(self, capsys, single_score_file):
        code, record, _ = run(
            capsys, "select", "--mechanism", "em", "--epsilon", "1",
            "--sensitivity", "1", "--scores", single_score_file,
        )
        assert code == 0
        assert record == {"label": "a", "index": 0}

    def test_deterministic_given_seed(self, capsys, scores_file):
        args = (
            "select", "--mechanism", "pf", "--epsilon", "2", "--sensitivity", "1",
            "--seed", "7", "--scores", scores_file,
        )
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_zero_epsilon_exits_two_and_names_epsilon(self, capsys, scores_file):
        code, record, err = run(
            capsys, "select", "--mechanism", "pf", "--epsilon", "0",
            "--sensitivity", "1", "--scores", scores_file,
        )
        assert code == 2
        assert record is None
        assert "epsilon" in err.lower()

    def test_unknown_mechanism_exits_two(self, capsys, scores_file):
        code = main(
            ["select", "--mechanism", "nope", "--epsilon", "1",
             "--sensitivity", "1", "--scores", scores_file]
        )
        capsys.readouterr()
        assert code == 2


class TestDist:
    def test_em_exact_pinned_values(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "dist", "--mechanism", "em", "--epsilon", "2",
            "--sensitivity", "1", "--scores", scores_file,
        )
        assert code == 0
        assert record["probabilities"] == pytest.approx([0.731059, 0.268941], abs=1e-6)
        assert record["provenance"] == "exact-closed-form"

    def test_pf_exact_pinned_values(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "dist", "--mechanism", "pf", "--epsilon", "2",
            "--sensitivity", "1", "--scores", scores_file,
        )
        assert code == 0
        assert record["probabilities"] == pytest.approx([0.816060, 0.183940], abs=1e-6)

    def test_empirical_single_run_one_hot(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "dist", "--mechanism", "pf", "--epsilon", "2",
            "--sensitivity", "1", "--scores", scores_file,
            "--mode", "empirical", "--n", "1", "--seed", "3",
        )
        assert code == 0
        assert sorted(record["probabilities"]) == [0.0, 1.0]
        assert record["provenance"] == "empirical(n=1,seed=3)"

    def test_empirical_without_a_run_exits_two(self, capsys, scores_file):
        code, record, err = run(
            capsys, "dist", "--mechanism", "pf", "--epsilon", "2",
            "--sensitivity", "1", "--scores", scores_file, "--mode", "empirical", "--n", "0",
        )
        assert (code, record) == (2, None)
        assert err == "error: ValueError: need at least one run, got n=0\n"

    def test_quadrature_mode(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "dist", "--mechanism", "rnm-laplace", "--epsilon", "2",
            "--sensitivity", "1", "--scores", scores_file, "--mode", "quadrature",
        )
        assert code == 0
        assert record["provenance"] == "quadrature"

    def test_exact_mode_needs_exact_oracle(self, capsys, scores_file):
        code, record, err = run(
            capsys, "dist", "--mechanism", "rnm-laplace", "--epsilon", "2",
            "--sensitivity", "1", "--scores", scores_file, "--mode", "exact",
        )
        assert code == 2
        assert "exact" in err

    @pytest.mark.parametrize("mechanism", ["pf", "rnm-expo", "em"])
    def test_exact_mode_beyond_the_outcome_limit_exits_two(self, capsys, tmp_path, mechanism):
        """Every exact route, em's closed form too, stops at 256 outcomes."""
        code, record, err = run(
            capsys, "dist", "--mechanism", mechanism, "--epsilon", "1", "--sensitivity", "1",
            "--scores", write_scores(tmp_path, [0.0] * 257),
        )
        assert (code, record) == (2, None)
        assert "TooManyOutcomesForEnumeration" in err and "256" in err

    def test_out_file_round_trips(self, capsys, scores_file, tmp_path):
        out = tmp_path / "dist.json"
        code, record, _ = run(
            capsys, "dist", "--mechanism", "em", "--epsilon", "2",
            "--sensitivity", "1", "--scores", scores_file, "--out", str(out),
        )
        assert code == 0
        table = json.loads(out.read_text())
        # file carries full precision, stdout nine significant digits
        assert table["probabilities"][0] == pytest.approx(math.e / (1 + math.e), abs=1e-15)
        assert record["probabilities"][0] == float(f"{table['probabilities'][0]:.9g}")


class TestCompare:
    def test_pf_vs_rnm_expo_equivalent(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-expo",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
        )
        assert code == 0
        assert record["tv_distance"] <= 1e-8
        assert record["pass"] is True
        assert record["provenances"] == ["exact-poisson-binomial", "exact-gauss-legendre"]

    @pytest.mark.parametrize("scores", [K20_SCORES, K256_SCORES], ids=["k20", "k256"])
    def test_pf_vs_rnm_expo_at_the_outcome_limit(self, capsys, tmp_path, scores):
        """Up to k = 256 exact mode takes rnm-expo's table from
        Gauss-Legendre, never from the pf DP it is compared with."""
        code, record, _ = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-expo",
            "--epsilon", "1", "--sensitivity", "1", "--scores", write_scores(tmp_path, scores),
        )
        assert code == 0
        assert record["tv_distance"] <= 1e-8
        assert record["pass"] is True
        assert record["provenances"] == ["exact-poisson-binomial", "exact-gauss-legendre"]

    def test_pf_vs_em_rejected_at_k20(self, capsys, tmp_path):
        code, record, _ = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "em",
            "--epsilon", "1", "--sensitivity", "1", "--scores", write_scores(tmp_path, K20_SCORES),
        )
        assert code == 3
        assert record["tv_distance"] > 1e-8
        assert record["pass"] is False
        assert record["provenances"] == ["exact-poisson-binomial", "exact-closed-form"]

    def test_pf_vs_rnm_expo_beyond_outcome_limit_exits_two(self, capsys, tmp_path):
        code, record, err = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-expo",
            "--epsilon", "1", "--sensitivity", "1", "--scores", write_scores(tmp_path, [0.0] * 257),
        )
        assert code == 2
        assert record is None
        assert "TooManyOutcomesForEnumeration" in err and "256" in err

    def test_pf_vs_em_rejected_with_pinned_gap(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "em",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
        )
        assert code == 3
        assert record["tv_distance"] == pytest.approx(0.085001, abs=1e-6)
        assert record["pass"] is False

    def test_same_mechanism_tv_zero(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "compare", "--mechanism", "em", "--mechanism", "em",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
        )
        assert code == 0
        assert record["tv_distance"] == 0.0

    def test_empirical_mode_reports_chi_square(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "compare", "--mechanism", "rnm-gumbel", "--mechanism", "em",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "empirical", "--n", "20000", "--seed", "5",
        )
        assert code == 0
        assert record["chi_square"]["pass"] is True
        assert 0.0 <= record["chi_square"]["p_value"] <= 1.0
        assert record["provenances"] == ["empirical(n=20000,seed=5)", "exact-closed-form"]

    def test_empirical_mode_counts_match_direct_chi_square(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-expo",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "empirical", "--n", "30001", "--seed", "12",
        )
        inst = validate_instance(
            formats.load_quality_vector(scores_file), PrivacyParams(2.0, 1.0)
        )
        gof = chi_square_gof(
            empirical_counts("pf", inst, 30001, seed=12),
            rnm_expo_exact_distribution(inst),
            0.001,
        )
        assert code == (0 if gof.passed else 3)
        assert record["chi_square"]["statistic"] == float(f"{gof.statistic:.9g}")
        assert record["chi_square"]["degrees_of_freedom"] == gof.degrees_of_freedom
        assert record["chi_square"]["detectable_divergence"] == float(
            f"{gof.detectable_divergence:.9g}")

    def test_empirical_mode_unsupported_reference_exits_two(self, capsys, scores_file):
        code, record, err = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-laplace",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "empirical", "--n", "1000",
        )
        assert code == 2
        assert record is None
        assert "rnm-laplace" in err

    @pytest.mark.parametrize("significance", ["0", "-1", "1", "nan"])
    def test_significance_outside_open_unit_interval_exits_two(
        self, capsys, scores_file, significance
    ):
        # em and pf differ; a significance of 0 or below used to pass them
        code, record, err = run(
            capsys, "compare", "--mechanism", "em", "--mechanism", "pf",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "empirical", "--n", "100000", "--significance", significance,
        )
        assert code == 2
        assert record is None
        assert "significance must be strictly between 0 and 1" in err

    def test_bad_significance_exits_two_before_any_draw(self, capsys, monkeypatch, scores_file):
        def never(*args):
            raise AssertionError("empirical_counts called with an invalid significance")

        monkeypatch.setattr("dpselect.cli.empirical_counts", never)
        code, record, err = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "pf",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "empirical", "--n", "20000000", "--significance", "0",
        )
        assert (code, record) == (2, None)
        assert "significance must be strictly between 0 and 1" in err

    def test_significance_below_the_smallest_normal_exits_two(self, capsys, scores_file):
        code, record, err = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "pf",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "empirical", "--n", "1000", "--significance", "1e-308",
        )
        assert code == 2
        assert record is None
        assert "smallest normal double" in err

    def test_needs_exactly_two_mechanisms(self, capsys, scores_file):
        code, record, err = run(
            capsys, "compare", "--mechanism", "pf",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
        )
        assert code == 2
        assert record is None
        assert err == "error: ValueError: compare needs exactly two --mechanism flags\n"

    def test_quadrature_mode_unresolvable_mechanism(self, capsys, scores_file):
        code, _, err = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-laplace",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "quadrature",
        )
        assert code == 2
        assert "quadrature" in err

    @pytest.mark.parametrize("scores", [K20_SCORES, K256_SCORES], ids=["k20", "k256"])
    @pytest.mark.parametrize("second, provenance", [("pf", "exact-poisson-binomial"),
                                                    ("rnm-expo", "exact-gauss-legendre")])
    def test_quadrature_mode_checks_the_identity_against_an_exact_table(
        self, capsys, tmp_path, scores, second, provenance
    ):
        """Quadrature mode integrates the first mechanism's noise and reads
        the second's exact table: exponential-noise quadrature against the
        pf DP is the paper's identity by two routes that share no code."""
        code, record, _ = run(
            capsys, "compare", "--mechanism", "rnm-expo", "--mechanism", second,
            "--epsilon", "1", "--sensitivity", "1", "--scores", write_scores(tmp_path, scores),
            "--mode", "quadrature",
        )
        assert code == 0
        assert record["tv_distance"] <= 1e-8
        assert (record["tolerance"], record["pass"]) == (1e-8, True)
        assert record["provenances"] == ["quadrature", provenance]

    @pytest.mark.parametrize("first, code", [("rnm-gumbel", 0), ("rnm-laplace", 3)])
    def test_quadrature_mode_against_the_exponential_mechanism(
        self, capsys, scores_file, first, code
    ):
        """Gumbel noise gives the exponential mechanism (acceptance
        criterion 4); Laplace noise does not."""
        got, record, _ = run(
            capsys, "compare", "--mechanism", first, "--mechanism", "em",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "quadrature",
        )
        assert got == code
        assert record["pass"] is (code == 0)
        assert (record["tv_distance"] <= 1e-8) is (code == 0)
        assert record["provenances"] == ["quadrature", "exact-closed-form"]

    def test_quadrature_mode_second_without_an_exact_table_exits_two(
        self, capsys, scores_file
    ):
        code, record, err = run(
            capsys, "compare", "--mechanism", "rnm-laplace", "--mechanism", "rnm-gumbel",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "quadrature",
        )
        assert (code, record) == (2, None)
        assert "UnsupportedOracle: exact mode has no route for 'rnm-gumbel'" in err

    @pytest.mark.parametrize("mode", ["exact", "quadrature"])
    def test_tolerance_is_not_an_option(self, capsys, scores_file, mode):
        """Exact and quadrature verdicts share one bound, cli.TV_TOLERANCE."""
        code, record, err = run(
            capsys, "compare", "--mechanism", "rnm-expo", "--mechanism", "pf",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", mode, "--tolerance", "1",
        )
        assert (code, record) == (2, None)
        assert err.startswith("usage: dpselect ")
        assert "unrecognized arguments: --tolerance 1" in err


class TestAudit:
    def test_pass_with_pinned_ratio(self, capsys, pairs_file, tmp_path):
        out = tmp_path / "audit.json"
        code, record, _ = run(
            capsys, "audit", "--mechanism", "em", "--epsilon", "2",
            "--sensitivity", "1", "--pairs", pairs_file, "--out", str(out),
        )
        assert code == 0
        assert record["worst_ratio"] == pytest.approx(2.71828, abs=1e-5)
        assert record["pass"] is True
        # the --out file holds the whole report at full precision, under these four keys
        report = privacy_ratio_audit("em", formats.load_neighbor_pairs(pairs_file),
                                     PrivacyParams(2.0, 1.0))
        saved = json.loads(out.read_text())
        assert list(saved) == ["bound", "worst_ratio", "pass", "per_pair"]
        assert saved == {"bound": report.bound, "worst_ratio": report.worst_ratio,
                         "pass": report.passed,
                         "per_pair": [{"pair_index": r.pair_index,
                                       "worst_outcome_label": r.worst_outcome_label,
                                       "ratio": r.ratio} for r in report.per_pair]}
        assert saved["per_pair"][0]["ratio"] == pytest.approx(math.e, rel=1e-9)

    def test_identical_pair_ratio_one(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(
            '{"pairs": [{"q1": {"labels": ["a"], "scores": [0.0]}, '
            '"q2": {"labels": ["a"], "scores": [0.0]}}]}'
        )
        code, record, _ = run(
            capsys, "audit", "--mechanism", "pf", "--epsilon", "1",
            "--sensitivity", "1", "--pairs", str(path),
        )
        assert code == 0
        assert record["worst_ratio"] == 1.0

    @pytest.mark.parametrize("mechanism", ["pf", "rnm-expo", "em"])
    def test_epsilon_above_exp_range_passes_with_bound_inf(self, capsys, pairs_file, mechanism):
        # e^800 overflows a double; the verdict is taken in log space
        code, record, err = run(
            capsys, "audit", "--mechanism", mechanism, "--epsilon", "800",
            "--sensitivity", "1", "--pairs", pairs_file,
        )
        assert (code, err) == (0, "")
        assert record["bound"] == math.inf
        assert record["pass"] is True

    def test_seed_is_not_an_option(self, capsys, pairs_file):
        """An audit draws nothing, so it takes no seed."""
        code, record, err = run(
            capsys, "audit", "--mechanism", "pf", "--pairs", pairs_file,
            "--epsilon", "2", "--sensitivity", "1", "--seed", "1",
        )
        assert (code, record) == (2, None)
        assert err.startswith("usage: dpselect ")
        assert "unrecognized arguments: --seed 1" in err

    def test_pair_violating_sensitivity_exits_two(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(
            '{"pairs": [{"q1": {"labels": ["a", "b"], "scores": [5.0, 0.0]}, '
            '"q2": {"labels": ["a", "b"], "scores": [0.0, 0.0]}}]}'
        )
        code, record, err = run(
            capsys, "audit", "--mechanism", "em", "--epsilon", "1",
            "--sensitivity", "1", "--pairs", str(path),
        )
        assert code == 2
        assert "PairExceedsSensitivity" in err


class TestUtility:
    def test_single_instance_pinned_values(self, capsys, scores_file):
        code, record, _ = run(
            capsys, "utility", "--epsilon", "2", "--sensitivity", "1",
            "--scores", scores_file,
        )
        assert code == 0
        assert record["expected_error_pf"] == pytest.approx(0.183940, abs=1e-6)
        assert record["expected_error_em"] == pytest.approx(0.268941, abs=1e-6)
        assert record["dominance_violations"] == 0

    def test_score_gap_beyond_double_range_gives_finite_errors(self, capsys, tmp_path):
        # loss 1e308 - (-1e308) is inf, on an outcome of probability 0
        path = tmp_path / "far.json"
        path.write_text('{"labels": ["a", "b"], "scores": [1e308, -1e308]}')
        code, record, err = run(
            capsys, "utility", "--epsilon", "1", "--sensitivity", "1", "--scores", str(path),
        )
        assert (code, err) == (0, "")
        assert record["expected_error_pf"] == 0.0
        assert record["expected_error_em"] == 0.0
        assert record["pass"] is True

    def test_score_gap_beyond_double_range_at_noise_scale_1e308(self, capsys, tmp_path):
        # the loss 2e308 overflows, the expected errors e^-2 / 2 * 2e308
        # (pf) and 2e308 / (1 + e^2) (em) do not
        path = tmp_path / "far.json"
        path.write_text('{"labels": ["a", "b"], "scores": [1e308, -1e308]}')
        code, record, err = run(
            capsys, "utility", "--epsilon", "2e-308", "--sensitivity", "1", "--scores", str(path),
        )
        assert (code, err) == (0, "")
        assert record["expected_error_pf"] == pytest.approx(1.35335283e307, rel=1e-8)
        assert record["expected_error_em"] == pytest.approx(2.38405844e307, rel=1e-8)
        assert record["pass"] is True

    def test_random_suite(self, capsys, tmp_path):
        out = tmp_path / "utility.json"
        code, record, _ = run(
            capsys, "utility", "--epsilon", "1", "--sensitivity", "1",
            "--random", "50", "--k-max", "6", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert record["instances"] == 50
        assert record["dominance_violations"] == 0
        report = json.loads(out.read_text())
        assert len(report["per_instance"]) == 50

    def test_requires_scores_or_random(self, capsys):
        code, record, err = run(capsys, "utility", "--epsilon", "1", "--sensitivity", "1")
        assert code == 2

    def test_scores_and_random_together_exit_two(self, capsys, scores_file):
        code, record, err = run(
            capsys, "utility", "--epsilon", "1", "--sensitivity", "1",
            "--scores", scores_file, "--random", "3",
        )
        assert (code, record) == (2, None)
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_random_count_below_one_exits_two(self, capsys, count):
        code, record, err = run(
            capsys, "utility", "--epsilon", "1", "--sensitivity", "1",
            "--random", count,
        )
        assert code == 2
        assert record is None
        assert "at least one instance" in err

    @pytest.mark.parametrize("k_max", ["1", "257"])
    def test_random_k_max_outside_enumeration_range_exits_two(self, capsys, k_max):
        code, record, err = run(
            capsys, "utility", "--epsilon", "1", "--sensitivity", "1",
            "--random", "3", "--k-max", k_max,
        )
        assert code == 2
        assert record is None
        assert f"error: ValueError: --k-max must be between 2 and 256, got {k_max}" in err
        assert "low >= high" not in err

    def test_random_k_max_up_to_quadrature_limit(self, capsys):
        code, record, _ = run(
            capsys, "utility", "--epsilon", "1", "--sensitivity", "1",
            "--random", "3", "--k-max", "256", "--seed", "2",
        )
        assert code == 0
        assert record == {"instances": 3, "dominance_violations": 0, "pass": True}

    def test_deterministic_given_flags(self, capsys):
        args = ("utility", "--epsilon", "1", "--sensitivity", "1",
                "--random", "10", "--seed", "9")
        assert run(capsys, *args) == run(capsys, *args)


class TestExitCodeContract:
    def test_missing_file_exits_two(self, capsys):
        code, record, err = run(
            capsys, "select", "--mechanism", "pf", "--epsilon", "1",
            "--sensitivity", "1", "--scores", "/nonexistent/scores.json",
        )
        assert code == 2

    def test_negative_seed_exits_two(self, capsys, scores_file):
        code, record, err = run(
            capsys, "select", "--mechanism", "pf", "--epsilon", "1",
            "--sensitivity", "1", "--seed", "-4", "--scores", scores_file,
        )
        assert code == 2

    def test_integer_score_beyond_double_range_exits_two(self, capsys, tmp_path):
        scores = {"labels": ["a", "b"], "scores": [10**400, 0]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(scores))
        pairs = tmp_path / "huge_pairs.json"
        pairs.write_text(json.dumps({"pairs": [{"q1": scores, "q2": scores}]}))
        for argv in (["select", "--scores", str(path)], ["audit", "--pairs", str(pairs)]):
            code, record, err = run(capsys, *argv, "--mechanism", "pf", "--epsilon", "1",
                                    "--sensitivity", "1")
            assert (code, record) == (2, None)
            assert "NonFiniteScore" in err

    @pytest.mark.parametrize("command", ["dist", "audit", "utility"])
    def test_out_file_is_written_before_the_record(self, capsys, tmp_path, command,
                                                   scores_file, pairs_file):
        """--out goes to its file before the record goes to stdout: a file
        that cannot be written exits 2 with nothing on stdout."""
        template, _ = ENTRY_COMMANDS[command]
        out = tmp_path / "missing" / "out.json"
        code = main([a.format(scores=scores_file, pairs=pairs_file, out=out)
                     for a in (*template, "--epsilon", "2", "--sensitivity", "1")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: FileNotFoundError: ")

    def test_bad_flags_exit_two(self, capsys):
        assert main(["select"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestScoreRangeBeyondDoubles:
    """Scores [1e308, -1e308], run under -W error::RuntimeWarning in a fresh
    interpreter: a warning would end the command with a traceback."""

    @pytest.fixture
    def far_scores(self, tmp_path):
        path = tmp_path / "far.json"
        path.write_text('{"labels": ["a", "b"], "scores": [1e308, -1e308]}')
        return str(path)

    def dpselect(self, *argv):
        return run_python("-W", "error::RuntimeWarning", "-m", "dpselect", *argv,
                          "--epsilon", "1", "--sensitivity", "1")

    @pytest.mark.parametrize("mechanism", ["em", "pf", "rnm-expo"])
    def test_exact_dist(self, far_scores, mechanism):
        done = self.dpselect("dist", "--mechanism", mechanism, "--scores", far_scores)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["probabilities"] == [1.0, 0.0]

    def test_select_every_mechanism(self, far_scores):
        # one interpreter for all seven: a script that runs main per mechanism
        script = (
            "import json, sys; from dpselect.cli import main; "
            "from dpselect import MECHANISMS; "
            "sys.exit(sum(main(['select', '--mechanism', m, '--seed', '3', '--epsilon', '1', "
            f"'--sensitivity', '1', '--scores', {far_scores!r}]) for m in sorted(MECHANISMS)))"
        )
        done = run_python("-W", "error::RuntimeWarning", "-c", script)
        assert (done.returncode, done.stderr) == (0, "")
        assert [json.loads(line)["index"] for line in done.stdout.splitlines()] == [0] * 7

    @pytest.mark.parametrize("mechanism", ["rnm-expo", "rnm-laplace", "rnm-gumbel"])
    def test_quadrature_where_the_ulp_dwarfs_the_noise_scale(self, tmp_path, mechanism):
        # the best score's ulp is 16384, the noise scale 2
        path = tmp_path / "wide.json"
        path.write_text('{"labels": ["a", "b", "c"], "scores": [1e20, 0, 5e19]}')
        done = self.dpselect("dist", "--mechanism", mechanism, "--mode", "quadrature",
                             "--scores", str(path))
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["probabilities"] == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("mechanism", ["rnm-expo", "rnm-laplace", "rnm-gumbel"])
    def test_quadrature_dist(self, far_scores, mechanism):
        # the score gap overflows a double
        done = self.dpselect("dist", "--mechanism", mechanism, "--mode", "quadrature",
                             "--scores", far_scores)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["probabilities"] == [1.0, 0.0]

    def test_pf_dist_at_noise_scale_1e308(self, far_scores):
        # the draws are unit-scale, so the budget is valid; the gap is two
        # noise scales: the README's [0.932332358, 0.0676676416]
        done = run_python("-W", "error::RuntimeWarning", "-m", "dpselect", "dist",
                          "--mechanism", "pf", "--epsilon", "2e-308", "--sensitivity", "1",
                          "--scores", far_scores)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["probabilities"] == [0.932332358, 0.0676676416]


# The argv and exit code of one command of each kind; {scores}, {pairs}
# and {out} are filled in per run.
ENTRY_COMMANDS = {
    "select": (["select", "--mechanism", "em", "--seed", "3", "--scores", "{scores}"], 0),
    "dist": (["dist", "--mechanism", "pf", "--scores", "{scores}", "--out", "{out}"], 0),
    "compare": (["compare", "--mechanism", "pf", "--mechanism", "em", "--scores", "{scores}"], 3),
    "audit": (["audit", "--mechanism", "rnm-expo", "--pairs", "{pairs}", "--out", "{out}"], 0),
    "utility": (["utility", "--scores", "{scores}", "--out", "{out}"], 0),
}


class TestModuleInvocation:
    @pytest.mark.parametrize("command", sorted(ENTRY_COMMANDS))
    @pytest.mark.parametrize("module", ["dpselect", "dpselect.cli"])
    def test_python_dash_m_runs_the_command(self, capsys, tmp_path, module, command,
                                            scores_file, pairs_file):
        """`python -m` prints the same record, exits with the same code and
        writes the same --out file as an in-process main()."""
        template, expected_code = ENTRY_COMMANDS[command]

        def argv(out):
            return [a.format(scores=scores_file, pairs=pairs_file, out=tmp_path / out)
                    for a in (*template, "--epsilon", "2", "--sensitivity", "1")]

        assert main(argv("main.json")) == expected_code
        expected = capsys.readouterr().out
        proc = run_python("-m", module, *argv("module.json"))
        assert (proc.returncode, proc.stdout) == (expected_code, expected), proc.stderr
        written = "{out}" in template
        assert (tmp_path / "module.json").is_file() == written
        if written:
            assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def _compared(second, tv, passed):
    """The record of `compare --mechanism pf --mechanism <second>` in exact mode."""
    return {"mechanisms": ["pf", second], "mode": "exact", "tv_distance": tv,
            "tolerance": 1e-08, "pass": passed,
            "provenances": ["exact-poisson-binomial",
                            "exact-gauss-legendre" if second == "rnm-expo" else "exact-closed-form"]}


# README's command-line examples on its scores.json: each command as
# documented, the exit code and the whole record it prints
README_COMMANDS = [
    pytest.param("dpselect select --mechanism pf --epsilon 2 --sensitivity 1 --seed 7 "
                 "--scores scores.json", 0, {"label": "a", "index": 0}, id="select"),
    pytest.param("dpselect dist --mechanism em --epsilon 2 --sensitivity 1 --scores scores.json",
                 0, {"labels": ["a", "b"], "probabilities": [0.731058579, 0.268941421],
                     "provenance": "exact-closed-form"}, id="dist"),
    pytest.param("dpselect compare --mechanism pf --mechanism rnm-expo --epsilon 2 "
                 "--sensitivity 1 --scores scores.json",
                 0, _compared("rnm-expo", 1.2490009e-16, True), id="compare-rnm-expo"),
    pytest.param("dpselect compare --mechanism pf --mechanism em --epsilon 2 "
                 "--sensitivity 1 --scores scores.json",
                 3, _compared("em", 0.0850017008, False), id="compare-em"),
]


class TestReadme:
    """README's examples run as documented. The installed-package run
    repeats these through the installed `python -m dpselect`."""

    def test_library_sketch_runs(self):
        (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        exec(compile(sketch, "README library sketch", "exec"), {})

    @pytest.mark.parametrize("command, code, record", README_COMMANDS)
    def test_command_prints_the_documented_record(self, tmp_path, command, code, record):
        """The README shows each command with the record it prints, or a
        compare with its TV distance at 2 significant digits and its exit
        code; the command prints the whole record and exits as listed."""
        shown = (f"# tv {record['tv_distance']:.2g}, exit {code}" if "tv_distance" in record
                 else json.dumps(record))
        text = README.read_text(encoding="utf-8")
        # continuation lines joined, every run of white space one space
        assert f"{command} {shown}" in " ".join(text.replace("\\\n", " ").split())
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"labels": ["a", "b"], "scores": [1, 0]}))
        argv = [str(scores) if a == "scores.json" else a for a in command.split()[1:]]
        proc = run_python("-m", "dpselect", *argv)
        got = json.loads(proc.stdout) if proc.returncode in (0, 3) else proc.stderr
        assert (proc.returncode, got) == (code, record)


PRIVACY = ("--epsilon", "2", "--sensitivity", "1")


def test_every_command_and_script_runs_without_scipy(tmp_path, scores_file):
    """Quadrature and the chi-square test run on numpy and math alone:
    with scipy unimportable, every command exits 0 in one fresh
    interpreter, and none of them tries to import scipy (tests/test_scripts.py
    runs scripts/reproduce.py the same way). scipy stays a test dependency,
    the reference the tests compare against."""
    underflow = tmp_path / "underflow_pair.json"
    underflow.write_text(json.dumps({"pairs": [{
        "q1": {"labels": ["a", "b"], "scores": [0, -744.9]},
        "q2": {"labels": ["a", "b"], "scores": [0, -745.6]}}]}))
    scores = (*PRIVACY, "--scores", scores_file)
    commands = [
        *(["audit", "--mechanism", m, *PRIVACY, "--pairs", str(underflow)]
          for m in ("pf", "rnm-expo", "em")),
        ["utility", "--random", "20", "--k-max", "64", *PRIVACY],
        ["utility", *scores],
        ["select", "--mechanism", "pf", *scores],
        ["dist", "--mechanism", "pf", "--mode", "exact", *scores],
        ["dist", "--mechanism", "rnm-expo", "--mode", "exact", *scores],
        ["dist", "--mechanism", "rnm-laplace", "--mode", "quadrature", *scores],
        ["dist", "--mechanism", "rnm-gumbel", "--mode", "quadrature", *scores],
        ["dist", "--mechanism", "alg-b", "--mode", "empirical", "--n", "2000", *scores],
        ["compare", "--mechanism", "pf", "--mechanism", "rnm-expo", *scores],
        ["compare", "--mechanism", "rnm-gumbel", "--mechanism", "em",
         "--mode", "quadrature", *scores],
        ["compare", "--mechanism", "pf", "--mechanism", "rnm-expo", "--mode", "empirical",
         "--n", "2000", "--seed", "5", *scores],
        ["compare", "--mechanism", "alg-a", "--mechanism", "pf", "--mode", "empirical", *scores],
    ]
    proc = run_python("-c", NO_SCIPY_PROBE, json.dumps([commands, []]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(commands), "outputs": [], "loaded": [], "tried": []}


# Prints the OPENBLAS_NUM_THREADS a fresh `import dpselect.cli` leaves and
# the process's OS thread count (None where there is no /proc).
_THREAD_PROBE = """
import json, os
import dpselect.cli
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps({"openblas": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": threads}))
"""


class TestSingleThreadedBlas:
    """One verdict per process: the command line keeps numpy's BLAS from
    starting a thread pool, unless the caller asks for one."""

    @staticmethod
    def probe(**env):
        proc = run_python("-c", _THREAD_PROBE, **env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_sets_one_blas_thread_and_starts_no_threads(self):
        result = self.probe(OPENBLAS_NUM_THREADS=None)
        assert result["openblas"] == "1"
        if result["threads"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert result["threads"] == 1

    def test_caller_setting_is_kept(self):
        assert self.probe(OPENBLAS_NUM_THREADS="2")["openblas"] == "2"


# Imported at interpreter start from a sitecustomize.py on PYTHONPATH:
# prints the collector's state once the command has returned, as the
# process shuts down.
_GC_AT_EXIT_HOOK = """
import atexit, gc, json
atexit.register(lambda: print(json.dumps({"frozen": gc.get_freeze_count(),
                                          "enabled": gc.isenabled()})))
"""

# The console script pip writes for `dpselect = dpselect.cli:entrypoint`
_CONSOLE_SCRIPT = """
import sys
from dpselect.cli import entrypoint
sys.argv[0] = "dpselect"
sys.exit(entrypoint())
"""

# Prints what a fresh `import dpselect.cli` leaves of the collector's state,
# with the collector on, or off (argv[1] "off") before the import.
_IMPORT_GC_PROBE = """
import gc, json, sys
if sys.argv[1] == "off":
    gc.disable()
import dpselect.cli
print(json.dumps({"frozen": gc.get_freeze_count(), "enabled": gc.isenabled()}))
"""

# Runs a command through main() in a fresh interpreter and prints its exit
# code and the frozen object count before and after.
_MAIN_GC_PROBE = """
import gc, json, sys
from dpselect.cli import main
before = gc.get_freeze_count()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "frozen": [before, gc.get_freeze_count()],
                  "enabled": gc.isenabled()}))
"""


class TestFrozenImportHeap:
    """A command's process freezes the objects its imports made, so no
    collection walks them again; importing dpselect.cli and calling main()
    leave garbage collection as the caller had it."""

    @pytest.mark.parametrize("launch", [("-c", _CONSOLE_SCRIPT), ("-m", "dpselect"),
                                        ("-m", "dpselect.cli")],
                             ids=["console-script", "python-m-dpselect", "python-m-dpselect.cli"])
    def test_entrypoint_freezes_the_import_heap(self, tmp_path, scores_file, launch):
        (tmp_path / "sitecustomize.py").write_text(_GC_AT_EXIT_HOOK)
        src = Path(dpselect.cli.__file__).resolve().parents[1]
        proc = run_python(*launch, "select", "--mechanism", "pf", *PRIVACY,
                          "--scores", scores_file,
                          PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
        assert proc.returncode == 0, proc.stderr
        record, at_exit = map(json.loads, proc.stdout.splitlines())
        assert record["label"] in ("a", "b")
        # numpy and the package alone leave over 20,000 objects
        assert at_exit["frozen"] > 10_000
        assert at_exit["enabled"] is True

    @pytest.mark.parametrize("collector", ["on", "off"])
    def test_import_freezes_nothing_and_keeps_the_collector_state(self, collector):
        proc = run_python("-c", _IMPORT_GC_PROBE, collector)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"frozen": 0, "enabled": collector == "on"}

    def test_main_freezes_nothing(self, scores_file):
        proc = run_python("-c", _MAIN_GC_PROBE, "select", "--mechanism", "pf", *PRIVACY,
                          "--scores", scores_file)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"code": 0, "frozen": [0, 0], "enabled": True}
