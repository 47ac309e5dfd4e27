import json
import math

import pytest

from dpselect import (
    PrivacyParams,
    chi_square_gof,
    empirical_counts,
    formats,
    rnm_expo_exact_distribution,
    validate_instance,
)
from dpselect.cli import main

from helpers import run_python


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

    def test_pf_vs_rnm_expo_at_the_outcome_limit(self, capsys, tmp_path):
        """At k = 256 exact mode still takes rnm-expo's table from
        Gauss-Legendre, never from the pf DP it is compared with."""
        path = tmp_path / "scores256.json"
        path.write_text(json.dumps({"labels": [f"o{i}" for i in range(256)],
                                    "scores": [(37 * i % 256) / 25.6 - 5 for i in range(256)]}))
        code, record, _ = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-expo",
            "--epsilon", "1", "--sensitivity", "1", "--scores", str(path),
        )
        assert code == 0
        assert record["tv_distance"] <= 1e-8
        assert record["pass"] is True
        assert record["provenances"] == ["exact-poisson-binomial", "exact-gauss-legendre"]

    def test_pf_vs_rnm_expo_beyond_outcome_limit_exits_two(self, capsys, tmp_path):
        path = tmp_path / "scores257.json"
        path.write_text(json.dumps({"labels": [f"o{i}" for i in range(257)],
                                    "scores": [0.0] * 257}))
        code, record, err = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-expo",
            "--epsilon", "1", "--sensitivity", "1", "--scores", str(path),
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

    @pytest.mark.parametrize("tolerance", ["-1e-9", "nan", "inf", "-inf"])
    def test_tolerance_negative_or_not_finite_exits_two(
        self, capsys, scores_file, tolerance
    ):
        code, record, err = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-expo",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            f"--tolerance={tolerance}",
        )
        assert code == 2
        assert record is None
        assert "--tolerance must be finite and at least 0" in err

    def test_needs_exactly_two_mechanisms(self, capsys, scores_file):
        code, record, err = run(
            capsys, "compare", "--mechanism", "pf",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
        )
        assert code == 2
        assert "two" in err

    def test_quadrature_mode_unresolvable_mechanism(self, capsys, scores_file):
        code, _, err = run(
            capsys, "compare", "--mechanism", "pf", "--mechanism", "rnm-laplace",
            "--epsilon", "2", "--sensitivity", "1", "--scores", scores_file,
            "--mode", "quadrature",
        )
        assert code == 2
        assert "quadrature" in err


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
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["per_pair"][0]["ratio"] == pytest.approx(math.e, rel=1e-9)

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
        assert f"--k-max must be between 2 and 256, got {k_max}" in err
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

    def test_quadrature_dist(self, far_scores):
        done = self.dpselect("dist", "--mechanism", "rnm-laplace", "--mode", "quadrature",
                             "--scores", far_scores)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["probabilities"] == [1.0, 0.0]


class TestModuleInvocation:
    @pytest.mark.parametrize("module", ["dpselect", "dpselect.cli"])
    def test_python_dash_m_runs_the_command(self, capsys, module, scores_file):
        argv = ("select", "--mechanism", "em", "--epsilon", "1",
                "--sensitivity", "1", "--seed", "3", "--scores", scores_file)
        _, expected, _ = run(capsys, *argv)
        proc = run_python("-m", module, *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected


# Imports the named module, runs main(argv) when argv is not empty, and
# prints the exit code and the scipy modules loaded as the last line.
_SCIPY_PROBE = """
import importlib, json, sys
module = importlib.import_module(sys.argv[1])
argv = sys.argv[2:]
code = module.main(argv) if argv else None
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": loaded}))
"""

PRIVACY = ("--epsilon", "2", "--sensitivity", "1")


class TestScipyLoadedOnlyWhenUsed:
    """No command loads scipy in a fresh interpreter: quadrature and the
    chi-square test run on numpy and math alone. scipy stays a test
    dependency, the reference the tests compare against."""

    @staticmethod
    def probe(module, *argv):
        proc = run_python("-c", _SCIPY_PROBE, module, *argv)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("module", ["dpselect", "dpselect.cli"])
    def test_import_loads_no_scipy(self, module):
        assert self.probe(module)["scipy"] == []

    @pytest.mark.parametrize("argv", [
        ("select", "--mechanism", "pf", *PRIVACY, "--scores", "{scores}"),
        ("dist", "--mechanism", "pf", "--mode", "exact", *PRIVACY, "--scores", "{scores}"),
        ("dist", "--mechanism", "rnm-gumbel", "--mode", "quadrature", *PRIVACY,
         "--scores", "{scores}"),
        ("compare", "--mechanism", "pf", "--mechanism", "rnm-expo", *PRIVACY,
         "--scores", "{scores}"),
        ("compare", "--mechanism", "rnm-laplace", "--mechanism", "rnm-gumbel",
         "--mode", "quadrature", "--tolerance", "1", *PRIVACY, "--scores", "{scores}"),
        ("audit", "--mechanism", "pf", *PRIVACY, "--pairs", "{pairs}"),
        ("utility", *PRIVACY, "--scores", "{scores}"),
    ], ids=["select", "dist-exact", "dist-quadrature", "compare-exact",
            "compare-quadrature", "audit", "utility"])
    def test_commands_without_chi_square_load_no_scipy(self, argv, scores_file, pairs_file):
        argv = [a.format(scores=scores_file, pairs=pairs_file) for a in argv]
        assert self.probe("dpselect.cli", *argv) == {"code": 0, "scipy": []}

    def test_empirical_compare_loads_no_scipy(self, scores_file):
        result = self.probe(
            "dpselect.cli", "compare", "--mechanism", "pf", "--mechanism", "rnm-expo",
            "--mode", "empirical", "--n", "2000", "--seed", "5", *PRIVACY,
            "--scores", scores_file,
        )
        assert result == {"code": 0, "scipy": []}


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
