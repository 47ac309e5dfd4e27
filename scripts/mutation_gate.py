"""Mutation gate: small deliberate bugs in src/ that named tests must catch.

Each mutant replaces one piece of text, which must occur exactly once in
its file, and names the tests that must fail once it is applied. The
named tests are first run on an unmutated copy, where they must pass.
Then, per mutant, src/ (with tests/, scripts/, pyproject.toml and
README.md, so that the tests import the copy and the script and README
tests find their files) goes to a temporary directory, the mutant is applied
there and pytest runs its tests, stopping at the first failure. A mutant
is killed when a test fails, survives when they all pass, and is stale
when its text no longer occurs exactly once or its tests do not run.
Each pytest run may map at most MEMORY_LIMIT bytes, so a mutant whose
loop allocates without end fails its tests with MemoryError instead of
exhausting the machine's memory.

Prints one JSON line per mutant and exits 1 if the unmutated run fails or
any mutant survives or is stale. Standard library only; run from any
directory:

    python3 scripts/mutation_gate.py
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# address space per pytest run; the unmutated tests map under 0.4 GiB
MEMORY_LIMIT = 2 * 2**30


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("pf-log-pads-always-kept", "src/dpselect/oracle.py",
           "gamma = np.full((len(rows), max(counts)), -np.inf)",
           "gamma = np.full((len(rows), max(counts)), 0.0)",
           ("tests/test_oracle.py::TestLogTables::test_batch_equals_single_calls_bit_for_bit",)),
    Mutant("gauss-legendre-one-node-short", "src/dpselect/oracle.py",
           "ms = [k // 2 + 1 for k in counts]",
           "ms = [k // 2 for k in counts]",
           ("tests/test_oracle.py::TestRnmExpoExact::test_single_outcome",)),
    Mutant("coin-game-sums-ascending", "src/dpselect/oracle.py",
           "    pre = laws[:width, 0, :, ::-1]\n"
           "    np.multiply(pre, laws[width - 1 :: -1, 1], out=pre)\n",
           "    pre = laws[:width, 0]\n"
           "    np.multiply(pre, laws[width - 1 :: -1, 1, :, ::-1], out=pre)\n",
           ("tests/test_oracle.py::TestCoinGameGolden",)),
    Mutant("quadrature-mode-reads-exact-oracles", "src/dpselect/oracle.py",
           "lambda name, inst, n, seed: rnm_exact_quadrature(inst, RNM_FAMILIES[name])",
           "lambda name, inst, n, seed: EXACT_ORACLES[name](inst) if name in EXACT_ORACLES"
           " else rnm_exact_quadrature(inst, RNM_FAMILIES[name])",
           ("tests/test_oracle.py::TestTableFor::test_route_matrix",)),
    Mutant("expected-loss-without-fallback", "src/dpselect/audit.py",
           "    if math.isfinite(plain):\n        return plain\n",
           "    return plain\n",
           ("tests/test_audit.py::TestDominance::test_error_whose_loss_overflows_is_finite",)),
    Mutant("log-weights-divide-by-rate", "src/dpselect/mechanisms.py",
           "rate * (q - best) if",
           "(q - best) / rate if",
           ("tests/test_noise.py::TestNoiseScale::test_table_depends_on_the_gap_in_noise_scales",)),
    Mutant("quadrature-stops-early", "src/dpselect/oracle.py",
           "target, limit = QUADRATURE_TARGET / 80.0, 400",
           "target, limit = QUADRATURE_TARGET * 1e4, 400",
           ("tests/test_oracle.py::TestQuadratureGolden",)),
    Mutant("laplace-density-one-minus-tail", "src/dpselect/noise.py",
           "return np.abs(out, out=out), half",
           "return np.abs(out, out=out), 1.0 - half",
           ("tests/test_noise.py::TestNoiseGolden",)),
    Mutant("gumbel-density-without-t", "src/dpselect/noise.py",
           "return out, np.exp(minus - e)",
           "return out, np.exp(-e)",
           ("tests/test_noise.py::TestNoiseGolden",)),
    Mutant("exponential-density-not-zeroed-below-0", "src/dpselect/noise.py",
           "np.exp(minus) * (x >= 0.0)",
           "np.exp(minus)",
           ("tests/test_noise.py::TestNoiseGolden",)),
    Mutant("gk21-chunks-without-the-factor-rows-of-ones", "src/dpselect/oracle.py",
           "BATCH_ELEMENTS // (21 * (width + 2))",
           "BATCH_ELEMENTS // (21 * width)",
           ("tests/test_oracle.py::TestQuadratureMemory",)),
    Mutant("adaptive-right-halves-swapped", "src/dpselect/oracle.py",
           "np.concatenate((b[keep], mid, b[split]))",
           "np.concatenate((b[keep], b[split], mid))",
           ("tests/test_oracle.py::TestQuadratureGolden",)),
    Mutant("coin-game-h-shifted", "src/dpselect/oracle.py",
           "1.0 / np.arange(width, 0, -1)",
           "1.0 / np.arange(width + 1, 1, -1)",
           ("tests/test_oracle.py::TestCoinGameGolden",)),
    Mutant("chi2-sf-without-the-odd-dof-erfc", "src/dpselect/oracle.py",
           "q = math.erfc(math.sqrt(y)) if dof % 2 else 0.0",
           "q = 0.0",
           ("tests/test_oracle.py::TestChiSquarePValue",)),
    Mutant("power-mixture-weights-shifted-one-term", "src/dpselect/oracle.py",
           "w = _gamma_steps(0.0, mu, n)",
           "w = _gamma_steps(1.0, mu, n)",
           ("tests/test_oracle.py::TestDetectableDivergence",)),
    Mutant("power-target-0.9", "src/dpselect/oracle.py",
           "0.9 - significance",
           "0.1 - significance",
           ("tests/test_oracle.py::TestDetectableDivergence",)),
    Mutant("power-null-tail-recomputed", "src/dpselect/oracle.py",
           "(0.9 - significance)",
           "(0.9 - _chi2_sf(dof, c))",
           ("tests/test_oracle.py::TestDetectableDivergence"
            "::test_matches_scipy_noncentrality[0.8999]",)),
    Mutant("critical-value-at-one-minus-alpha", "src/dpselect/oracle.py",
           "-2.0 * math.log(significance)",
           "-2.0 * math.log1p(-significance)",
           ("tests/test_oracle.py::TestDetectableDivergence::test_search_without_a_root_raises",)),
    Mutant("power-without-the-zero-above-0.9", "src/dpselect/oracle.py",
           "    if significance >= 0.9:\n        return 0.0\n",
           "",
           ("tests/test_oracle.py::TestDetectableDivergence",)),
    Mutant("cli-starts-the-blas-pool", "src/dpselect/cli.py",
           'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
           "",
           ("tests/test_cli.py::TestSingleThreadedBlas",)),
    Mutant("audit-compares-q1-with-itself", "src/dpselect/audit.py",
           "np.subtract(log_p1, log_p2,",
           "np.subtract(log_p1, log_p1,",
           ("tests/test_audit.py::TestPrivacyRatioAudit::test_em_swap_pair",)),
    Mutant("audit-gap-without-mask", "src/dpselect/audit.py",
           "out=np.zeros(log_p1.shape), where=log_p1 != log_p2)",
           "out=np.zeros(log_p1.shape))",
           ("tests/test_audit.py::TestPrivacyRatioAudit"
            "::test_mixed_k_pairs_read_their_own_rows",)),
    Mutant("dominance-takes-the-pf-error-from-em", "src/dpselect/audit.py",
           '_padded_tables(("pf", "em"), instances, log=False)',
           '_padded_tables(("em", "em"), instances, log=False)',
           ("tests/test_audit.py::TestDominance::test_two_point_values",)),
    Mutant("alg-b-tie-break-from-the-score-noise", "src/dpselect/mechanisms.py",
           "_first_max(u[1::2] * capped, k)",
           "_first_max(u[0::2] * capped, k)",
           ("tests/test_mechanisms.py::TestSeededGolden",)),
    Mutant("alg-b-tie-without-floor", "src/dpselect/mechanisms.py",
           "u = floored_uniforms(rng, rows * 2 * k)",
           "u = rng.uniforms(rows * 2 * k)",
           ("tests/test_mechanisms.py::TestFixedUniforms"
            "::test_intermediate_b_zero_tie_break_still_beats_the_masked_out",)),
    Mutant("alg-b-chunk-as-wide-as-k", "src/dpselect/mechanisms.py",
           "(_intermediate_b_batch, lambda k: 2 * k)",
           "(_intermediate_b_batch, lambda k: k)",
           ("tests/test_oracle.py::TestSamplingMemory",)),
    Mutant("intermediate-a-picks-its-last-survivor", "src/dpselect/mechanisms.py",
           "kept[rng.integers(kept.size)]",
           "kept[-1]",
           ("tests/test_mechanisms.py::TestSeededReplay",)),
    Mutant("uniform-pick-ignores-its-mask", "src/dpselect/mechanisms.py",
           "np.subtract(mask, keys, out=keys)",
           "np.negative(keys, out=keys)",
           ("tests/test_mechanisms.py::TestSeededGolden",)),
    Mutant("uniform-pick-k2-prefers-the-later-index", "src/dpselect/mechanisms.py",
           "values[1::2] > values[0::2]",
           "values[1::2] >= values[0::2]",
           ("tests/test_mechanisms.py::TestFixedUniforms"
            "::test_two_outcome_pick_keeps_index_0_on_equal_keys",)),
    Mutant("first-max-keeps-the-last-tie", "src/dpselect/mechanisms.py",
           "(prefix[:-1] < prefix[-1])",
           "(prefix[:-1] <= prefix[-1])",
           ("tests/test_mechanisms.py::TestColumnPicks::test_first_max_is_the_first_argmax",)),
    Mutant("first-max-skips-column-0", "src/dpselect/mechanisms.py",
           "prefix[0] = values[0::k]",
           "prefix[0] = -np.inf",
           ("tests/test_mechanisms.py::TestColumnPicks::test_first_max_is_the_first_argmax",)),
    Mutant("exponential-quantile-without-log1p", "src/dpselect/noise.py",
           "np.log1p(np.negative(u, out=out), out=out)",
           "np.log(np.subtract(1.0, u, out=out), out=out)",
           ("tests/test_noise.py::TestNoiseGolden",)),
    Mutant("uniform-floor-3^-53", "src/dpselect/noise.py",
           "_U_FLOOR = 2.0 ** -53",
           "_U_FLOOR = 3.0 ** -53",
           ("tests/test_noise.py::TestSampling"
            "::test_zero_uniform_draws_the_noise_at_the_smallest_uniform",)),
    Mutant("pf-batch-heads-at-equality", "src/dpselect/mechanisms.py",
           "rng.uniforms(rows * k) < coins",
           "rng.uniforms(rows * k) <= coins",
           ("tests/test_mechanisms.py::TestFixedUniforms"
            "::test_batch_permute_and_flip_heads_are_strict",)),
    Mutant("pf-walk-heads-at-equality", "src/dpselect/mechanisms.py",
           "rng.uniform() < math.exp",
           "rng.uniform() <= math.exp",
           ("tests/test_mechanisms.py::TestFixedUniforms::test_permute_and_flip_heads_are_strict",)),
    Mutant("em-search-from-the-left", "src/dpselect/mechanisms.py",
           'np.searchsorted(cumulative, x, side="right")\n',
           'np.searchsorted(cumulative, x, side="left")\n',
           ("tests/test_mechanisms.py::TestFixedUniforms"
            "::test_exponential_mechanism_skips_a_leading_zero_weight_at_the_cut_over[search]",)),
    Mutant("em-count-strict", "src/dpselect/mechanisms.py",
           "np.greater_equal(x, c, out=reached)",
           "np.greater(x, c, out=reached)",
           ("tests/test_mechanisms.py::TestFixedUniforms"
            "::test_exponential_mechanism_skips_a_leading_zero_weight",)),
    Mutant("dominance-counts-a-violation-twice", "src/dpselect/audit.py",
           "violations += 1",
           "violations += 2",
           ("tests/test_audit.py::TestDominance::test_violations_counted_once_per_instance",)),
    Mutant("rnm-expo-factor-from-the-coin-game", "src/dpselect/oracle.py",
           "lambda gamma, w, counts: _win_integrals(gamma, counts),",
           "lambda gamma, w, counts: _coin_game(w),",
           ("tests/test_oracle.py::TestGaussLegendreRoundingBound"
            "::test_log_tables_read_these_integrals_bit_for_bit",)),
    Mutant("gauss-legendre-rows-take-the-largest-node-count", "src/dpselect/oracle.py",
           "nodes[:, row, :n] = _legendre_nodes(n)",
           "nodes[:, row] = _legendre_nodes(m)",
           ("tests/test_oracle.py::TestLogTables::test_batch_equals_single_calls_bit_for_bit",)),
    Mutant("gauss-legendre-pad-node-weighs", "src/dpselect/oracle.py",
           "nodes = np.zeros((2, rows, m))",
           "nodes = np.array([np.zeros((rows, m)), np.ones((rows, m))])",
           ("tests/test_oracle.py::TestLogTables::test_batch_equals_single_calls_bit_for_bit",)),
    Mutant("em-factor-drops-its-last-weight", "src/dpselect/oracle.py",
           "np.add.accumulate(w, axis=1)",
           "np.add.accumulate(w[:, :-1], axis=1)",
           ("tests/test_oracle.py::TestSoftmaxRoundingBound::test_linear_table_within_stated_bound",)),
    Mutant("probability-sum-tolerance-1.5e-9", "src/dpselect/core.py",
           "PROBABILITY_SUM_TOLERANCE = 1e-9",
           "PROBABILITY_SUM_TOLERANCE = 1.5e-9",
           ("tests/test_core.py::TestProbabilityTable::test_sum_just_beyond_the_tolerance_rejected",)),
    Mutant("random-instances-from-k-3", "src/dpselect/audit.py",
           "    sensitivity: float,\n    k_min: int = 2,\n    k_max: int = 10,\n    seed: int = 0,\n"
           ") -> list[ValidatedInstance]:",
           "    sensitivity: float,\n    k_min: int = 3,\n    k_max: int = 10,\n    seed: int = 0,\n"
           ") -> list[ValidatedInstance]:",
           ("tests/test_audit.py::TestSuiteGenerators::test_random_instances_defaults",)),
    Mutant("newton-runs-out-its-steps", "src/dpselect/oracle.py",
           "        if hi - lo <= 1e-14 * x:\n            break\n",
           "",
           ("tests/test_oracle.py::TestDetectableDivergence"
            "::test_critical_value_stops_once_its_bracket_collapses",)),
    Mutant("critical-value-starts-below-the-mean", "src/dpselect/oracle.py",
           "max(1.0 - v + z * math.sqrt(v), 0.1)",
           "max(1.0 - v - z * math.sqrt(v), 0.1)",
           ("tests/test_oracle.py::TestDetectableDivergence"
            "::test_matches_scipy_noncentrality[2.2250738585072014e-308]",)),
    Mutant("compare-samples-before-checking-significance", "src/dpselect/cli.py",
           "    _check_significance(args.significance)\n",
           "",
           ("tests/test_cli.py::TestCompare::test_bad_significance_exits_two_before_any_draw",)),
    Mutant("exit-three-unless-the-record-passes", "src/dpselect/cli.py",
           'record.get("pass") is False',
           'not record.get("pass")',
           ("tests/test_cli.py::TestModuleInvocation",)),
    Mutant("out-written-after-the-record", "src/dpselect/cli.py",
           "        if saved is not None and args.out:\n"
           "            write_json(saved, args.out)\n"
           "        print(json.dumps(_nine_significant(record)))\n",
           "        print(json.dumps(_nine_significant(record)))\n"
           "        if saved is not None and args.out:\n"
           "            write_json(saved, args.out)\n",
           ("tests/test_cli.py::TestExitCodeContract::test_out_file_is_written_before_the_record",)),
    Mutant("cli-prints-eight-significant-digits", "src/dpselect/cli.py",
           'return float(f"{obj:.9g}")',
           'return float(f"{obj:.8g}")',
           ("tests/test_cli.py::TestReadme::test_command_prints_the_documented_record",)),
    Mutant("entrypoint-collects-its-imports", "src/dpselect/cli.py",
           "    gc.freeze()\n",
           "",
           ("tests/test_cli.py::TestFrozenImportHeap::test_entrypoint_freezes_the_import_heap",)),
    Mutant("main-freezes-the-heap", "src/dpselect/cli.py",
           "def main(argv: list[str] | None = None) -> int:\n",
           "def main(argv: list[str] | None = None) -> int:\n    gc.freeze()\n",
           ("tests/test_cli.py::TestFrozenImportHeap::test_main_freezes_nothing",)),
    Mutant("empirical-counts-accepts-zero-runs", "src/dpselect/oracle.py",
           "if n < 1:",
           "if n < 0:",
           ("tests/test_oracle.py::TestEmpirical::test_zero_runs_rejected",
            "tests/test_cli.py::TestDist::test_empirical_without_a_run_exits_two")),
    Mutant("chi-square-accepts-a-count-of-minus-one", "src/dpselect/oracle.py",
           "any(c < 0 for c in counts)",
           "any(c < -1 for c in counts)",
           ("tests/test_oracle.py::TestChiSquareGof::test_negative_or_no_counts_rejected",)),
    Mutant("expected-loss-lets-fsum-overflow-through", "src/dpselect/audit.py",
           "    except OverflowError:\n        plain = math.inf\n",
           "    except ZeroDivisionError:\n        plain = math.inf\n",
           ("tests/test_audit.py::TestExpectedError::test_sum_that_overflows_in_fsum_is_inf",)),
    Mutant("chi-square-dof-0-takes-the-statistic", "src/dpselect/oracle.py",
           "    if not dof:\n        return GofResult(0.0, 0, 1.0, True, None)\n",
           "",
           ("tests/test_oracle.py::TestChiSquareGof::test_table_pooled_into_one_cell_is_vacuous",)),
    Mutant("chi-square-pools-without-a-kept-cell", "src/dpselect/oracle.py",
           "if kept and pooled:",
           "if pooled:",
           ("tests/test_oracle.py::TestChiSquareGof::test_impossible_draw_with_no_kept_cell_fails",)),
    Mutant("input-object-unchecked", "src/dpselect/formats.py",
           '    _require(isinstance(obj, dict), f"{what} must be a JSON object")\n',
           "",
           ("tests/test_formats.py::TestQualityVectorFiles::test_malformed_rejected",)),
    Mutant("input-field-kind-unchecked", "src/dpselect/formats.py",
           "        _require(_ITEM_CHECKS[kind](obj[field]), "
           "f'{what}: \"{field}\" must be of type {kind}')\n",
           "",
           ("tests/test_formats.py::TestNeighborPairFiles::test_malformed_rejected",)),
    Mutant("quality-labels-kept-as-given", "src/dpselect/core.py",
           "tuple(map(str, labels)), tuple(scores)",
           "tuple(labels), tuple(scores)",
           ("tests/test_core.py::TestQualityVector"
            "::test_stores_tuples_of_str_labels_and_float_scores",)),
    Mutant("quality-scores-iterable-kept-as-given", "src/dpselect/core.py",
           "labels, scores = tuple(map(str, labels)), tuple(scores)",
           "labels, scores = tuple(map(str, labels)), scores",
           ("tests/test_core.py::TestQualityVector"
            "::test_stores_tuples_of_str_labels_and_float_scores",)),
    Mutant("quality-scores-not-converted-to-float", "src/dpselect/core.py",
           "scores=tuple(floats)",
           "scores=scores",
           ("tests/test_core.py::TestQualityVector"
            "::test_stores_tuples_of_str_labels_and_float_scores",)),
    Mutant("epsilon-not-converted-to-float", "src/dpselect/core.py",
           "epsilon, sensitivity = float(epsilon), float(sensitivity)",
           "epsilon, sensitivity = epsilon, float(sensitivity)",
           ("tests/test_core.py::TestPrivacyParams::test_stores_floats",)),
    Mutant("sensitivity-not-converted-to-float", "src/dpselect/core.py",
           "epsilon, sensitivity = float(epsilon), float(sensitivity)",
           "epsilon, sensitivity = float(epsilon), sensitivity",
           ("tests/test_core.py::TestPrivacyParams::test_stores_floats",)),
    Mutant("table-labels-kept-as-given", "src/dpselect/core.py",
           "labels, probs = tuple(map(str, labels)),",
           "labels, probs = tuple(labels),",
           ("tests/test_core.py::TestProbabilityTable::test_stores_a_tuple_of_str_labels",)),
    Mutant("record-equality-ignores-the-last-field", "src/dpselect/core.py",
           "return self._values() == other._values()",
           "return self._values()[:-1] == other._values()[:-1]",
           ("tests/test_records.py::test_records_differing_in_one_field_are_unequal",)),
    Mutant("record-assignment-allowed", "src/dpselect/core.py",
           '        raise AttributeError(f"cannot assign to {name!r}',
           '        object.__setattr__(self, name, value)\n'
           '        return\n'
           '        raise AttributeError(f"cannot assign to {name!r}',
           ("tests/test_records.py::test_assigning_or_deleting_a_field_raises",)),
    Mutant("table-entry-check-passes-nan", "src/dpselect/core.py",
           "if not -PROBABILITY_CLAMP_TOLERANCE <= p <= 1.0 + PROBABILITY_CLAMP_TOLERANCE:",
           "if p < -PROBABILITY_CLAMP_TOLERANCE or p > 1.0 + PROBABILITY_CLAMP_TOLERANCE:",
           ("tests/test_core.py::TestProbabilityTable::test_non_finite_entry_at_any_position_rejected",)),
    Mutant("quadrature-error-without-its-message", "src/dpselect/errors.py",
           "        super().__init__(message)\n",
           "",
           ("tests/test_oracle.py::TestQuadrature::test_error_reads_as_its_message",)),
    Mutant("first-max-columns-past-uint8", "src/dpselect/mechanisms.py",
           "    if k > FIRST_MAX_COLUMNS:\n        return np.argmax(values.reshape(-1, k), axis=1)\n",
           "",
           ("tests/test_mechanisms.py::TestColumnPicks::test_first_max_is_the_first_argmax[257]",)),
    Mutant("search-right-counts-past-uint8", "src/dpselect/mechanisms.py",
           "    if cumulative.size > SEARCH_COUNT_MAX_K:\n"
           '        return np.searchsorted(cumulative, x, side="right")\n',
           "",
           ("tests/test_mechanisms.py::TestColumnPicks::test_search_right_is_searchsorted[257]",)),
    Mutant("exact-routes-without-an-outcome-limit", "src/dpselect/oracle.py",
           '    _check_outcome_count(max(counts, default=0), "every exact route")\n',
           "",
           ("tests/test_oracle.py::TestLogTables::test_outcome_limit",)),
    Mutant("compare-reads-the-second-table-by-mode", "src/dpselect/cli.py",
           "        table = table_for(first, inst, args.mode)\n"
           '        reference = table_for(second, inst, "exact")\n',
           "        table = table_for(first, inst, args.mode)\n"
           "        reference = table_for(second, inst, args.mode)\n",
           ("tests/test_cli.py::TestCompare::test_quadrature_mode_against_the_exponential_mechanism",)),
    Mutant("package-name-resolves-to-none", "src/dpselect/__init__.py",
           "    return value\n",
           "    return None\n",
           ("tests/test_package.py::test_every_public_name_and_submodule_resolves",)),
    Mutant("unreadable-input-file-unnamed", "src/dpselect/formats.py",
           '        raise MalformedInputFile(f"cannot read {path}: {exc}") from exc\n',
           "        pass\n",
           ("tests/test_formats.py::TestQualityVectorFiles::test_unreadable_file",)),
    Mutant("invalid-json-file-unnamed", "src/dpselect/formats.py",
           '        raise MalformedInputFile(f"{path} is not valid JSON: {exc}") from exc\n',
           "        pass\n",
           ("tests/test_formats.py::TestQualityVectorFiles::test_unreadable_file",)),
    Mutant("json-output-without-its-last-newline", "src/dpselect/formats.py",
           '        fh.write("\\n")\n',
           "",
           ("tests/test_formats.py::TestProbabilityTableFiles::test_round_trip_full_precision",)),
    Mutant("sensitivity-tests-a-generator-for-emptiness", "src/dpselect/core.py",
           "    pairs = list(pairs)\n",
           "",
           ("tests/test_core.py::TestSensitivityFromPairs::test_pairs_from_a_generator",)),
    Mutant("audit-reads-a-generator-once", "src/dpselect/audit.py",
           "    pairs = list(pairs)\n",
           "",
           ("tests/test_audit.py::TestPrivacyRatioAudit::test_pairs_from_a_generator",)),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file."""
    return (ROOT / mutant.file).read_text().count(mutant.old)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


@contextlib.contextmanager
def mutated_copy(mutant: Mutant | None) -> Iterator[Path]:
    """A temporary copy of the repository's src/, tests/, scripts/,
    pyproject.toml and README.md, with the mutant applied unless it is
    None."""
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / tree, copy / tree,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, copy)
        if mutant is not None:
            path = copy / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        yield copy


def run_tests(mutant: Mutant | None, tests: list[str]) -> int:
    """pytest's exit code for the tests on a copy of the repository, with
    the mutant applied unless it is None."""
    with mutated_copy(mutant) as copy:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=_limit_memory,
        ).returncode


def main() -> int:
    start = time.perf_counter()
    code = run_tests(None, sorted({t for m in MUTANTS for t in m.tests}))
    print(json.dumps({"id": "unmutated", "status": "passed" if code == 0 else "failed",
                      "pytest_exit": code, "seconds": round(time.perf_counter() - start, 2)}),
          flush=True)
    failed = code != 0
    for mutant in MUTANTS:
        start, count = time.perf_counter(), occurrences(mutant)
        code = run_tests(mutant, list(mutant.tests)) if count == 1 else None
        status = {1: "killed", 0: "survived"}.get(code, "stale")
        print(json.dumps({"id": mutant.id, "file": mutant.file, "status": status,
                          "occurrences": count, "pytest_exit": code,
                          "seconds": round(time.perf_counter() - start, 2),
                          "tests": list(mutant.tests)}), flush=True)
        failed |= status != "killed"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
