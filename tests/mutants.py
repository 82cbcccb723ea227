"""Kept mutation checks: each mutant is one small edit to src/patreid that
named tests must catch, so a check that could fail stays able to.

Run from the repository root (not part of tier-1):

    python tests/mutants.py               # every mutant
    python tests/mutants.py own_row_not_last  # the named mutants

The named tests of every mutant first run once against an unchanged copy of
src/, where they must pass.  Then each mutant is applied alone to a fresh
copy of src/ in a temporary directory, and only its tests run, in one pytest
process, against that copy.  A mutant is killed when every one of its tests
fails.  The run exits 1 if a mutant is not killed, if its old text is not
found exactly once in its file (the code moved: bring the mutant up to
date), or if pytest ends any other way, such as on a test id it cannot find.
The control mutant changes only a comment and must survive, which shows that
the runner can see survival.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/patreid
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the repository root
    survives: bool = False  # True only for the control


MUTANTS = (
    Mutant(
        "header_crc32_dropped",
        "vocab.py",
        '        if zlib.crc32(data) != int.from_bytes(trailer[8:12], "little"):\n'
        '            raise VocabError(f"{path}: unreadable header: bad CRC-32")\n',
        "",
        ("tests/test_cli.py::test_damaged_model_file_one_error_line[header_alpha_digit]",
         "tests/test_cli.py::test_damaged_model_file_one_error_line[header_image_id_char]"),
    ),
    Mutant(
        "np_power_in_exponential",
        "reid.py",
        "return np.float_power(np.clip(d_l, EXPONENTIAL_FLOOR, 1.0), n)",
        "return np.power(np.clip(d_l, EXPONENTIAL_FLOOR, 1.0), n)",
        ("tests/test_reid.py::TestRulesOnArrays::test_array_call_equals_float_arithmetic"
         "[exponential-2.0]",),
    ),
    Mutant(
        "affine_query_frame_transposed",
        "geometry.py",
        "a, b, c, d = np.moveaxis(query_frames[..., 2:6], -1, 0)",
        "a, c, b, d = np.moveaxis(query_frames[..., 2:6], -1, 0)",
        ("tests/test_geometry.py::TestAffineVerifier"
         "::test_planted_affine_matches_recovered_exactly",
         "tests/test_geometry.py::test_verdicts_invariant_under_query_similarity"),
    ),
    Mutant(
        "own_row_not_last",
        "reid.py",
        "np.lexsort((np.broadcast_to(id_rank, own.shape), distances, own), axis=-1)",
        "np.lexsort((np.broadcast_to(id_rank, own.shape), distances), axis=-1)",
        ("tests/test_reid.py::TestRankingOracle::test_evaluate_matches_oracle[3-leave_one_out]",
         "tests/test_reid.py::TestRankingOracle"
         "::test_database_row_order_changes_nothing[leave_one_out]"),
    ),
    Mutant(
        "build_vocab_forks",
        "cli.py",
        "        for entry in db_entries:\n"
        "            model.append(load_entry_features(manifest, entry))\n",
        "        from .reid import fork_map\n\n"
        "        for part in fork_map(len(db_entries), lambda part: [\n"
        "                load_entry_features(manifest, e) for e in db_entries[part]]):\n"
        "            for features in part:\n"
        "                model.append(features)\n",
        ("tests/test_cli.py::TestParallelEvaluate::test_query_never_forks[build-vocab]",
         "tests/test_cli.py::TestBuildVocabParsesInOneProcess::test_same_bytes_for_any_cpu_count"),
    ),
    Mutant(
        "build_vocab_keeps_rows",
        "cli.py",
        "            model.append(load_entry_features(manifest, entry))\n",
        "            model.append(vars(args).setdefault(entry.image_id,\n"
        "                                               load_entry_features(manifest, entry)))\n",
        ("tests/test_cli.py::TestBuildVocab::test_peak_memory_per_descriptor_row",),
    ),
    Mutant(
        "header_length_check_dropped",
        "vocab.py",
        "        if end < 0:\n"
        '            raise VocabError(f"{path}: header of {length} bytes in a file of {size}")\n',
        "",
        ("tests/test_cli.py::test_damaged_model_file_one_error_line[header_length_max]",
         "tests/test_cli.py::test_damaged_model_file_one_error_line[header_past_end]"),
    ),
    Mutant(
        "arrays_fit_check_dropped",
        "vocab.py",
        "    if at > end:\n"
        '        raise VocabError(f"{path}: {end} bytes precede the header, '
        'whose dims need {at} of arrays")\n',
        "",
        ("tests/test_cli.py::test_damaged_model_file_one_error_line[dims_past_end]",),
    ),
    Mutant(
        "writer_shape_check_dropped",
        "vocab.py",
        "        if array.shape != shape:\n"
        '            raise VocabError(f"{path}: array {name!r} has shape {array.shape}, '
        'expected {shape}")\n',
        "        pass\n",
        ("tests/test_vocab.py::TestVocabularyPersistence::test_section_shapes_rejected[gmm_dim]",
         "tests/test_vocab.py::TestVocabularyPersistence"
         "::test_section_shapes_rejected[kpca_features]",
         "tests/test_vocab.py::TestVocabularyPersistence"
         "::test_section_shapes_rejected_after_the_rows"),
    ),
    Mutant(
        "save_skips_row_check",
        "vocab.py",
        '            raise VocabError(f"{path}: index row {k} is {row}, expected {entry}")\n',
        "            pass\n",
        ("tests/test_vocab.py::TestModelFile::test_rows_not_the_index_refused[reverse_order]",
         "tests/test_vocab.py::TestModelFile::test_rows_not_the_index_refused[count]",
         "tests/test_vocab.py::TestModelFile::test_rows_not_the_index_refused[width]"),
    ),
    Mutant(
        "parse_all_then_embed",
        "reid.py",
        "        parsed[i] = load_entry_features(manifest, entries[i])\n",
        "        parsed[i] = load_entry_features(manifest, entries[i])\n"
        "    for i in parsed:\n",
        ("tests/test_cli.py::TestParallelEvaluate"
         "::test_loo_embeds_each_file_before_the_next_is_parsed",),
    ),
    Mutant(
        "train_stacks_a_copy",
        "encode.py",
        "fit_pca(stack, ",
        "fit_pca(stack.copy(), ",
        ("tests/test_cli.py::TestBuildVocab::test_peak_memory_per_descriptor_row",
         "tests/test_encode.py::TestTrainVocabularyAndEmbed"
         "::test_training_holds_one_centered_copy"),
    ),
    Mutant(
        "final_ties_reverse_row_order",
        "reid.py",
        "order = np.lexsort((d_c, ~verified), axis=-1)",
        "order = np.lexsort((np.broadcast_to(-np.arange(size), d_c.shape), d_c, ~verified),"
        " axis=-1)",
        ("tests/test_reid.py::TestRankingOracle::test_evaluate_matches_oracle[3-split]",
         "tests/test_reid.py::TestRankingOracle"
         "::test_database_row_order_changes_nothing[split]"),
    ),
    Mutant(
        "stage1_ties_by_row",
        "reid.py",
        "np.lexsort((np.broadcast_to(id_rank, own.shape), distances, own), axis=-1)",
        "np.lexsort((distances, own), axis=-1)",
        ("tests/test_reid.py::TestRankingOracle::test_evaluate_matches_oracle[0-split]",
         "tests/test_reid.py::TestRankingOracle"
         "::test_database_row_order_changes_nothing[leave_one_out]"),
    ),
    Mutant(
        "cross_block_best_on_ties",
        "geometry.py",
        "better = top_count > best_count[pairs]",
        "better = top_count >= best_count[pairs]",
        ("tests/test_geometry.py::test_hypothesis_blocks_match_dense_scoring",),
    ),
    Mutant(
        "padding_zero_not_nan",
        "geometry.py",
        "shifted[~valid] = np.nan",
        "shifted[~valid] = 0.0",
        ("tests/test_geometry.py::test_verifier_matches_per_hypothesis_reference",
         "tests/test_reid.py::TestRankingOracle::test_evaluate_matches_oracle[3-leave_one_out]"),
    ),
    Mutant(
        "normalized_no_mean_shift",
        "geometry.py",
        "shifted = points - (points.sum(axis=1) / counts[:, None])[:, None]",
        "shifted = points.copy()",
        ("tests/test_geometry.py::TestNormalizePoints::test_forced_example",
         "tests/test_geometry.py::test_verdicts_invariant_under_query_similarity"),
    ),
    Mutant(
        "matcher_skips_distance_sort",
        "geometry.py",
        'order = np.argsort(d, kind="stable")',
        "order = np.arange(d.size)",
        ("tests/test_geometry.py::TestMatchDescriptors::test_sorted_by_distance",
         "tests/test_geometry.py::test_pinned_verdicts"),
    ),
    Mutant(
        "shortlist_default_one",
        "reid.py",
        "shortlist_size: int = 50",
        "shortlist_size: int = 1",
        ("tests/test_reid.py::TestQueryDatabase::test_default_shortlist_verifies_fifty_rows",
         "tests/test_reid.py::TestQueryDatabase::test_geometry_cache_reused_across_rules"),
    ),
    Mutant(
        "patf2_short_row_named_later",
        "ingest.py",
        "            4 + min(len(body) // row_bytes, count),\n",
        "            5 + min(len(body) // row_bytes, count),\n",
        ("tests/test_ingest.py::TestParseFeatureFile"
         "::test_binary_body_length_names_first_missing_or_extra_row[second_row]",
         "tests/test_ingest.py::TestParseFeatureFile"
         "::test_binary_body_length_names_first_missing_or_extra_row[no_rows]"),
    ),
    Mutant(
        "patf2_rows_big_endian",
        "ingest.py",
        'np.frombuffer(body, "<f8")',
        'np.frombuffer(body, ">f8")',
        ("tests/test_ingest.py::TestParseFeatureFile::test_round_trip_keeps_every_bit",
         "tests/test_ingest.py::TestParseFeatureFile::test_versions_parse_alike[0]"),
    ),
    Mutant(
        "patf2_longer_body_accepted",
        "ingest.py",
        "    if len(body) != row_bytes * count:\n",
        "    if len(body) < row_bytes * count:\n",
        ("tests/test_ingest.py::TestParseFeatureFile"
         "::test_binary_body_length_names_first_missing_or_extra_row[extra_value]",
         "tests/test_ingest.py::TestParseFeatureFile"
         "::test_binary_body_length_names_first_missing_or_extra_row[extra_row]"),
    ),
    Mutant(
        "control_comment_only",
        "reid.py",
        "# -1: not indexed",
        "# -1: absent from the index",
        ("tests/test_reid.py::TestRulesOnArrays::test_array_call_equals_float_arithmetic"
         "[exponential-2.0]",),
        survives=True,
    ),
)


def _pytest(src: Path, tests: Sequence[str]) -> Tuple[int, set]:
    """(pytest's exit code, the node ids that failed or errored) of tests run
    against the package under src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    # The short summary has one "FAILED <node id> - <message>" line per test.
    failed = {line.split(" ")[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return run.returncode, failed


def _copy_of_src(tmp: str, mutant: Optional[Mutant] = None) -> Optional[Path]:
    """A copy of src/ under tmp, with mutant applied; None if its old text
    is not found exactly once."""
    src = Path(shutil.copytree(ROOT / "src", Path(tmp) / "src",
                               ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")))
    if mutant is not None:
        path = src / "patreid" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return None
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def main(names: Sequence[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown or not mutants:
        print(f"unknown mutants: {sorted(unknown)}; known: {[m.name for m in MUTANTS]}")
        return 2
    tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        code, failed = _pytest(_copy_of_src(tmp), tests)
    if code != 0:
        print(f"the named tests do not pass on unchanged src (pytest exit {code}): "
              f"{sorted(failed)}")
        return 1
    bad = 0
    for mutant in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_of_src(tmp, mutant)
            code, failed = (None, set()) if src is None else _pytest(src, mutant.tests)
        if code is None:
            outcome = f"old text not found once in {mutant.file}"
        elif code == 0:
            outcome = "survived"
        elif code == 1 and failed == set(mutant.tests):
            outcome = "killed"
        elif code == 1:
            outcome = f"survived {sorted(set(mutant.tests) - failed)}"
        else:
            outcome = f"pytest exit {code}"
        ok = outcome == ("survived" if mutant.survives else "killed")
        bad += not ok
        verdict = "as expected" if ok else "FAIL"
        print(f"{mutant.name:<32} {outcome}: {verdict}  ({time.perf_counter() - start:.1f} s)")
    print(f"{len(mutants) - bad} of {len(mutants)} mutants as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
