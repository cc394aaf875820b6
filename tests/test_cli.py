import hashlib
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from digit_forensics import (
    DigitHistogram,
    NoiseSpec,
    OperatorKind,
    ReferenceCache,
    benford_pmf,
    calibrate_floor,
    generate_reference,
)
from digit_forensics import cli, reference
from digit_forensics.cache import CACHE_VERSION, checksum
from digit_forensics.cli import build_parser
from digit_forensics.harness import (
    DEFAULT_REPORT_ENTRIES,
    LABEL_CLEAN,
    LABEL_MANIPULATED,
    scan_corpus,
)

FAST = ["--draws", "2000", "--calibration-samples", "20"]


def run_cli(*args):
    # -W error: a warning in the child fails its run, as in the pytest process
    return subprocess.run([sys.executable, "-W", "error", "-m", "digit_forensics", *args],
                          capture_output=True)


def out_json(proc):
    return json.loads(proc.stdout.decode("utf-8"))


@pytest.fixture()
def report_dir(tmp_path):
    reports = tmp_path / "reports"
    reports.mkdir()
    conforming = {"source_id": "src-ok",
                  "groups": {"mean": [1.2, 2.3, 1.7, 3.1, 9.4, 1.05, 4.2, 5.9]}}
    nines = {"source_id": "src-nines",
             "groups": {"mean": [9.1, 9.2, 9.3, 9.4, 9.5, 9.6, 9.7, 9.8, 9.9,
                                 9.15, 9.25, 9.35]}}
    thin = {"source_id": "src-thin", "groups": {"mean": [1.0, 2.0]}}
    for name, doc in [("a.json", conforming), ("b.json", nines),
                      ("c.json", thin)]:
        (reports / name).write_text(json.dumps(doc), encoding="utf-8")
    return reports


@pytest.fixture()
def csv_path(tmp_path):
    gen = np.random.default_rng(404)
    data = 10.0 ** gen.uniform(-2.0, 3.0, size=(8, 6))
    lines = ["c1,c2,c3,c4,c5,c6"]
    lines += [",".join(repr(float(v)) for v in row) for row in data]
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def datasets_dir(tmp_path):
    """Three scorable tables and one too narrow for any group to score."""
    gen = np.random.default_rng(505)
    folder = tmp_path / "datasets"
    folder.mkdir()
    for name, shape in [("d1", (30, 6)), ("d2", (30, 6)), ("d3", (30, 6)),
                        ("narrow", (3, 2))]:
        data = 10.0 ** gen.uniform(-1.0, 2.0, size=shape)
        lines = [",".join(f"x{j}" for j in range(shape[1]))]
        lines += [",".join(repr(float(v)) for v in row) for row in data]
        (folder / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return folder


class TestGenRef:
    def test_identity_reference_near_base_law(self):
        proc = run_cli("gen-ref", "--operator", "mean", "--n", "1",
                       "--obs-len", "10", "--seed", "5", *FAST)
        assert proc.returncode == 0
        doc = out_json(proc)
        assert doc["operator"] == "mean"
        assert doc["entries_per_vector"] == 1
        assert doc["observed_len_bucket"] == 10
        assert 0.0 <= doc["calibration_floor"] < 1.0
        assert len(doc["checksum"]) == 64
        tv = 0.5 * float(np.abs(np.asarray(doc["pmf"]) - benford_pmf()).sum())
        assert tv < 0.05

    def test_byte_identical_reruns(self):
        args = ("gen-ref", "--operator", "std", "--n", "5", "--seed", "7", *FAST)
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_text_format(self):
        proc = run_cli("gen-ref", "--operator", "mean", "--seed", "5",
                       "--format", "text", *FAST)
        text = proc.stdout.decode()
        assert "operator: mean" in text
        assert "calibration floor:" in text
        assert "checksum:" in text

    def test_cache_flag_persists_and_short_circuits(self, tmp_path):
        cache = tmp_path / "refs.json"
        first = run_cli("gen-ref", "--operator", "mean", "--seed", "5",
                        "--cache", str(cache), *FAST)
        assert first.returncode == 0
        assert first.stderr == b""
        stored = cache.read_bytes()
        # Same knobs: the cached entry is printed and the file is not rewritten.
        same = run_cli("gen-ref", "--operator", "mean", "--seed", "5",
                       "--cache", str(cache), *FAST)
        assert same.stdout == first.stdout
        assert cache.read_bytes() == stored
        # Another draw count: the output is what the command prints without a
        # cache, silently, and the rebuilt entry replaces the cached one.
        wider = ["gen-ref", "--operator", "mean", "--seed", "5",
                 "--draws", "4000", "--calibration-samples", "20"]
        again = run_cli(*wider, "--cache", str(cache))
        assert again.returncode == 0
        assert again.stdout == run_cli(*wider).stdout
        assert out_json(again)["mc_draws"] == 4000
        assert again.stderr == b""
        [entry] = json.loads(cache.read_text(encoding="utf-8"))["entries"]
        assert entry == out_json(again)

    def test_unknown_operator_exits_2(self):
        proc = run_cli("gen-ref", "--operator", "median", *FAST)
        assert proc.returncode == 2
        assert b"median" in proc.stderr

    @pytest.mark.parametrize("op", ["std", "ols_slope"])
    def test_single_entry_exits_2_naming_the_operator(self, op):
        # under the default knobs, and refused before any draw
        proc = run_cli("gen-ref", "--operator", op, "--n", "1")
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"error: {op} needs entries_per_vector >= 2 (it is undefined over one "
            "entry), got 1\n")

    def test_too_many_skips_exits_3(self, monkeypatch, capsys):
        def nothing_counted(values):
            return DigitHistogram([0] * 9), len(values)

        monkeypatch.setattr(reference, "histogram", nothing_counted)
        assert cli.main(["gen-ref", "--operator", "mean", "--n", "5", *FAST]) == 3
        assert capsys.readouterr().err == (
            "error: mean/n=5: 2000 of 2000 draws produced no digit\n")


class TestScoreStats:
    def test_thin_report_exits_5(self, tmp_path):
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({"source_id": "s",
                                    "groups": {"mean": [1.0, 2.0, 3.0]}}))
        proc = run_cli("score-stats", str(path), *FAST)
        assert proc.returncode == 5
        assert "mean" in proc.stderr.decode()

    def test_flagged_report_exits_4(self, report_dir):
        proc = run_cli("score-stats", str(report_dir / "b.json"), "--n", "10",
                       "--seed", "1729", "--draws", "5000",
                       "--calibration-samples", "50", "--flag-level", "0.9")
        assert proc.returncode == 4
        doc = out_json(proc)
        assert doc["flagged"] is True
        assert doc["source"] == "src-nines"
        assert doc["overall"] >= 0.9

    def test_unflagged_run_exits_0(self, report_dir):
        proc = run_cli("score-stats", str(report_dir / "a.json"), "--seed",
                       "1729", *FAST)
        assert proc.returncode == 0
        doc = out_json(proc)
        assert "flagged" not in doc
        assert 0.0 <= doc["overall"] <= 1.0

    def test_text_format_lists_thin_groups(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"source_id": "mixed", "groups": {
            "mean": [1.2, 2.3, 1.7, 3.1, 9.4, 1.05, 4.2, 5.9], "std": [1.5, 2.5]}}))
        args = ("score-stats", str(path), "--n", "10", "--flag-level", "0.99", *FAST)
        doc = out_json(run_cli(*args))
        proc = run_cli(*args, "--format", "text")
        assert proc.returncode == (4 if doc["flagged"] else 0)
        [row] = doc["per_operator"]
        assert proc.stdout.decode().splitlines() == [
            "source: mixed",
            "operator        raw normalized  samples  skipped",
            f"mean       {row['raw_score']:>8.4f} {row['normalized_score']:>10.4f}"
            "        8        0",
            "insufficient: std (usable 2 < required 5)",
            f"overall: {doc['overall']:.4f}",
            f"flagged at 0.99: {'yes' if doc['flagged'] else 'no'}",
        ]

    def test_min_samples_moves_a_thin_group_to_insufficient(self, tmp_path):
        path = tmp_path / "six.json"
        path.write_text(json.dumps({"source_id": "six", "groups": {
            "mean": [1.2, 2.3, 1.7, 3.1, 9.4, 1.05, 4.2, 5.9],
            "std": [1.5, 2.5, 1.1, 3.7, 1.9, 6.2]}}))
        proc = run_cli("score-stats", str(path), "--min-samples", "7", *FAST)
        assert proc.returncode == 0, proc.stderr.decode()
        doc = out_json(proc)
        assert [row["operator"] for row in doc["per_operator"]] == ["mean"]
        assert doc["insufficient"] == [
            {"operator": "std", "usable": 6, "required": 7, "skipped": 0}]

    def test_invalid_flag_level_exits_2(self, report_dir):
        proc = run_cli("score-stats", str(report_dir / "a.json"),
                       "--flag-level", "1.5", *FAST)
        assert proc.returncode == 2

    def test_huge_integer_exits_2_naming_the_field(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"source_id": "s", "groups": {"mean": [1.5, 1'
                        + "0" * 400 + ']}}', encoding="utf-8")
        proc = run_cli("score-stats", str(path), *FAST)
        assert proc.returncode == 2
        assert "/groups/mean/1" in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr

    def test_deeply_nested_report_exits_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"source_id": "s", "groups": {"mean": ' + "[" * 100_000
                        + "]" * 100_000 + "}}", encoding="utf-8")
        proc = run_cli("score-stats", str(path), *FAST)
        assert proc.returncode == 2
        assert f"{path}: not valid JSON" in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr

    def test_deeply_nested_cache_exits_2(self, report_dir, tmp_path):
        cache = tmp_path / "deep.json"
        cache.write_text('{"version": 2, "entries": ' + "[" * 100_000
                         + "]" * 100_000 + "}", encoding="utf-8")
        proc = run_cli("score-stats", str(report_dir / "a.json"),
                       "--cache", str(cache), *FAST)
        assert proc.returncode == 2
        assert f"{cache}: not valid JSON" in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr

    def test_monte_carlo_cache_version_refused(self, report_dir, tmp_path):
        cache = tmp_path / "old.json"
        cache.write_text(json.dumps({"version": 1, "entries": []}), encoding="utf-8")
        proc = run_cli("score-stats", str(report_dir / "a.json"),
                       "--cache", str(cache), *FAST)
        assert proc.returncode == 2
        assert "cache version 1 is not supported" in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr


    @pytest.mark.parametrize("field,raw", [
        ("calibration_floor", "1" + "0" * 400),
        ("mc_draws", "Infinity"),
        ("operator", '["mean"]'),
        ("entries_per_vector", "[20]"),
        ("entries_per_vector", "20.7"),
        ("entries_per_vector", "true"),
        ("observed_len_bucket", "10.0"),
        ("mc_draws", "-1"),
        ("calibration_samples", "0"),
        ("seed", "-5"),
        ("calibration_floor", "0"),
    ], ids=["huge-floor", "infinite-draws", "list-operator", "list-entries",
            "fractional-entries", "bool-entries", "float-obs-len", "negative-draws",
            "zero-samples", "negative-seed", "integer-floor"])
    def test_out_of_range_cache_entry_exits_2(self, report_dir, tmp_path, field, raw):
        entry = {"operator": "mean", "entries_per_vector": 20,
                 "observed_len_bucket": 10, "pmf": [float(p) for p in benford_pmf()],
                 "calibration_floor": 0.5, "mc_draws": 2000,
                 "calibration_samples": 20, "seed": 1729}
        entry[field] = json.loads(raw)
        entry["checksum"] = checksum(entry)
        cache = tmp_path / "bad.json"
        cache.write_text(json.dumps({"version": CACHE_VERSION, "entries": [entry]}),
                         encoding="utf-8")
        proc = run_cli("score-stats", str(report_dir / "a.json"), "--n", "20",
                       "--cache", str(cache), *FAST)
        assert proc.returncode == 2
        assert f"{cache}: entry 0: invalid cache entry" in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr

    def test_off_bucket_reference_never_reaches_the_cache(self, report_dir, tmp_path):
        cache = tmp_path / "refs.json"
        args = ("score-stats", str(report_dir / "a.json"), "--cache", str(cache), *FAST)
        first = run_cli(*args)
        assert first.returncode == 0
        before = cache.read_bytes()
        law = generate_reference(OperatorKind.MEAN, 7, seed=1729, mc_draws=2000)
        with pytest.raises(ValueError, match="entries_per_vector must be one of"):
            ReferenceCache(cache).store(calibrate_floor(law, observed_len=20,
                                                        null_samples=20))
        assert cache.read_bytes() == before
        again = run_cli(*args)
        assert again.returncode == 0, again.stderr.decode()
        assert again.stdout == first.stdout

    def test_duplicate_cache_key_exits_2_naming_both_entries(self, report_dir, tmp_path):
        entries = []
        for floor in (0.897, 0.5):
            entry = {"operator": "mean", "entries_per_vector": 10,
                     "observed_len_bucket": 20,
                     "pmf": [float(p) for p in benford_pmf()],
                     "calibration_floor": floor, "mc_draws": 2000,
                     "calibration_samples": 20, "seed": 1729}
            entry["checksum"] = checksum(entry)
            entries.append(entry)
        cache = tmp_path / "twice.json"
        cache.write_text(json.dumps({"version": CACHE_VERSION, "entries": entries}),
                         encoding="utf-8")
        proc = run_cli("score-stats", str(report_dir / "a.json"),
                       "--cache", str(cache), *FAST)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith(f"error: {cache}: entries 0 and 1 ")
        assert b"Traceback" not in proc.stderr


class TestScoreDataset:
    def test_scores_all_three_groups(self, csv_path):
        proc = run_cli("score-dataset", str(csv_path), "--seed", "3", *FAST)
        assert proc.returncode == 0
        doc = out_json(proc)
        assert doc["source"] == "table"
        assert doc["n_rows"] == 8
        assert doc["n_features"] == 6
        assert doc["dropped_columns"] == []
        ops = {row["operator"] for row in doc["per_operator"]}
        ops |= {row["operator"] for row in doc["insufficient"]}
        assert ops == {"mean", "std", "ols_slope"}

    def test_dropped_column_is_warned_without_verbose(self, csv_path, tmp_path):
        # a dropped column changes what gets scored, so it shows without -v
        path = tmp_path / "labelled.csv"
        rows = csv_path.read_text(encoding="utf-8").splitlines()
        labels = ["site"] + [f"s{i}" for i in range(len(rows) - 1)]
        path.write_text("".join(f"{row},{label}\n" for row, label in zip(rows, labels)),
                        encoding="utf-8")
        proc = run_cli("score-dataset", str(path), "--seed", "3", *FAST)
        assert proc.returncode == 0
        assert out_json(proc)["dropped_columns"] == ["site"]
        assert proc.stderr.decode().splitlines() == [
            "WARNING digit_forensics.ingest: labelled.csv: dropped non-numeric columns: site"]

    def test_text_format_renders_summary(self, csv_path):
        proc = run_cli("score-dataset", str(csv_path), "--seed", "3",
                       "--format", "text", *FAST)
        assert proc.returncode == 0
        assert "overall:" in proc.stdout.decode()

    @pytest.mark.parametrize("option,value,message", [
        ("--decimal-separator", "e", "decimal separator must not be 'e'"),
        ("--decimal-separator", "E", "decimal separator must not be 'E'"),
        ("--decimal-separator", "1", "decimal separator must not be '1'"),
        ("--decimal-separator", "+", "decimal separator must not be '+'"),
        ("--decimal-separator", "-", "decimal separator must not be '-'"),
        ("--decimal-separator", '"', "decimal separator must not be '\"'"),
        ("--decimal-separator", ",", "decimal separator must differ from the delimiter"),
        ("--delimiter", '"', "delimiter must not be '\"'"),
        ("--delimiter", "\n", "delimiter must not be '\\n'"),
        ("--delimiter", "\r", "delimiter must not be '\\r'"),
    ], ids=["decimal-e", "decimal-E", "decimal-digit", "decimal-plus", "decimal-minus",
            "decimal-quote", "decimal-is-delimiter", "delimiter-quote",
            "delimiter-newline", "delimiter-return"])
    def test_separator_that_corrupts_numbers_exits_2(self, csv_path, option, value,
                                                     message):
        proc = run_cli("score-dataset", str(csv_path), f"{option}={value}", *FAST)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith(f"error: {message}")
        assert b"Traceback" not in proc.stderr

    def test_semicolon_delimiter_with_decimal_comma(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("\n".join(PINNED_ROWS) + "\n", encoding="utf-8")
        path = tmp_path / "semicolon.csv"
        path.write_text("\n".join(row.replace(",", ";").replace(".", ",")
                                  for row in PINNED_ROWS) + "\n", encoding="utf-8")
        proc = run_cli("score-dataset", str(path), "--delimiter", ";",
                       "--decimal-separator", ",", "--seed", "3", *FAST)
        assert proc.returncode == 0
        doc = out_json(proc)
        assert doc["n_features"] == 6 and doc["dropped_columns"] == []
        expected = out_json(run_cli("score-dataset", str(plain), "--seed", "3", *FAST))
        assert dict(doc, source=None) == dict(expected, source=None)

    def test_pair_cap_limits_the_slopes(self, csv_path):
        proc = run_cli("score-dataset", str(csv_path), "--pair-cap", "3",
                       "--min-samples", "1", "--seed", "3", *FAST)
        assert proc.returncode == 0, proc.stderr.decode()
        [slope] = [row for row in out_json(proc)["per_operator"]
                   if row["operator"] == "ols_slope"]
        assert 1 <= slope["sample_count"] <= 3

    def test_no_header_reads_the_first_line_as_data(self, csv_path, tmp_path):
        path = tmp_path / "headless.csv"
        path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[1:]))
        args = ("score-dataset", str(path), "--seed", "3", *FAST)
        with_header = out_json(run_cli(*args))
        without = out_json(run_cli(*args, "--no-header"))
        assert without["n_rows"] == with_header["n_rows"] + 1 == 8

    def test_missing_file_exits_2(self, tmp_path):
        proc = run_cli("score-dataset", str(tmp_path / "absent.csv"), *FAST)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error:")

    @pytest.mark.parametrize("option,value,field", [
        ("--delimiter", "", "delimiter"),
        ("--delimiter", ";;", "delimiter"),
        ("--decimal-separator", "", "decimal separator"),
        ("--decimal-separator", ",,", "decimal separator"),
    ], ids=["", ";;", "decimal-separator-empty", "decimal-separator-,,"])
    def test_bad_delimiter_exits_2_naming_the_field(self, csv_path, option, value,
                                                    field):
        proc = run_cli("score-dataset", str(csv_path), f"{option}={value}", *FAST)
        assert proc.returncode == 2
        assert f"{field} must be a single character" in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr

    def test_undecodable_csv_exits_2_naming_the_file(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n1.5,2\n3.\xff,4\n")
        proc = run_cli("score-dataset", str(path), *FAST)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith(f"error: {path}: ")
        assert b"Traceback" not in proc.stderr


class TestValidate:
    FAST_VALIDATE = ["--draws", "3000", "--calibration-samples", "30"]

    def test_synthetic_round_trip(self, tmp_path):
        out = tmp_path / "result.json"
        args = ("validate", "--synthetic", "4", "--seed", "11",
                "--out", str(out), *self.FAST_VALIDATE)
        proc = run_cli(*args)
        assert proc.returncode == 0
        doc = out_json(proc)
        confusion = doc["confusion"]
        assert sum(confusion.values()) == 4
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert len(doc["per_dataset"]) == 4
        assert out.read_bytes() == proc.stdout
        assert run_cli(*args).stdout == proc.stdout

    def test_datasets_dir_as_json_and_text(self, datasets_dir):
        args = ("validate", "--datasets-dir", str(datasets_dir), "--seed", "11",
                *self.FAST_VALIDATE)
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr.decode()
        doc = out_json(proc)
        assert sum(doc["confusion"].values()) + len(doc["excluded"]) == 4
        assert [row["name"] for row in doc["per_dataset"]] == ["d1", "d2", "d3"]
        assert [row["name"] for row in doc["excluded"]] == ["narrow"]
        proc = run_cli(*args, "--format", "text")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        confusion, [excluded] = doc["confusion"], doc["excluded"]
        assert lines[0].split() == ["pred.", LABEL_CLEAN, "pred.", LABEL_MANIPULATED]
        assert lines[1].split() == ["true", LABEL_CLEAN,
                                    str(confusion["tp"]), str(confusion["fn"])]
        assert lines[2].split() == ["true", LABEL_MANIPULATED,
                                    str(confusion["fp"]), str(confusion["tn"])]
        assert lines[3:] == [
            f"accuracy: {doc['accuracy']:.4f}",
            f"F1 {LABEL_CLEAN}: {doc['f1'][LABEL_CLEAN]:.4f}",
            f"F1 {LABEL_MANIPULATED}: {doc['f1'][LABEL_MANIPULATED]:.4f}",
            f"decision threshold: {doc['decision_threshold']}",
            f"excluded: narrow ({excluded['reason']})",
        ]

    def test_threshold_reaches_the_result(self):
        proc = run_cli("validate", "--synthetic", "2", "--seed", "11",
                       "--threshold", "0.3", *self.FAST_VALIDATE)
        assert proc.returncode == 0, proc.stderr.decode()
        assert out_json(proc)["decision_threshold"] == 0.3
        proc = run_cli("validate", "--synthetic", "2", "--threshold", "1",
                       *self.FAST_VALIDATE)
        assert proc.returncode == 2
        assert "argument --threshold" in proc.stderr.decode()

    def test_odd_corpus_exits_2(self):
        proc = run_cli("validate", "--synthetic", "3", *self.FAST_VALIDATE)
        assert proc.returncode == 2
        assert "even" in proc.stderr.decode()

    def test_every_dataset_excluded_exits_5_naming_the_first(self):
        proc = run_cli("validate", "--synthetic", "4", "--min-samples", "1000",
                       *self.FAST_VALIDATE)
        assert proc.returncode == 5
        assert proc.stdout == b""
        stderr = proc.stderr.decode()
        assert stderr.startswith(
            "error: all 4 datasets were excluded; the first, synthetic-0000: ")
        assert "Traceback" not in stderr

    def test_empty_datasets_dir_exits_2(self, tmp_path):
        proc = run_cli("validate", "--datasets-dir", str(tmp_path),
                       *self.FAST_VALIDATE)
        assert proc.returncode == 2

    def test_source_options_mutually_exclusive(self, tmp_path):
        proc = run_cli("validate", "--synthetic", "4", "--datasets-dir",
                       str(tmp_path), *self.FAST_VALIDATE)
        assert proc.returncode == 2
        assert run_cli("validate", *self.FAST_VALIDATE).returncode == 2


class TestScanCorpus:
    def test_scan_with_levels_and_out_file(self, report_dir, tmp_path):
        out = tmp_path / "scan.json"
        args = ("scan-corpus", str(report_dir), "--seed", "1729", "--n", "10",
                "--levels", "0.5", "0.9", "--out", str(out), *FAST)
        proc = run_cli(*args)
        assert proc.returncode == 0
        doc = out_json(proc)
        assert doc["levels"] == [0.5, 0.9]
        assert doc["unscorable"] == ["src-thin"]
        assert [s["source_id"] for s in doc["scores"]] == ["src-nines", "src-ok"]
        counts = [row["flagged_count"] for row in doc["rows"]]
        assert counts == sorted(counts, reverse=True)
        assert out.read_bytes() == proc.stdout
        assert run_cli(*args).stdout == proc.stdout

    def test_text_format_lists_flags_and_unscorable(self, report_dir):
        args = ("scan-corpus", str(report_dir), "--seed", "1729", "--n", "10",
                "--levels", "0.5", "0.9", *FAST)
        doc = out_json(run_cli(*args))
        proc = run_cli(*args, "--format", "text")
        assert proc.returncode == 0
        assert proc.stdout.decode().splitlines() == [
            " level  flagged  ids",
            *(f"{row['confidence_level']:>6.2f} {row['flagged_count']:>8}  "
              + ", ".join(row["flagged_ids"]) for row in doc["rows"]),
            "unscorable: src-thin",
        ]

    def test_malformed_report_exits_2(self, tmp_path):
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "bad.json").write_text("{broken", encoding="utf-8")
        proc = run_cli("scan-corpus", str(reports), *FAST)
        assert proc.returncode == 2

    @pytest.mark.parametrize("make", [False, True], ids=["missing", "empty"])
    def test_missing_or_empty_dir_exits_2(self, tmp_path, make):
        reports = tmp_path / "reports"
        if make:
            reports.mkdir()
        proc = run_cli("scan-corpus", str(reports), *FAST)
        assert proc.returncode == 2
        assert str(reports) in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr


class TestParser:
    def test_no_command_exits_2(self):
        assert run_cli().returncode == 2

    @pytest.mark.parametrize("argv", [["score-stats", "report.json"],
                                      ["scan-corpus", "reports"]])
    def test_reports_n_default_is_scan_corpus_default(self, argv):
        default = inspect.signature(scan_corpus).parameters["entries_per_vector"].default
        assert build_parser().parse_args(argv).n == default == DEFAULT_REPORT_ENTRIES

    def test_import_loads_no_scipy(self):
        # start-up time dominates one-off CLI calls; scoring needs numpy only,
        # and the package needs no concurrent.futures at all
        code = ("import sys, digit_forensics.cli; "
                "sys.exit(any(m.split('.')[0] == 'scipy' or m == 'concurrent.futures' "
                "for m in sys.modules))")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_noise_defaults_are_read_from_noise_spec(self, monkeypatch):
        monkeypatch.setattr(NoiseSpec, "min_fraction", 0.02)
        monkeypatch.setattr(NoiseSpec, "max_fraction", 0.2)
        args = build_parser().parse_args(["validate", "--synthetic", "2"])
        assert (args.noise_min, args.noise_max) == (0.02, 0.2)

    @pytest.mark.parametrize("argv,message", [
        (["--noise-min", "5"], "argument --noise-min: expected a value in [0, 1), got '5'"),
        (["--noise-min", "nan"], "argument --noise-min: expected a value in [0, 1), got 'nan'"),
        (["--noise-min", "-1"], "argument --noise-min: expected a value in [0, 1), got '-1'"),
        (["--noise-max", "1"], "argument --noise-max: expected a value in [0, 1), got '1'"),
        (["--noise-min", "0.2", "--noise-max", "0.1"],
         "error: --noise-min 0.2 is above --noise-max 0.1"),
    ], ids=["above-one", "nan", "negative", "max-one", "min-above-max"])
    def test_bad_noise_exits_2_naming_the_option(self, argv, message):
        proc = run_cli("validate", "--synthetic", "2", *FAST, *argv)
        assert proc.returncode == 2
        assert message in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("option,value,message", [
        ("--seed", "-1", "argument --seed: expected a non-negative integer, got '-1'"),
        ("--draws", "999", "argument --draws: expected an integer >= 1000, got '999'"),
        ("--seed", "x", "argument --seed: expected a non-negative integer, got 'x'"),
        ("--n", "x", "argument --n: expected a positive integer, got 'x'"),
        ("--draws", "1.5", "argument --draws: expected an integer >= 1000, got '1.5'"),
        ("--flag-level", "x", "argument --flag-level: expected a value in (0, 1), got 'x'"),
    ], ids=["seed", "draws", "text-seed", "text-n", "fractional-draws", "text-flag-level"])
    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "filled-cache"])
    def test_bad_knob_exits_2_naming_the_option(self, report_dir, tmp_path, cached,
                                                option, value, message):
        args = ["score-stats", str(report_dir / "a.json"), *FAST]
        if cached:
            cache = tmp_path / "refs.json"
            args += ["--cache", str(cache)]
            assert run_cli(*args).returncode == 0
            assert cache.exists()
        proc = run_cli(*args, option, value)
        assert proc.returncode == 2
        assert message in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr

    def test_verbose_logs_exclusions(self, report_dir):
        args = ["scan-corpus", str(report_dir), "--seed", "1729", *FAST]
        quiet, loud, louder = run_cli(*args), run_cli(*args, "-v"), run_cli(*args, "-vv")
        line = "INFO digit_forensics.harness: unscorable report src-thin: "
        assert quiet.returncode == loud.returncode == louder.returncode == 0
        assert line not in quiet.stderr.decode()
        assert line in loud.stderr.decode()
        assert louder.stderr == loud.stderr
        assert quiet.stdout == loud.stdout == louder.stdout

    @pytest.mark.parametrize("command", ["gen-ref", "score-dataset",
                                         "score-stats", "validate",
                                         "scan-corpus"])
    def test_help_exits_0(self, command):
        proc = run_cli(command, "--help")
        assert proc.returncode == 0
        assert b"--seed" in proc.stdout


PINNED_ROWS = [
    "x1,x2,x3,x4,x5,x6",
    "1.27,38.4,0.0562,912,0.73,15.2",
    "2.81,17.9,0.0131,4470,5.9,2.48",
    "0.945,264,0.771,1580,1.36,0.614",
    "13.6,5.02,0.0248,731,22.4,3.07",
    "3.3,91.7,0.318,2260,2.05,1.92",
    "1.08,12.5,0.0093,6040,0.418,7.55",
    "7.14,44.1,0.157,389,3.86,11.3",
    "1.92,203,0.0417,1125,1.19,0.287",
    "26.5,8.66,0.0689,3310,64.7,4.61",
    "4.47,29.3,0.214,857,8.02,1.44",
    "1.55,61.8,0.0352,1940,1.71,0.935",
    "9.81,3.74,0.482,5120,12.9,2.63",
]

# sha256 over label, exit code and stdout of each run in test_outputs_are_pinned,
# recorded with numpy 2.4.6. It is the same with numpy's AVX-512 paths switched
# off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), because no run
# here draws a synthetic corpus.
PINNED_OUTPUT_DIGESTS = {
    "8fc37e8a8bf485a5c3ef71f1dda34d3d21d143191ea8bcea9690c30fbae089f6",
}


def test_outputs_are_pinned(report_dir, tmp_path):
    """stdout and exit codes of a fixed set of runs stay byte-identical.

    A refactor that keeps results must keep this digest.
    """
    table = tmp_path / "pinned.csv"
    table.write_text("\n".join(PINNED_ROWS) + "\n", encoding="utf-8")
    knobs = ["--seed", "1729", "--draws", "2000", "--calibration-samples", "50"]
    runs = [(f"gen-ref {op}", ["gen-ref", "--operator", op, "--n", "5"])
            for op in ("mean", "std", "ols_slope")]
    runs += [
        ("score-dataset json", ["score-dataset", str(table)]),
        ("score-dataset text", ["score-dataset", str(table), "--format", "text",
                                "--flag-level", "0.1"]),
        ("score-stats", ["score-stats", str(report_dir / "b.json"), "--n", "10",
                         "--flag-level", "0.9"]),
        ("scan-corpus", ["scan-corpus", str(report_dir), "--n", "10"]),
    ]
    digest = hashlib.sha256()
    for label, args in runs:
        proc = run_cli(*args, *knobs)
        assert b"Traceback" not in proc.stderr, label
        digest.update(f"{label}\0{proc.returncode}\0".encode())
        digest.update(proc.stdout)
    assert digest.hexdigest() in PINNED_OUTPUT_DIGESTS


# sha256 of the cache file that test_cache_file_is_pinned builds, recorded with
# numpy 2.4.6 before the cache kept parsed references instead of raw entries.
PINNED_CACHE_DIGEST = "1a3d605273c4d0f6861a1025db396a8bebf0f29907ef8f5f4046ce86393d15dd"


def test_cache_file_is_pinned(tmp_path):
    """Each gen-ref run reads, merges and rewrites one cache file; its bytes stay fixed."""
    cache = tmp_path / "refs.json"
    for op in ("mean", "std", "ols_slope"):
        proc = run_cli("gen-ref", "--operator", op, "--n", "5", "--obs-len", "20",
                       "--draws", "2000", "--calibration-samples", "50",
                       "--cache", str(cache))
        assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == PINNED_CACHE_DIGEST
