import json
import os
import subprocess
import sys

import numpy as np
import pytest

from digit_forensics import benford_pmf
from digit_forensics.cache import CACHE_VERSION, checksum

FAST = ["--draws", "2000", "--calibration-samples", "20"]


def run_cli(*args, env_extra=None, cwd=None):
    env = {k: v for k, v in os.environ.items() if k != "DIGIT_FORENSICS_CACHE"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "digit_forensics", *args],
                          capture_output=True, env=env, cwd=cwd)


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
        assert cache.exists()
        # Different draw count, same cache: the cached entry must win.
        again = run_cli("gen-ref", "--operator", "mean", "--seed", "5",
                        "--cache", str(cache), "--draws", "4000",
                        "--calibration-samples", "20")
        assert out_json(again)["mc_draws"] == 2000
        assert again.stdout == first.stdout
        # ...and stderr says, once, which knobs it was built under
        assert first.stderr == b""
        [warning] = again.stderr.decode().splitlines()
        assert warning.startswith("WARNING digit_forensics.reference: ")
        assert "mean/n=1/obs=20" in warning
        assert "seed=5 draws=2000 calibration_samples=20" in warning
        assert "seed=5 draws=4000 calibration_samples=20" in warning

    def test_env_var_overrides_cache_flag(self, tmp_path):
        via_env = tmp_path / "env.json"
        via_flag = tmp_path / "flag.json"
        proc = run_cli("gen-ref", "--operator", "mean", "--seed", "5",
                       "--cache", str(via_flag), *FAST,
                       env_extra={"DIGIT_FORENSICS_CACHE": str(via_env)})
        assert proc.returncode == 0
        assert via_env.exists()
        assert not via_flag.exists()

    def test_unknown_operator_exits_2(self):
        proc = run_cli("gen-ref", "--operator", "median", *FAST)
        assert proc.returncode == 2
        assert b"median" in proc.stderr

    def test_degenerate_generation_exits_3(self):
        proc = run_cli("gen-ref", "--operator", "std", "--n", "1", *FAST)
        assert proc.returncode == 3
        assert proc.stderr.decode().startswith("error:")


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
    ], ids=["huge-floor", "infinite-draws"])
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
        assert "invalid cache entry" in proc.stderr.decode()
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

    def test_text_format_renders_summary(self, csv_path):
        proc = run_cli("score-dataset", str(csv_path), "--seed", "3",
                       "--format", "text", *FAST)
        assert proc.returncode == 0
        assert "overall:" in proc.stdout.decode()

    def test_missing_file_exits_2(self, tmp_path):
        proc = run_cli("score-dataset", str(tmp_path / "absent.csv"), *FAST)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error:")

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_bad_delimiter_exits_2_naming_the_field(self, csv_path, delimiter):
        proc = run_cli("score-dataset", str(csv_path), f"--delimiter={delimiter}", *FAST)
        assert proc.returncode == 2
        assert "delimiter" in proc.stderr.decode()
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

    def test_odd_corpus_exits_2(self):
        proc = run_cli("validate", "--synthetic", "3", *self.FAST_VALIDATE)
        assert proc.returncode == 2
        assert "even" in proc.stderr.decode()

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

    def test_import_loads_no_scipy(self):
        # start-up time dominates one-off CLI calls; scoring needs numpy only
        code = ("import sys, digit_forensics.cli; "
                "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    @pytest.mark.parametrize("command", ["gen-ref", "score-dataset",
                                         "score-stats", "validate",
                                         "scan-corpus"])
    def test_help_exits_0(self, command):
        proc = run_cli(command, "--help")
        assert proc.returncode == 0
        assert b"--seed" in proc.stdout
