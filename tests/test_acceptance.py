"""End-to-end acceptance gate.

Each test exercises one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line (bypassing capture) so a plain pytest run
yields one visible verdict per criterion.
"""
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from digit_forensics import (
    ConfusionMatrix,
    DigitHistogram,
    NoiseSpec,
    OperatorKind,
    ReferenceStore,
    benford_pmf,
    build_flag_table,
    confusion_metrics,
    generate_reference,
    ks_p_value,
    run_validation,
    score_groups,
    synthetic_corpus,
)
from digit_forensics.rng import substream
from digit_forensics.scoring import ks_distances

PRODUCTION_SEED = 1729


@pytest.fixture(scope="module")
def production_store():
    return ReferenceStore(seed=PRODUCTION_SEED, mc_draws=100_000,
                          calibration_samples=1000)


def report(capsys, number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} {verdict}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_base_law_exact(capsys):
    pmf = benford_pmf()
    worst = max(abs(float(pmf[d - 1]) - math.log10(1.0 + 1.0 / d))
                for d in range(1, 10))
    sum_err = abs(float(pmf.sum()) - 1.0)
    report(capsys, 1, worst <= 1e-12 and sum_err <= 1e-12,
           f"first-digit law exact (max cell error {worst:.2e}, "
           f"sum error {sum_err:.2e}, tolerance 1e-12)")


def test_criterion_2_identity_reference(capsys):
    ref = generate_reference(OperatorKind.MEAN, 1, seed=2026, mc_draws=100_000)
    tv = 0.5 * float(np.abs(np.asarray(ref.pmf) - benford_pmf()).sum())
    report(capsys, 2, tv <= 0.01,
           f"mean-of-one reference vs base law: TV {tv:.5f} <= 0.01 "
           f"at {ref.mc_draws} draws")


def test_criterion_3_ks_p_matches_enumeration(capsys):
    started = time.time()
    pmf = np.asarray(benford_pmf())
    worst_diff = 0.0
    checked = 0
    for total in range(1, 6):
        counts_list = []
        for combo in itertools.combinations_with_replacement(range(9), total):
            counts_list.append(np.bincount(combo, minlength=9))
        counts = np.asarray(counts_list)
        log_coeff = [math.factorial(total)
                     / math.prod(math.factorial(int(k)) for k in row)
                     for row in counts]
        probs = np.asarray([c * math.prod(p ** int(k) for p, k in zip(pmf, row))
                            for c, row in zip(log_coeff, counts)])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        distances = ks_distances(counts, pmf)
        exact_tails = (distances[None, :] >= distances[:, None]) @ probs
        for i, row in enumerate(counts):
            exact = ks_p_value(DigitHistogram(row), pmf)
            worst_diff = max(worst_diff, abs(exact - exact_tails[i]))
            checked += 1
    elapsed = time.time() - started
    report(capsys, 3, worst_diff <= 0.02,
           f"exact p vs exhaustive enumeration over {checked} "
           f"histograms (totals 1-5): max |diff| {worst_diff:.1e} <= 0.02 "
           f"({elapsed:.1f}s)")


def test_criterion_4_confusion_metrics_reproduction(capsys):
    accuracy, (_, f1_manipulated) = confusion_metrics(
        ConfusionMatrix(tp=43, fn=7, fp=14, tn=36))
    ok = accuracy == 0.79 and abs(f1_manipulated - 0.774) <= 0.005
    report(capsys, 4, ok,
           f"counts (43,7,14,36): accuracy {accuracy} (= 0.79 exactly), "
           f"manipulated-class F1 {f1_manipulated:.4f} within 0.774 +/- 0.005")


def test_criterion_5_noise_injection_validation(capsys, production_store):
    started = time.time()
    accuracies = []
    for seed in (1, 2, 3, 4, 5):
        datasets = synthetic_corpus(100, seed=seed)
        spec = NoiseSpec(min_fraction=0.01, max_fraction=0.10, seed=seed)
        result = run_validation(datasets, spec, store=production_store,
                                seed=seed)
        accuracies.append(result.accuracy)
    mean_accuracy = sum(accuracies) / len(accuracies)
    elapsed = time.time() - started
    per_seed = "/".join(f"{a:.3f}" for a in accuracies)
    report(capsys, 5, mean_accuracy >= 0.70 and elapsed < 600,
           f"100 synthetic datasets, 1-10% noise, threshold 0.5: mean "
           f"accuracy {mean_accuracy:.4f} >= 0.70 over seeds 1-5 "
           f"({per_seed}), {elapsed:.0f}s < 600s")


def test_criterion_6_flag_table_monotonicity(capsys):
    gen = np.random.default_rng(606)
    stock_levels = (0.90, 0.92, 0.94, 0.96, 0.98)
    trials = 0
    monotone = True
    for k in range(40):
        n = int(gen.integers(1, 60))
        if k % 2 == 0:
            levels = stock_levels
        else:
            raw = np.unique(gen.uniform(0.02, 0.98,
                                        size=int(gen.integers(1, 7))))
            levels = tuple(float(v) for v in raw)
        scores = np.concatenate([gen.uniform(0, 1, n),
                                 gen.choice(np.asarray(levels), size=3)])
        table = build_flag_table(
            {f"r{i}": float(s) for i, s in enumerate(scores)}, levels)
        counts = [row.flagged_count for row in table.rows]
        monotone = monotone and counts == sorted(counts, reverse=True)
        trials += 1
    report(capsys, 6, monotone,
           f"flagged counts non-increasing in confidence level across "
           f"{trials} random corpora (including levels 0.90-0.98)")


def test_criterion_7_null_calibration_sanity(capsys, production_store):
    ref = production_store.get(OperatorKind.MEAN, entries_per_vector=10,
                               observed_len=20)
    digits = np.arange(1.0, 10.0)
    below_half = 0
    at_floor = 0
    zero_when_under = True
    for i in range(200):
        values = substream(31337, i).choice(digits, size=20, p=ref.pmf)
        [outcome] = score_groups({"mean": values}, 10, production_store).per_operator
        below_half += outcome.normalized_score < 0.5
        if outcome.raw_score <= ref.calibration_floor:
            at_floor += 1
            zero_when_under = zero_when_under and outcome.normalized_score == 0.0
    fraction = below_half / 200
    ok = fraction >= 0.90 and zero_when_under and at_floor > 0
    report(capsys, 7, ok,
           f"200 fresh conforming sets: {fraction:.1%} normalized < 0.5 "
           f"(>= 90% required); all {at_floor} raw scores <= floor "
           f"{ref.calibration_floor:.4f} normalized to exactly 0")


def test_criterion_8_cli_byte_determinism(capsys, tmp_path):
    reports = tmp_path / "reports"
    reports.mkdir()
    for i in range(3):
        doc = {"source_id": f"src-{i}",
               "groups": {"mean": [1.2, 2.3, 1.7, 3.1, 9.4, 1.05, 4.2,
                                   5.9 + i]}}
        (reports / f"r{i}.json").write_text(json.dumps(doc), encoding="utf-8")
    commands = {
        "gen-ref": ["gen-ref", "--operator", "mean", "--n", "1", "--obs-len",
                    "10", "--seed", "1729", "--draws", "20000",
                    "--calibration-samples", "200"],
        "validate": ["validate", "--synthetic", "6", "--seed", "11",
                     "--draws", "5000", "--calibration-samples", "50"],
        "scan-corpus": ["scan-corpus", str(reports), "--seed", "1729",
                        "--draws", "5000", "--calibration-samples", "50"],
    }
    identical = True
    for name, args in commands.items():
        runs = [subprocess.run([sys.executable, "-W", "error", "-m", "digit_forensics",
                                *args], capture_output=True)
                for _ in range(2)]
        assert all(r.returncode == 0 for r in runs), runs[0].stderr.decode()
        identical = identical and runs[0].stdout == runs[1].stdout
    report(capsys, 8, identical,
           "gen-ref, validate, and scan-corpus each byte-identical across "
           "two runs at fixed seeds")
