import csv
import json
import tracemalloc

import numpy as np
import pytest

from digit_forensics import (
    MalformedCsv,
    NoNumericColumns,
    OperatorKind,
    SchemaViolation,
    UnknownOperator,
    compute_stats,
    load_csv,
    load_report,
)
from digit_forensics.ingest import DEFAULT_PAIR_CAP, DatasetMatrix
from digit_forensics.rng import STREAM_PAIRS, substream


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# Cells float() reads, then cells it refuses; the last one float() reads only
# once str.strip has removed its separator characters.
FLOAT_CELLS = [
    "1.5", "-4e2", " 2 ", "+3", ".5", "5.", "1_000", "\u0661\u0662", "\u0663.\u0665", " 1",
    "1.5\xa0", "inf", "-Infinity", "iNfInItY", "infinity", "Inf ", "nan", "NaN", "1e400",
    "1e-400", "4.9e-324",
    "", "  ", "abc", "1e", "0x10", "1,5", "1__0", "_1", "1d5", "0b1", "1j", "+-1",
    "nan(123)",
    "\x1f2\x1c",
]


def matrix(*cols, name="t"):
    arrays = [(f"f{i + 1}", np.asarray(c, dtype=float))
              for i, c in enumerate(cols)]
    return DatasetMatrix(name=name, columns=arrays)


class TestLoadCsv:
    def test_two_column_header_file(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        m = load_csv(path)
        assert [label for label, _ in m.columns] == ["a", "b"]
        assert m.n_rows == 2
        stats = compute_stats(m)
        assert stats.means.tolist() == [2.0, 3.0]

    def test_text_column_dropped_with_warning(self, tmp_path, caplog):
        path = write_csv(tmp_path, "x,label,y\n1,apple,4\n2,pear,5\n3,plum,6\n")
        with caplog.at_level("WARNING"):
            m = load_csv(path)
        assert m.n_features == 2
        assert m.dropped == ["label"]
        assert "label" in caplog.text

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(MalformedCsv, match="empty"):
            load_csv(path)

    def test_empty_first_line(self, tmp_path):
        path = write_csv(tmp_path, "\n1,2\n3,4\n")
        with pytest.raises(MalformedCsv, match="line 1: no fields"):
            load_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(MalformedCsv, match="line 3"):
            load_csv(path)

    def test_all_text_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\nfoo,bar\nbaz,qux\n")
        with pytest.raises(NoNumericColumns):
            load_csv(path)

    def test_single_data_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(NoNumericColumns):
            load_csv(path)

    def test_no_header_mode(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,4\n")
        m = load_csv(path, header=False)
        assert [label for label, _ in m.columns] == ["col_1", "col_2"]
        assert m.n_rows == 2

    def test_custom_delimiter_and_decimal_separator(self, tmp_path):
        path = write_csv(tmp_path, "a;b\n1,5;2,25\n3,5;4,75\n")
        m = load_csv(path, delimiter=";", decimal_separator=",")
        assert m.columns[0][1].tolist() == [1.5, 3.5]
        assert m.columns[1][1].tolist() == [2.25, 4.75]

    @pytest.mark.parametrize("kwargs", [
        {"decimal_separator": "e"}, {"decimal_separator": "5"},
        {"decimal_separator": "-"}, {"decimal_separator": ","},
        {"delimiter": '"'}, {"delimiter": "\n"}, {"delimiter": ";", "decimal_separator": ";"},
    ], ids=["decimal-e", "decimal-digit", "decimal-minus", "decimal-is-delimiter",
            "delimiter-quote", "delimiter-newline", "both-semicolon"])
    def test_separator_that_corrupts_numbers_rejected(self, tmp_path, kwargs):
        # with "e" as decimal separator 1e5 would load as 1.5
        path = write_csv(tmp_path, "a,b\n1e5,2\n3e2,4\n")
        with pytest.raises(MalformedCsv, match="delimiter|decimal separator"):
            load_csv(path, **kwargs)

    def test_blank_and_non_finite_cells_become_nan(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,\n,inf\n3,9\n")
        m = load_csv(path)
        a, b = m.columns[0][1], m.columns[1][1]
        assert a[0] == 1.0 and np.isnan(a[1]) and a[2] == 3.0
        assert np.isnan(b[0]) and np.isnan(b[1]) and b[2] == 9.0

    def test_values_round_trip_exactly(self, tmp_path):
        values = [0.1234567890123456, 98765.43210987654, 1.234567890123456e-7,
                  -2.718281828459045]
        body = "\n".join(repr(v) for v in values)
        path = write_csv(tmp_path, f"v\n{body}\n")
        m = load_csv(path)
        assert m.columns[0][1].tolist() == values

    def test_name_defaults_to_stem(self, tmp_path):
        path = write_csv(tmp_path, "a\n1\n2\n", name="run7.csv")
        assert load_csv(path).name == "run7"

    @pytest.mark.parametrize("cell", FLOAT_CELLS, ids=ascii)
    def test_cell_reads_as_float_reads_it(self, tmp_path, cell):
        path = tmp_path / "cell.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["v"], [cell], ["1"]])
        text = cell.strip()
        try:
            expected = float(text) if text else float("nan")
        except ValueError:
            with pytest.raises(NoNumericColumns):
                load_csv(path)
            return
        column = load_csv(path).columns[0][1]
        assert column[1] == 1.0
        if np.isfinite(expected):
            assert float(column[0]).hex() == expected.hex()
        else:
            assert np.isnan(column[0])

    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    def test_utf8_bom_is_ignored(self, tmp_path, header):
        path = tmp_path / "bom.csv"
        text = ("a,b\n" if header else "") + "1,2\n3,4\n5,6\n"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        m = load_csv(path, header=header)
        assert m.dropped == []
        assert [label for label, _ in m.columns] == (["a", "b"] if header
                                                     else ["col_1", "col_2"])
        assert m.columns[0][1].tolist() == [1.0, 3.0, 5.0]


class TestComputeStats:
    def test_exact_linear_relation(self):
        stats = compute_stats(matrix([1, 2, 3], [2, 4, 6]))
        assert stats.means.tolist() == [2.0, 4.0]
        assert stats.stds.tolist() == [1.0, 2.0]
        by_pair = dict(zip(stats.slope_pairs, stats.slopes))
        assert by_pair[(0, 1)] == 2.0
        assert by_pair[(1, 0)] == 0.5

    @pytest.mark.parametrize("rows", [3, 7, 31])
    @pytest.mark.parametrize("value", [5.0, 0.1, 0.7, 3.3])
    def test_constant_feature_degenerate_as_regressor(self, value, rows):
        # the rounded mean of 0.1, 0.7 or 3.3 repeated misses the value
        stats = compute_stats(matrix([value] * rows, np.arange(1.0, rows + 1)))
        assert stats.stds[0] == 0.0
        assert (0, 1) in stats.degenerate_pairs
        by_pair = dict(zip(stats.slope_pairs, stats.slopes))
        assert by_pair[(1, 0)] == 0.0  # constant response: flat slope

    def test_constant_feature_with_blanks(self):
        nan = float("nan")
        stats = compute_stats(matrix([3.3, nan, 3.3, 3.3, 3.3], [1, 2, nan, 4, 8]))
        assert stats.stds[0] == 0.0
        assert stats.degenerate_pairs == ((0, 1),)
        assert stats.slopes.tolist() == [0.0]

    def test_pair_cap_subsamples_reproducibly(self):
        m = matrix([1, 2, 3], [2, 4, 6], [5, 1, 9])
        a = compute_stats(m, pair_cap=2, pair_seed=42)
        b = compute_stats(m, pair_cap=2, pair_seed=42)
        assert len(a.slopes) == 2
        assert a.slope_pairs == b.slope_pairs
        assert a.slopes.tolist() == b.slopes.tolist()

    def test_na_cells_deleted_pairwise(self):
        nan = float("nan")
        stats = compute_stats(matrix([1, 2, 3, nan], [2, 4, nan, 8]))
        assert stats.means[0] == 2.0
        assert stats.means[1] == pytest.approx(14.0 / 3.0)
        by_pair = dict(zip(stats.slope_pairs, stats.slopes))
        assert by_pair[(0, 1)] == 2.0  # only rows 0 and 1 are complete

    def test_column_order_insensitive_for_unary_stats(self):
        forward = compute_stats(matrix([1, 2, 3], [4, 5, 9]))
        backward = compute_stats(matrix([4, 5, 9], [1, 2, 3]))
        assert forward.means.tolist() == backward.means.tolist()[::-1]
        assert forward.stds.tolist() == backward.stds.tolist()[::-1]

    def test_scale_covariance_exact(self):
        base = compute_stats(matrix([10, 20, 30], [2, 4, 6]))
        scaled_x = compute_stats(matrix([100, 200, 300], [2, 4, 6]))
        scaled_y = compute_stats(matrix([10, 20, 30], [20, 40, 60]))
        assert scaled_x.means[0] == 10.0 * base.means[0]
        assert scaled_x.stds[0] == 10.0 * base.stds[0]
        pair = lambda s: dict(zip(s.slope_pairs, s.slopes))
        assert pair(base)[(0, 1)] == 0.2
        assert pair(scaled_x)[(0, 1)] == 0.02  # slope divides by the x factor
        assert pair(scaled_y)[(0, 1)] == 2.0  # slope multiplies by the y factor

    def test_scale_covariance_on_messy_floats(self):
        x = [1.7, 0.3, 2.9, 4.1]
        y = [0.9, 2.2, 1.4, 3.8]
        base = compute_stats(matrix(x, y))
        scaled = compute_stats(matrix([10 * v for v in x], y))
        pair = lambda s: dict(zip(s.slope_pairs, s.slopes))
        assert pair(scaled)[(0, 1)] == pytest.approx(pair(base)[(0, 1)] / 10,
                                                     rel=1e-12)

    def test_rejects_negative_pair_cap(self):
        with pytest.raises(ValueError):
            compute_stats(matrix([1, 2, 3]), pair_cap=-1)

    def test_rejects_ragged_columns(self):
        ragged = DatasetMatrix(name="ragged", columns=[("a", np.array([1.0, 2.0, 3.0])),
                                                       ("b", np.array([1.0, 2.0]))])
        with pytest.raises(ValueError):
            compute_stats(ragged)

    def test_wide_dataset_never_holds_every_pair(self):
        gen = np.random.default_rng(3)
        dataset = matrix(*gen.uniform(1.0, 2.0, size=(3000, 4)))
        tracemalloc.start()
        try:
            stats = compute_stats(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.slopes.size == DEFAULT_PAIR_CAP
        assert peak < 10 * 2**20

    def test_column_with_no_finite_cell(self):
        nan = float("nan")
        stats = compute_stats(matrix([nan, nan, nan], [1, 2, 4]))
        assert np.isnan(stats.means[0]) and np.isnan(stats.stds[0])
        assert stats.degenerate_pairs == ((0, 1), (1, 0))
        assert stats.slopes.size == 0


def loop_slopes(dataset, pair_cap, pair_seed):
    """The per-pair loop compute_stats used before it was batched."""
    values = [col for _, col in dataset.columns]
    f = len(values)
    pairs = [(j, k) for j in range(f) for k in range(f) if j != k]
    if len(pairs) > pair_cap:
        gen = substream(pair_seed, STREAM_PAIRS)
        keep = np.sort(gen.choice(len(pairs), size=pair_cap, replace=False))
        pairs = [pairs[int(i)] for i in keep]
    slopes, kept, degenerate = [], [], []
    for j, k in pairs:
        x, y = values[j], values[k]
        mask = np.isfinite(x) & np.isfinite(y)
        if int(mask.sum()) < 2:
            degenerate.append((j, k))
            continue
        xm = x[mask]
        ym = y[mask]
        xc = xm - xm.mean()
        denom = float((xc ** 2).sum())
        if denom == 0.0:
            degenerate.append((j, k))
            continue
        slopes.append(float((xc * (ym - ym.mean())).sum() / denom))
        kept.append((j, k))
    return slopes, tuple(kept), tuple(degenerate)


def random_dataset(seed, rows, features, blank_fraction):
    """Log-uniform columns with blanks, one constant column, one nearly empty."""
    gen = np.random.default_rng(seed)
    data = 10.0 ** (gen.integers(-3, 4, size=features)[None, :]
                    + gen.uniform(0.0, 3.0, size=(rows, features)))
    data[gen.random(size=data.shape) < blank_fraction] = np.nan
    if blank_fraction:
        data[:, 1] = 3.3
        data[1:, 2] = np.nan
    return matrix(*data.T, name=f"random-{seed}")


class TestComputeStatsMatchesLoop:
    @pytest.mark.parametrize("seed,rows,features,pair_cap", [
        (1, 20, 5, 200), (2, 200, 20, 200), (3, 57, 12, 40), (4, 3, 4, 200),
        (5, 1500, 30, 200), (6, 90, 9, 0),
        # pair grids of 1, 2, 3, 5, 20 and 31 features, whole and subsampled
        (21, 6, 1, 200), (22, 6, 2, 200), (23, 6, 3, 200), (24, 6, 3, 4), (25, 6, 5, 7),
        (26, 6, 20, 400), (27, 6, 31, 1000), (28, 6, 31, 200),
    ])
    def test_no_blanks_bit_identical(self, seed, rows, features, pair_cap):
        dataset = random_dataset(seed, rows, features, 0.0)
        stats = compute_stats(dataset, pair_cap=pair_cap, pair_seed=seed)
        slopes, kept, degenerate = loop_slopes(dataset, pair_cap, seed)
        assert stats.slope_pairs == kept
        assert stats.degenerate_pairs == degenerate
        assert stats.slopes.tolist() == slopes
        block = np.stack([col for _, col in dataset.columns])
        assert stats.means.tolist() == [col.mean() for col in block]
        assert stats.stds.tolist() == [col.std(ddof=1) for col in block]

    @pytest.mark.parametrize("seed,rows,features,pair_cap", [
        (11, 30, 6, 200), (12, 200, 20, 200), (13, 8000, 30, 200),
        (14, 5, 8, 200), (15, 400, 15, 50),
    ])
    def test_blanks_within_rounding(self, seed, rows, features, pair_cap):
        dataset = random_dataset(seed, rows, features, 0.05 if rows < 1000 else 0.001)
        stats = compute_stats(dataset, pair_cap=pair_cap, pair_seed=seed)
        slopes, kept, degenerate = loop_slopes(dataset, pair_cap, seed)
        # column 1 is constant: the loop scores its rounding noise as a
        # slope, the batched kernel marks it degenerate
        flat_x = tuple(p for p in kept if p[0] == 1)
        assert flat_x or rows < 10
        assert stats.slope_pairs == tuple(p for p in kept if p[0] != 1)
        assert stats.degenerate_pairs == tuple(sorted(degenerate + flat_x))
        expected = dict(zip(kept, slopes))
        for pair, slope in zip(stats.slope_pairs, stats.slopes):
            if pair[1] == 1:
                assert slope == 0.0
            else:
                assert slope == pytest.approx(expected[pair], rel=1e-11, abs=0)
        assert stats.stds[1] == 0.0
        for j, (_, col) in enumerate(dataset.columns):
            kept = col[np.isfinite(col)]
            assert stats.means[j] == pytest.approx(kept.mean(), rel=1e-13)
            if j == 2:  # a single finite cell has no sample std
                assert np.isnan(stats.stds[j])
            elif j != 1:
                assert stats.stds[j] == pytest.approx(kept.std(ddof=1), rel=1e-12)


class TestLoadReport:
    def write(self, tmp_path, doc, raw=None):
        path = tmp_path / "report.json"
        path.write_text(raw if raw is not None else json.dumps(doc),
                        encoding="utf-8")
        return path

    def test_minimal_valid_report(self, tmp_path):
        path = self.write(tmp_path, {"source_id": "study-1",
                                     "groups": {"mean": [12.3, 4.5]}})
        report = load_report(path)
        assert report.source_id == "study-1"
        assert report.groups == {OperatorKind.MEAN: [12.3, 4.5]}

    def test_all_groups_and_metadata(self, tmp_path):
        # metadata, like any other unknown key, is ignored whatever it holds
        for metadata in ({"journal": "J"}, 5):
            doc = {"source_id": "s", "metadata": metadata,
                   "groups": {"mean": [1], "std": [2.5], "ols_slope": [-3.0]}}
            report = load_report(self.write(tmp_path, doc))
            assert set(report.groups) == set(OperatorKind)
            assert report.groups[OperatorKind.OLS_SLOPE] == [-3.0]

    def test_unknown_group_name(self, tmp_path):
        doc = {"source_id": "s", "groups": {"median": [1.0]}}
        with pytest.raises(UnknownOperator, match="median"):
            load_report(self.write(tmp_path, doc))

    def test_non_numeric_entry_has_pointer(self, tmp_path):
        doc = {"source_id": "s", "groups": {"mean": [1.0, "two"]}}
        with pytest.raises(SchemaViolation) as err:
            load_report(self.write(tmp_path, doc))
        assert err.value.pointer == "/groups/mean/1"

    def test_boolean_entry_rejected(self, tmp_path):
        doc = {"source_id": "s", "groups": {"mean": [True]}}
        with pytest.raises(SchemaViolation):
            load_report(self.write(tmp_path, doc))

    def test_non_finite_entry_rejected(self, tmp_path):
        raw = '{"source_id": "s", "groups": {"mean": [Infinity]}}'
        with pytest.raises(SchemaViolation):
            load_report(self.write(tmp_path, None, raw=raw))

    def test_group_must_be_array(self, tmp_path):
        doc = {"source_id": "s", "groups": {"mean": 3.0}}
        with pytest.raises(SchemaViolation) as err:
            load_report(self.write(tmp_path, doc))
        assert err.value.pointer == "/groups/mean"

    @pytest.mark.parametrize("doc,pointer", [
        ({"groups": {"mean": [1.0]}}, "/source_id"),
        ({"source_id": "", "groups": {"mean": [1.0]}}, "/source_id"),
        ({"source_id": "s"}, "/groups"),
        ({"source_id": "s", "groups": {}}, "/groups"),
        ({"source_id": "s", "groups": []}, "/groups"),
    ])
    def test_schema_violations_carry_pointers(self, tmp_path, doc, pointer):
        with pytest.raises(SchemaViolation) as err:
            load_report(self.write(tmp_path, doc))
        assert err.value.pointer == pointer

    def test_invalid_json(self, tmp_path):
        with pytest.raises(SchemaViolation, match="JSON"):
            load_report(self.write(tmp_path, None, raw="{nope"))

    def test_top_level_must_be_object(self, tmp_path):
        with pytest.raises(SchemaViolation, match="object"):
            load_report(self.write(tmp_path, ["not", "a", "report"]))
