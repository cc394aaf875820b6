import numpy as np
import pytest

from digit_forensics import OperatorKind, UnknownOperator
from digit_forensics.operators import OPERATOR_ORDER, operator_index, row_means, row_moments


def test_serialized_names():
    assert [op.value for op in OPERATOR_ORDER] == ["mean", "std", "ols_slope"]


def test_from_name_round_trip():
    for op in OperatorKind:
        assert OperatorKind.from_name(op.value) is op


def test_from_name_unknown_lists_valid():
    with pytest.raises(UnknownOperator) as excinfo:
        OperatorKind.from_name("median")
    message = str(excinfo.value)
    assert "median" in message
    for name in ("mean", "std", "ols_slope"):
        assert name in message


def test_operator_index_positions():
    assert [operator_index(op) for op in OPERATOR_ORDER] == [0, 1, 2]


def rows(*values):
    return np.asarray(values, dtype=float)


def centred_slope(x, y):
    xc = x - x.mean()
    return (xc * (y - y.mean())).sum() / (xc ** 2).sum()


def test_mean_example():
    assert row_means(rows([2, 4, 6])).tolist() == [4.0]


def test_mean_single_value_is_identity():
    assert row_means(rows([7.25])).tolist() == [7.25]


def test_std_constant_is_zero():
    assert row_moments(rows([1, 1, 1])).std().tolist() == [0.0]


def test_std_uses_sample_denominator():
    values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    assert row_moments(rows(values)).std()[0] == np.std(values, ddof=1)


def test_slope_exact_linear():
    x = row_moments(rows([1, 2, 3]))
    assert x.slope(row_moments(rows([2, 4, 6]))).tolist() == [2.0]


def test_slope_matches_polyfit():
    rng = np.random.default_rng(3)
    x = rng.uniform(1, 50, 40)
    y = 3.5 * x + rng.normal(0, 2, 40)
    slope = row_moments(rows(x)).slope(row_moments(rows(y)))[0]
    assert slope == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-9)


# A statistic the kernel cannot form comes out as NaN rather than raising.
def test_mean_rejects_empty():
    m = row_moments(rows([1.0, np.nan]), np.zeros((1, 2), dtype=bool))
    assert m.count.tolist() == [0]
    assert np.isnan(m.mean[0])
    assert not m.dev.any()


def test_std_rejects_single():
    assert np.isnan(row_moments(rows([3.0])).std()[0])
    masked = row_moments(rows([3.0, 4.0]), np.asarray([[True, False]]))
    assert np.isnan(masked.std()[0])


def test_slope_rejects_zero_variance():
    x = row_moments(rows([5, 5, 5]))
    assert x.sum_squares().tolist() == [0.0]
    assert np.isnan(x.slope(row_moments(rows([1, 2, 3])))[0])


@pytest.mark.parametrize("value", [0.1, 0.7, 3.3, 5.0])
@pytest.mark.parametrize("n", [2, 3, 7, 31])
def test_flat_rows_have_zero_deviations(value, n):
    # the rounded mean of a flat row can miss its value; deviations must not
    block = np.full((2, n), value)
    block[1, 0] = np.nan
    for m in (row_moments(block[:1]), row_moments(block, np.isfinite(block))):
        assert not m.dev.any()
        assert not m.sum_squares().any()
        assert m.std()[0] == 0.0
    y = row_moments(np.linspace(1.0, 9.0, n)[None, :])
    assert y.slope(row_moments(block[:1])).tolist() == [0.0]


def test_near_flat_row_is_not_flattened():
    value = 3.3
    x = np.full((1, 31), value)
    x[0, 7] = np.nextafter(value, 4.0)
    m = row_moments(x)
    assert m.sum_squares()[0] > 0.0
    assert m.dev[0, 7] > m.dev[0, 0]


@pytest.mark.parametrize("n", [2, 10, 200, 1000])
def test_unmasked_outputs_match_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    x = 10.0 ** (rng.integers(-3, 4, size=(50, 1)) + rng.uniform(0.0, 3.0, size=(50, n)))
    y = 10.0 ** rng.uniform(-3.0, 3.0, size=(50, n))
    mx = row_moments(x)
    assert np.array_equal(row_means(x), x.mean(axis=1))
    assert np.array_equal(mx.mean, x.mean(axis=1))
    assert np.array_equal(mx.std(), x.std(axis=1, ddof=1))
    expected = [centred_slope(a, b) for a, b in zip(x, y)]
    assert np.array_equal(mx.slope(row_moments(y)), expected)


def test_mask_leaves_cells_out():
    rng = np.random.default_rng(11)
    x = rng.uniform(1.0, 100.0, size=(40, 60))
    y = rng.uniform(1.0, 100.0, size=(40, 60))
    keep = rng.random(size=x.shape) > 0.3
    keep[0] = True
    mx = row_moments(np.where(keep, x, np.nan), keep)
    my = row_moments(y, keep)
    assert mx.count.tolist() == keep.sum(axis=1).tolist()
    assert not mx.dev[~keep].any()
    for i in range(x.shape[0]):
        a, b = x[i][keep[i]], y[i][keep[i]]
        assert mx.mean[i] == pytest.approx(a.mean(), rel=1e-14)
        assert mx.std()[i] == pytest.approx(a.std(ddof=1), rel=1e-13)
        assert mx.slope(my)[i] == pytest.approx(centred_slope(a, b), rel=1e-11)
    # a fully kept row sums the same cells in the same order
    assert mx.mean[0] == x[0].mean()
    assert mx.std()[0] == x[0].std(ddof=1)
