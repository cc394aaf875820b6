"""Statistical operators whose outputs get screened.

All three come from one row-wise kernel, ``row_moments``: count, mean and
centred deviations of each row of a (rows, n) block. Deviations are taken
from the row mean before they are multiplied, never as E[xy] - E[x]E[y],
which cancels catastrophically (Chan, Golub & LeVeque 1983). Reductions
are element-wise sums along contiguous rows, not BLAS products, so an
unmasked row gives the same bits as the 1-D numpy call on its values.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import UnknownOperator

_EPS = float(np.finfo(float).eps)


class OperatorKind(str, Enum):
    """Summary statistics with their serialized group names."""

    MEAN = "mean"
    STD = "std"
    OLS_SLOPE = "ols_slope"

    @classmethod
    def from_name(cls, name: str) -> "OperatorKind":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(op.value for op in cls)
            raise UnknownOperator(f"unknown operator {name!r} (valid: {valid})") from None


OPERATOR_ORDER = (OperatorKind.MEAN, OperatorKind.STD, OperatorKind.OLS_SLOPE)


def operator_index(op: OperatorKind) -> int:
    return OPERATOR_ORDER.index(op)


class RowMoments(NamedTuple):
    """Per-row moments of a (rows, n) block; see ``row_moments``."""

    count: int | np.ndarray  # kept cells per row; an int when nothing is masked
    mean: np.ndarray
    dev: np.ndarray  # x - mean on kept cells, 0 elsewhere

    def sum_squares(self) -> np.ndarray:
        return (self.dev * self.dev).sum(axis=1)

    def std(self) -> np.ndarray:
        """Sample standard deviation (n - 1 denominator); NaN below 2 kept cells."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sqrt(self.sum_squares() / np.maximum(self.count - 1, 0))

    def slope(self, response: "RowMoments") -> np.ndarray:
        """sum(xc * yc) / sum(xc**2): NaN for a flat regressor, 0.0 for a flat response."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.dev * response.dev).sum(axis=1) / self.sum_squares()


def row_means(x: np.ndarray) -> np.ndarray:
    """Mean of each row of ``x``: ``x.mean(axis=1)``, bit for bit."""
    return x.sum(axis=1) / x.shape[1]


def row_moments(x: np.ndarray, mask: np.ndarray | None = None) -> RowMoments:
    """Count, mean and centred deviations of each row of ``x`` under ``mask``.

    Cells outside ``mask`` are left out, whatever they hold; a row with no
    kept cell has a NaN mean. A row whose kept values are all equal is
    flat: its deviations are exactly 0, so its std is 0.0 and it is
    degenerate as a regressor.
    """
    if mask is None:
        count, mean = x.shape[1], row_means(x)
        dev = x - mean[:, None]
    else:
        # With sparse blanks the left-out cells sit in few columns; count
        # and zero them there rather than over the whole block.
        cols = np.flatnonzero(~mask.all(axis=0))
        keep = mask[:, cols]
        count = x.shape[1] - cols.size + np.count_nonzero(keep, axis=1)
        with np.errstate(invalid="ignore"):
            mean = x.sum(axis=1, where=mask) / count
        dev = x - mean[:, None]
        dev[:, cols] = np.where(keep, dev[:, cols], 0.0)
    # The mean of a flat row can miss its value by rounding, which would
    # leave every deviation at the same tiny nonzero value (31 cells of 3.3
    # give a std of 9e-16). Only rows whose first kept deviation is within
    # that rounding are compared exactly.
    first = np.zeros(x.shape[0], dtype=np.intp) if mask is None else mask.argmax(axis=1)
    with np.errstate(invalid="ignore"):
        near = np.flatnonzero(np.abs(dev[np.arange(x.shape[0]), first])
                              <= 4.0 * count * _EPS * np.abs(mean))
    if near.size:
        same = x[near] == x[near, first[near]][:, None]
        if mask is not None:
            same |= ~mask[near]
        dev[near[same.all(axis=1)]] = 0.0
    return RowMoments(count, mean, dev)
