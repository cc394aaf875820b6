"""The Monte-Carlo mean laws against their exact law.

An entry of a conforming vector is ``10**(c + U[0, 3])``, and the whole-decade
offset ``c`` is shared by the row, so it moves no digit of the row's mean. The
mean of n entries therefore has the leading-digit law of S/n, where S sums n
independent log-uniform draws on [1, 1000]. Here that law is computed by
convolution on a lattice, with no random draw, and every digit count of a
packaged or generated mean law must lie within its binomial sampling error of
it.
"""
import functools
import math

import numpy as np
import pytest

from digit_forensics import OperatorKind, benford_pmf, default_laws, generate_reference
from digit_forensics.reference import SIZE_BUCKETS

LOW, HIGH = 1.0, 1000.0  # the range of 10**U[0, 3]
GENERATED = (2, 10, 50)
# Family-wise level over every cell checked here: 9 digits of the 10 packaged
# and 3 generated laws, Bonferroni-corrected to a per-cell level of 8.5e-6.
FAMILY_LEVEL = 1e-3
CELL_LEVEL = FAMILY_LEVEL / (9 * (len(SIZE_BUCKETS) + len(GENERATED)))


@functools.lru_cache(maxsize=None)
def exact_mean_law(n: int) -> np.ndarray:
    """Leading-digit law of the mean of n log-uniform draws on [1, 1000].

    One draw falls in lattice cell k, ``[k h, (k + 1) h)`` with h = n/1000,
    with its exact log-uniform mass. The sum of n cell indices j has the
    n-fold convolution of those masses, taken by one rfft. A state j stands
    for the mean ``(j + n/2) h / n``, its cells' midpoint, so the mean is
    resolved to 1/1000 at every n.
    """
    h = n / 1000
    first, cells = math.floor(LOW / h), math.ceil(HIGH / h)
    edges = np.clip(np.arange(first, cells + 1) * h, LOW, HIGH)
    one = np.zeros(cells)
    one[first:] = np.diff(np.log(edges)) / math.log(HIGH / LOW)
    size = n * (cells - 1) + 1
    fft_size = 1 << (size - 1).bit_length()  # no wrap-around, and a fast length
    states = np.fft.irfft(np.fft.rfft(one, fft_size) ** n, fft_size)[:size]
    # the mean (j + n/2) h / n is scaled / 10**4, so both have one leading digit
    scaled = 5 * (2 * np.arange(size, dtype=np.int64) + n)
    power = 10 ** np.floor(np.log10(scaled)).astype(np.int64)
    power = np.where(power > scaled, power // 10, power)
    power = np.where(power * 10 <= scaled, power * 10, power)
    return np.bincount(scaled // power, weights=states, minlength=10)[1:]


@functools.lru_cache(maxsize=None)
def log_factorials(total: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(total + 1)])


def binomial_tail(k: int, total: int, p: float) -> float:
    """Two-sided binomial tail of k successes in ``total`` trials: twice the
    nearer one-sided tail, at most 1."""
    p = min(max(p, 1e-300), 1.0 - 2.0 ** -52)
    i = np.arange(total + 1)
    lf = log_factorials(total)
    log_pmf = lf[total] - lf - lf[::-1] + i * math.log(p) + (total - i) * math.log1p(-p)

    def tail(part):
        top = part.max()
        return math.exp(top) * float(np.exp(part - top).sum())

    return min(1.0, 2.0 * min(tail(log_pmf[:k + 1]), tail(log_pmf[k:])))


def assert_within_sampling_error(counts, exact):
    total = sum(counts)
    tails = [binomial_tail(k, total, p) for k, p in zip(counts, exact)]
    assert min(tails) >= CELL_LEVEL, (counts, (exact * total).round(1).tolist(), tails)


def test_one_entry_gives_the_base_law():
    assert np.abs(exact_mean_law(1) - benford_pmf()).max() < 1e-12


@pytest.mark.parametrize("n", SIZE_BUCKETS)
def test_exact_law_is_a_pmf(n):
    law = exact_mean_law(n)
    assert abs(law.sum() - 1.0) < 1e-9
    assert law.min() > -1e-12


@pytest.mark.parametrize("n", SIZE_BUCKETS)
def test_packaged_mean_law_is_the_exact_law(n):
    counts, skipped = default_laws.LAWS["mean", n]
    assert skipped == 0
    assert_within_sampling_error(counts, exact_mean_law(n))


@pytest.mark.parametrize("n", GENERATED)
def test_generated_mean_law_is_the_exact_law(n):
    law = generate_reference(OperatorKind.MEAN, n, seed=7, mc_draws=20_000)
    assert law.skipped_draws == 0
    assert_within_sampling_error(law.counts, exact_mean_law(n))


def test_the_check_refuses_a_law_one_draw_in_a_hundred_off():
    # moving 1% of the draws from digit 1 to digit 2 is far outside
    # sampling error at 100 000 draws
    counts = list(default_laws.LAWS["mean", 10][0])
    counts[0] -= 1000
    counts[1] += 1000
    with pytest.raises(AssertionError):
        assert_within_sampling_error(counts, exact_mean_law(10))
