"""``scoring.ks_tail`` against the step-by-step engine it replaced, bit for bit.

``ks_tail`` and ``_propagate`` below are that engine, copied unchanged: every
call rebuilt its log-factorial table, found each band over all n + 1 states
and built each transition block by fancy indexing. The current engine must
return the same float, compared by ``float.hex``, on every input here. The
test compares two engines rather than pinned values, so it holds on any
numpy and BLAS that both run on.
"""
import math

import numpy as np
import pytest

from digit_forensics import benford_pmf, default_laws, scoring
from digit_forensics.digits import check_pmf
from digit_forensics.errors import EmptyHistogram
from digit_forensics.scoring import _BLOCK_CELLS, _DKW_SHORTCUT, _cdf_gaps


def ks_tail(total: int, ref_pmf, statistic: float) -> float:
    """Exact P(D >= statistic) for ``total`` draws from Multinomial(ref_pmf).

    The cumulative count S_k follows S_{k-1} + Bin(n - S_{k-1},
    p_k / (1 - F_{k-1})). Only states inside the band |S_k/n - F_k| < d
    are carried forward; the mass leaving the band is summed directly, so
    small tails keep their relative precision (Conover 1972; Arnold &
    Emerson 2011). Where the DKW bound 2*exp(-2*n*d**2) is at most 5e-17,
    that bound is returned instead.
    """
    pmf = check_pmf(ref_pmf)
    n = int(total)
    if n < 1:
        raise EmptyHistogram("cannot score an empty histogram")
    d = float(statistic)
    dkw = 2.0 * math.exp(-2.0 * n * d * d)
    if d > 0.0 and dkw <= _DKW_SHORTCUT:
        return dkw
    ref_cdf = np.cumsum(pmf)
    remaining = np.cumsum(pmf[::-1])[::-1]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    states = np.arange(n + 1)
    # Beyond its mode a binomial term shrinks by exp(-2*j**2/(n+2)) over j
    # steps. Every source's mode lies within a cell of the next band, so
    # terms farther than this outside the band are below 1e-35 of the
    # boundary term and dropping them costs no relative precision.
    reach = math.ceil(math.sqrt(40.0 * (n + 2)))
    mass = np.ones(1)
    lo = 0
    left = 0.0
    for k in range(9):
        inside = np.flatnonzero(_cdf_gaps(states, n, ref_cdf[k]) < d)
        if not inside.size:
            return min(left + float(mass.sum()), 1.0)
        q = 1.0 if k == 8 or remaining[k] <= 0.0 else min(pmf[k] / remaining[k], 1.0)
        t_lo = max(lo, int(inside[0]) - reach)
        step = _propagate(mass, lo, t_lo, min(n, int(inside[-1]) + reach), n, q, log_fact)
        first, last = int(inside[0]) - t_lo, int(inside[-1]) - t_lo
        left += float(step[:first].sum()) + float(step[last + 1:].sum())
        mass, lo = step[first:last + 1], int(inside[0])
    return min(left, 1.0)


def _propagate(mass: np.ndarray, lo: int, t_lo: int, t_hi: int, n: int, q: float,
               log_fact: np.ndarray) -> np.ndarray:
    """Mass on S_k in [t_lo, t_hi] given ``mass`` on S_{k-1} = lo, lo+1, ...

    P(S_k = t | S_{k-1} = s) = C(n-s, t-s) q^(t-s) (1-q)^(n-t); its log
    splits into a source term, a target term and log (t-s)!.
    """
    sources = np.arange(lo, lo + mass.size)
    targets = np.arange(t_lo, t_hi + 1)
    out = np.zeros(targets.size)
    # Degenerate steps. With q = 0 every count stays put, and F_k equals
    # F_{k-1}, so the band is the same. With q = 1 the later cells are
    # empty, F_k is 1 up to rounding, and everything lands on n, the state
    # nearest to it.
    if q <= 0.0:
        out[lo - t_lo:lo - t_lo + mass.size] = mass
        return out
    if q >= 1.0:
        out[n - t_lo] = mass.sum()
        return out
    log_q, log_p = math.log(q), math.log1p(-q)
    src_term = log_fact[n - sources] - sources * log_q
    dst_term = targets * log_q + (n - targets) * log_p - log_fact[n - targets]
    rows = max(1, _BLOCK_CELLS // targets.size)
    for start in range(0, mass.size, rows):
        s = sources[start:start + rows]
        gap = targets[None, :] - s[:, None]
        ok = gap >= 0
        logs = src_term[start:start + rows, None] + dst_term[None, :] \
            - log_fact[np.where(ok, gap, 0)]
        out += mass[start:start + rows] @ np.exp(np.where(ok, logs, -np.inf))
    return out


BASE = np.asarray(benford_pmf())
# The packaged laws, as a store turns their counts into a pmf.
PACKAGED = {f"{op}-{n}": np.asarray(counts) / np.sum(counts)
            for (op, n), (counts, _) in default_laws.LAWS.items()}
ZERO_CELL = np.array([0.2, 0.0, 0.3, 0.1, 0.0, 0.1, 0.1, 0.2, 0.0])  # q = 0 steps
ALL_ONES = np.array([1.0] + [0.0] * 8)  # q = 1 from the first step on


def last_exact_d(n: int) -> float:
    """The largest statistic whose tail is computed rather than DKW-bounded."""
    d = math.sqrt(math.log(2.0 / _DKW_SHORTCUT) / (2.0 * n))
    while 2.0 * math.exp(-2.0 * n * d * d) <= _DKW_SHORTCUT:
        d = math.nextafter(d, 0.0)
    while 2.0 * math.exp(-2.0 * n * math.nextafter(d, math.inf) ** 2) > _DKW_SHORTCUT:
        d = math.nextafter(d, math.inf)
    return d


def assert_same_bits(total, pmf, statistic):
    expected = ks_tail(total, pmf, statistic)
    got = scoring.ks_tail(total, pmf, statistic)
    assert got.hex() == expected.hex(), (total, statistic, got, expected)


@pytest.mark.parametrize("name", ["base", *PACKAGED, "zero-cell", "all-ones"])
def test_laws_over_sizes_and_distances(name):
    pmf = {"base": BASE, "zero-cell": ZERO_CELL, "all-ones": ALL_ONES}.get(name)
    pmf = PACKAGED[name] if pmf is None else pmf
    for total in (1, 3, 10, 37, 200, 1000):
        cutoff = last_exact_d(total)
        for statistic in (0.0, -0.25, 0.1 * cutoff, 0.3 * cutoff, 0.6 * cutoff,
                          0.9 * cutoff, cutoff, math.nextafter(cutoff, math.inf), 0.9, 1.0):
            assert_same_bits(total, pmf, statistic)


@pytest.mark.parametrize("total", [500, 1000])
def test_mean_law_that_puts_everything_on_digit_one(total):
    # Under this law one step carries all mass to n with q = 1, and every
    # later step has nothing left to spread.
    pmf = PACKAGED[f"mean-{total}"]
    assert pmf.tolist() == ALL_ONES.tolist()
    rng = np.random.default_rng(total)
    for statistic in (*rng.uniform(0.0, last_exact_d(total), 8), 1e-3, 0.5):
        assert_same_bits(total, pmf, float(statistic))


@pytest.mark.parametrize("pmf", [BASE, ZERO_CELL, PACKAGED["std-10"]],
                         ids=["base", "zero-cell", "std-10"])
def test_every_achievable_distance_up_to_twelve_draws(pmf):
    # Any D is one of the gaps |j/n - F_k|, so these values hold every
    # achievable D and every tie with a band edge; the neighbours on either
    # side check that ties fall where the old engine put them.
    ref_cdf = np.cumsum(pmf)
    for total in range(1, 13):
        gaps = _cdf_gaps(np.arange(total + 1)[:, None], total, ref_cdf)
        for gap in np.unique(gaps).tolist():
            for statistic in (math.nextafter(gap, -1.0), gap, math.nextafter(gap, 2.0)):
                assert_same_bits(total, pmf, statistic)


def test_several_row_blocks_near_the_cutoff():
    # At n = 2000 next to the cutoff a step has about 390 sources and 960
    # targets, so its transition is built in two row blocks.
    total = 2000
    cutoff = last_exact_d(total)
    targets = 2 * math.ceil(math.sqrt(40.0 * (total + 2))) + 2 * total * cutoff
    assert 2 * total * cutoff > _BLOCK_CELLS // targets
    for pmf in (BASE, PACKAGED["std-1000"], PACKAGED["ols_slope-200"]):
        for statistic in (0.8 * cutoff, cutoff):
            assert_same_bits(total, pmf, statistic)
