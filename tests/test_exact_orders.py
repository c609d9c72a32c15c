"""Bit-for-bit checks of the O(n) order and tail-average routes.

``_es_table`` keeps exact suffix totals, ``distribution_of`` keeps tied
values in state order, and the quantile tests pick all their quantiles by
one ``searchsorted`` per law.  Each is held here to the
formula it replaced, compared by ``float.hex``, and the order tests to the
brute-force oracles at 1,024 states.
"""

import re
from itertools import accumulate
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starrisk.law_invariant import (
    GeneratorCurve,
    es_envelope_eval,
    fsd_dominates,
    ssd_dominates,
    var_envelope_eval,
)
from starrisk.measures import (
    _es_table,
    es,
    max_var,
    max_var_measure,
    med_var,
    med_var_measure,
    mean,
    var,
)
from starrisk.state_space import (
    DomainError,
    LossDistribution,
    LossProfile,
    StateSpace,
    _merge_arrays,
    _merge_sorted,
    distribution_of,
)

import oracles


@st.composite
def profiles(draw, max_n=300):
    """Profiles of 1 to ``max_n`` states with exact ties, signed zeros side
    by side and chains of near-merge steps, at magnitudes 1e-12 to 1e12,
    under tied integer weights or distinct non-uniform ones.  The per-state
    draws come from a seeded generator."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([3, 1000]))
    ints = rng.integers(-spread, spread + 1, size=n)
    steps = rng.integers(0, 6, size=n)
    # steps of 0.3 or 0.9 times the merge tolerance at the largest magnitude
    step = draw(st.sampled_from([0.0, 0.3e-12, 0.9e-12])) * spread
    scale = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(-12, 12))
    values = (ints + step * steps) * scale
    zeros = values == 0.0
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    if draw(st.booleans()):
        weights = rng.integers(1, 5, size=n).astype(float)
    else:
        weights = rng.uniform(0.5, 1.5, size=n)
    return LossProfile(StateSpace(weights / weights.sum()), values)


def hexes(values):
    return [float(v).hex() for v in values]


def same_bits(a, b):
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


# -- exact suffix sums ----------------------------------------------------------

def interior(d):
    return [c for c in d.cum[:-1].tolist() if 0.0 < c < 1.0]


@settings(max_examples=200, deadline=None)
@given(profiles(), st.lists(st.floats(1e-9, 1.0 - 1e-9), max_size=8))
def test_es_levels_match_one_fsum_per_level(x, extra):
    d = distribution_of(x)
    # every breakpoint, random levels, and the ends of the open interval
    levels = sorted(set(interior(d) + extra + [5e-324, 1.0 - 2.0**-53]))
    want = oracles.fsum_es_levels(d.values, d.cum, levels)
    assert hexes(_es_table(d, np.array(levels))) == hexes(want)
    for b in levels[:4]:
        assert es(d, b).hex() == oracles.fsum_es_levels(d.values, d.cum, [b])[0].hex()


@pytest.mark.parametrize("atoms, level", [
    ([(-0.0, 1.0)], 0.5),                   # one zero term: fsum's own sign
    ([(-2.0, 0.5), (-0.0, 0.5)], 0.5),      # the partial and the cell above are -0.0
    ([(-1.0, 0.75), (1.0, 0.25)], 0.5),     # nonzero terms cancel exactly
    ([(-0.0, 0.5), (0.0, 0.5)], 0.25),
])
def test_exact_zero_total_takes_fsum_sign(atoms, level):
    d = LossDistribution(atoms)
    want = oracles.fsum_es_levels(d.values, d.cum, [level])
    assert hexes(_es_table(d, np.array([level]))) == hexes(want)
    assert es(d, level).hex() == want[0].hex()


@pytest.mark.parametrize("values", [
    [1.7e308, -1.7e308, 1e308],             # a sum may overflow
    [1e300, 1e-300, -3e-310, 2.0],          # scales too far apart for one int
    [5e-324, 1e-320, -2e-322],              # subnormal terms and totals
    # each term fits an int at the scale of the smallest, their sum no float
    [2.0**-67] + [2.0**900 * (1 + i / 8) for i in range(8)],
])
def test_extreme_terms_match_fsum(values):
    d = distribution_of(LossProfile(StateSpace.uniform(len(values)), values))
    levels = interior(d) + [0.1, 0.9]
    want = oracles.fsum_es_levels(d.values, d.cum, levels)
    assert hexes(_es_table(d, np.array(levels))) == hexes(want)


def test_es_levels_match_fsum_at_10000_states():
    rng = np.random.default_rng(11)
    n = 10_000
    weights = rng.uniform(0.5, 1.5, size=n)
    space = StateSpace(weights / weights.sum())
    d = distribution_of(LossProfile(space, rng.standard_t(5, size=n)))
    levels = sorted(rng.uniform(0.0, 1.0, size=10).tolist()
                    + d.cum[rng.integers(0, n - 1, size=10)].tolist())
    want = oracles.fsum_es_levels(d.values, d.cum, levels)
    assert hexes(_es_table(d, np.array(levels))) == hexes(want)


# -- tied values in distribution_of ------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(profiles())
def test_tied_law_matches_pair_build(x):
    values, probs = x.values, x.space.probs
    merged = _merge_sorted(sorted(zip(values.tolist(), probs.tolist()),
                                  key=itemgetter(0)))
    cum = list(accumulate(merged[1]))
    from_atoms = LossDistribution(zip(values.tolist(), probs.tolist()))
    # twice: building a law leaves its space as it found it
    for d in (distribution_of(x), distribution_of(x), from_atoms):
        assert same_bits(d.values, merged[0])
        assert same_bits(d.probs, merged[1])
        assert same_bits(d.cum, cum)
    assert all(same_bits(a, b) for a, b in zip(_merge_arrays(values, probs), merged))


# -- order tests and envelopes against their per-point formulas ---------------------

def merged_grid(x, y):
    pts = np.concatenate([x.cum[:-1], y.cum[:-1]])
    return np.unique(pts[(pts > 0.0) & (pts < 1.0)])


def slack(x, y):
    return 1e-12 * float(max(-x.values[0], x.values[-1], -y.values[0], y.values[-1]))


def per_point_fsd(x, y):
    points = np.append(merged_grid(x, y), 1.0)
    s = slack(x, y)
    return all(var(x, float(p)) <= var(y, float(p)) + s for p in points)


def per_point_var_gap(x, y):
    points = np.append(merged_grid(x, y), 1.0)
    return max(var(x, float(p)) - var(y, float(p)) for p in points)


def per_level_ssd(x, y):
    levels = merged_grid(x, y).tolist()

    def g(d):
        tails = oracles.fsum_es_levels(d.values, d.cum, levels)
        return [mean(d)] + [(1.0 - b) * e for b, e in zip(levels, tails)] + [0.0]

    s = slack(x, y)
    return all(a <= b + s for a, b in zip(g(x), g(y)))


def per_level_es_gap(x, y):
    levels = merged_grid(x, y).tolist()
    tails = zip(oracles.fsum_es_levels(x.values, x.cum, levels),
                oracles.fsum_es_levels(y.values, y.cum, levels))
    ends = [mean(x) - mean(y), float(x.values[-1]) - float(y.values[-1])]
    return max(ends + [a - b for a, b in tails])


@settings(max_examples=150, deadline=None)
@given(profiles(), st.integers(0, 2**32 - 1), st.sampled_from(["below", "free"]))
def test_order_tests_match_per_point_formulas(x, seed, shape):
    rng = np.random.default_rng(seed)
    scale = max(float(np.abs(x.values).max()), 1e-300)
    noise = scale * rng.integers(-2, 3, size=x.space.n) / 2.0
    # pointwise below x, or free; the same values recur, so ties stay
    y = LossProfile(x.space, x.values - np.abs(noise) if shape == "below" else noise)
    dx, dy = distribution_of(x), distribution_of(y)
    for a, b in ((dx, dy), (dy, dx)):
        assert fsd_dominates(a, b) is per_point_fsd(a, b)
        assert ssd_dominates(a, b) is per_level_ssd(a, b)
    var_gen = GeneratorCurve(LossProfile(x.space, y.values - y.values.max()), "var")
    assert var_envelope_eval([var_gen], dx).hex() == per_point_var_gap(dx, var_gen.dist).hex()
    # acceptable: the mean sits a whole scale below zero
    es_gen = GeneratorCurve(LossProfile(x.space, y.values - mean(dy) - scale), "es")
    assert es_envelope_eval([es_gen], dx).hex() == per_level_es_gap(dx, es_gen.dist).hex()


# -- the order tests at 1,024 states against the oracles ---------------------------

def oracle_args(x, y):
    return (x.values.tolist(), x.space.probs.tolist(),
            y.values.tolist(), y.space.probs.tolist())


def test_order_tests_match_oracles_at_1024_states():
    rng = np.random.default_rng(5)
    n = 1024
    weights = rng.uniform(0.5, 1.5, size=n)
    space = StateSpace(weights / weights.sum())
    y = rng.standard_t(5, size=n)
    below = LossProfile(space, y - np.abs(rng.normal(0.0, 0.5, size=n)))
    # a mean-preserving spread of y: worse in both orders, dominated in neither
    kick = rng.normal(0.0, 1.0, size=n)
    spread = LossProfile(space, y + 0.5 * (kick - float(space.probs @ kick)))
    y = LossProfile(space, y)
    for a, b, dominated in ((below, y, True), (spread, y, False)):
        da, db = distribution_of(a), distribution_of(b)
        assert fsd_dominates(da, db) is dominated
        assert ssd_dominates(da, db) is dominated
        args = oracle_args(a, b)
        assert oracles.oracle_fsd(*args) is dominated
        assert oracles.oracle_stop_loss_ssd(*args) is dominated


# -- scenario VaR on plain atoms ----------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    profiles(),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.5, 1.0, 0.0, -0.5])),
)
@example(LossProfile(StateSpace.uniform(2), [1.0, -0.0]), [1], 1.5)
def test_scenario_var_matches_var_of_laws(x, seeds, beta):
    rows = []
    for seed in seeds:
        w = np.random.default_rng(seed).uniform(0.5, 1.5, size=x.space.n)
        rows.append(w / w.sum())
    laws = [distribution_of(LossProfile(StateSpace(w), x.values)) for w in rows]
    for factory, robust in ((max_var_measure, max_var), (med_var_measure, med_var)):
        try:
            want = robust(laws, beta).hex()
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                factory(rows, beta)(x)
            continue
        assert factory(rows, beta)(x).hex() == want


def test_scenario_var_keeps_its_pin_message():
    rho = max_var_measure([[0.5, 0.5], [0.25, 0.75]], 0.5)
    with pytest.raises(DomainError, match="profile has 3 states, scenarios expect 2"):
        rho(LossProfile(StateSpace.uniform(3), [1.0, 2.0, 3.0]))
