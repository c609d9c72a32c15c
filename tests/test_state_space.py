"""State spaces, profiles, distributions, capacities."""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starrisk import state_space
from starrisk.measures import (
    _PAIR_BUILD_MAX,
    LossBenchmark,
    Utility,
    entropic_measure,
    es_measure,
    lvar_measure,
    max_var_measure,
    mean_measure,
    med_var_measure,
    shortfall_measure,
    var_measure,
    worst_case_measure,
)
from starrisk.state_space import (
    Capacity,
    DimensionError,
    DomainError,
    LossDistribution,
    LossProfile,
    StateSpace,
    distribution_of,
    _merge_arrays,
    _merge_sorted,
    _merge_tol,
    _space_atoms,
    pointwise_leq,
    quantile_breakpoints,
)

import oracles


def test_state_space_validation():
    with pytest.raises(DomainError):
        StateSpace([0.5, 0.5, 0.1])  # mass 1.1
    with pytest.raises(DomainError):
        StateSpace([1.0, 0.0])  # zero weight
    with pytest.raises(DomainError):
        StateSpace([-0.5, 1.5])
    s = StateSpace.uniform(4)
    assert s.n == 4
    assert math.isclose(float(s.probs.sum()), 1.0, abs_tol=1e-12)


def hex_floats(*hexes):
    return [float.fromhex(h) for h in hexes]


# Weights on which numpy's pairwise sum and the exactly rounded math.fsum
# disagree about the mass: fsum is 1 + 1.0e-12 on the first, within 1e-12
# on the second.
FSUM_OFF = hex_floats("0x1.a9028bb0f5b6ap-2", "0x1.6ceb6e469db63p-2",
                      "0x1.d4240c10e1f23p-3")
FSUM_ON = hex_floats("0x1.750ecd7d2b1bfp-2", "0x1.ba1608cd0c758p-3",
                     "0x1.ade62e1c530f2p-2")


def test_state_space_mass_is_the_law_rule():
    # a space takes its weights by the fsum mass rule of every law on it
    with pytest.raises(DomainError, match="not 1 within"):
        StateSpace(FSUM_OFF)
    x = LossProfile(StateSpace(FSUM_ON), [1.0, 2.0, 3.0])
    assert 2.0 < es_measure(0.5)(x) < 3.0


def test_profile_validation_and_arithmetic():
    s = StateSpace.uniform(3)
    with pytest.raises(DimensionError):
        LossProfile(s, [1.0, 2.0])
    with pytest.raises(DomainError):
        LossProfile(s, [1.0, float("nan"), 0.0])
    x = LossProfile(s, [1.0, -2.0, 3.0])
    y = 2.0 * x - 1.0
    assert np.allclose(y.values, [1.0, -5.0, 5.0])
    z = x + (-x)
    assert np.allclose(z.values, 0.0)


def test_profile_arithmetic_refuses_non_finite_results():
    s = StateSpace.uniform(3)
    x = LossProfile(s, [1.0, 2.0, -3.0])
    big = LossProfile(s, [1e308, -1e308, 1.0])
    for make in (lambda: x * 1e308, lambda: 1e308 * x, lambda: big + big,
                 lambda: big - (-big), lambda: x + math.inf, lambda: x - math.nan,
                 lambda: x * math.nan):
        with pytest.raises(DomainError, match="loss values must be finite"):
            make()
    # a factor of at most 1 in size cannot overflow
    half = big * 0.5
    assert half.values.tolist() == [5e307, -5e307, 0.5]
    # a shift overflows the largest double from 2**970 on
    top = LossProfile(s, [np.finfo(float).max, 0.0, -1.0])
    with pytest.raises(DomainError, match="loss values must be finite"):
        top + 2.0**970
    assert (top + math.nextafter(2.0**970, 0.0)).values[0] == np.finfo(float).max
    assert (x + 1e300).values.tolist() == [1e300] * 3


def test_pointwise_leq():
    s = StateSpace.uniform(2)
    a = LossProfile(s, [1.0, 2.0])
    assert pointwise_leq(a, a), "reflexivity"
    assert not pointwise_leq(LossProfile(s, [0.0, 3.0]), LossProfile(s, [1.0, 2.0]))
    assert pointwise_leq(LossProfile(s, [-1.0, 2.0]), LossProfile(s, [0.0, 2.0]))
    other = StateSpace.uniform(3)
    with pytest.raises(DimensionError):
        pointwise_leq(a, LossProfile(other, [0.0, 0.0, 0.0]))


def test_distribution_merges_equal_values():
    s = StateSpace([0.25, 0.25, 0.5])
    d = distribution_of(LossProfile(s, [2.0, 2.0, 5.0]))
    assert list(d.values) == [2.0, 5.0]
    assert np.allclose(d.probs, [0.5, 0.5])
    # the merge tolerance is relative to the largest magnitude, so a
    # profile quoted at 1e-12 keeps its atoms apart
    tiny = distribution_of(LossProfile(StateSpace.uniform(2), [0.0, 1e-12]))
    assert list(tiny.values) == [0.0, 1e-12]
    assert np.allclose(tiny.probs, [0.5, 0.5])


def test_distribution_constant_law():
    s = StateSpace.uniform(5)
    d = distribution_of(LossProfile(s, [3.0] * 5))
    assert list(d.values) == [3.0]
    assert np.allclose(d.probs, [1.0])


def test_distribution_uniform_identity():
    s = StateSpace.uniform(4)
    d = distribution_of(LossProfile(s, [1.0, 2.0, 3.0, 4.0]))
    assert list(d.values) == [1.0, 2.0, 3.0, 4.0]
    assert np.allclose(d.probs, 0.25)


def test_quantile_breakpoints():
    d = LossDistribution([(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)])
    assert np.allclose(quantile_breakpoints(d), [0.25, 0.5, 0.75])
    assert quantile_breakpoints(LossDistribution([(7.0, 1.0)])) == []
    d2 = LossDistribution([(0.0, 0.1), (10.0, 0.9)])
    assert np.allclose(quantile_breakpoints(d2), [0.1])


def test_tied_losses_merge_in_state_order():
    weights = hex_floats("0x1.532a8ff92a4b7p-3", "0x1.81f03e871f42fp-2",
                         "0x1.178c35e945930p-2", "0x1.79dc87260c08ap-3")
    values = [2.0, 2.0, 2.0, -1.0]
    # the weights of the tied 2.0 added as they stand, not by size
    want = "0x1.a188de367cfddp-1"
    space = StateSpace(weights)
    assert _space_atoms(values, space)[1][1].hex() == want
    assert distribution_of(LossProfile(space, values)).probs[1].hex() == want
    assert LossDistribution(zip(values, weights)).probs[1].hex() == want


@pytest.mark.parametrize("atoms", [
    [(math.inf, 0.5), (1.0, 0.5)],
    [(-math.inf, 0.25), (1.0, 0.75)],
    [(math.inf, 0.5), (1.0, 0.25), (-math.inf, 0.25)],
    [(math.nan, 0.5), (1.0, 0.5)],
    [(1.0, math.nan), (2.0, 1.0)],
])
def test_distribution_refuses_non_finite_atoms(atoms):
    with pytest.raises(DomainError, match="must be finite"):
        LossDistribution(atoms)


def test_distribution_refuses_bad_atoms():
    with pytest.raises(DomainError, match="at least one atom"):
        LossDistribution([])
    with pytest.raises(DomainError, match="strictly positive"):
        LossDistribution([(1.0, 1.0), (2.0, 0.0)])
    with pytest.raises(DomainError, match="strictly positive"):
        LossDistribution([(1.0, 1.5), (2.0, -0.5)])
    with pytest.raises(DomainError, match="not 1"):
        LossDistribution([(1.0, 0.5), (2.0, 0.25)])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)
def test_distribution_permutation_invariant(values, rnd):
    n = len(values)
    s = StateSpace.uniform(n)
    perm = list(range(n))
    rnd.shuffle(perm)
    d1 = distribution_of(LossProfile(s, values))
    d2 = distribution_of(LossProfile(s, [values[i] for i in perm]))
    assert np.array_equal(d1.values, d2.values)
    assert np.allclose(d1.probs, d2.probs, atol=1e-12)
    assert math.isclose(float(d1.probs.sum()), 1.0, abs_tol=1e-12)


@st.composite
def atom_arrays(draw):
    """Values and probabilities with exact ties, signed zeros, and chains
    of near-merge steps (0.9e-12 apart, up to 4.5e-12 long) that span
    more than the merge tolerance, at magnitudes 1e-12 to 1e12 and sizes
    on both sides of the evaluators' kernel cutoff."""
    n = draw(st.integers(1, 2 * _PAIR_BUILD_MAX + 8))
    ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    steps = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    weights = st.lists(st.integers(1, 4), min_size=n, max_size=n)
    step = draw(st.sampled_from([0.0, 0.3e-12, 0.9e-12]))
    scale = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(-12, 12))
    values = (np.array(draw(ints), float) + step * np.array(draw(steps))) * scale
    probs = np.array(draw(weights), float)
    return values, probs / probs.sum()


def same_bits(a, b):
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


# The pair merge on plain lists, the reference of the array build
PairLaw = namedtuple("PairLaw", "values probs cum")


@settings(max_examples=200, deadline=None)
@given(atom_arrays())
def test_array_build_matches_pair_build(arrays):
    values, probs = arrays
    pairs = sorted(zip(values.tolist(), probs.tolist()), key=itemgetter(0))
    merged = _merge_sorted(pairs, _merge_tol(pairs[0][0], pairs[-1][0]))
    ref = PairLaw(*merged, list(accumulate(merged[1])))
    d = LossDistribution(zip(values.tolist(), probs.tolist()))
    for name in ("values", "probs", "cum"):
        assert same_bits(getattr(d, name), getattr(ref, name)), name
    # the array merge itself
    merged_values, merged_probs = _merge_arrays(values, probs)
    assert same_bits(merged_values, ref.values)
    assert same_bits(merged_probs, ref.probs)


@settings(max_examples=200, deadline=None)
@given(atom_arrays())
def test_law_of_a_profile_matches_pair_build(arrays):
    # twice: the second build of the kernels' atoms reuses the space's
    # cached weight list
    values, probs = arrays
    x = LossProfile(StateSpace(probs), values)
    d = distribution_of(x)
    for _ in range(2):
        ref = PairLaw(*_space_atoms(values.tolist(), x.space))
        for name in ("values", "probs", "cum"):
            assert same_bits(getattr(d, name), getattr(ref, name)), name


def test_exact_ties_merge_without_the_pair_loop(monkeypatch):
    # the benchmark's heavily tied shape: 10,000 losses on a half-unit grid
    rng = np.random.default_rng(3)
    values = np.round(rng.normal(0.0, 1.5, size=10_000) * 2.0) / 2.0
    w = rng.uniform(0.5, 1.5, size=10_000)
    x = LossProfile(StateSpace(w / math.fsum(w.tolist())), values)
    ref = PairLaw(*_space_atoms(values.tolist(), x.space))

    def refuse(pairs, merge_tol):
        raise AssertionError("exact ties reached the pair loop")

    monkeypatch.setattr(state_space, "_merge_sorted", refuse)
    d = distribution_of(x)
    assert len(d) < 100
    for name in ("values", "probs", "cum"):
        assert same_bits(getattr(d, name), getattr(ref, name)), name


@pytest.mark.parametrize("values", [
    [1.0, 1.0 + 2.0**-52, 3.0],
    # a chain longer than the tolerance: 1.2e-12 starts a new group
    [0.0, 0.6e-12, 1.2e-12, 1.0],
    # near and exact ties together, unsorted, with a signed zero
    [2.0, -0.0, 1e-13, 2.0, 0.0, 2.0 + 1e-12, -5.0, 1e-13],
], ids=["one-gap", "chain", "mixed"])
def test_near_ties_take_the_pair_loop_once(monkeypatch, values):
    values = np.array(values)
    probs = np.arange(1.0, values.size + 1.0)
    probs /= math.fsum(probs.tolist())
    pairs = sorted(zip(values.tolist(), probs.tolist()), key=itemgetter(0))
    ref = _merge_sorted(pairs, _merge_tol(pairs[0][0], pairs[-1][0]))
    calls = []

    def counted(pairs, merge_tol):
        calls.append(merge_tol)
        return _merge_sorted(pairs, merge_tol)

    monkeypatch.setattr(state_space, "_merge_sorted", counted)
    merged = _merge_arrays(values, probs)
    assert len(calls) == 1
    assert len(ref[0]) < values.size
    assert same_bits(merged[0], ref[0]) and same_bits(merged[1], ref[1])


def test_capacity_validation_and_lookup():
    # k=2 additive capacity with weights (0.3, 0.7); masks 0b01, 0b10, 0b11.
    cap = Capacity(2, {0: 0.0, 1: 0.3, 2: 0.7, 3: 1.0})
    assert cap.of(0b01) == 0.3
    assert cap.of(0b11) == 1.0
    with pytest.raises(DomainError):
        Capacity(2, {0: 0.0, 1: 0.5, 2: 0.7, 3: 0.9})  # full set not 1
    with pytest.raises(DomainError):
        # {1} has larger capacity than {1,2}: not monotone.
        Capacity(3, {0: 0.0, 1: 0.8, 2: 0.1, 3: 0.5, 4: 0.1, 5: 0.9, 6: 0.2, 7: 1.0})
    with pytest.raises(DomainError):
        Capacity(0, {})
    with pytest.raises(DomainError, match="must lie in"):
        Capacity(2, {0: 0.0, 1: math.nan, 2: 0.7, 3: 1.0})


@pytest.mark.parametrize("build, message", [
    (lambda: StateSpace([[0.5, 0.5]]), "probs must be a nonempty 1-d sequence"),
    (lambda: StateSpace([0.5, math.nan]), "probs must be finite"),
    (lambda: StateSpace([math.inf, 0.5]), "probs must be finite"),
    (lambda: StateSpace.uniform(0), "need at least one state"),
    (lambda: Capacity(2, [0.0, 0.5, 1.0]), "capacity needs a value for each of 4 subsets, got 3"),
    (lambda: Capacity(1, [0.5, 1.0]), "capacity of the empty set must be 0"),
    (lambda: Capacity(2.0, [0.0, 0.5, 0.5, 1.0]),
     "capacity index count must be an integer, got 2.0"),
    (lambda: Capacity(True, [0.0, 1.0]), "capacity index count must be an integer"),
    (lambda: Capacity(17, {}), r"capacity index count must be in 1\.\.16, got 17"),
], ids=["two-d", "nan-weight", "infinite-weight", "no-states", "capacity-length",
        "capacity-empty-set", "fractional-count", "bool-count", "count-too-large"])
def test_spaces_and_capacities_refuse_bad_input(build, message):
    with pytest.raises(DomainError, match=message):
        build()


@pytest.mark.parametrize("mask", [-1, 4, 2**64, True, 1.0, np.float64(1.0), "1"],
                         ids=["negative", "past-the-full-set", "huge", "bool", "float",
                              "numpy-float", "text"])
def test_capacity_refuses_masks_that_are_not_in_range(mask):
    # before, -1 wrote the full set's entry through numpy's negative index
    with pytest.raises(DomainError, match=r"capacity mask .* is not an integer in 0\.\.3"):
        Capacity(2, {0: 0.0, mask: 0.5, 2: 0.5, 3: 1.0})


def test_capacity_takes_numpy_integers():
    masks = np.arange(4)
    mu = Capacity(np.int64(2), dict(zip(masks, [0.0, 0.25, 0.5, 1.0])))
    assert mu.index_count == 2 and mu.of(1) == 0.25


def test_profile_needs_a_state_space():
    with pytest.raises(TypeError, match="space must be a StateSpace"):
        LossProfile([0.5, 0.5], [1.0, 2.0])


# The largest offset from 1 of the fsum mass that a space takes:
# 4504 * 2**-52 already exceeds 1e-12.
MASS_EDGE = 4503 * 2.0**-52


def tune_mass(weights, target):
    """``weights`` with the last one moved so that their fsum is exactly
    ``target``."""
    w = list(weights)
    w[-1] = float(Fraction(target) - sum(map(Fraction, w[:-1])))
    while math.fsum(w) != target:
        w[-1] = math.nextafter(w[-1], math.inf if math.fsum(w) < target else -math.inf)
    return w


@st.composite
def tied_edge_cases(draw):
    """Weights of fsum mass exactly 1 + MASS_EDGE or 1 - MASS_EDGE, losses
    at small integers with states 0 and 1 tied, and a state ``j`` >= 2
    whose coordinate line keeps that tie among its fixed entries."""
    n = draw(st.integers(3, 8))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = math.fsum(raw)
    sign = draw(st.sampled_from([1.0, -1.0]))
    weights = tune_mass([r / total for r in raw], 1.0 + sign * MASS_EDGE)
    values = [float(v) for v in draw(st.lists(st.integers(-3, 3), min_size=n,
                                              max_size=n))]
    values[1] = values[0]
    return weights, values, draw(st.integers(2, n - 1))


def hex_list(xs):
    return [float(v).hex() for v in xs]


@settings(max_examples=200, deadline=None)
@given(tied_edge_cases())
# the merge of the tied 1.0 rounds this law's fsum mass to 1 + 4504 * 2**-52
@example(([0.31925244413817927, 0.41632748194291, 0.2644200739199106],
          [1.0, 1.0, 2.0], 2))
def test_tied_losses_build_at_the_mass_edge(case):
    # the mass rule holds where the weights enter; a law built on them
    # merges ties and carries only the merge's rounding
    weights, values, j = case
    space = StateSpace(weights)
    x = LossProfile(space, values)
    d = distribution_of(x)
    LossDistribution(zip(values, weights))
    atoms = _space_atoms(values, space)
    for got, want in zip(atoms, (d.values, d.probs, d.cum)):
        assert hex_list(got) == hex_list(want)
    # the law by exact grouping, and levels at the middle of each cell
    groups = {}
    for v, p in zip(values, weights):
        groups[v] = groups.get(v, 0) + Fraction(p)
    law_values = sorted(groups)
    law_cum = np.array([float(c) for c in accumulate(groups[v] for v in law_values)])
    levels = [0.5 * (a + b) for a, b in zip([0.0] + law_cum[:-1].tolist(), law_cum)]
    knots = [(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5)]
    bench = LossBenchmark([(0.0, levels[0]), (1.0, levels[-1])])
    cases = [(mean_measure(), oracles.oracle_mean(values, weights)),
             (worst_case_measure(), max(values)),
             (shortfall_measure(Utility(knots)),
              oracles.oracle_shortfall(values, weights, knots)),
             (lvar_measure(bench), max(oracles.oracle_var(values, weights, a) - t
                                       for t, a in zip(bench.times, bench.levels)))]
    cases += [(entropic_measure(lam), oracles.oracle_entropic(values, weights, lam))
              for lam in (0.5, 2.0)]
    for b in levels:
        q = oracles.oracle_var(values, weights, b)
        cases += [(var_measure(b), q), (max_var_measure([weights], b), q),
                  (med_var_measure([weights], b), q),
                  (es_measure(b), oracles.array_es(np.array(law_values), law_cum, b))]
    for rho, want in cases:
        # the kernel at n <= 64 and the law-level primitive
        for got in (rho(x), rho._fn(x)):
            assert got == pytest.approx(want, abs=1e-9), rho.name
    # a coordinate line whose fixed entries hold the tie, through each
    # line form and at points on and off the atoms
    points = sorted(set(values)) + [v + 0.5 for v in set(values)] + [-5.0, 5.0]
    for rho in (es_measure(levels[-1]), worst_case_measure()):
        line = rho._line(values, j, space)
        for t in points:
            row = list(values)
            row[j] = t
            assert line(t).hex() == rho._score(row, space).hex()
