"""State spaces, profiles, distributions, capacities."""

import math
from collections import namedtuple
from itertools import accumulate
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starrisk.measures import _PAIR_BUILD_MAX, es_measure
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
    _space_atoms,
    pointwise_leq,
    quantile_breakpoints,
)


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
    merged = _merge_sorted(sorted(zip(values.tolist(), probs.tolist()),
                                  key=itemgetter(0)))
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
