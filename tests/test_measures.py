"""Primitive measures against frozen oracle values and basic laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starrisk.state_space import (
    DomainError,
    LossDistribution,
    LossProfile,
    StateSpace,
    distribution_of,
)
from starrisk.measures import (
    _es_levels,
    LossBenchmark,
    Utility,
    entropic,
    es,
    es_measure,
    lvar,
    lvar_measure,
    max_var,
    max_var_measure,
    mean,
    med_var,
    med_var_measure,
    shortfall,
    utility_is_star_compatible,
    var,
    var_measure,
    worst_case,
)

import oracles

UNIFORM4 = LossDistribution([(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)])


def const_law(c):
    return LossDistribution([(c, 1.0)])


class TestVar:
    def test_uniform4_frozen(self):
        # Frozen from the survival-function enumeration oracle.
        assert var(UNIFORM4, 0.5) == 2.0
        assert var(UNIFORM4, 0.75) == 3.0
        assert var(UNIFORM4, 1.0) == 4.0

    def test_constant(self):
        for beta in (0.1, 0.5, 0.99, 1.0):
            assert var(const_law(-2.5), beta) == -2.5

    def test_domain(self):
        with pytest.raises(DomainError):
            var(UNIFORM4, 0.0)
        with pytest.raises(DomainError):
            var(UNIFORM4, 1.2)

    @settings(max_examples=80, deadline=None)
    @given(
        # Half-integer grid keeps value merging out of play: the library
        # merges atoms closer than 1e-12, which the oracle does not model.
        st.lists(st.integers(-40, 40).map(lambda k: 0.5 * k), min_size=1, max_size=6),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    def test_matches_oracle_and_monotone_in_level(self, values, b1, b2):
        n = len(values)
        d = distribution_of(LossProfile(StateSpace.uniform(n), values))
        probs = [1.0 / n] * n
        assert var(d, b1) == oracles.oracle_var(values, probs, b1)
        lo, hi = min(b1, b2), max(b1, b2)
        assert var(d, lo) <= var(d, hi)


class TestEs:
    def test_uniform4_frozen(self):
        # Frozen from piecewise-constant integration of the quantile curve:
        # t in (0.5, 0.75] -> 3, t in (0.75, 1) -> 4.
        assert math.isclose(es(UNIFORM4, 0.5), 3.5, abs_tol=1e-12)
        assert math.isclose(es(UNIFORM4, 0.25), 3.0, abs_tol=1e-12)

    def test_constant(self):
        assert math.isclose(es(const_law(7.0), 0.3), 7.0, abs_tol=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(DomainError):
                es(UNIFORM4, bad)

    def test_against_riemann_oracle(self):
        values = [-3.0, 0.5, 0.5, 6.0]
        d = distribution_of(LossProfile(StateSpace.uniform(4), values))
        approx = oracles.oracle_es(values, [0.25] * 4, 0.4, steps=40_001)
        assert math.isclose(es(d, 0.4), approx, abs_tol=5e-4)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=6), st.floats(0.01, 0.99))
    def test_dominates_var(self, values, beta):
        d = distribution_of(LossProfile(StateSpace.uniform(len(values)), values))
        assert es(d, beta) >= var(d, beta) - 1e-12

    # Values live on a 1/64 grid: distinct atoms must stay farther apart
    # than the distribution's merge tolerance at every scale in range,
    # otherwise dilation changes the atom census and the comparison is
    # between different laws.
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(-640, 640).map(lambda k: k / 64.0),
            min_size=2,
            max_size=5,
        ),
        st.floats(0.05, 0.95),
        st.floats(0.1, 4.0),
    )
    def test_var_es_positively_homogeneous(self, values, beta, lam):
        s = StateSpace.uniform(len(values))
        x = LossProfile(s, values)
        dx, dlx = distribution_of(x), distribution_of(lam * x)
        assert math.isclose(var(dlx, beta), lam * var(dx, beta), abs_tol=1e-12)
        assert math.isclose(es(dlx, beta), lam * es(dx, beta), abs_tol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(1, 4)), min_size=1, max_size=80
        ),
        st.integers(-12, 12),
        st.lists(st.floats(0.001, 0.999), max_size=8),
    )
    def test_levels_kernel_matches_es(self, atoms, exponent, extra):
        values = [0.5 * k * 10.0**exponent for k, _ in atoms]
        weights = np.array([w for _, w in atoms], float)
        d = LossDistribution(zip(values, weights / weights.sum()))
        levels = np.array(
            [c for c in d.cum[:-1].tolist() if 0.0 < c < 1.0] + sorted(extra)
        )
        expected = [es(d, b) for b in levels.tolist()]
        assert [e.hex() for e in _es_levels(d, levels)] == [e.hex() for e in expected]


def test_var_and_mean_match_oracles_at_10000_states():
    rng = np.random.default_rng(7)
    n = 10_000
    # half the states on a coarse grid (exact ties), half distinct
    values = np.where(
        np.arange(n) % 2 == 0, np.round(rng.normal(size=n), 1), rng.normal(size=n)
    )
    weights = rng.random(n) + 0.1
    space = StateSpace(weights / weights.sum())
    d = distribution_of(LossProfile(space, values))
    vals, probs = values.tolist(), space.probs.tolist()
    assert var(d, 0.9) == oracles.oracle_var(vals, probs, 0.9)
    assert math.isclose(mean(d), oracles.oracle_mean(vals, probs), abs_tol=1e-12)


class TestRobustifiedVar:
    def test_singleton_and_duplicates(self):
        assert max_var([UNIFORM4], 0.5) == var(UNIFORM4, 0.5)
        assert med_var([UNIFORM4, UNIFORM4], 0.5) == var(UNIFORM4, 0.5)

    def test_two_laws_frozen(self):
        shifted = LossDistribution([(2, 0.25), (3, 0.25), (4, 0.25), (5, 0.25)])
        # var(0.5) of the shifted law is 3; max(2, 3) = 3.
        assert max_var([UNIFORM4, shifted], 0.5) == 3.0

    def test_median_conventions(self):
        laws = [const_law(c) for c in (1.0, 5.0, 9.0)]
        assert med_var(laws, 0.5) == 5.0
        laws = [const_law(c) for c in (1.0, 2.0, 8.0, 9.0)]
        # Even count takes the lower middle value.
        assert med_var(laws, 0.5) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            max_var([], 0.5)
        with pytest.raises(DomainError):
            med_var([], 0.5)

    def test_evaluators_pin_state_count(self):
        rows = [[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]]
        m = med_var_measure(rows, 0.5)
        assert m.required_n == 2
        x3 = LossProfile(StateSpace.uniform(3), [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            m(x3)
        x = LossProfile(StateSpace.uniform(2), [1.0, 2.0])
        # Laws under the three weightings give var(0.5) = 1, 2, 1: the
        # median is 1, the max is 2 (survival enumeration oracle).
        assert m(x) == 1.0
        assert max_var_measure(rows, 0.5)(x) == 2.0


class TestLvar:
    def test_constant_benchmark_reduces_to_var(self):
        bench = LossBenchmark([(0.0, 0.6)])
        assert lvar(UNIFORM4, bench) == var(UNIFORM4, 0.6)

    def test_two_step_frozen(self):
        bench = LossBenchmark([(0.0, 0.5), (1.0, 0.75)])
        # max(var(0.5) - 0, var(0.75) - 1) = max(2, 2) = 2.
        assert lvar(UNIFORM4, bench) == 2.0

    def test_translation(self):
        bench = LossBenchmark([(0.0, 0.5), (1.0, 0.75)])
        shifted = LossDistribution([(v + 10.0, 0.25) for v in (1, 2, 3, 4)])
        assert lvar(shifted, bench) == 12.0

    def test_benchmark_validation(self):
        with pytest.raises(DomainError):
            LossBenchmark([(1.0, 0.5)])  # must start at t = 0
        with pytest.raises(DomainError):
            LossBenchmark([(0.0, 0.8), (1.0, 0.5)])  # decreasing level
        with pytest.raises(DomainError):
            LossBenchmark([(0.0, 0.0)])  # level outside (0, 1]

    def test_sup_matches_dense_grid(self):
        bench = LossBenchmark([(0.0, 0.3), (0.7, 0.55), (2.0, 0.9)])
        values = [-2.0, 1.0, 3.0, 8.0]
        d = distribution_of(LossProfile(StateSpace.uniform(4), values))
        ts = np.arange(0.0, 6.0, 1e-3)
        levels = np.where(ts < 0.7, 0.3, np.where(ts < 2.0, 0.55, 0.9))
        dense = max(
            oracles.oracle_var(values, [0.25] * 4, a) - t for t, a in zip(ts, levels)
        )
        assert math.isclose(lvar(d, bench), dense, abs_tol=1e-9)


class TestShortfall:
    def test_linear_utility_gives_mean(self):
        u = Utility([(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)])
        assert math.isclose(shortfall(UNIFORM4, u), mean(UNIFORM4), abs_tol=1e-9)

    def test_constant(self):
        u = Utility([(-1.0, -2.0), (0.0, 0.0), (1.0, 1.0)])
        assert math.isclose(shortfall(const_law(4.0), u), 4.0, abs_tol=1e-9)

    def test_kinked_frozen(self):
        # Frozen from the segment-walking oracle: root of
        # 0.5*u(m-1) + 0.5*u(m+1) with slope 2 below 0 and 1 above is 1/3.
        u = Utility([(-1.0, -2.0), (0.0, 0.0), (1.0, 1.0)])
        d = LossDistribution([(-1.0, 0.5), (1.0, 0.5)])
        assert math.isclose(shortfall(d, u), 1.0 / 3.0, abs_tol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=5))
    def test_bisection_matches_segment_oracle(self, values):
        knots = [(-2.0, -5.0), (-1.0, -2.0), (0.0, 0.0), (1.0, 1.5), (3.0, 3.0)]
        u = Utility(knots)
        d = distribution_of(LossProfile(StateSpace.uniform(len(values)), values))
        expected = oracles.oracle_shortfall(values, [1 / len(values)] * len(values), knots)
        assert math.isclose(shortfall(d, u), expected, abs_tol=1e-8)


    def test_segment_oracle_at_small_scale(self):
        # evaluated from the left knot and bracketed within 1e-12 of zero,
        # the oracle returned 2.43e-12 here
        values = [1e-12 * v for v in (-1.0, 2.0, 4.0)]
        knots = [(-1.0, -3.0), (0.0, 0.0), (1.0, 1.0)]
        root = oracles.oracle_shortfall(values, [1 / 3] * 3, knots)
        assert math.isclose(root, 2.6e-12, rel_tol=1e-12)


class TestUtilityStarCompatibility:
    def test_concave_is_compatible(self):
        u = Utility([(-1.0, -3.0), (0.0, 0.0), (1.0, 1.0)])
        assert utility_is_star_compatible(u)

    def test_chord_increase_rejected(self):
        u = Utility([(-1.0, -2.0), (0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
        # u(2)/2 = 1.5 exceeds u(1)/1 = 1.
        assert not utility_is_star_compatible(u)

    def test_linear_is_compatible(self):
        assert utility_is_star_compatible(Utility([(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)]))

    def test_nonconcave_compatible_shape(self):
        # Slopes 3, 2, 1, 1.4: a kink up at x = 2, yet every origin chord
        # ratio is still nonincreasing on each half-line.
        u = Utility([(-1.0, -3.0), (0.0, 0.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.4)])
        assert utility_is_star_compatible(u)

    def test_utility_validation(self):
        with pytest.raises(DomainError):
            Utility([(0.0, 0.0), (1.0, -1.0)])  # decreasing
        with pytest.raises(DomainError):
            Utility([(-1.0, -1.0), (1.0, 1.0)])  # no knot at 0


class TestEntropic:
    def test_constant(self):
        assert math.isclose(entropic(const_law(-3.0), 2.0), -3.0, abs_tol=1e-12)

    def test_frozen_two_point(self):
        d = LossDistribution([(0.0, 0.5), (2.0, 0.5)])
        assert math.isclose(entropic(d, 1.0), math.log(0.5 * (1 + math.e**2)), abs_tol=1e-12)

    def test_large_lambda_approaches_mean(self):
        assert math.isclose(entropic(UNIFORM4, 1e6), 2.5, abs_tol=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            entropic(UNIFORM4, 0.0)

    def test_no_overflow_on_large_losses(self):
        d = LossDistribution([(0.0, 0.5), (5000.0, 0.5)])
        v = entropic(d, 1.0)
        assert math.isfinite(v)
        assert math.isclose(v, 5000.0 - math.log(2.0), abs_tol=1e-6)


def test_mean_and_worst_case():
    assert worst_case(UNIFORM4) == 4.0
    assert mean(UNIFORM4) == 2.5
    assert worst_case(const_law(3.0)) == 3.0
    d = LossDistribution([(-2.0, 0.5), (2.0, 0.5)])
    assert worst_case(d) == 2.0
    assert mean(d) == 0.0


def test_evaluator_claims_are_flags_only():
    assert "convex" not in var_measure(0.5).claims
    assert "convex" in es_measure(0.5).claims
    assert "star_shaped" in lvar_measure(LossBenchmark([(0.0, 0.5)])).claims
    with pytest.raises(DomainError):
        from starrisk.measures import RiskEvaluator

        RiskEvaluator("bad", lambda x: 0.0, claims=("definitely_not_a_claim",))
