"""Primitive measures against frozen oracle values and basic laws."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starrisk.state_space import (
    VALUE_MERGE_TOL,
    DomainError,
    LossDistribution,
    LossProfile,
    StateSpace,
    _line_atoms,
    _space_atoms,
    distribution_of,
)
from starrisk.measures import (
    RiskEvaluator,
    _es_table,
    LossBenchmark,
    Utility,
    entropic,
    entropic_measure,
    es,
    es_measure,
    lvar,
    lvar_measure,
    max_var,
    max_var_measure,
    mean,
    mean_measure,
    med_var,
    med_var_measure,
    shortfall,
    shortfall_measure,
    utility_is_star_compatible,
    var,
    var_measure,
    worst_case,
    worst_case_measure,
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
        assert [e.hex() for e in _es_table(d, levels)] == [e.hex() for e in expected]


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
        with pytest.raises(DomainError, match="levels must lie in"):
            LossBenchmark([(0.0, math.nan)])  # VaR at a NaN level is no number
        with pytest.raises(DomainError, match="times must be finite"):
            LossBenchmark([(0.0, 0.5), (math.nan, 0.9)])

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

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1.0, 1e6])
    def test_bisection_width_follows_scale(self, scale):
        # the bisection stops at width 1e-10 * min(1, scale), 1.2e-11
        # relative at unit scale; the utility must keep the low digits of
        # small arguments for that width to show
        values = [scale * v for v in (-1.0, 2.0, 4.0)]
        knots = [(-1.0, -3.0), (0.0, 0.0), (1.0, 1.0)]
        x = LossProfile(StateSpace.uniform(3), values)
        want = oracles.oracle_shortfall(values, [1 / 3] * 3, knots, tol=0.0)
        assert math.isclose(shortfall_measure(Utility(knots))(x), want, rel_tol=1e-10)


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
        with pytest.raises(DomainError, match="knots must be finite"):
            Utility([(-1.0, -3.0), (0.0, 0.0), (math.nan, 1.0)])


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
        with pytest.raises(DomainError, match="must be finite"):
            entropic(UNIFORM4, math.inf)  # inf * log(1) would give NaN

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


# -- plain-atom kernels -------------------------------------------------------

@st.composite
def small_profiles(draw):
    """Profiles of 1 to 64 states with non-uniform weights, exact ties,
    signed zeros and chains of near-merge steps, at magnitudes 1e-12 to
    1e12."""
    n = draw(st.integers(1, 64))
    ints = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    step = draw(st.sampled_from([0.0, 0.3e-12, 0.9e-12]))
    scale = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(-12, 12))
    values = (np.array(ints, float) + step * np.array(steps)) * scale
    return LossProfile(StateSpace(weights / weights.sum()), values)


LEVELS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.0 - 1e-12, -0.5, 1.5]),
)


def outcome(call):
    try:
        return float(call()).hex()
    except (DomainError, OverflowError) as exc:
        # OverflowError: math.fsum's intermediate overflow near 1e308
        return "%s: %s" % (type(exc).__name__, exc)


POSITIVE_LAMBDAS = st.integers(-12, 12).map(lambda e: 10.0 ** e)
LAMBDAS = st.one_of(
    st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan]), POSITIVE_LAMBDAS)


def refusal(call):
    """The message of the DomainError ``call`` raises, or None."""
    try:
        call()
    except DomainError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(LEVELS, LAMBDAS)
def test_factories_refuse_what_their_primitives_refuse(beta, lam):
    rows = [[0.25, 0.75], [0.5, 0.5]]
    laws = [distribution_of(LossProfile(StateSpace(w), [1.0, 2.0])) for w in rows]
    d = laws[0]
    for build, primitive in [
        (lambda: var_measure(beta), lambda: var(d, beta)),
        (lambda: es_measure(beta), lambda: es(d, beta)),
        (lambda: entropic_measure(lam), lambda: entropic(d, lam)),
        (lambda: max_var_measure(rows, beta), lambda: max_var(laws, beta)),
        (lambda: med_var_measure(rows, beta), lambda: med_var(laws, beta)),
    ]:
        assert refusal(build) == refusal(primitive), (beta, lam)


def kernel_cases(beta, lam):
    """(evaluator, primitive) for every kernel-backed factory, leaving
    out those that refuse ``beta`` or ``lam``."""
    bench = LossBenchmark([(0.0, 0.5), (0.5, 0.9), (2.0, 1.0)])
    cases = [
        (mean_measure(), mean),
        (worst_case_measure(), worst_case),
        (lvar_measure(bench), lambda d: lvar(d, bench)),
    ]
    for factory, primitive, param in ((var_measure, var, beta), (es_measure, es, beta),
                                      (entropic_measure, entropic, lam)):
        try:
            rho = factory(param)
        except DomainError:
            continue
        cases.append((rho, lambda d, f=primitive, a=param: f(d, a)))
    return cases


@settings(max_examples=300, deadline=None)
@given(small_profiles(), LEVELS, POSITIVE_LAMBDAS)
def test_kernels_match_array_primitives_bit_for_bit(x, beta, lam):
    d = distribution_of(x)
    for rho, primitive in kernel_cases(beta, lam):
        assert rho._law is not None, rho.name
        assert outcome(lambda: rho(x)) == outcome(lambda: primitive(d)), rho.name


# -- line-local laws -------------------------------------------------------------

def hex_lists(atoms):
    return [[v.hex() for v in part] for part in atoms]


def line_points(values, j, rnd):
    """Finite points on the line of entry ``j``: signed zeros; a few of
    the other entries (their extremes among them), each with its
    neighbours at one ulp and at the merge tolerance; the extremes
    negated; and points outside their range, where the tolerance grows
    with t until the other entries merge."""
    others = values[:j] + values[j + 1:]
    points = [0.0, -0.0]
    if not others:
        return points + [values[j], 1e-300, -2.5e12]
    top = max(abs(v) for v in others) or 1.0
    tol = VALUE_MERGE_TOL * top
    picks = {min(others), max(others)} | set(rnd.sample(others, min(3, len(others))))
    for v in picks:
        points += [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf),
                   v + tol, v - tol, v + 2.0 * tol, v - 0.5 * tol]
    for m in (min(others), max(others)):
        # the tolerance of t itself at and just past m's neighbourhood
        points += [-m, m * (1.0 + 1e-12), m * (1.0 + 3e-12), 3.0 * m, -3.0 * m]
    points += [s * top * f for s in (1.0, -1.0) for f in (1e11, 1e12, 1e13, 1e16)]
    return [t for t in points if math.isfinite(t)]


def with_signed_zeros(values, rnd):
    return [rnd.choice((0.0, -0.0)) if v == 0.0 else v for v in values]


def sample_points(values, j, rnd, k):
    """``k`` of the line's points, or all of them when ``k`` is None."""
    points = line_points(values, j, rnd)
    return points if k is None else rnd.sample(points, min(k, len(points)))


def list_form(vals, probs, cum, at):
    """A line form whose step gives the law's three lists, so that a line
    of ``_line_atoms`` can be checked against ``_space_atoms``."""
    return lambda t: (vals[:at] + [t] + vals[at:], probs, cum)


def check_line_atoms(values, space, rnd, k=5):
    for j in range(space.n):
        atoms = _line_atoms(values, j, space, list_form, lambda *lists: lists)
        for t in sample_points(values, j, rnd, k):
            row = values[:j] + [t] + values[j + 1:]
            assert hex_lists(atoms(t)) == hex_lists(_space_atoms(row, space)), (j, t)


def line_members():
    """Every kernel-backed factory at a valid level, VaR also at its edge
    level 1, and one member without a kernel."""
    es5 = es_measure(0.5)
    return [rho for rho, _ in kernel_cases(0.5, 1.0)] + [
        var_measure(1.0), RiskEvaluator("opaque_es", es5._fn, es5.claims)]


def check_evaluator_lines(values, space, rnd, k=6, lines=2):
    """Up to ``lines`` lines per member, each scored at ``k`` sampled
    points (all when None), shuffled, each twice: the second score at an
    insertion place comes from its cached step."""
    for rho in line_members():
        for j in rnd.sample(range(space.n), min(lines, space.n)):
            line = rho._line(values, j, space)
            points = sample_points(values, j, rnd, k) * 2
            rnd.shuffle(points)
            for t in points:
                row = values[:j] + [t] + values[j + 1:]
                got = outcome(lambda: line(t))
                assert got == outcome(lambda: rho._score(row, space)), (rho.name, j, t)


@settings(max_examples=150, deadline=None)
@given(small_profiles(), st.integers(0, 2**32 - 1))
def test_line_atoms_match_the_edited_row(x, seed):
    # a plain generator: Hypothesis records every draw of its own randoms
    rnd = random.Random(seed)
    values = with_signed_zeros(x.values.tolist(), rnd)
    check_line_atoms(values, x.space, rnd)


@settings(max_examples=40, deadline=None)
@given(small_profiles(), st.integers(0, 2**32 - 1))
def test_evaluator_lines_match_the_edited_row(x, seed):
    # a plain generator: Hypothesis records every draw of its own randoms
    rnd = random.Random(seed)
    values = with_signed_zeros(x.values.tolist(), rnd)
    check_evaluator_lines(values, x.space, rnd)


# Near the largest double, on weights whose fsum is 1 + 9e-13: the mean's
# two positive terms alone overflow math.fsum, so on the line of entry 0
# t's term decides whether the sum overflows.  In the kernel's order that
# term comes first, and t = -MAX keeps the sum finite; t = 0 overflows.
MAX = sys.float_info.max
OVERFLOW_ROW = [-MAX, MAX * (1.0 - 2e-12), MAX]
OVERFLOW_WEIGHTS = [0.6e-12, 0.001, 0.999 + 0.3e-12]


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 0.0, -0.0, 0.0],  # the all-zero row
    [1.5],  # one state
    [0.5 * (i % 7) - 1.5 for i in range(70)],  # past the kernels' cutoff
    OVERFLOW_ROW,
])
def test_lines_on_edge_rows(values):
    rnd = random.Random(7)
    if values is OVERFLOW_ROW:
        space = StateSpace(OVERFLOW_WEIGHTS)
        # the row tells term orders apart; both points are on its lines
        line = mean_measure()._line(values, 0, space)
        assert line(-MAX) < MAX
        with pytest.raises(OverflowError):
            line(0.0)
    else:
        space = StateSpace.uniform(len(values))
    if space.n <= 5:  # every point of every line
        check_line_atoms(values, space, rnd, None)
        check_evaluator_lines(values, space, rnd, None, space.n)
    else:
        check_line_atoms(values, space, rnd)
        check_evaluator_lines(values, space, rnd)


# -- the array primitives against their former formulas -------------------------

@st.composite
def large_profiles(draw):
    """Profiles of 65 to 2,048 states with non-uniform weights, exact ties,
    signed zeros side by side and chains of near-merge steps, at magnitudes
    1e-12 to 1e12.  The per-state draws come from a seeded generator."""
    n = draw(st.integers(65, 2048))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([3, 1000]))
    ints = rng.integers(-spread, spread + 1, size=n)
    steps = rng.integers(0, 6, size=n)
    weights = rng.integers(1, 5, size=n).astype(float)
    # steps of 0.3 or 0.9 times the merge tolerance at the largest magnitude
    step = draw(st.sampled_from([0.0, 0.3e-12, 0.9e-12])) * spread
    scale = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(-12, 12))
    values = (ints + step * steps) * scale
    zeros = values == 0.0
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    return LossProfile(StateSpace(weights / weights.sum()), values)


def same_or_refused(value, reference):
    """``value()`` equals ``reference()`` bit for bit, or raises DomainError
    where the reference refuses the level."""
    try:
        want = reference()
    except ValueError:
        with pytest.raises(DomainError):
            value()
        return
    assert value().hex() == want.hex()


@settings(max_examples=150, deadline=None)
@given(large_profiles(), LEVELS, st.lists(st.integers(0, 10**6), max_size=4))
def test_var_lvar_es_match_array_formulas(x, beta, picks):
    d = distribution_of(x)
    values, cum = d.values, d.cum
    # the drawn level and some exact breakpoints of the law
    levels = [beta, 1.0 - 1e-12] + [float(cum[i % len(cum)]) for i in picks]
    for b in levels:
        same_or_refused(lambda: var(d, b), lambda: oracles.array_var(values, cum, b))
        same_or_refused(lambda: es(d, b), lambda: oracles.array_es(values, cum, b))
    # steps spaced at the law's scale, so that each can attain the sup
    scale = max(-float(values[0]), float(values[-1])) or 1.0
    bench_levels = sorted({0.5, 0.9, 1.0} | ({beta} if 0.0 < beta <= 1.0 else set()))
    bench = LossBenchmark([(0.5 * i * scale, a) for i, a in enumerate(bench_levels)])
    same_or_refused(
        lambda: lvar(d, bench),
        lambda: oracles.array_lvar(values, cum, bench.times, bench.levels),
    )


@st.composite
def integer_knot_utilities(draw):
    """Knots at integers in [-4, 4] including (0, 0), with integer slopes
    sorted down (concave), sorted up (convex) or as drawn (mixed)."""
    xs = sorted(set(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8))) | {0})
    if len(xs) < 2:
        xs.append(1)
    slopes = draw(st.lists(st.integers(1, 5), min_size=len(xs) - 1,
                           max_size=len(xs) - 1))
    shape = draw(st.sampled_from(["concave", "convex", "mixed"]))
    if shape != "mixed":
        slopes.sort(reverse=shape == "concave")
    ys = [0] * len(xs)
    zero = xs.index(0)
    for i in range(zero + 1, len(xs)):
        ys[i] = ys[i - 1] + slopes[i - 1] * (xs[i] - xs[i - 1])
    for i in range(zero - 1, -1, -1):
        ys[i] = ys[i + 1] - slopes[i] * (xs[i + 1] - xs[i])
    return shape, list(zip(xs, ys))


@settings(max_examples=300, deadline=None)
@given(integer_knot_utilities())
def test_star_compatibility_matches_ratio_oracle(case):
    shape, knots = case
    got = utility_is_star_compatible(Utility(knots))
    assert got == oracles.oracle_star_compatible(knots)
    if shape == "concave":
        assert got


# -- shortfall's replayed bisection --------------------------------------------

# (x, y) knots: concave, star-shaped but not concave, and not star-shaped
CONCAVE_KNOTS = [(-2.0, -5.0), (-1.0, -2.0), (0.0, 0.0), (1.0, 1.5), (3.0, 3.0)]
STAR_KNOTS = [(-1.0, -3.0), (0.0, 0.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.4)]
INCOMPATIBLE_KNOTS = [(-1.0, -2.0), (0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]


def same_shortfall(d, knots):
    u = Utility(knots)
    assert shortfall(d, u).hex() == oracles.bisect_shortfall(d, u).hex()


@settings(max_examples=300, deadline=None)
@given(
    small_profiles(),
    st.one_of(
        integer_knot_utilities().map(lambda case: case[1]),
        st.sampled_from([CONCAVE_KNOTS, STAR_KNOTS, INCOMPATIBLE_KNOTS]),
    ),
    st.sampled_from([1e-6, 1.0, 1e6]),
    st.sampled_from([0.0, 1.0, -1.0]),
    st.integers(-12, 12),
)
def test_shortfall_replays_the_bisection_bit_for_bit(x, knots, knot_scale, sign, exponent):
    # the law, its utility's knots and an offset each at its own magnitude;
    # an offset far above the spread merges the atoms
    offset = sign * 10.0 ** exponent
    d = distribution_of(LossProfile(x.space, x.values + offset))
    same_shortfall(d, [(knot_scale * kx, knot_scale * ky) for kx, ky in knots])


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("knots", [CONCAVE_KNOTS, STAR_KNOTS, INCOMPATIBLE_KNOTS])
def test_shortfall_with_a_midpoint_within_one_ulp_of_the_root(knots, scale):
    # under a linear utility the root of p0 u(m) + p1 u(m - s) is
    # s p1 / (p0 + p1): the first midpoint s / 2, about one ulp above it,
    # and about half an ulp below it; other utilities put the later
    # midpoints near their roots at the ulp level
    for p0, p1 in ((0.5, 0.5), (0.5 - 2.0**-53, 0.5 + 2.0**-53), (0.5, 0.5 - 2.0**-54)):
        d = LossDistribution([(0.0, p0), (scale, p1)])
        same_shortfall(d, [(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)])
        same_shortfall(d, knots)


@pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
def test_shortfall_with_the_root_on_a_breakpoint(scale):
    # 0.75 u(1) + 0.25 u(-2.5) = 0: the root 0 is v_0 + 1 and v_1 - 2.5, both
    # knots, and no midpoint of [-1, 2.5]
    knots = [(scale * kx, scale * ky) for kx, ky in
             [(-2.5, -3.0), (0.0, 0.0), (1.0, 1.0), (2.0, 1.5)]]
    values = [-scale, 2.5 * scale]
    assert oracles.oracle_shortfall(values, [0.75, 0.25], knots) == 0.0
    same_shortfall(LossDistribution(zip(values, [0.75, 0.25])), knots)
    # on (-1, 1) with knots at -1 and 1 it is also the first midpoint
    knots = [(-scale, -3.0 * scale), (0.0, 0.0), (scale, scale)]
    assert oracles.oracle_shortfall([-scale, scale], [0.75, 0.25], knots) == 0.0
    same_shortfall(LossDistribution([(-scale, 0.75), (scale, 0.25)]), knots)


@pytest.mark.parametrize("value", [0.0, -0.0, -3.0, 1e-12, 2.5e12])
def test_shortfall_of_a_single_atom(value):
    for knots in (CONCAVE_KNOTS, STAR_KNOTS, INCOMPATIBLE_KNOTS):
        d = LossDistribution([(value, 1.0)])
        same_shortfall(d, knots)
        assert shortfall(d, Utility(knots)) == value


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("n", [1024, 10_000])
def test_shortfall_replays_the_bisection_at_large_n(n, scale):
    # bulk_eval's profile shapes: Student t, normal and half-step ties
    rng = np.random.default_rng([n, 17])
    weights = rng.uniform(0.5, 1.5, size=n)
    space = StateSpace(weights / weights.sum())
    shapes = (rng.standard_t(5, size=n), rng.normal(size=n),
              np.round(rng.normal(0.0, 1.5, size=n) * 2.0) / 2.0)
    for values in shapes:
        d = distribution_of(LossProfile(space, values * scale))
        same_shortfall(d, STAR_KNOTS)
        if n == 1024:
            same_shortfall(d, CONCAVE_KNOTS)
            same_shortfall(d, INCOMPATIBLE_KNOTS)


@pytest.mark.parametrize("build, message", [
    (lambda: Utility([(0.0, 0.0)]), "utility needs at least two knots"),
    (lambda: Utility([(1.0, 1.0), (0.0, 0.0)]),
     "utility knot abscissae must be strictly increasing"),
    (lambda: LossBenchmark([]), "benchmark needs at least one step"),
    (lambda: LossBenchmark([(0.0, 0.5), (0.0, 0.75)]),
     "benchmark times must be strictly increasing"),
    (lambda: max_var_measure([[0.5, 0.5], [0.2, 0.3, 0.5]], 0.5),
     "scenario weight vectors must share one length"),
    (lambda: max_var_measure([], 0.5), "maxvar needs at least one weight vector"),
    (lambda: med_var_measure((), 0.5), "medvar needs at least one weight vector"),
], ids=["one-knot", "knots-decreasing", "no-steps", "times-repeated", "ragged-rows",
        "maxvar-no-rows", "medvar-no-rows"])
def test_parameter_objects_refuse_bad_input(build, message):
    with pytest.raises(DomainError, match=message):
        build()
