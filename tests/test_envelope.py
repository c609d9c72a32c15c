"""Envelope members, minimum representations, and grid penalty conjugates."""

import math
import time
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starrisk.state_space import (
    DimensionError,
    DomainError,
    LossProfile,
    StateSpace,
)
from starrisk.measures import (
    RiskEvaluator,
    Utility,
    entropic_measure,
    es_measure,
    mean_measure,
    shortfall_measure,
    var_measure,
    worst_case_measure,
)
from starrisk.aggregate import MeasureFamily, ecb_blend_measure
from starrisk.axioms import DILATION_GRID, ProbeSet, check_axiom, default_probe_set
from starrisk import envelope
from starrisk.envelope import (
    EnvelopeMember,
    PenaltyTable,
    aggregate_representation_check,
    envelope_evaluate,
    envelope_family,
    envelope_member_measure,
    min_representation_check,
    penalty_of,
    relaxation_member,
)

import oracles

U2 = StateSpace.uniform(2)
U3 = StateSpace.uniform(3)
U4 = StateSpace.uniform(4)

# Uniform spaces only: envelope evaluation requires probe and member to
# share a space exactly.
PROBES = default_probe_set(seed=404, count=40, sizes=(3,), equiprobable=True)


def prof(values, space=None):
    return LossProfile(space or StateSpace.uniform(len(values)), values)


class TestEnvelopeMember:
    def test_residual_must_straddle_zero(self):
        with pytest.raises(DomainError):
            EnvelopeMember(prof([1.0, 2.0]), 0.0)
        with pytest.raises(DomainError):
            EnvelopeMember(prof([-1.0, -2.0]), 0.0)

    def test_tight_at_generator(self):
        v = var_measure(0.5)
        x = prof([1.0, 2.0, 3.0, 4.0])
        member = EnvelopeMember(x, v(x))
        assert envelope_evaluate(member, x) == 2.0

    def test_constant_profile_charged_at_level(self):
        member = EnvelopeMember(prof([2.0, -2.0]), 0.0)
        assert envelope_evaluate(member, prof([3.0, 3.0])) == 3.0

    def test_crossing_point_example(self):
        member = EnvelopeMember(prof([2.0, -2.0]), 0.0)
        assert envelope_evaluate(member, prof([3.0, -1.0])) == 1.0

    def test_space_mismatch(self):
        member = EnvelopeMember(prof([2.0, -2.0]), 0.0)
        with pytest.raises(DimensionError):
            envelope_evaluate(member, prof([1.0, 2.0, 3.0]))

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            space = StateSpace.uniform(n)
            y = LossProfile(space, rng.uniform(-4.0, 4.0, size=n))
            x = LossProfile(space, rng.uniform(-4.0, 4.0, size=n))
            for homogeneous, rho in ((False, es_measure(0.5)), (True, var_measure(0.75))):
                member = EnvelopeMember(y, rho(y), homogeneous)
                got = envelope_evaluate(member, x)
                want = oracles.oracle_envelope_value(
                    x.values, member.residual.values, homogeneous
                )
                assert got <= want + 1e-12
                assert abs(got - want) < 5e-3

    def test_tightness_is_exact_across_measures(self):
        rng = np.random.default_rng(77)
        zoo = [var_measure(0.75), es_measure(0.5), mean_measure(), worst_case_measure()]
        for rho in zoo:
            for _ in range(10):
                y = LossProfile(U3, rng.uniform(-5.0, 5.0, size=3))
                member = EnvelopeMember(y, rho(y))
                assert abs(envelope_evaluate(member, y) - rho(y)) <= 1e-12


@st.composite
def constant_positions(draw):
    """A constant position c * 1 on 1 to 8 states of random weights, with
    |c| from 1e-12 to 1e13: its measures differ from c only by rounding."""
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8))
    weights = np.array(raw) / math.fsum(raw)
    c = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-12, 12))
    c *= draw(st.sampled_from([1.0, -1.0]))
    return LossProfile(StateSpace(weights), np.full(len(raw), c))


@settings(max_examples=200, deadline=None)
@given(constant_positions(), st.floats(0.01, 0.99), st.sampled_from([0.5, 1.0, 2.0]))
def test_members_at_constant_positions_are_built_at_any_scale(y, beta, lam):
    # the straddle check allows rounding at the position's scale, so no
    # member is refused for a residual of a few ulps of c; the tight
    # member is rho(y) up to that rounding (ES's grows like 1 / (1 - beta))
    scale = max(1.0, float(np.abs(y.values).max()))
    for rho in (es_measure(beta), mean_measure(), entropic_measure(lam)):
        (member,) = envelope_family(rho, [y])
        assert abs(envelope_evaluate(member, y) - rho(y)) <= 1e-13 * scale


@st.composite
def envelope_cases(draw, max_n=80):
    """(member, x) on 1 to ``max_n`` states, segment or cone: integer grids
    give tied values and repeated residuals (r_i = r_j), zeros come signed
    either way, magnitudes run from 1e-12 to 1e12.  The per-state draws
    come from a seeded generator."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values():
        spread = draw(st.sampled_from([0, 1, 3, 1000]))
        scale = 10.0 ** draw(st.integers(-12, 12))
        if spread:
            v = rng.integers(-spread, spread + 1, size=n) * scale
        else:
            v = rng.standard_normal(n) * scale
        zeros = v == 0.0
        v[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        return v

    space = StateSpace.uniform(n)
    y = LossProfile(space, values())
    x = LossProfile(space, values())
    # a generator's own value keeps an exact zero in the residual
    rho_y = y.values[draw(st.integers(0, n - 1))]
    return EnvelopeMember(y, rho_y, draw(st.booleans())), x


# Scoring only the envelope's vertices next to its minimum cannot match
# scoring every crossing bit for bit: the extra crossings sometimes round
# below the vertex value.  Against the loop the gap measured at most
# 1.02 * 2**-52 * max|x|, against the exact minimum 2.01 for either.
ULP_SLACK = 4 * 2.0**-52

# A cone member whose minimum sits at a = 2**1074: the crossing overflows
# to inf and f is 0 from there on, on state 1's flat line.  The strategy
# draws no subnormal residual, so it would not find this case itself.
OVERFLOWED_FLAT_PIECE = (
    EnvelopeMember(prof([5e-324, 0.0]), 0.0, homogeneous=True), prof([1.0, 0.0])
)


def within_ulps(got, want, x_values):
    return abs(got - want) <= ULP_SLACK * float(np.max(np.abs(x_values)))


@settings(max_examples=200, deadline=None)
@given(envelope_cases())
@example(OVERFLOWED_FLAT_PIECE)
def test_envelope_evaluate_matches_the_candidate_loop(case):
    member, x = case
    want = oracles.loop_envelope_evaluate(
        x.values, member.residual.values, member.homogeneous
    )
    assert within_ulps(envelope_evaluate(member, x), want, x.values)


def test_envelope_evaluate_matches_the_loop_on_every_signed_zero_case():
    # every member and target on 3 states with values in {-1, -0, 0, 1}:
    # candidates often tie at zeros of either sign; the values agree, and
    # so do their bits wherever the value is not zero
    space = StateSpace.uniform(3)
    grid = [LossProfile(space, v) for v in product((-1.0, -0.0, 0.0, 1.0), repeat=3)]
    for y, k, homogeneous, x in product(grid, range(3), (False, True), grid):
        m = EnvelopeMember(y, y.values[k], homogeneous)
        want = oracles.loop_envelope_evaluate(x.values, m.residual.values, homogeneous)
        got = envelope_evaluate(m, x)
        assert got == want
        assert want == 0.0 or got.hex() == want.hex()


def test_envelope_evaluate_is_exact_on_a_flat_piece():
    # residual (0, 1, 2): f falls onto state 0's flat line and stays on it;
    # the vertex where that line takes over scores one ulp above -0.757
    member = EnvelopeMember(prof([-1.0, 0.0, 1.0]), -1.0, homogeneous=True)
    x = prof([-0.757, -0.528, 0.187])
    assert envelope_evaluate(member, x) == -0.757
    assert oracles.exact_envelope_value(x.values, member.residual.values, True) == -0.757


@settings(max_examples=300, deadline=None)
@given(envelope_cases(max_n=12))
@example(OVERFLOWED_FLAT_PIECE)
def test_envelope_evaluate_and_the_loop_are_within_ulps_of_the_exact_value(case):
    member, x = case
    r = member.residual.values
    exact = oracles.exact_envelope_value(x.values, r, member.homogeneous)
    slack = Fraction(ULP_SLACK) * Fraction(float(np.max(np.abs(x.values))))
    got = envelope_evaluate(member, x)
    loop = oracles.loop_envelope_evaluate(x.values, r, member.homogeneous)
    assert abs(Fraction(got) - exact) <= slack
    assert abs(Fraction(loop) - exact) <= slack


def test_envelope_evaluate_matches_the_loop_at_256_states():
    rng = np.random.default_rng(256)
    space = StateSpace.uniform(256)
    rho = es_measure(0.5)
    for homogeneous in (False,) * 3 + (True,) * 3:
        y = LossProfile(space, rng.standard_t(5, size=256))
        x = LossProfile(space, rng.standard_t(5, size=256))
        member = EnvelopeMember(y, rho(y), homogeneous)
        want = oracles.loop_envelope_evaluate(x.values, member.residual.values, homogeneous)
        assert within_ulps(envelope_evaluate(member, x), want, x.values)


def test_member_generated_at_x_reproduces_es_at_10000_states():
    rng = np.random.default_rng(10000)
    w = rng.uniform(0.5, 1.5, size=10000)
    x = LossProfile(StateSpace(w / w.sum()), rng.standard_t(5, size=10000))
    rho_x = es_measure(0.5)(x)
    for homogeneous in (False, True):
        member = EnvelopeMember(x, rho_x, homogeneous)
        start = time.perf_counter()
        got = envelope_evaluate(member, x)
        assert time.perf_counter() - start < 1.0
        assert within_ulps(got, rho_x, x.values)


def test_envelope_evaluate_skips_nan_candidates_like_the_loop():
    # the crossing of states 0 and 1 overflows to a = inf, and inf * 0 at
    # state 2 makes its value NaN, which the loop's min() never takes
    member = EnvelopeMember(prof([1.0, -1.0, 0.0]), 0.0, homogeneous=True)
    x = prof([1e308, -1e308, 0.0])
    with np.errstate(all="ignore"):
        want = oracles.loop_envelope_evaluate(x.values, member.residual.values, True)
        got = envelope_evaluate(member, x)
    assert got.hex() == want.hex() == (0.0).hex()
    # an infinite residual makes f(0) NaN, and the loop's min() keeps it
    with np.errstate(all="ignore"):
        member = EnvelopeMember(prof([1.7e308, -1.7e308]), -1.7e308)
        want = oracles.loop_envelope_evaluate([1.0, 2.0], member.residual.values, False)
        got = envelope_evaluate(member, prof([1.0, 2.0]))
    assert math.isnan(want) and math.isnan(got)


def test_envelope_evaluate_keeps_a_flat_piece_past_an_overflowed_crossing():
    member, x = OVERFLOWED_FLAT_PIECE
    r = member.residual.values
    with np.errstate(all="raise"):
        got = envelope_evaluate(member, x)
    assert got == 0.0
    assert oracles.exact_envelope_value(x.values, r, True) == 0
    with np.errstate(all="ignore"):
        assert oracles.loop_envelope_evaluate(x.values, r, True) == 0.0


@pytest.mark.parametrize("x_values, residual, want", [
    # two falling lines overflow against the flat one: f reaches 0 far out
    ([1.0, 0.0, 2.0], [5e-324, 0.0, 5e-324], 0.0),
    # a rising line cuts the flat piece off at a = 1, before the overflow
    ([1.0, 0.0, -1.0], [5e-324, 0.0, -1.0], 1.0),
    # two flat lines: only the upper one can be the envelope
    ([1.0, 0.0, 0.5], [5e-324, 0.0, 0.0], 0.5),
])
def test_the_loop_and_the_hull_agree_past_an_overflowed_crossing(x_values, residual, want):
    space = StateSpace.uniform(len(x_values))
    # a generator whose own value is 0 makes the residual the generator
    member = EnvelopeMember(LossProfile(space, residual), 0.0, homogeneous=True)
    x = LossProfile(space, x_values)
    with np.errstate(all="ignore"):
        loop = oracles.loop_envelope_evaluate(x_values, residual, True)
        got = envelope_evaluate(member, x)
    assert got == loop == want
    # with the rising line the exact minimum lies just below 1
    assert float(oracles.exact_envelope_value(x_values, residual, True)) == want


class TestEnvelopeFamily:
    def test_round_trip_at_generator(self):
        rho = es_measure(0.5)
        x = prof([0.5, -2.0, 3.0])
        (member,) = envelope_family(rho, [x])
        assert abs(envelope_evaluate(member, x) - rho(x)) <= 1e-12

    def test_zero_generator_gives_worst_case(self):
        rho = var_measure(0.5)
        (member,) = envelope_family(rho, [prof([0.0, 0.0, 0.0])])
        assert np.all(member.residual.values == 0.0)
        x = prof([1.0, -4.0, 2.5])
        assert envelope_evaluate(member, x) == 2.5

    def test_var_is_minimum_of_family(self):
        rho = var_measure(0.99)
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            space = StateSpace.uniform(n)
            x = LossProfile(space, rng.uniform(-5.0, 5.0, size=n))
            ys = [
                LossProfile(space, rng.uniform(-5.0, 5.0, size=n))
                for _ in range(30)
            ]
            members = envelope_family(rho, [x] + ys, homogeneous=True)
            best = min(envelope_evaluate(m, x) for m in members)
            assert abs(best - rho(x)) <= 1e-9

    def test_cone_requires_homogeneity_claim(self):
        with pytest.raises(DomainError):
            envelope_family(entropic_measure(1.0), [prof([1.0, -1.0])], True)

    def test_cone_recheck_catches_false_claim(self):
        ent = entropic_measure(1.0)
        liar = RiskEvaluator(
            "liar", ent.evaluate, ent.claims | {"positively_homogeneous"}
        )
        with pytest.raises(DomainError):
            envelope_family(liar, [prof([1.0, -1.0])], True)

    def test_member_evaluator_is_convex_monetary(self):
        y = prof([0.5, -2.0, 3.0])
        (member,) = envelope_family(es_measure(0.5), [y])
        gamma = envelope_member_measure(member)
        for prop in ("monotone", "translation_invariant", "normalized", "convex"):
            assert check_axiom(gamma, prop, PROBES).verdict == "holds_on_sample"

    def test_cone_member_evaluator_is_coherent(self):
        y = prof([0.5, -2.0, 3.0])
        (member,) = envelope_family(var_measure(0.75), [y], homogeneous=True)
        gamma = envelope_member_measure(member)
        for prop in ("positively_homogeneous", "subadditive", "monotone"):
            assert check_axiom(gamma, prop, PROBES, tol=1e-9).verdict == "holds_on_sample"


class TestMinRepresentation:
    def test_var_holds(self):
        report = min_representation_check(var_measure(0.75), PROBES)
        assert report.verdict == "holds_on_sample"

    def test_es_holds(self):
        report = min_representation_check(es_measure(0.5), PROBES)
        assert report.verdict == "holds_on_sample"

    def test_blend_of_two_es_holds(self):
        fam = MeasureFamily([es_measure(0.25), es_measure(0.75)], U3)
        report = min_representation_check(ecb_blend_measure(fam, 0.5), PROBES)
        assert report.verdict == "holds_on_sample"

    def test_non_star_measure_loses_domination(self):
        # Utility with a rising chord ratio: the shortfall it induces is
        # not star-shaped, and the member generated at 2x undershoots
        # rho at x.  Frozen: rho(x) = -0.05, rho(2x) = -0.35, member
        # value -0.175.
        u = Utility([(-1.0, -2.0), (0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
        rho = shortfall_measure(u)
        x = prof([2.4, -3.0])
        big = prof([4.8, -6.0])
        member = EnvelopeMember(big, rho(big))
        assert rho(x) == pytest.approx(-0.05, abs=1e-8)
        assert envelope_evaluate(member, x) == pytest.approx(-0.175, abs=1e-8)
        assert envelope_evaluate(member, x) < rho(x) - 1e-6

    def test_probe_report_rows(self):
        rows = min_representation_check(var_measure(0.75), PROBES,
                                        domination_samples=5).rows
        assert len(rows) == len(PROBES.profiles)
        for row in rows:
            assert set(row) == {
                "x", "rho_x", "tight_member_value", "min_family_value",
                "domination_ok",
            }
            assert row["domination_ok"]
            assert row["min_family_value"] >= row["rho_x"] - 1e-9
            assert row["tight_member_value"] == pytest.approx(row["rho_x"], abs=1e-9)


class TestRelaxationMember:
    def test_es_relaxes_var(self):
        assert relaxation_member(es_measure(0.5), var_measure(0.5), PROBES)

    def test_mean_fails_to_dominate_var(self):
        assert not relaxation_member(mean_measure(), var_measure(0.99), PROBES)

    def test_convex_measure_relaxes_itself(self):
        rho = es_measure(0.5)
        assert relaxation_member(rho, rho, PROBES)

    def test_non_convex_measure_is_refused(self):
        # VaR dominates itself, but the relaxed class holds convex measures
        rho = var_measure(0.5)
        assert check_axiom(rho, "convex", PROBES).verdict == "violated"
        assert not relaxation_member(rho, rho, PROBES)


class TestAggregateRepresentation:
    def small_probes(self, seed, count=8, n=3):
        return default_probe_set(seed=seed, count=count, sizes=(n,), equiprobable=True)

    def families(self, rhos, seed=0, n=3, size=4):
        rng = np.random.default_rng(seed)
        space = StateSpace.uniform(n)
        ys = [LossProfile(space, rng.uniform(-4.0, 4.0, size=n)) for _ in range(size)]
        return [(rho, envelope_family(rho, ys)) for rho in rhos]

    def test_inf_on_two_var_levels(self):
        fams = self.families([var_measure(0.5), var_measure(0.75)])
        report = aggregate_representation_check(fams, "inf", self.small_probes(1))
        assert report.verdict == "holds_on_sample"

    def test_average_of_two_es_levels(self):
        fams = self.families([es_measure(0.25), es_measure(0.75)])
        report = aggregate_representation_check(fams, "average", self.small_probes(2))
        assert report.verdict == "holds_on_sample"

    def test_sup_with_empty_raw_intersection(self):
        # Two singleton families generated at different positions: their
        # raw member sets share nothing, yet the relaxed check passes.
        space = U3
        y1 = LossProfile(space, [1.0, -2.0, 0.5])
        y2 = LossProfile(space, [-3.0, 1.5, 2.0])
        r1, r2 = var_measure(0.5), var_measure(0.75)
        fams = [(r1, envelope_family(r1, [y1])), (r2, envelope_family(r2, [y2]))]
        raw1 = {tuple(m.residual.values) for _, ms in fams[:1] for m in ms}
        raw2 = {tuple(m.residual.values) for _, ms in fams[1:] for m in ms}
        assert not raw1 & raw2
        report = aggregate_representation_check(fams, "sup", self.small_probes(3))
        assert report.verdict == "holds_on_sample"

    def test_sup_refutes_a_measure_that_is_not_star_shaped(self):
        # max(x) on positions of positive mean, else min(x): members of the
        # relaxed class generated elsewhere undershoot it
        flip = RiskEvaluator(
            "flip",
            lambda x: float(x.values.max() if x.values.mean() > 0 else x.values.min()),
        )
        report = aggregate_representation_check(
            [(flip, [])], "sup", self.small_probes(3)
        )
        assert report.verdict == "violated"
        assert report.witness["got"] < report.witness["target"] - 1e-9

    def test_infconv_pair_desk_scale(self):
        fams = self.families([es_measure(0.5), worst_case_measure()], size=2)
        report = aggregate_representation_check(
            fams, "infconv", self.small_probes(4, count=4), tol=1e-6
        )
        assert report.verdict == "holds_on_sample"

    def test_unsupported_op(self):
        fams = self.families([es_measure(0.5)])
        with pytest.raises(DomainError):
            aggregate_representation_check(fams, "product", self.small_probes(5))

    def test_infconv_requires_pair(self):
        fams = self.families([es_measure(0.5)])
        with pytest.raises(DomainError):
            aggregate_representation_check(fams, "infconv", self.small_probes(6))
        # refused before any probe, so an empty probe set is no way round it
        empty = ProbeSet((), DILATION_GRID, 6)
        with pytest.raises(DomainError, match="pairwise"):
            aggregate_representation_check(fams, "infconv", empty)


def no_grid():
    """A context in which building a penalty grid fails the test."""
    return mock.patch.object(envelope, "_grid_points",
                             side_effect=AssertionError("a penalty grid was built"))


# criterion 09's space, scenarios and box, and three weighted states, where
# each grid line has two fixed entries
CLOSED_FORM_CASES = [
    (U2, [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0),
          (1.25, 0.0), (0.0, 1.25), (1.5, 0.5)], 4.0, 0.25),
    (StateSpace([0.2, 0.3, 0.5]), [(0.2, 0.3, 0.5), (0.0, 0.4, 0.6),
                                   (0.6, 0.3, 0.1), (1.2, 0.0, 0.3)], 2.0, 0.5),
]


@st.composite
def penalty_cases(draw):
    """A weighted space of 1 to 6 states, a box level (0, 1, or an ES
    level between), an entropic parameter from 1e-3 to 1e3, and scenarios:
    P itself, then points inside the level's box, on its edge, outside it
    and off the simplex."""
    n = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    p = (weights / weights.sum()).tolist()
    level = draw(st.one_of(st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.75]),
                           st.floats(0.0, 0.99, exclude_min=True)))
    lam = 10.0 ** draw(st.floats(-3.0, 3.0))
    caps = [b / (1.0 - level) if level < 1.0 else math.inf for b in p]

    def vertex():
        # fill the caps in a drawn order: a point on the box's edge
        v, left = [0.0] * n, 1.0
        for s in draw(st.permutations(range(n))):
            v[s] = min(caps[s], left)
            left -= v[s]
        return v

    scenarios = [p]
    for kind in draw(st.lists(st.sampled_from(
            ["inside", "edge", "outside", "shift", "off"]), min_size=1, max_size=6)):
        v = vertex()
        if kind == "inside":
            t = draw(st.floats(0.0, 1.0))
            q = [t * a + (1.0 - t) * b for a, b in zip(p, v)]
        elif kind == "edge":
            q = v
        elif kind == "outside":
            d = draw(st.sampled_from([1e-6, 0.01, 0.5]))
            q = [max(0.0, (1.0 + d) * b - d * a) for a, b in zip(p, v)]
        elif kind == "shift":
            # mass moved from state r to state s
            r, s = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            m = p[r] * draw(st.sampled_from([1e-6, 0.5, 1.0]))
            q = list(p)
            q[r] -= m
            q[s] += m
        else:
            c = draw(st.sampled_from([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.5]))
            q = [c * b for b in v]
        scenarios.append(q)
    return StateSpace(p), level, lam, scenarios


@settings(max_examples=150, deadline=None)
@given(penalty_cases())
def test_closed_form_penalties_match_the_oracles(case):
    space, level, lam, scenarios = case
    p = space.probs.tolist()
    box = (mean_measure() if level == 0.0 else worst_case_measure() if level == 1.0
           else es_measure(level))
    with no_grid():
        got = penalty_of(box, space, scenarios).alpha.tolist()
    assert got == [oracles.box_penalty(q, p, level) for q in scenarios]
    with no_grid():
        got = penalty_of(entropic_measure(lam), space, scenarios).alpha.tolist()
    for q, a in zip(scenarios, got):
        if abs(math.fsum(q) - 1.0) > 1e-12:
            assert a == math.inf
        else:
            assert a == pytest.approx(oracles.entropic_penalty(q, p, lam), rel=1e-12, abs=0.0)


class TestPenalty:
    def test_mean_penalty_zero_at_reference_infinite_elsewhere(self):
        table = penalty_of(mean_measure(), U2, [(0.5, 0.5), (0.3, 0.7)])
        assert table.alpha[0] == pytest.approx(0.0, abs=1e-9)
        assert math.isinf(table.alpha[1])

    def test_worst_case_penalty_identically_zero(self):
        scenarios = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (1.0, 0.0)]
        table = penalty_of(worst_case_measure(), U2, scenarios)
        assert np.allclose(table.alpha, 0.0, atol=1e-9)

    def test_es_dual_set_boundary(self):
        # ES at level 0.25 on the uniform 2-state space: densities at
        # most 4/3, so scenario weights componentwise <= 2/3.
        rho = es_measure(0.25)
        inside = [(0.5, 0.5), (0.65, 0.35), (2.0 / 3.0, 1.0 / 3.0)]
        outside = [(0.75, 0.25)]
        table = penalty_of(rho, U2, inside + outside)
        # Scenarios exactly on the dual boundary pick up box-expansion
        # float noise, so the zero check runs at the groundedness scale.
        assert np.allclose(table.alpha[:3], 0.0, atol=1e-6)
        assert table.alpha[3] > 1e3

    def test_reconstruction_matches_convex_measure(self):
        # Scenario set covering the dual's extreme points: there the
        # conjugate sup is attained, so reconstruction is near exact.
        rho = es_measure(0.25)
        qs = [(q, 1.0 - q) for q in np.arange(0.35, 0.651, 0.05)]
        qs += [(1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0 / 3.0)]
        table = penalty_of(rho, U2, qs)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = LossProfile(U2, rng.uniform(-3.0, 3.0, size=2))
            rebuilt = table.reconstruct(x)
            assert rebuilt <= rho(x) + 1e-9
            assert abs(rebuilt - rho(x)) <= 0.05

    def test_kernel_member_gives_the_same_table(self):
        # the member rebuilt without its law record takes the grid, which
        # finds the closed form's 0 and +inf on these scenarios exactly
        rho = es_measure(0.5)
        opaque = RiskEvaluator(rho.name, rho._fn, rho.claims)
        for space, scenarios, box, step in CLOSED_FORM_CASES:
            a = penalty_of(rho, space, scenarios, box=box, step=step)
            b = penalty_of(opaque, space, scenarios, box=box, step=step)
            assert a.alpha.tobytes() == b.alpha.tobytes()

    @pytest.mark.parametrize("lam, p, q, grid", [
        (0.7, (0.2, 0.8), (0.05, 0.95), {}),
        (1.5, (0.5, 0.5), (0.3, 0.7), {"box": 4.0, "step": 0.5}),
        (0.7, (0.2, 0.3, 0.5), (0.6, 0.3, 0.1), {"box": 2.0, "step": 0.5}),
    ])
    def test_entropic_penalty_is_the_relative_entropy(self, lam, p, q, grid):
        # the record's closed form; and the grid for the member rebuilt
        # without it: sup_X (E_Q[X] - rho(X)) is attained on a whole line
        # of cash translates, so every pass's first argmax sits on the box
        # edge, and a grid value is a lower bound of the sup
        rho = entropic_measure(lam)
        want = oracles.entropic_penalty(q, p, lam)
        for gamma in (rho, RiskEvaluator(rho.name, rho._fn, rho.claims)):
            table = penalty_of(gamma, StateSpace(p), [p, q], **grid)
            assert table.alpha[0] == pytest.approx(0.0, abs=1e-9)
            assert 0.95 * want <= table.alpha[1] <= want * (1 + 1e-12)

    @pytest.mark.parametrize("space, scenarios, box, step", CLOSED_FORM_CASES,
                             ids=["criterion-09", "weighted-3"])
    def test_grid_never_exceeds_the_closed_form(self, space, scenarios, box, step):
        # each record's member rebuilt without it takes the grid, a lower
        # bound; 1e-6 is the groundedness scale, far above the rounding of
        # rows up to 4 * 4**12
        for rho in (mean_measure(), es_measure(0.5), es_measure(0.9),
                    worst_case_measure(), entropic_measure(0.7)):
            opaque = RiskEvaluator(rho.name, rho._fn, rho.claims)
            exact = penalty_of(rho, space, scenarios, box=box, step=step).alpha
            grid = penalty_of(opaque, space, scenarios, box=box, step=step).alpha
            assert np.all(grid <= exact + 1e-6), (rho.name, grid, exact)

    @pytest.mark.parametrize("n, box, step", [(2, 1e12, 1.0), (5, 8.0, 0.25)],
                             ids=["wide-box", "five-states"])
    def test_oversized_grid_is_refused_before_it_is_built(self, n, box, step):
        # building either grid would ask for gigabytes or more
        space = StateSpace.uniform(n)
        es5 = es_measure(0.5)
        opaque = RiskEvaluator(es5.name, es5._fn, es5.claims)
        with no_grid(), pytest.raises(DomainError,
                                      match=r"penalty grid of \d+\*\*%d rows exceeds 16777216" % n):
            penalty_of(opaque, space, [space.probs], box=box, step=step)

    def test_measure_without_a_finite_value_is_refused(self):
        gamma = RiskEvaluator("nowhere_finite", lambda x: math.nan)
        with pytest.raises(DomainError, match="no finite conjugate"):
            penalty_of(gamma, U2, [(0.5, 0.5)], box=1.0, step=0.5)

    def test_groundedness_enforced(self):
        # a table builds from any scenario list; reconstructing a normalized
        # measure needs the penalty's zero among its entries
        table = PenaltyTable(U2, (np.array([0.5, 0.5]),), np.array([0.5]))
        with pytest.raises(DomainError, match="not grounded: min finite alpha is 0.5"):
            table.reconstruct(LossProfile(U2, [1.0, 2.0]))

    def test_closed_form_table_without_the_zero_is_built(self):
        # Q = (0.3, 0.7) is off the entropic penalty's zero at P
        table = penalty_of(entropic_measure(1.0), U2, [(0.3, 0.7)])
        want = oracles.entropic_penalty([0.3, 0.7], [0.5, 0.5], 1.0)
        assert math.isclose(table.alpha[0], want, rel_tol=1e-12)
        assert want > 0.08

    def test_reconstruct_needs_a_finite_entry(self):
        table = PenaltyTable(U2, (np.array([0.3, 0.7]),), np.array([math.inf]))
        with pytest.raises(DomainError):
            table.reconstruct(LossProfile(U2, [1.0, 2.0]))

    def test_scenario_validation(self):
        with pytest.raises(DomainError):
            penalty_of(mean_measure(), U2, [(-0.1, 1.1)])
        with pytest.raises(DomainError):
            penalty_of(mean_measure(), U2, [(0.5, 0.25, 0.25)])

    @pytest.mark.parametrize("grid", [
        {"step": 0.0}, {"step": -0.25}, {"step": math.nan}, {"step": math.inf},
        {"box": -1.0}, {"box": 0.0}, {"box": math.inf}, {"box": math.nan},
        {"box": 1e300, "step": 1e-300},
    ], ids=["step-zero", "step-negative", "step-nan", "step-inf",
            "box-negative", "box-zero", "box-inf", "box-nan", "span-overflow"])
    def test_grid_must_be_finite_and_positive(self, grid):
        with pytest.raises(DomainError,
                           match="penalty box and step must be finite and positive"):
            penalty_of(mean_measure(), U2, [(0.5, 0.5)], **grid)


def test_representation_check_needs_a_pair():
    with pytest.raises(DomainError, match=r"need at least one \(measure, family\) pair"):
        aggregate_representation_check([], "inf", default_probe_set(seed=1, count=4))
