"""Envelope members, minimum representations, and grid penalty conjugates."""

import math

import numpy as np
import pytest

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

    def test_groundedness_enforced(self):
        with pytest.raises(DomainError):
            PenaltyTable(U2, (np.array([0.5, 0.5]),), np.array([0.5]))

    def test_reconstruct_needs_a_finite_entry(self):
        table = PenaltyTable(U2, (np.array([0.3, 0.7]),), np.array([math.inf]))
        with pytest.raises(DomainError):
            table.reconstruct(LossProfile(U2, [1.0, 2.0]))

    def test_scenario_validation(self):
        with pytest.raises(DomainError):
            penalty_of(mean_measure(), U2, [(-0.1, 1.1)])
        with pytest.raises(DomainError):
            penalty_of(mean_measure(), U2, [(0.5, 0.25, 0.25)])
