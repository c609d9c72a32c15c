"""Property verdicts, acceptance-set round trips, and the coherence collapse."""

import math

import numpy as np
import pytest

from starrisk.state_space import DomainError, LossProfile, StateSpace, distribution_of
from starrisk.measures import (
    LossBenchmark,
    RiskEvaluator,
    Utility,
    entropic_measure,
    es,
    es_measure,
    lvar_measure,
    max_var_measure,
    mean_measure,
    shortfall_measure,
    utility_is_star_compatible,
    var_measure,
    worst_case_measure,
)
from starrisk.axioms import (
    AxiomReport,
    DILATION_GRID,
    ProbeSet,
    acceptance_set_contains,
    check_axiom,
    coherent_collapse_check,
    default_probe_set,
    SearchError,
    measure_from_acceptance,
    risk_to_exposure,
    star_acceptance_check,
)

from starrisk import envelope, optimize

import oracles

PROBES = default_probe_set(seed=1729, count=120)

U2 = StateSpace.uniform(2)


def profile(values, space=None):
    space = space or StateSpace.uniform(len(values))
    return LossProfile(space, values)


def probe_set_with(profiles, seed=7):
    return ProbeSet(tuple(profiles), DILATION_GRID, seed)


# A star-incompatible utility: chord slope rises from u(1)/1 = 1 to
# u(2)/2 = 1.5 on the gain side.
STAR_INCOMPATIBLE = Utility([(-1.0, -2.0), (0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])

# Deterministic witness for its star-shape failure: acceptable at full
# size (the large gain sits past the kink where marginal utility is 2),
# unacceptable at half size (the gain falls back to the slope-1 zone).
SHRINK_WITNESS = profile([2.4, -3.0])


class TestCheckAxiom:
    def test_var_star_shaped_holds(self):
        report = check_axiom(var_measure(0.5), "star_shaped", PROBES)
        assert report.verdict == "holds_on_sample"
        assert report.probes_used > 0

    def test_es_subadditive_holds(self):
        report = check_axiom(es_measure(0.5), "subadditive", PROBES, tol=1e-9)
        assert report.verdict == "holds_on_sample"

    def test_var_convexity_violated_with_replayable_witness(self):
        probes = probe_set_with([profile([0.0, 2.0]), profile([2.0, 0.0])])
        rho = var_measure(0.5)
        report = check_axiom(rho, "convex", probes)
        assert report.verdict == "violated"
        w = report.witness
        # Replay: the recorded mix must exceed the recorded bound again.
        x = profile(w["x"])
        y = profile(w["y"])
        lam = w["weight"]
        mixed = rho(lam * x + (1.0 - lam) * y)
        assert mixed > lam * w["rho_x"] + (1.0 - lam) * w["rho_y"] + report.tolerance
        assert math.isclose(mixed, w["rho_mix"], abs_tol=1e-12)

    def test_unknown_property_rejected(self):
        with pytest.raises(DomainError):
            check_axiom(var_measure(0.5), "cash_subadditive", PROBES)

    def test_primitive_claims_all_hold_on_default_probes(self):
        bench = LossBenchmark([(0.0, 0.5), (1.0, 0.75)])
        star_u = Utility([(-1.0, -3.0), (0.0, 0.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.4)])
        zoo = [
            var_measure(0.75),
            es_measure(0.5),
            mean_measure(),
            worst_case_measure(),
            entropic_measure(1.0),
            lvar_measure(bench),
            shortfall_measure(star_u),
        ]
        checkable = set(
            (
                "monotone",
                "translation_invariant",
                "normalized",
                "positively_homogeneous",
                "subadditive",
                "convex",
                "star_shaped",
            )
        )
        for rho in zoo:
            tol = 1e-6 if rho.name == "shortfall" else 1e-9
            for prop in sorted(rho.claims & checkable):
                report = check_axiom(rho, prop, PROBES, tol=tol)
                assert report.verdict == "holds_on_sample", (
                    "%s claims %s but probe %r fails" % (rho.name, prop, report.witness)
                )

    def test_entropic_not_positively_homogeneous(self):
        report = check_axiom(entropic_measure(1.0), "positively_homogeneous", PROBES)
        assert report.verdict == "violated"

    def test_star_shape_violation_of_incompatible_shortfall(self):
        assert not utility_is_star_compatible(STAR_INCOMPATIBLE)
        rho = shortfall_measure(STAR_INCOMPATIBLE)
        probes = probe_set_with([SHRINK_WITNESS])
        report = check_axiom(rho, "star_shaped", probes, tol=1e-6)
        assert report.verdict == "violated"
        w = report.witness
        # Replay the weighted inequality from the witness record.
        x = profile(w["x"])
        assert math.isclose(rho(w["scale"] * x), w["rho_scaled"], abs_tol=1e-9)


class TestRiskToExposure:
    def test_constant_profile_flat(self):
        for rho in (var_measure(0.5), es_measure(0.5), entropic_measure(1.0)):
            curve = risk_to_exposure(rho, profile([2.0, 2.0, 2.0]), DILATION_GRID)
            assert all(math.isclose(v, 2.0, abs_tol=1e-6) for _, v in curve)

    def test_es_curve_nondecreasing(self):
        curve = risk_to_exposure(es_measure(0.5), profile([-1.0, 3.0]), DILATION_GRID)
        vals = [v for _, v in curve]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_entropic_strictly_increasing_somewhere(self):
        curve = risk_to_exposure(entropic_measure(1.0), profile([-1.0, 1.0]), DILATION_GRID)
        vals = [v for _, v in curve]
        assert max(b - a for a, b in zip(vals, vals[1:])) > 1e-6

    def test_positive_grid_required(self):
        with pytest.raises(DomainError):
            risk_to_exposure(var_measure(0.5), profile([1.0, 2.0]), [0.5, 0.0])


class TestAcceptance:
    def test_membership(self):
        rho = var_measure(0.5)
        assert acceptance_set_contains(rho, profile([-1.0, -1.0]))
        assert not acceptance_set_contains(rho, profile([1.0, 1.0]))
        # ES_0.5 of uniform {-3, 1} is 1 (tail value), so not acceptable.
        rho = es_measure(0.5)
        assert not acceptance_set_contains(rho, profile([-3.0, 1.0]))

    def test_round_trip_es(self):
        rho = es_measure(0.5)
        x = profile([1.0, 2.0, 3.0, 4.0])
        m = measure_from_acceptance(lambda z: acceptance_set_contains(rho, z), x)
        assert math.isclose(m, 3.5, abs_tol=1e-8)

    def test_round_trip_mean(self):
        rho = mean_measure()
        x = profile([1.0, 2.0, 3.0, 4.0])
        m = measure_from_acceptance(lambda z: acceptance_set_contains(rho, z), x)
        assert math.isclose(m, 2.5, abs_tol=1e-8)

    def test_pointwise_acceptance_gives_worst_case(self):
        x = profile([1.0, 4.0])
        m = measure_from_acceptance(lambda z: bool(np.all(z.values <= 0.0)), x)
        assert math.isclose(m, 4.0, abs_tol=1e-8)

    def test_round_trip_all_primitives(self):
        zoo = [
            var_measure(0.75),
            es_measure(0.5),
            entropic_measure(1.0),
            mean_measure(),
            worst_case_measure(),
            shortfall_measure(Utility([(-1.0, -3.0), (0.0, 0.0), (1.0, 1.0)])),
        ]
        for rho in zoo:
            for x in PROBES.profiles[:12]:
                m = measure_from_acceptance(
                    lambda z: acceptance_set_contains(rho, z), x
                )
                assert math.isclose(m, rho(x), abs_tol=1e-6), rho.name


@pytest.mark.parametrize("scale", [1e6, 1e9, 1e12])
def test_bisections_finish_at_large_scale(scale):
    # doubles near the answer are spaced wider than both bisection
    # tolerances (1e-10 and 1e-9) at these scales
    x = profile([scale * v for v in (-1.0, 2.0, 4.0)])
    knots = [(-1.0, -3.0), (0.0, 0.0), (1.0, 1.0)]
    expected = oracles.oracle_shortfall(
        x.values.tolist(), x.space.probs.tolist(), knots
    )
    assert math.isclose(
        shortfall_measure(Utility(knots))(x), expected, rel_tol=1e-12
    )
    rho = es_measure(0.5)
    m = measure_from_acceptance(lambda z: rho(z) <= 0.0, x)
    assert math.isclose(m, rho(x), rel_tol=1e-12)


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6])
def test_acceptance_bisection_scales_down(scale):
    # an absolute width of 1e-9 gave -4.6e-10 for ES 3.33e-12 at 1e-12
    x = profile([scale * v for v in (-1.0, 2.0, 4.0)])
    m = measure_from_acceptance(lambda z: es_measure(0.5)(z) <= 0.0, x)
    assert math.isclose(m, es(distribution_of(x), 0.5), rel_tol=1e-9)


@pytest.mark.parametrize("accepted, end", [(False, "upper"), (True, "lower")])
def test_acceptance_bracket_that_never_decides(accepted, end):
    # membership that never changes with the cash amount has no root
    x = profile([1.0, 2.0, 4.0])
    with pytest.raises(SearchError, match="%s bracket" % end):
        measure_from_acceptance(lambda z: accepted, x)


@pytest.mark.parametrize("c", [1e16, 1e17])
def test_acceptance_bracket_opens_on_huge_constants(c):
    # min(x) - 1 rounds to min(x) here, which left a bracket of zero width
    x = profile([c, c, c])
    m = measure_from_acceptance(lambda z: es_measure(0.5)(z) <= 0.0, x)
    assert math.isclose(m, c, rel_tol=1e-12)


class TestStarAcceptance:
    def test_var_holds(self):
        report = star_acceptance_check(var_measure(0.75), PROBES)
        assert report.verdict == "holds_on_sample"

    def test_constants_stay_acceptable_for_shifted_measure(self):
        base = es_measure(0.5)
        shifted = RiskEvaluator("es-minus-1", lambda x: base(x) - 1.0)
        probes = probe_set_with([profile([-1.0, -1.0]), profile([-0.25, -0.25])])
        report = star_acceptance_check(shifted, probes)
        assert report.verdict == "holds_on_sample"

    def test_incompatible_shortfall_violated(self):
        rho = shortfall_measure(STAR_INCOMPATIBLE)
        probes = probe_set_with([SHRINK_WITNESS])
        report = star_acceptance_check(rho, probes, tol=1e-6)
        assert report.verdict == "violated"
        w = report.witness
        assert rho(profile(w["x"])) <= 0.0
        assert w["rho_scaled"] > 1e-6

    def test_equivalent_star_forms_fail_together(self):
        # The same (X, alpha) pair violates the contraction bound, the
        # dilation bound (read from the contracted profile), and the
        # monotonicity of the risk-to-exposure ratio.
        rho = shortfall_measure(STAR_INCOMPATIBLE)
        x = SHRINK_WITNESS
        alpha = 0.5
        rx, rax = rho(x), rho(alpha * x)
        assert rax > alpha * rx + 1e-6  # contraction bound fails
        y = alpha * x
        assert rho(2.0 * y) < 2.0 * rho(y) - 1e-6  # dilation bound fails at y
        curve = dict(risk_to_exposure(rho, x, [alpha, 1.0]))
        assert curve[alpha] > curve[1.0] + 1e-6  # ratio not nondecreasing


class TestCoherentCollapse:
    def test_es_positively_homogeneous(self):
        report = coherent_collapse_check(es_measure(0.5), PROBES, tol=1e-9)
        assert report.verdict == "holds_on_sample"

    def test_sup_of_two_es_levels(self):
        a, b = es_measure(0.5), es_measure(0.75)
        sup = RiskEvaluator("sup-es", lambda x: max(a(x), b(x)))
        report = coherent_collapse_check(sup, PROBES, tol=1e-9)
        assert report.verdict == "holds_on_sample"

    def test_entropic_not_applicable(self):
        report = coherent_collapse_check(entropic_measure(1.0), PROBES)
        assert report.verdict == "not_applicable"
        assert report.witness["failed_precondition"] == "subadditive"


def test_probe_set_scalar_grid_validation():
    with pytest.raises(DomainError):
        ProbeSet((profile([1.0, 2.0]),), (0.5, 0.75), seed=1)  # nothing above 1
    with pytest.raises(DomainError):
        ProbeSet((profile([1.0, 2.0]),), (-1.0, 1.0, 2.0), seed=1)


def test_report_serialization():
    report = AxiomReport("monotone", "holds_on_sample", 1e-9, 42)
    d = report.to_dict()
    assert d["property"] == "monotone"
    assert "witness" not in d


def test_pinned_evaluator_needs_a_probe_of_its_size():
    rho = max_var_measure([[0.5, 0.5]], 0.5)
    probes = default_probe_set(seed=1, count=4, sizes=(3,))
    with pytest.raises(DomainError,
                       match="no probe matches the evaluator's required state count"):
        check_axiom(rho, "monotone", probes)


# Every public check with a tolerance, as a call of (rho, probes, tol)
_TOL_CHECKS = {
    "check_axiom": lambda rho, probes, tol: check_axiom(rho, "convex", probes, tol=tol),
    "star_acceptance_check": star_acceptance_check,
    "coherent_collapse_check": coherent_collapse_check,
    "min_representation_check": lambda rho, probes, tol:
        envelope.min_representation_check(rho, probes, tol=tol),
    "relaxation_member": lambda rho, probes, tol:
        envelope.relaxation_member(es_measure(0.5), rho, probes, tol=tol),
    "aggregate_representation_check": lambda rho, probes, tol:
        envelope.aggregate_representation_check([(rho, [])], "inf", probes, tol=tol),
    "decomposition_check": lambda rho, probes, tol: optimize.decomposition_check(
        rho, optimize.ActionLossTable(["a", "b"], [profile([1.0, 2.0]), profile([0.0, 3.0])]),
        [rho], tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("check", _TOL_CHECKS.values(), ids=list(_TOL_CHECKS))
def test_checks_refuse_a_tolerance_that_is_not_finite_and_nonnegative(check, tol):
    # NaN and +inf would pass every comparison, a negative tol fail exact ones
    probes = default_probe_set(seed=2, count=4)
    with pytest.raises(DomainError, match="tol must be nonnegative and finite"):
        check(var_measure(0.75), probes, tol)


def test_nan_tolerance_no_longer_flips_verdicts():
    rho = var_measure(0.75)
    convex = default_probe_set(seed=2, count=60)
    assert check_axiom(rho, "convex", convex, tol=1e-9).verdict == "violated"
    envelope_probes = default_probe_set(seed=3, count=12)
    assert (envelope.min_representation_check(rho, envelope_probes, tol=1e-9).verdict
            == "holds_on_sample")
    for run in (lambda: check_axiom(rho, "convex", convex, tol=math.nan),
                lambda: envelope.min_representation_check(rho, envelope_probes,
                                                          tol=math.nan)):
        with pytest.raises(DomainError):
            run()
