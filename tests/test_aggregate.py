"""Choquet aggregation, normality gating, inf-convolution, margins, blends."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starrisk.state_space import (
    Capacity,
    DimensionError,
    DomainError,
    LossProfile,
    StateSpace,
)
from starrisk.measures import (
    RiskEvaluator,
    entropic_measure,
    es_measure,
    mean_measure,
    var_measure,
    worst_case_measure,
)
from starrisk import aggregate
from starrisk.aggregate import (
    MeasureFamily,
    SolverConfig,
    additive_capacity,
    ccp_margin,
    ccp_margin_measure,
    choquet_aggregate,
    choquet_measure,
    ecb_blend,
    ecb_blend_measure,
    inf_capacity,
    inf_convolution,
    infconv_measure,
    normality_check,
    order_statistic_capacity,
    sup_capacity,
)
from starrisk.axioms import check_axiom, default_probe_set, ProbeSet, DILATION_GRID

import oracles

U2 = StateSpace.uniform(2)
U3 = StateSpace.uniform(3)
U4 = StateSpace.uniform(4)
X0 = LossProfile(U2, [1.0, 1.0])  # value irrelevant for constant members


def const(v):
    return RiskEvaluator("const[%g]" % v, lambda x: float(v))


def fam_of(values, space=U2):
    return MeasureFamily([const(v) for v in values], space)


def assert_last_part_is_numpy_remainder(x, parts):
    """The last part is the target minus numpy's axis-0 sum of the others,
    bit for bit (that sum starts from +0.0, and adds pairwise from eight
    rows on)."""
    free = np.array([p.values for p in parts[:-1]])
    assert parts[-1].values.tobytes() == (x.values - free.sum(axis=0)).tobytes()


class TestMeasureFamily:
    def test_needs_members(self):
        with pytest.raises(DomainError):
            MeasureFamily([], U2)

    def test_pinned_member_must_match_space(self):
        pinned = RiskEvaluator("pin3", lambda x: 0.0, required_n=3)
        with pytest.raises(DimensionError):
            MeasureFamily([pinned, mean_measure()], U2)

    def test_profile_size_checked(self):
        fam = MeasureFamily([mean_measure()], U2)
        with pytest.raises(DimensionError):
            fam.values(LossProfile(U3, [1.0, 2.0, 3.0]))

    def test_subfamily_bounds(self):
        fam = fam_of([1.0, 2.0])
        with pytest.raises(DomainError):
            fam.subfamily([])
        with pytest.raises(DomainError):
            fam.subfamily([2])

    @pytest.mark.parametrize("indices", [[0.5], [1.0], [True], [0, np.bool_(True)],
                                         ["0"], [None]])
    def test_subfamily_refuses_non_integer_indices(self, indices):
        fam = fam_of([1.0, 2.0])
        with pytest.raises(DomainError, match="must be integers"):
            fam.subfamily(indices)
        with pytest.raises(DomainError, match="must be integers"):
            ccp_margin(fam, [tuple(indices)], X0)

    def test_subfamily_takes_numpy_integers(self):
        fam = fam_of([1.0, 2.0])
        sub = fam.subfamily(np.array([1, 0]))
        assert sub.members == (fam.members[1], fam.members[0])
        assert fam.subfamily([np.uint8(1)]).members == (fam.members[1],)


class TestAggregateFactories:
    # each factory refuses its parameters when built, with the error of
    # the public function that every call runs
    def test_choquet_capacity_must_index_the_family(self):
        with pytest.raises(DimensionError, match="capacity indexes 3 members"):
            choquet_measure(fam_of([1.0, 2.0]), sup_capacity(3))

    @pytest.mark.parametrize("weight", [1.5, -0.1, math.nan])
    def test_blend_weight_must_lie_in_the_unit_interval(self, weight):
        with pytest.raises(DomainError, match="blend weight must lie in"):
            ecb_blend_measure(fam_of([1.0, 2.0]), weight)

    @pytest.mark.parametrize("admissible, message", [
        ([], "admissible list must be nonempty"),
        ([(0,), ()], "at least one index"),
        ([(0,), (2,)], "out of range"),
        ([(0, 1.0)], "must be integers"),
    ])
    def test_margin_admissible_subsets_are_checked(self, admissible, message):
        for assume_normal in (False, True):
            with pytest.raises(DomainError, match=message):
                ccp_margin_measure(fam_of([1.0, 2.0]), admissible,
                                   assume_normal=assume_normal)


class TestChoquet:
    def test_additive_is_weighted_average(self):
        fam = fam_of([10.0, 20.0])
        mu = additive_capacity([0.3, 0.7])
        assert math.isclose(choquet_aggregate(fam, mu, X0), 17.0, abs_tol=1e-12)

    def test_sup_capacity_is_max(self):
        fam = fam_of([1.0, 5.0, 9.0])
        assert choquet_aggregate(fam, sup_capacity(3), X0) == 9.0

    def test_inf_capacity_is_min(self):
        fam = fam_of([1.0, 5.0, 9.0])
        assert choquet_aggregate(fam, inf_capacity(3), X0) == 1.0

    def test_order_statistic_selects_rth_smallest(self):
        fam = fam_of([1.0, 5.0, 9.0])
        # Oracle: sort ascending and select.  r=2 of (1,5,9) -> 5.
        assert choquet_aggregate(fam, order_statistic_capacity(3, 2), X0) == 5.0
        fam4 = fam_of([9.0, 1.0, 8.0, 2.0])
        # r=2 of (1,2,8,9) -> 2, the lower-median convention.
        assert choquet_aggregate(fam4, order_statistic_capacity(4, 2), X0) == 2.0

    def test_identity_aggregation(self):
        fam = fam_of([7.5])
        assert choquet_aggregate(fam, order_statistic_capacity(1, 1), X0) == 7.5

    @pytest.mark.parametrize("weights, message", [
        ([], "nonempty vector"),
        ([[0.5, 0.5]], "nonempty vector"),
        ([1.5, -0.5], "nonnegative"),
        ([0.5, 0.25], "sum to 1"),
        ([math.nan, 1.0], "finite"),
    ])
    def test_additive_capacity_refusals(self, weights, message):
        with pytest.raises(DomainError, match=message):
            additive_capacity(weights)

    def test_rank_out_of_range(self):
        with pytest.raises(DomainError):
            order_statistic_capacity(3, 0)
        with pytest.raises(DomainError):
            order_statistic_capacity(3, 4)

    def test_size_mismatch(self):
        fam = fam_of([1.0, 2.0])
        with pytest.raises(DimensionError):
            choquet_aggregate(fam, sup_capacity(3), X0)

    @pytest.mark.parametrize("k", [17, 18])
    @pytest.mark.parametrize("build", [
        lambda k: additive_capacity([1.0 / k] * k),
        lambda k: order_statistic_capacity(k, 1),
    ])
    def test_oversized_capacity_refused_before_its_table(self, build, k):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"capacity index count must be in 1\.\.16"):
            build(k)
        # the 2**k table would take a good fraction of a second to build
        assert time.perf_counter() - start < 0.05

    def test_matches_layer_cake_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            vals = rng.uniform(-4.0, 4.0, size=k)
            # Random monotone capacity: cumulative max of random values.
            raw = rng.uniform(0.0, 1.0, size=1 << k)
            table = np.zeros(1 << k)
            for mask in range(1, 1 << k):
                lower = max(
                    table[mask & ~(1 << b)] for b in range(k) if mask >> b & 1
                )
                table[mask] = max(lower, raw[mask])
            table[-1] = 1.0
            mu = Capacity(k, table)
            fam = fam_of(vals)
            got = choquet_aggregate(fam, mu, X0)
            want = oracles.oracle_choquet(vals, mu.of)
            assert math.isclose(got, want, abs_tol=1e-9)

    def test_translation_equivariance(self):
        fam = MeasureFamily([var_measure(0.75), es_measure(0.5)], U3)
        mu = order_statistic_capacity(2, 1)
        x = LossProfile(U3, [0.5, -2.0, 3.0])
        base = choquet_aggregate(fam, mu, x)
        shifted = choquet_aggregate(fam, mu, x + 1.75)
        assert math.isclose(shifted, base + 1.75, abs_tol=1e-12)

    def test_tie_independence_under_member_relabeling(self):
        # Members 0 and 1 return the same value; swapping them (and
        # relabeling the capacity accordingly) must not move the result.
        mu_table = {0: 0.0, 1: 0.2, 2: 0.7, 3: 0.8, 4: 0.1, 5: 0.5, 6: 0.9, 7: 1.0}
        swapped = {0: 0.0, 1: 0.7, 2: 0.2, 3: 0.8, 4: 0.1, 5: 0.9, 6: 0.5, 7: 1.0}
        mu = Capacity(3, [mu_table[m] for m in range(8)])
        mu_sw = Capacity(3, [swapped[m] for m in range(8)])
        fam = fam_of([5.0, 5.0, 3.0])
        a = choquet_aggregate(fam, mu, X0)
        b = choquet_aggregate(fam, mu_sw, X0)
        assert math.isclose(a, b, abs_tol=1e-12)
        assert math.isclose(a, 5.0 * 0.8 + 3.0 * 0.2, abs_tol=1e-12)


class TestNormality:
    @pytest.mark.parametrize("samples", [0, -5, 0.5])
    def test_samples_below_one_are_refused(self, samples):
        # the gate refuses this pair at 300 samples; with none it would
        # pass it unchecked
        fam = MeasureFamily([var_measure(0.5), var_measure(0.5)], U2)
        assert not normality_check(fam, samples=300, seed=0).passed
        with pytest.raises(DomainError,
                           match="normality samples must be at least 1, got %r" % samples):
            normality_check(fam, samples=samples, seed=0)

    def test_two_es_certified(self):
        fam = MeasureFamily([es_measure(0.5), es_measure(0.75)], U3)
        report = normality_check(fam, samples=10, seed=0)
        assert report.passed and report.method == "certificate"

    def test_mean_and_worst_case_certified(self):
        fam = MeasureFamily([mean_measure(), worst_case_measure()], U3)
        report = normality_check(fam, samples=10, seed=0)
        assert report.passed and report.method == "certificate"

    def test_var_pair_violated_with_zero_sum_witness(self):
        fam = MeasureFamily([var_measure(0.5), var_measure(0.5)], U2)
        report = normality_check(fam, samples=2000, seed=3)
        assert not report.passed
        parts = report.witness["parts"]
        assert np.allclose(np.sum(parts, axis=0), 0.0, atol=1e-12)
        total = math.fsum(
            fam.members[i](LossProfile(U2, z)) for i, z in enumerate(parts)
        )
        assert total < -1e-9
        assert math.isclose(total, report.witness["total"], abs_tol=1e-12)

    @pytest.mark.parametrize("members, space", [
        ((var_measure(0.5), var_measure(0.5)), U2),
        ((var_measure(0.75), es_measure(0.5), entropic_measure(1.0)), U4),
        ((es_measure(0.5), mean_measure(), worst_case_measure()), U3),
    ])
    def test_kernel_members_give_the_same_report(self, members, space):
        # members rebuilt without the plain-atom kernel take the array path
        opaque = [RiskEvaluator(rho.name, rho._fn, rho.claims) for rho in members]
        a = normality_check(MeasureFamily(members, space), samples=300, seed=3)
        b = normality_check(MeasureFamily(opaque, space), samples=300, seed=3)
        assert (a.passed, a.method, a.samples_used) == (b.passed, b.method, b.samples_used)
        assert (a.witness is None) == (b.witness is None)
        if a.witness is not None:
            assert a.witness["total"].hex() == b.witness["total"].hex()
            assert [z.tobytes() for z in a.witness["parts"]] == [
                z.tobytes() for z in b.witness["parts"]
            ]


class TestInfConvolution:
    def test_single_member_passthrough(self):
        fam = MeasureFamily([es_measure(0.5)], U3)
        x = LossProfile(U3, [1.0, -2.0, 4.0])
        sol = inf_convolution(fam, x)
        assert len(sol.parts) == 1
        assert sol.parts[0] is x
        assert math.isclose(sol.total, fam.members[0](x), abs_tol=0.0)

    def test_mean_pair_is_mean(self):
        fam = MeasureFamily([mean_measure(), mean_measure()], U3)
        x = LossProfile(U3, [1.0, -2.0, 4.0])
        sol = inf_convolution(fam, x, SolverConfig(seed=0, starts=4))
        assert math.isclose(sol.total, 1.0, abs_tol=1e-9)

    def test_matches_grid_oracle_on_two_states(self):
        es5, wc = es_measure(0.5), worst_case_measure()
        fam = MeasureFamily([es5, wc], U2)
        x = LossProfile(U2, [0.0, 2.0])
        sol = aggregate._search_split(fam, x, SolverConfig(seed=1, starts=8))

        def r1(v):
            return es5(LossProfile(U2, v, _validate=False))

        def r2(v):
            return wc(LossProfile(U2, v, _validate=False))

        want, _ = oracles.oracle_infconv_pair(r1, r2, [0.0, 2.0])
        assert abs(sol.total - want) <= 0.02
        # Closed form: the charge collapses to ES alone.
        assert math.isclose(sol.total, es5(x), abs_tol=1e-8)

    def test_parts_sum_to_target(self):
        fam = MeasureFamily([es_measure(0.5), worst_case_measure()], U3)
        x = LossProfile(U3, [1.0, -2.0, 4.0])
        sol = aggregate._search_split(fam, x, SolverConfig(seed=2, starts=6))
        total_parts = sum(p.values for p in sol.parts)
        assert np.allclose(total_parts, x.values, atol=1e-9)
        assert sol.meta["attainment"] == "unknown"

    def test_never_beats_explicit_splits_and_members(self):
        es5, wc = es_measure(0.5), worst_case_measure()
        fam = MeasureFamily([es5, wc], U3)
        rng = np.random.default_rng(7)
        for _ in range(5):
            xv = rng.uniform(-3.0, 3.0, size=3)
            x = LossProfile(U3, xv)
            sol = aggregate._search_split(fam, x, SolverConfig(seed=0, starts=6))
            assert sol.total <= es5(x) + 1e-8
            assert sol.total <= wc(x) + 1e-8
            y = LossProfile(U3, rng.uniform(-3.0, 3.0, size=3))
            assert sol.total <= es5(y) + wc(x + (-1.0) * y) + 1e-8

    def test_translation_rides_through(self):
        fam = MeasureFamily([es_measure(0.5), worst_case_measure()], U3)
        x = LossProfile(U3, [0.5, -1.0, 2.0])
        cfg = SolverConfig(seed=4, starts=6)
        base = aggregate._search_split(fam, x, cfg).total
        shifted = aggregate._search_split(fam, x + 3.0, cfg).total
        assert math.isclose(shifted, base + 3.0, abs_tol=1e-6)

    @pytest.mark.parametrize("setting, value", [
        ("starts", 0),  # used to fail with a TypeError in the polish
        ("starts", -1),  # used to run two starts and report -1
        ("scan_points", 0),  # used to fail inside np.argmin
        ("seed", -1),
        ("max_sweeps", -1),
        ("polish_stall", -1),
        ("polish_cap", -1),
        # each used to fail with a TypeError inside the search or numpy
        ("starts", 2.5),
        ("scan_points", 2.5),
        ("max_sweeps", 1.5),
        ("seed", 1.5),
    ])
    def test_config_refuses_settings_that_break_the_search(self, setting, value):
        fragment = "an integer" if isinstance(value, float) else "at least"
        with pytest.raises(DomainError, match="solver %s must be %s" % (setting, fragment)):
            SolverConfig(**{setting: value})

    def test_config_takes_numpy_integers(self):
        assert SolverConfig(seed=np.int64(3), starts=np.int32(2)).starts == 2

    def test_one_scan_point_keeps_its_result(self):
        # frozen before the scan grid was built once per search
        fam = MeasureFamily([es_measure(0.5), entropic_measure(1.0)], U3)
        x = LossProfile(U3, [1.0, -2.0, 4.0])
        cfg = SolverConfig(seed=2, starts=3, scan_points=1)
        sol = aggregate._search_split(fam, x, cfg, assume_normal=True)
        assert sol.total.hex() == "0x1.5243f60a3e076p+1"
        assert [p.values.tolist() for p in sol.parts] == [[0.5, -1.0, 2.0]] * 2

    def test_deterministic(self):
        fam = MeasureFamily([es_measure(0.5), worst_case_measure()], U3)
        x = LossProfile(U3, [1.0, -2.0, 4.0])
        cfg = SolverConfig(seed=11)
        a = aggregate._search_split(fam, x, cfg)
        b = aggregate._search_split(fam, x, cfg)
        assert a.total == b.total
        assert all(
            np.array_equal(p.values, q.values) for p, q in zip(a.parts, b.parts)
        )

    @pytest.mark.parametrize("members, space, values", [
        ((es_measure(0.5), worst_case_measure()), U3, [1.0, -2.0, 4.0]),
        ((entropic_measure(1.0), entropic_measure(2.5)), U2, [0.5, 3.0]),
        # three members, signed zeros in the target
        ((es_measure(0.5), entropic_measure(1.0), worst_case_measure()), U4,
         [-0.0, 1.0, 0.0, -2.0]),
        # an opaque aggregate among kernel-backed members
        ((mean_measure(), ecb_blend_measure(
            MeasureFamily([es_measure(0.75), worst_case_measure()], U3), 0.5)), U3,
         [-0.0, 2.0, -0.0]),
        ((es_measure(0.5), worst_case_measure()), StateSpace.uniform(8),
         [-0.0, 0.0, 1.5, -0.0, -1.0, 0.0, 2.0, -0.0]),
        # a tied target
        ((es_measure(0.5), entropic_measure(1.0)), U4, [2.0, -1.0, 2.0, 2.0]),
    ])
    def test_kernel_members_give_the_same_split(self, members, space, values):
        # members rebuilt without the plain-atom kernel take the array path
        opaque = [RiskEvaluator(rho.name, rho._fn, rho.claims) for rho in members]
        x = LossProfile(space, values)
        cfg = SolverConfig(seed=5, starts=4)
        a = aggregate._search_split(MeasureFamily(members, space), x, cfg)
        b = aggregate._search_split(MeasureFamily(opaque, space), x, cfg)
        assert [p.values.tobytes() for p in a.parts] == [p.values.tobytes() for p in b.parts]
        assert a.total.hex() == b.total.hex()
        assert a.meta == b.meta
        assert_last_part_is_numpy_remainder(x, a.parts)

    @pytest.mark.parametrize("target", [-0.0, 0.0, 2.5, 0.7, -1.3])
    def test_kernel_members_give_the_same_split_on_one_state(self, target):
        # nine free parts: numpy's axis-0 sum adds them pairwise
        space = StateSpace.uniform(1)
        members = [es_measure(0.5), mean_measure(), worst_case_measure(),
                   entropic_measure(1.5), var_measure(0.5)] * 2
        opaque = [RiskEvaluator(rho.name, rho._fn, rho.claims) for rho in members]
        x = LossProfile(space, [target])
        cfg = SolverConfig(seed=5, starts=2, max_sweeps=2, polish_cap=10)
        a = inf_convolution(MeasureFamily(members, space), x, cfg, assume_normal=True)
        b = inf_convolution(MeasureFamily(opaque, space), x, cfg, assume_normal=True)
        assert [p.values.tobytes() for p in a.parts] == [p.values.tobytes() for p in b.parts]
        assert a.total.hex() == b.total.hex()
        assert a.meta == b.meta
        assert_last_part_is_numpy_remainder(x, a.parts)

    def test_es_level_outside_unit_interval_takes_no_shortcut(self):
        # refused when built, so no such member reaches the exact route
        with pytest.raises(DomainError, match="es level must lie in"):
            es_measure(1.5)

    def test_gate_refuses_var_pair(self):
        fam = MeasureFamily([var_measure(0.5), var_measure(0.5)], U2)
        x = LossProfile(U2, [1.0, 2.0])
        with pytest.raises(DomainError):
            inf_convolution(fam, x, SolverConfig(seed=3))
        sol = inf_convolution(fam, x, SolverConfig(seed=3, starts=6), assume_normal=True)
        # Free money inside the box: min + min - max is very negative.
        assert sol.total < var_measure(0.5)(x) - 1.0

    @pytest.mark.parametrize("scale", [1.0, 1e9, 1e12])
    def test_split_solver_finishes_at_large_scale(self, scale):
        # doubles near 1e10 are spaced wider than the 1e-9 line-search width
        es5 = es_measure(0.5)
        fam = MeasureFamily([es5, worst_case_measure()], U3)
        x = LossProfile(U3, [scale * v for v in (-1.0, 2.0, 4.0)])
        sol = aggregate._search_split(fam, x, SolverConfig(starts=2))
        assert math.isclose(sol.total, es5(x), rel_tol=1e-9)


# -- the exact route for mean, ES and worst-case families ---------------------

# (name, ES level, member factory); mean is level 0 and worst case level 1
BOX_MEMBERS = st.one_of(
    st.just(("mean", 0.0, mean_measure)),
    st.just(("worst_case", 1.0, worst_case_measure)),
    # levels up to 0.99: the ES weights' rounding, amplified by 1/(1 - beta),
    # then stays far below the 1e-12 tolerance
    st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.0, 0.99, exclude_min=True))
    .map(lambda b: ("es", b, lambda b=b: es_measure(b))),
)


@st.composite
def box_cases(draw):
    """A family of 2 to 4 box-dual members on 1 to 8 weighted states, with
    a target and a trial part: exact ties, signed zeros and near-merge
    steps, at magnitudes 1e-12 to 1e12."""
    n = draw(st.integers(1, 8))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    space = StateSpace(weights / weights.sum())
    scale = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(-12, 12))
    step = draw(st.sampled_from([0.0, 0.3e-12, 0.9e-12]))

    def profile():
        ints = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
        steps = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), float)
        negative = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        values = (ints + step * steps) * scale
        values[(values == 0.0) & np.array(negative)] = -0.0
        return LossProfile(space, values)

    kinds = draw(st.lists(BOX_MEMBERS, min_size=2, max_size=4))
    return space, kinds, profile(), profile()


@settings(max_examples=120, deadline=None)
@given(box_cases())
def test_box_family_split_is_the_smallest_box(case):
    space, kinds, x, y = case
    members = [make() for _, _, make in kinds]
    fam = MeasureFamily(members, space)
    sol = inf_convolution(fam, x)
    assert sol.meta["attainment"] == "exact"

    # the first member at the lowest level takes the whole target
    levels = [level for _, level, _ in kinds]
    w = levels.index(min(levels))
    assert sol.total.hex() == members[w](x).hex()
    zero = np.zeros(space.n).tobytes()
    assert [p.values.tobytes() for p in sol.parts] == [
        x.values.tobytes() if i == w else zero for i in range(len(members))
    ]
    assert np.array_equal(sum(p.values for p in sol.parts), x.values)

    xs, ps = x.values.tolist(), space.probs.tolist()
    caps = [Fraction(p) / (1 - Fraction(levels[w])) if levels[w] < 1.0 else math.inf
            for p in ps]
    scale = max(abs(v) for v in xs + y.values.tolist()) or 1.0
    assert abs(sol.total - oracles.oracle_box_support(xs, ps, caps)) <= 1e-12 * scale

    # no two-member split of x does better
    for i, rho in enumerate(members):
        for j, other in enumerate(members):
            if i != j:
                assert sol.total <= rho(y) + other(x - y) + 1e-12 * scale

    # nor does a light search; its box is at least 1 wide, so its
    # rounding is measured against max(1, |x|)
    light = SolverConfig(seed=0, starts=1, max_sweeps=1, scan_points=5,
                         polish_stall=1, polish_cap=2)
    searched = aggregate._search_split(fam, x, light, assume_normal=True)
    assert sol.total <= searched.total + 1e-9 * max(1.0, float(np.abs(x.values).max()))


# -- the exact route for entropic families -------------------------------------

@st.composite
def entropic_cases(draw):
    """A family of 2 to 4 entropic members on 1 to 8 weighted states and a
    target: exact ties and signed zeros, at magnitudes 1e-12 to 1e12.  The
    parameters scale with the target, as entropic risk is not positively
    homogeneous."""
    n = draw(st.integers(1, 8))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    space = StateSpace(weights / weights.sum())
    magnitude = 10.0 ** draw(st.integers(-12, 12))
    scale = draw(st.sampled_from([1.0, -1.0])) * magnitude
    lams = draw(st.lists(st.sampled_from([0.5, 1.0]) | st.floats(0.1, 10.0),
                         min_size=2, max_size=4))
    ints = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
    negative = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    values = ints * scale
    values[(values == 0.0) & np.array(negative)] = -0.0
    return space, [lam * magnitude for lam in lams], LossProfile(space, values)


@settings(max_examples=120, deadline=None)
@given(entropic_cases())
def test_entropic_family_splits_in_proportion(case):
    space, lams, x = case
    fam = MeasureFamily([entropic_measure(lam) for lam in lams], space)
    sol = inf_convolution(fam, x)
    assert sol.meta["attainment"] == "exact"
    assert_last_part_is_numpy_remainder(x, sol.parts)

    # entropic at the total parameter; an all-zero target costs each
    # member lam * log of the weights' rounded mass, so there the scale is
    # the total parameter
    top = float(np.abs(x.values).max())
    whole = math.fsum(lams)
    assert abs(sol.total - entropic_measure(whole)(x)) <= 1e-12 * (top or whole)

    light = SolverConfig(seed=0, starts=1, max_sweeps=1, scan_points=5,
                         polish_stall=1, polish_cap=2)
    searched = aggregate._search_split(fam, x, light, assume_normal=True)
    assert sol.total <= searched.total + 1e-9 * max(1.0, top)


class TestCcpMargin:
    def test_singletons_take_componentwise_min(self):
        fam = MeasureFamily([es_measure(0.9), es_measure(0.5), worst_case_measure()], U4)
        x = LossProfile(U4, [0.0, 1.0, 2.0, 3.0])
        subset, sol = ccp_margin(fam, [(0,), (1,), (2,)], x)
        vals = fam.values(x)
        assert math.isclose(sol.total, float(vals.min()), abs_tol=1e-12)
        assert subset == (int(np.argmin(vals)),)

    def test_full_set_matches_plain_infconv(self):
        fam = MeasureFamily([es_measure(0.5), worst_case_measure()], U3)
        x = LossProfile(U3, [1.0, -2.0, 4.0])
        cfg = SolverConfig(seed=5, starts=6)
        subset, sol = ccp_margin(fam, [(0, 1)], x, cfg)
        assert subset == (0, 1)
        assert sol.total == inf_convolution(fam, x, cfg).total

    def test_monotone_in_admissible(self):
        fam = MeasureFamily([es_measure(0.9), es_measure(0.5)], U3)
        x = LossProfile(U3, [1.0, -2.0, 4.0])
        _, small = ccp_margin(fam, [(0,)], x)
        _, grown = ccp_margin(fam, [(0,), (1,)], x)
        assert grown.total <= small.total + 1e-12

    def test_empty_admissible_rejected(self):
        fam = MeasureFamily([mean_measure()], U2)
        with pytest.raises(DomainError):
            ccp_margin(fam, [], LossProfile(U2, [1.0, 2.0]))

    def test_effective_charge_star_but_not_convex(self):
        # Two convex members whose minimum is not convex: ES and the
        # half-half mean/max blend cross, and mixing a profile served by
        # one branch with a profile served by the other lands above the
        # chord.  Frozen witness: margin([0,.5,.5,1]) = 0.75 while the
        # average of margins is 0.6875.
        blend = ecb_blend_measure(
            MeasureFamily([mean_measure(), worst_case_measure()], U4), 0.5
        )
        fam = MeasureFamily([es_measure(0.5), blend], U4)
        margin = ccp_margin_measure(fam, [(0,), (1,)])
        probes = ProbeSet(
            (
                LossProfile(U4, [0.0, 1.0, 1.0, 1.0]),
                LossProfile(U4, [0.0, 0.0, 0.0, 1.0]),
            ),
            DILATION_GRID,
            seed=0,
        )
        assert check_axiom(margin, "convex", probes).verdict == "violated"
        assert check_axiom(margin, "star_shaped", probes).verdict == "holds_on_sample"


class TestEcbBlend:
    def test_endpoints_and_midpoint(self):
        fam = fam_of([2.0, 6.0])
        assert ecb_blend(fam, 1.0, X0) == 6.0
        assert ecb_blend(fam, 0.0, X0) == 2.0
        assert ecb_blend(fam, 0.5, X0) == 4.0

    def test_weight_range(self):
        fam = fam_of([2.0, 6.0])
        with pytest.raises(DomainError):
            ecb_blend(fam, 1.5, X0)
        with pytest.raises(DomainError):
            ecb_blend(fam, -0.1, X0)

    def test_sandwiched_between_min_and_max(self):
        fam = MeasureFamily([var_measure(0.75), es_measure(0.5), mean_measure()], U3)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = LossProfile(U3, rng.uniform(-5.0, 5.0, size=3))
            vals = fam.values(x)
            b = ecb_blend(fam, rng.uniform(), x)
            assert vals.min() - 1e-12 <= b <= vals.max() + 1e-12


class TestStarClosure:
    # The full-scale sweep lives in the acceptance suite; this is a smoke
    # pass on a lighter probe set.
    PROBES = default_probe_set(seed=5, count=60, sizes=(3,))

    def fam(self):
        return MeasureFamily(
            [var_measure(0.75), es_measure(0.5), worst_case_measure()], U3
        )

    def test_choquet_median_star(self):
        rho = choquet_measure(self.fam(), order_statistic_capacity(3, 2))
        assert check_axiom(rho, "star_shaped", self.PROBES).verdict == "holds_on_sample"

    def test_blend_star(self):
        rho = ecb_blend_measure(self.fam(), 0.3)
        assert check_axiom(rho, "star_shaped", self.PROBES).verdict == "holds_on_sample"

    def test_infconv_star(self):
        fam = MeasureFamily([es_measure(0.5), worst_case_measure()], U3)
        rho = infconv_measure(fam, SolverConfig(seed=0, starts=4, scan_points=9))
        probes = default_probe_set(seed=6, count=10, sizes=(3,))
        report = check_axiom(rho, "star_shaped", probes, tol=1e-6)
        assert report.verdict == "holds_on_sample"
