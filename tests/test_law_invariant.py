"""Stochastic order tests, curve envelopes, and the minimality witness."""

import numpy as np
import pytest

from starrisk.state_space import (
    DomainError,
    LossProfile,
    StateSpace,
    distribution_of,
)
from starrisk.measures import (
    LossBenchmark,
    es,
    es_measure,
    lvar_measure,
    mean_measure,
    var,
    var_measure,
    worst_case_measure,
)
from starrisk.aggregate import (
    MeasureFamily,
    additive_capacity,
    choquet_measure,
    order_statistic_capacity,
    sup_capacity,
)
from starrisk.law_invariant import (
    GeneratorCurve,
    PrecisionError,
    es_envelope_eval,
    es_minimality_witness,
    fsd_dominates,
    ssd_dominates,
    tail_event,
    var_envelope_eval,
)

import oracles

U2 = StateSpace.uniform(2)
U4 = StateSpace.uniform(4)
X1234 = LossProfile(U4, [1.0, 2.0, 3.0, 4.0])


def profile(values, space=None):
    space = space or StateSpace.uniform(len(values))
    return LossProfile(space, values)


def dist(values, space=None):
    return distribution_of(profile(values, space))


def shifted(p, amount):
    return LossProfile(p.space, p.values - amount)


def random_pair(rng):
    """Same-space pair on a half-integer grid.

    The grid keeps any second-order violation wide: the stop-loss
    premium gap is piecewise linear with kinks on the grid, so a
    violation persists over an interval of width at least one half
    divided by the atom count, which randomly placed utility kinks
    cannot all miss.
    """
    n = int(rng.choice([2, 3, 4]))
    space = StateSpace.uniform(n)
    xv = rng.integers(-6, 7, size=n) / 2.0
    yv = rng.integers(-6, 7, size=n) / 2.0
    return LossProfile(space, xv), LossProfile(space, yv)


class TestGeneratorCurve:
    def test_kind_guard(self):
        with pytest.raises(DomainError):
            GeneratorCurve(profile([-1.0, 1.0]), "cdf")

    def test_quantile_curve_needs_nonpositive_minimum(self):
        with pytest.raises(DomainError, match="nonpositive"):
            GeneratorCurve(profile([0.5, 2.0]), "var")

    def test_tail_average_curve_needs_nonpositive_mean(self):
        # min is negative but the mean is +0.5, so the es curve starts
        # above zero while the var curve would be fine
        with pytest.raises(DomainError, match="nonpositive"):
            GeneratorCurve(profile([-1.0, 2.0]), "es")
        GeneratorCurve(profile([-1.0, 2.0]), "var")

    def test_quantile_curve_values(self):
        gen = GeneratorCurve(profile([-1.0, 2.0]), "var")
        assert gen.value_at(0.3) == -1.0
        assert gen.value_at(0.5) == -1.0
        assert gen.value_at(0.7) == 2.0
        assert gen.value_at(1.0) == 2.0

    def test_tail_average_curve_values_and_ends(self):
        gen = GeneratorCurve(profile([-2.0, 1.0]), "es")
        assert gen.value_at(0.0) == -0.5
        assert gen.value_at(0.5) == pytest.approx(1.0)
        assert gen.value_at(0.75) == pytest.approx(1.0)
        assert gen.value_at(1.0) == 1.0

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_curve_nondecreasing(self, kind):
        gen = GeneratorCurve(profile([-3.0, -1.0, 0.5, 2.0]), kind)
        grid = np.linspace(0.05, 0.999, 40)
        vals = [gen.value_at(float(a)) for a in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", ["var", "es"])
    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_shrunk_source_scales_curve(self, kind, lam):
        # curve(lam * Y) = lam * curve(Y) pointwise, so the generator
        # family spanned by acceptable sources is closed under shrinking
        base = GeneratorCurve(profile([-5.0, -3.0, -1.5, 0.0]), kind)
        scaled = GeneratorCurve(
            LossProfile(base.source.space, lam * base.source.values), kind
        )
        for a in (0.1, 0.3, 0.5, 0.62, 0.75, 0.9):
            assert scaled.value_at(a) == pytest.approx(
                lam * base.value_at(a), abs=1e-12
            )

    def test_quantile_serialization(self):
        gen = GeneratorCurve(profile([-1.0, 2.0]), "var")
        assert gen.to_dict() == {
            "kind": "var",
            "levels": [0.5],
            "values": [-1.0, 2.0],
        }

    def test_tail_average_serialization(self):
        gen = GeneratorCurve(profile([-2.0, 1.0]), "es")
        assert gen.to_dict() == {
            "kind": "es",
            "levels": [0.5],
            "values": [-0.5, 1.0, 1.0],
        }

    def test_tail_average_serialization_past_a_running_mass_of_one(self):
        # the running mass reaches 1 at the second atom, before the tiny
        # weight on the largest loss: there the curve is its value at 1
        x = LossProfile(StateSpace([0.5, 0.5, 5e-13]), [-3.0, -2.0, -1.0])
        gen = GeneratorCurve(x, "es")
        assert gen.to_dict() == {
            "kind": "es",
            "levels": [0.5, 1.0],
            "values": [gen.value_at(0.0), gen.value_at(0.5), -1.0, -1.0],
        }
        assert gen.value_at(1.0) == -1.0


class TestFirstOrder:
    def test_reflexive(self):
        d = dist([1.0, 2.0, 4.0])
        assert fsd_dominates(d, d)

    def test_shifted_down_dominates(self):
        assert fsd_dominates(dist([1.0, 2.0]), dist([2.0, 3.0]))
        assert not fsd_dominates(dist([2.0, 3.0]), dist([1.0, 2.0]))

    def test_crossing_quantiles(self):
        assert not fsd_dominates(dist([0.0, 3.0]), dist([1.0, 2.0]))
        assert not fsd_dominates(dist([1.0, 2.0]), dist([0.0, 3.0]))


class TestSecondOrder:
    def test_reflexive(self):
        d = dist([0.0, 1.0, 5.0])
        assert ssd_dominates(d, d)

    def test_constant_mean_dominates(self):
        # replacing a position by its mean is the Jensen direction
        y = dist([-2.0, 1.0, 4.0, 9.0])
        assert ssd_dominates(dist([3.0], StateSpace.uniform(1)), y)

    def test_fat_tail_loses(self):
        x = dist([0.0, 10.0])
        y = dist([4.0, 5.0])
        assert not ssd_dominates(x, y)
        # the separating level: the top-0.4 tail of x averages 10
        assert es(x, 0.6) == pytest.approx(10.0)
        assert es(y, 0.6) == pytest.approx(5.0)
        # the narrow law wins at every level, not just in the mean
        assert ssd_dominates(y, x)

    def test_mean_preserving_spread_loses(self):
        assert ssd_dominates(dist([1.0, 3.0]), dist([0.0, 4.0]))
        assert not ssd_dominates(dist([0.0, 4.0]), dist([1.0, 3.0]))


# (x, y, fsd_dominates(x, y), ssd_dominates(x, y)) on two equiprobable states
ORDER_PAIRS = [
    ([2.0, 3.0], [0.0, 1.0], False, False),
    ([1.0, 2.0], [2.0, 3.0], True, True),
    ([0.0, 3.0], [1.0, 2.0], False, False),
    ([1.0, 3.0], [0.0, 4.0], False, True),
    ([4.0, 5.0], [0.0, 10.0], False, True),
]


@pytest.mark.parametrize("xs, ys, fsd, ssd", ORDER_PAIRS)
def test_order_verdicts_do_not_depend_on_scale(xs, ys, fsd, ssd):
    # the comparison slack scales with the laws: at 1e-13, (2, 3) must
    # still not dominate (0, 1)
    for k in range(-13, 13):
        x = dist([10.0 ** k * v for v in xs])
        y = dist([10.0 ** k * v for v in ys])
        assert (fsd_dominates(x, y), ssd_dominates(x, y)) == (fsd, ssd), k


SWEEP_SEED = 1729


@pytest.fixture(scope="module")
def sweep():
    """One seeded 500-pair sweep feeds all four order cross-checks."""
    rng = np.random.default_rng(SWEEP_SEED)
    rows = []
    for _ in range(500):
        x, y = random_pair(rng)
        rows.append(
            (
                ssd_dominates(distribution_of(x), distribution_of(y)),
                fsd_dominates(distribution_of(x), distribution_of(y)),
                (x.values.tolist(), x.space.probs.tolist()),
                (y.values.tolist(), y.space.probs.tolist()),
            )
        )
    return rows


class TestOrderOracles:

    def test_utility_family_agreement(self, sweep):
        utilities = oracles.random_concave_utilities(201, seed=SWEEP_SEED)
        mismatched = [
            i
            for i, (got, _, xo, yo) in enumerate(sweep)
            if got != oracles.oracle_ssd(*xo, *yo, utilities)
        ]
        assert mismatched == []

    def test_stop_loss_oracle_agreement(self, sweep):
        # exact equivalence, not just the sampled-utility necessary check
        for got, _, xo, yo in sweep:
            assert got == oracles.oracle_stop_loss_ssd(*xo, *yo)

    def test_quantile_oracle_agreement(self, sweep):
        for _, got, xo, yo in sweep:
            assert got == oracles.oracle_fsd(*xo, *yo)

    def test_first_order_implies_second(self, sweep):
        both = [(s, f) for s, f, _, _ in sweep]
        assert all(s for s, f in both if f)
        assert any(f for _, f in both)  # the sweep exercises the premise


class TestVarEnvelope:
    def test_tight_at_canonical_generator(self):
        rho = var_measure(0.5)
        rx = rho(X1234)
        gen = GeneratorCurve(shifted(X1234, rx), "var")
        assert var_envelope_eval([gen], distribution_of(X1234)) == rx == 2.0

    def test_zero_generator_recovers_worst_case(self):
        zero = GeneratorCurve(profile([0.0] * 4), "var")
        assert var_envelope_eval([zero], distribution_of(X1234)) == 4.0

    @pytest.mark.parametrize(
        "rho",
        [
            var_measure(0.75),
            es_measure(0.5),
            mean_measure(),
            worst_case_measure(),
            lvar_measure(LossBenchmark([(0.0, 0.5), (1.0, 0.75)])),
        ],
        ids=lambda r: r.name,
    )
    def test_acceptable_generators_never_undercut(self, rho):
        # every measure here is law invariant and monotone, so a lower
        # envelope value would contradict acceptance of the generator
        rx = rho(X1234)
        gens = [GeneratorCurve(shifted(X1234, rx), "var")]
        rng = np.random.default_rng(99)
        target = distribution_of(X1234)
        for _ in range(40):
            z = profile(rng.uniform(-4.0, 4.0, size=4))
            gens.append(GeneratorCurve(shifted(z, rho(z)), "var"))
            assert var_envelope_eval(gens[-1:], target) >= rx - 1e-9
        assert var_envelope_eval(gens, target) == pytest.approx(rx, abs=1e-9)

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            var_envelope_eval([], dist([1.0, 2.0]))

    def test_wrong_curve_kind_rejected(self):
        gen = GeneratorCurve(profile([-1.0, 0.0]), "es")
        with pytest.raises(DomainError, match="'var'"):
            var_envelope_eval([gen], dist([1.0, 2.0]))


def median_of_es(x):
    d = distribution_of(x)
    return float(np.median([es(d, a) for a in (0.25, 0.5, 0.75)]))


class TestEsEnvelope:
    def test_tight_at_canonical_generator(self):
        rho = es_measure(0.5)
        rx = rho(X1234)
        gen = GeneratorCurve(shifted(X1234, rx), "es")
        assert es_envelope_eval([gen], distribution_of(X1234)) == rx == 3.5

    def test_zero_generator_recovers_worst_case(self):
        zero = GeneratorCurve(profile([0.0] * 4), "es")
        assert es_envelope_eval([zero], distribution_of(X1234)) == 4.0

    def test_median_of_es_levels_is_its_own_envelope(self):
        # median of three ES values is consistent with the second-order
        # comparison, so sampled acceptable sources cannot undercut it
        # and the canonical one makes the envelope exact
        rx = median_of_es(X1234)
        gens = [GeneratorCurve(shifted(X1234, rx), "es")]
        rng = np.random.default_rng(7)
        target = distribution_of(X1234)
        for _ in range(60):
            z = profile(rng.uniform(-4.0, 4.0, size=4))
            gens.append(GeneratorCurve(shifted(z, median_of_es(z)), "es"))
            assert es_envelope_eval(gens[-1:], target) >= rx - 1e-9
        assert es_envelope_eval(gens, target) == pytest.approx(rx, abs=1e-9)

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            es_envelope_eval([], dist([1.0, 2.0]))

    def test_wrong_curve_kind_rejected(self):
        gen = GeneratorCurve(profile([-1.0, 0.0]), "var")
        with pytest.raises(DomainError, match="'es'"):
            es_envelope_eval([gen], dist([1.0, 2.0]))


class TestTailEvent:
    def test_top_half(self):
        assert tail_event(X1234, 0.5) == (2, 3)

    def test_zero_level_takes_all_states(self):
        assert tail_event(X1234, 0.0) == (0, 1, 2, 3)

    def test_unit_level_takes_none(self):
        assert tail_event(X1234, 1.0) == ()

    def test_tie_broken_by_state_index(self):
        assert tail_event(profile([1.0, 2.0, 2.0, 3.0]), 0.5) == (1, 3)

    def test_unrealizable_mass_names_neighbours(self):
        with pytest.raises(PrecisionError) as err:
            tail_event(X1234, 0.6)
        assert str(err.value) == (
            "tail mass 0.4 is not realizable; nearest levels are "
            "alpha'=0.75 and alpha'=0.5"
        )

    def test_weighted_space(self):
        x = profile([3.0, 1.0, 2.0], StateSpace([0.2, 0.3, 0.5]))
        assert tail_event(x, 0.8) == (0,)
        assert tail_event(x, 0.3) == (0, 2)
        with pytest.raises(PrecisionError, match="alpha'=0.8 and alpha'=0.3"):
            tail_event(x, 0.5)

    def test_level_outside_unit_interval(self):
        with pytest.raises(DomainError):
            tail_event(X1234, 1.2)


class TestMinimalityWitness:
    X = profile([-4.0, -2.0, 0.0, 4.0])

    def test_construction(self):
        got = es_minimality_witness(self.X, 0.75, 0.5)
        assert got["y"].values.tolist() == [-4.0, -2.0, 2.0, 2.0]
        assert got["tail_states"] == (2, 3)
        assert got["checks"]["ssd_dominates"] is True
        assert got["checks"]["var_positive"] is True
        assert got["checks"]["var_alpha_y"] == 2.0
        assert got["checks"]["tail_mean"] == 2.0

    def test_witness_sits_between_the_orders(self):
        y = distribution_of(es_minimality_witness(self.X, 0.75, 0.5)["y"])
        x = distribution_of(self.X)
        assert ssd_dominates(y, x)
        assert not fsd_dominates(y, x)  # only the averaged order holds

    def test_level_above_top_cell_has_no_witness(self):
        # the quantile at 0.8 on four equal atoms is already the worst
        # loss, so no profile can clear both preconditions there
        with pytest.raises(DomainError, match=r"VaR_0\.8 = 4"):
            es_minimality_witness(self.X, 0.8, 0.5)

    def test_positive_var_rejected(self):
        with pytest.raises(DomainError, match=r"VaR_0\.7 = 1"):
            es_minimality_witness(profile([-3.0, -1.0, 1.0, 5.0]), 0.7, 0.5)

    def test_nonpositive_tail_average_rejected(self):
        with pytest.raises(DomainError, match=r"ES_0\.5 = -2\.5"):
            es_minimality_witness(profile([-5.0, -4.0, -3.0, -2.0]), 0.75, 0.5)

    def test_levels_must_be_ordered(self):
        with pytest.raises(DomainError, match="alpha' < alpha"):
            es_minimality_witness(self.X, 0.5, 0.75)

    def test_filtered_ensemble(self):
        # the filter at 0.75 is the tightest level on four equal atoms
        # with nonempty admissible set; at 0.8 the quantile equals the
        # maximum loss so the same filter is provably empty
        rng = np.random.default_rng(20260815)
        found = 0
        while found < 100:
            x = profile(rng.uniform(-4.0, 4.0, size=4))
            d = distribution_of(x)
            assert var(d, 0.8) == np.max(x.values)
            if not (var(d, 0.75) <= 0.0 < es(d, 0.5)):
                continue
            found += 1
            got = es_minimality_witness(x, 0.75, 0.5)
            assert got["checks"]["ssd_dominates"]
            assert got["checks"]["var_positive"]
            assert got["checks"]["var_alpha_y"] > 0.0
            assert es(d, 0.75) >= var(d, 0.75)


class TestLawInvarianceClosure:
    """Aggregates of law-invariant members depend only on the law."""

    SPACE = StateSpace([0.1, 0.2, 0.3, 0.4])

    def members(self):
        return [var_measure(0.5), es_measure(0.75), mean_measure()]

    @pytest.mark.parametrize(
        "make_mu",
        [
            lambda n: order_statistic_capacity(n, 2),
            lambda n: sup_capacity(n),
            lambda n: additive_capacity([0.2, 0.3, 0.5]),
        ],
        ids=["median", "sup", "weighted"],
    )
    def test_permutation_invariance(self, make_mu):
        fam = MeasureFamily(self.members(), self.SPACE)
        rho = choquet_measure(fam, make_mu(fam.size))
        rng = np.random.default_rng(31)
        for _ in range(25):
            values = rng.uniform(-5.0, 5.0, size=4)
            perm = rng.permutation(4)
            x = LossProfile(self.SPACE, values)
            x_perm = LossProfile(
                StateSpace(self.SPACE.probs[perm]), values[perm]
            )
            assert rho(x_perm) == pytest.approx(rho(x), abs=1e-12)
