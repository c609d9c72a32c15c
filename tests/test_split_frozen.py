"""The split search's results, frozen bit for bit.

``data/split_frozen.json`` holds, for every case below, the parts and total
of ``aggregate._search_split`` as float hex and its ``meta``, as recorded
from the numpy form of the search (each objective evaluation rebuilt every
part with a reshape and an axis-0 sum).  Any rewrite of the search must
evaluate the same points in the same order and reproduce them exactly.
"""

import json
import os

import pytest

from starrisk import aggregate
from starrisk.aggregate import MeasureFamily, SolverConfig, ecb_blend_measure
from starrisk.measures import (
    RiskEvaluator,
    entropic_measure,
    es_measure,
    mean_measure,
    var_measure,
    worst_case_measure,
)
from starrisk.state_space import LossProfile, StateSpace

FROZEN = os.path.join(os.path.dirname(__file__), "data", "split_frozen.json")

ES5, WC, MEAN = es_measure(0.5), worst_case_measure(), mean_measure()
ENT1, VAR5 = entropic_measure(1.0), var_measure(0.5)
W4 = StateSpace([0.1, 0.2, 0.3, 0.4])
W5 = StateSpace([0.3, 0.05, 0.25, 0.15, 0.25])
W16 = StateSpace([i / 136.0 for i in range(1, 17)])
uniform = StateSpace.uniform


def opaque(members):
    """The members rebuilt without their plain-atom kernels or box levels."""
    return [RiskEvaluator(rho.name, rho._fn, rho.claims) for rho in members]


# name -> (members, space, target, SolverConfig keyword arguments)
CASES = {
    "es_wc_n1": ([ES5, WC], uniform(1), [2.5], {}),
    "es_wc_n2": ([ES5, WC], uniform(2), [0.0, 2.0], {}),
    "entropic_pair_n2": (
        [ENT1, entropic_measure(2.5)], uniform(2), [0.5, 3.0], {}),
    "es_wc_n3": ([ES5, WC], uniform(3), [1.0, -2.0, 4.0], {}),
    "var_pair_n2": ([VAR5, VAR5], uniform(2), [1.0, 2.0], {}),
    "mean_entropic_weighted_n4": (
        [MEAN, ENT1], W4, [0.3, -1.2, 2.2, 0.9], {}),
    "es_var_tied_n4": (
        [es_measure(0.75), VAR5], uniform(4), [1.0, 1.0, 1.0, 1.0], {}),
    "entropic_wc_weighted_n5": (
        [entropic_measure(0.5), WC], W5, [-0.4, 1.7, 0.2, -2.1, 0.8], {}),
    "es_entropic_1e6_n6": (
        [ES5, ENT1], uniform(6),
        [1e6 * v for v in (0.5, -1.5, 2.0, 0.25, -0.75, 1.0)], {"max_sweeps": 6}),
    "var_es_1e-6_n7": (
        [var_measure(0.25), es_measure(0.9)], uniform(7),
        [1e-6 * v for v in (1.0, -2.0, 0.5, 3.0, -0.5, 2.0, 0.0)], {}),
    "es_wc_signed_zeros_n8": (
        [ES5, WC], uniform(8), [-0.0, 0.0, 1.5, -0.0, -1.0, 0.0, 2.0, -0.0],
        {"max_sweeps": 4}),
    "es_entropic_wc_n4": (
        [ES5, ENT1, WC], uniform(4), [-0.0, 1.0, 0.0, -2.0], {}),
    "mean_var_es_n2": ([MEAN, VAR5, ES5], uniform(2), [-1.0, 3.0], {}),
    "entropic_entropic_es_n3": (
        [ENT1, entropic_measure(2.0), es_measure(0.25)], uniform(3),
        [0.75, -0.5, 1.25], {}),
    "var_wc_mean_tied_n5": (
        [VAR5, WC, MEAN], W5, [2.0, 2.0, -1.0, 2.0, -1.0], {}),
    "es_entropic_var_n8": (
        [ES5, ENT1, var_measure(0.75)], uniform(8),
        [0.5, -1.0, 2.0, 0.0, 1.5, -0.5, 3.0, 1.0],
        {"max_sweeps": 2, "polish_cap": 40}),
    "es_wc_tied_1e6_n3": ([ES5, WC], uniform(3), [1e6, 1e6, 1e6], {}),
    "ten_members_n1": (
        [ES5, MEAN, WC, entropic_measure(1.5), VAR5] * 2, uniform(1), [0.7],
        {"max_sweeps": 2, "polish_cap": 10}),
    "opaque_es_wc_n3": (opaque([ES5, WC]), uniform(3), [1.0, -2.0, 4.0], {}),
    "opaque_mean_entropic_weighted_n4": (
        opaque([MEAN, ENT1]), W4, [0.3, -1.2, 2.2, 0.9], {}),
    "opaque_var_es_1e-6_n7": (
        opaque([var_measure(0.25), es_measure(0.9)]), uniform(7),
        [1e-6 * v for v in (1.0, -2.0, 0.5, 3.0, -0.5, 2.0, 0.0)],
        {"max_sweeps": 4}),
    "opaque_es_entropic_wc_n4": (
        opaque([ES5, ENT1, WC]), uniform(4), [-0.0, 1.0, 0.0, -2.0], {}),
    "mean_blend_n3": (
        [MEAN, ecb_blend_measure(MeasureFamily([es_measure(0.75), WC],
                                               uniform(3)), 0.5)],
        uniform(3), [-0.0, 2.0, -0.0], {}),
    "opaque_es_wc_1e-6_n2": (
        opaque([ES5, WC]), uniform(2), [1e-6, -3e-6], {"seed": 9}),
    # the kernels' largest size, with eight-fold ties half a unit apart
    "es_wc_half_step_ties_n64": (
        [ES5, WC], uniform(64), [0.5 * (i % 8) - 1.0 for i in range(64)],
        {"starts": 2, "max_sweeps": 2, "polish_cap": 10}),
    "var_es_weighted_zeros_1e12_n16": (
        [VAR5, es_measure(0.75)], W16,
        [1e12 * v for v in (0.0, 1.5, -2.0, 0.0, 3.0, -0.5, 0.0, 2.5,
                            -1.0, 0.0, 1.0, 4.0, -3.0, 0.0, 0.5, 2.0)],
        {"starts": 2, "max_sweeps": 3, "polish_cap": 20}),
}


def run_case(name):
    """The search's result for case ``name`` in the frozen file's form."""
    members, space, target, kwargs = CASES[name]
    config = SolverConfig(**dict({"seed": 3, "starts": 4}, **kwargs))
    x = LossProfile(space, target)
    sol = aggregate._search_split(
        MeasureFamily(members, space), x, config, assume_normal=True
    )
    return {
        "parts": [[float(v).hex() for v in p.values] for p in sol.parts],
        "total": sol.total.hex(),
        "meta": sol.meta,
    }


@pytest.fixture(scope="module")
def frozen():
    with open(FROZEN) as fh:
        return json.load(fh)


def test_every_case_is_frozen(frozen):
    assert sorted(frozen) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_matches_frozen_bits(frozen, name):
    assert run_case(name) == frozen[name]
