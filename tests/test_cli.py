"""End-to-end command-line behavior: golden configs, determinism, exit codes.

Every golden config is run twice through ``main`` with ``--out``; the two
reports must match each other and the snapshot in ``data/golden`` byte for
byte.  Spot values are frozen from hand calculations (quantiles, Choquet
tables, robust argmins) so a formatting or convention drift fails loudly
rather than silently reshuffling JSON.
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starrisk.axioms import SUPPORTED_PROPERTIES
from starrisk.cli import CliInputError, _KINDS, _clean, _parser, main

import oracles

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"


def run(tmp_path, stem, argv):
    out = tmp_path / (stem + ".json")
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_bytes()


def report(tmp_path, argv):
    code, raw = run(tmp_path, "r", argv)
    return code, json.loads(raw)


def data_argv(command, csv, spec, *extra):
    argv = [command]
    if csv is not None:
        argv += ["--input", str(DATA / csv)]
    argv += ["--spec", str(DATA / spec)]
    return argv + list(extra)


GOLDEN = [
    ("eval_basic", data_argv("eval", "book.csv", "basic.json"), 0),
    ("eval_primitives", data_argv("eval", "weighted.csv", "primitives.json"), 0),
    ("eval_weighted", data_argv("eval", "weighted.csv", "basic.json"), 0),
    ("axioms_star", data_argv("axioms", None, "star_check.json", "--seed", "7"), 0),
    ("axioms_convex", data_argv("axioms", None, "convex_check.json", "--seed", "2"), 1),
    ("aggregate_tables", data_argv("aggregate", "book.csv", "aggregate.json"), 0),
    ("aggregate_infconv",
     data_argv("aggregate", "weighted.csv", "infconv_kind.json", "--seed", "11"), 0),
    ("envelope_basic", data_argv("envelope", None, "basic.json", "--seed", "3"), 0),
    ("infconv_pair",
     data_argv("infconv", "book.csv", "infconv_pair.json", "--seed", "11"), 0),
    ("optimize_direct", data_argv("optimize", "actions.csv", "optimize_one.json"), 0),
    ("optimize_robust", data_argv("optimize", "actions.csv", "basic.json"), 0),
    ("margin_subsets", data_argv("margin", "book.csv", "margin.json", "--seed", "5"), 0),
    ("envelope_non_star",
     data_argv("envelope", None, "non_star.json", "--seed", "3"), 1),
]


class TestGoldenDeterminism:
    @pytest.mark.parametrize(
        "name,argv,expected", GOLDEN, ids=[g[0] for g in GOLDEN]
    )
    def test_rerun_is_byte_identical(self, tmp_path, name, argv, expected):
        code_a, raw_a = run(tmp_path, "a", argv)
        code_b, raw_b = run(tmp_path, "b", argv)
        assert code_a == expected
        assert code_b == expected
        assert raw_a == raw_b
        parsed = json.loads(raw_a)
        assert parsed["metadata"]["version"]
        assert raw_a.endswith(b"\n")
        # "input" echoes an absolute path; the snapshot holds a placeholder
        data_dir = json.dumps(str(DATA))[1:-1].encode()
        snapshot = (DATA / "golden" / (name + ".json")).read_bytes()
        assert raw_a.replace(data_dir, b"<data>") == snapshot

    def test_pretty_same_content_different_bytes(self, tmp_path):
        argv = data_argv("eval", "book.csv", "basic.json")
        _, compact = run(tmp_path, "c", argv)
        _, pretty = run(tmp_path, "p", argv + ["--pretty"])
        assert compact != pretty
        assert json.loads(compact) == json.loads(pretty)

    def test_stdout_when_no_out_flag(self, capsys):
        code = main(data_argv("eval", "book.csv", "basic.json"))
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["results"]["book"]["v"] == 2.0


class TestFrozenValues:
    def test_eval_quantiles(self, tmp_path):
        _, rep = report(tmp_path, data_argv("eval", "book.csv", "basic.json"))
        assert rep["results"]["book"] == {"v": 2.0, "e": 3.5}

    def test_eval_primitive_zoo(self, tmp_path):
        _, rep = report(tmp_path, data_argv("eval", "weighted.csv", "primitives.json"))
        book = rep["results"]["book"]
        assert book["var75"] == 4.0
        assert book["es50"] == 3.5
        assert book["maxv"] == 1.5
        assert book["medv"] == 0.0
        assert book["lv"] == 3.0
        assert book["avg"] == pytest.approx(1.85)
        assert book["wc"] == 4.0
        assert book["ent"] == pytest.approx(3.15262064231801, abs=1e-12)
        assert book["sf"] == pytest.approx(2.41441441439383, abs=1e-10)
        hedge = rep["results"]["hedge"]
        assert hedge["var75"] == 0.5
        assert hedge["wc"] == 1.0

    def test_eval_tied_losses_at_the_mass_edge(self, tmp_path):
        # weights whose fsum is 1 + 4503 * 2**-52, the largest mass a space
        # takes, with the first two losses tied: the merged law builds on
        # them, its probabilities carrying only the merge's rounding
        _, rep = report(tmp_path, data_argv("eval", "edge_ties.csv", "basic.json"))
        book = rep["results"]["book"]
        weights = [0.31925244413817927, 0.41632748194291, 0.2644200739199106]
        assert math.fsum(weights) == 1.0 + 4503 * 2.0**-52
        cum = np.array([weights[0] + weights[1], sum(weights)])
        assert book["v"] == 1.0
        assert book["e"] == pytest.approx(
            oracles.array_es(np.array([1.0, 2.0]), cum, 0.5), abs=1e-12)

    def test_aggregate_tables(self, tmp_path):
        _, rep = report(tmp_path, data_argv("aggregate", "book.csv", "aggregate.json"))
        # members evaluate to (v, e, w) = (3, 3.5, 4) on the book column
        assert rep["results"]["book"] == {
            "cap": 4.0,
            "mid": 3.5,
            "wavg": pytest.approx(3.35),
            "mix": 3.25,
            "floor": 3.0,
        }
        assert rep["kinds"] == {
            "cap": "choquet", "mid": "choquet", "wavg": "choquet",
            "mix": "blend", "floor": "margin",
        }

    def test_aggregate_reports_only_aggregate_kinds(self, tmp_path):
        _, rep = report(tmp_path, data_argv("aggregate", "book.csv", "aggregate.json"))
        assert set(rep["results"]["book"]) == {"cap", "mid", "wavg", "mix", "floor"}

    def test_infconv_absorbed_by_wider_scenario_set(self, tmp_path):
        # the worst-case scenario set contains the ES set, so the pooled
        # charge collapses to ES alone and the worst-case part is zero
        argv = data_argv("infconv", "book.csv", "infconv_pair.json", "--seed", "11")
        code, rep = report(tmp_path, argv)
        assert code == 0
        row = rep["results"]["book"]
        assert row["total"] == pytest.approx(3.5, abs=1e-9)
        assert rep["normality"]["passed"] is True
        parts = row["parts"]
        assert len(parts) == 2
        total_split = [a + b for a, b in zip(*parts)]
        assert total_split == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-12)

    def test_infconv_kind_inside_spec(self, tmp_path):
        argv = data_argv("aggregate", "weighted.csv", "infconv_kind.json",
                         "--seed", "11")
        _, rep = report(tmp_path, argv)
        assert rep["results"]["book"]["pool"] == pytest.approx(3.5, abs=1e-9)
        assert rep["results"]["hedge"]["pool"] == pytest.approx(0.2, abs=1e-9)

    def test_optimize_direct(self, tmp_path):
        argv = data_argv("optimize", "actions.csv", "optimize_one.json")
        code, rep = report(tmp_path, argv)
        assert code == 0
        assert rep["method"] == "direct"
        assert rep["argmin"] == "mixed"
        assert rep["value"] == 2.25
        assert rep["decomposition_gap"] <= 1e-9
        assert rep["decomposition"]["verdict"] == "holds_on_sample"

    def test_optimize_robust(self, tmp_path):
        argv = data_argv("optimize", "actions.csv", "basic.json")
        code, rep = report(tmp_path, argv)
        assert code == 0
        assert rep["method"] == "robust"
        # worst of (var_0.5, es_0.5): hold 3.5, hedge 3.0, mixed 2.25
        assert rep["argmin"] == "mixed"
        assert rep["value"] == 2.25

    def test_margin_prefers_cheapest_subset(self, tmp_path):
        argv = data_argv("margin", "book.csv", "margin.json", "--seed", "5")
        _, rep = report(tmp_path, argv)
        row = rep["results"]["book"]
        # ES alone costs 3.5, worst case 4.0, the pair also 3.5; ties go
        # to the earlier admissible entry
        assert row["subset"] == [0]
        assert row["total"] == pytest.approx(3.5, abs=1e-9)
        assert rep["admissible"] == [[0], [1], [0, 1]]

    def test_margin_without_admissible_uses_singletons(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"measures": [
            {"name": "e", "kind": "es", "beta": 0.5},
            {"name": "w", "kind": "worst_case"},
        ]}))
        _, rep = report(tmp_path, ["margin", "--input", str(DATA / "book.csv"),
                                   "--spec", str(spec), "--seed", "5"])
        assert rep["admissible"] == [[0], [1]]
        row = rep["results"]["book"]
        assert row["subset"] == [0]
        assert row["total"] == pytest.approx(3.5, abs=1e-9)

    def test_axioms_matrix(self, tmp_path):
        argv = data_argv("axioms", None, "star_check.json", "--seed", "7")
        code, rep = report(tmp_path, argv)
        assert code == 0
        assert len(rep["reports"]) == 9  # 3 measures x 3 properties
        assert all(r["verdict"] == "holds_on_sample" for r in rep["reports"])
        assert rep["properties"] == [
            "star_shaped", "monotone", "translation_invariant"
        ]

    def test_envelope_rows(self, tmp_path):
        argv = data_argv("envelope", None, "basic.json", "--seed", "3")
        code, rep = report(tmp_path, argv)
        assert code == 0
        for entry in rep["reports"]:
            assert entry["verdict"] == "holds_on_sample"
            assert len(entry["rows"]) == 12
            for row in entry["rows"]:
                assert row["domination_ok"] is True
                assert row["tight_member_value"] == pytest.approx(
                    row["rho_x"], abs=1e-9
                )
                assert row["min_family_value"] >= row["rho_x"] - 1e-9


class TestExitOne:
    def test_quantile_convexity_violation(self, tmp_path):
        argv = data_argv("axioms", None, "convex_check.json", "--seed", "2")
        code, rep = report(tmp_path, argv)
        assert code == 1
        (row,) = rep["reports"]
        assert row["verdict"] == "violated"
        assert {"x", "y", "weight", "rho_mix"} <= set(row["witness"])

    def test_non_star_shortfall(self, tmp_path):
        argv = data_argv("axioms", None, "non_star.json", "--seed", "4")
        code, rep = report(tmp_path, argv)
        assert code == 1
        assert rep["reports"][0]["verdict"] == "violated"
        assert "scale" in rep["reports"][0]["witness"]

    def test_envelope_non_star_rows_cover_every_probe(self, tmp_path):
        # the verdict and probes_used stop at the first undershooting
        # member; the rows go on through all 12 probes
        argv = data_argv("envelope", None, "non_star.json", "--seed", "3")
        code, rep = report(tmp_path, argv)
        assert code == 1
        (entry,) = rep["reports"]
        assert entry["verdict"] == "violated"
        assert entry["probes_used"] == 118
        assert set(entry["witness"]) == {"x", "y", "rho_x", "member_value"}
        assert len(entry["rows"]) == 12
        assert sum(not row["domination_ok"] for row in entry["rows"]) == 6


def expect_input_error(capsys, argv, fragment):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert fragment in err
    return err


class TestInputErrors:
    def test_missing_csv(self, capsys):
        expect_input_error(
            capsys,
            ["eval", "--input", "/nonexistent.csv",
             "--spec", str(DATA / "basic.json")],
            "cannot read",
        )

    def test_bad_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("scenario,weight,book\ns1,1.0,2\n")
        expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "header must start with 'state,prob'",
        )

    def test_no_loss_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("state,prob\ns1,1.0\n")
        expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "at least one loss column",
        )

    def test_duplicate_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("state,prob,a,a\ns1,1.0,1,2\n")
        expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "duplicate loss column",
        )

    def test_ragged_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("state,prob,a\ns1,0.5,1\ns2,0.5\n")
        expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "row 3 has 2 fields, expected 3",
        )

    def test_unparseable_number_names_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("state,prob,book\ns1,0.5,x\ns2,0.5,2\n")
        expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "row 2, column 'book': could not parse 'x' as a number",
        )

    def test_unparseable_number_in_a_later_row_and_column(self, tmp_path, capsys):
        # the first bad cell in reading order is named, ahead of a later bad
        # cell in an earlier column and of a later ragged row
        bad = tmp_path / "bad.csv"
        bad.write_text("state,prob,a,b\ns1,0.25,1,2\ns2,0.25,3,4\n"
                       "s3,0.25,5,1e\ns4,x,7,8\ns5,0.25\n")
        expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "row 4, column 'b': could not parse '1e' as a number",
        )

    def test_probability_mass_off(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("state,prob,book\ns1,0.6,1\ns2,0.6,2\n")
        expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "sum to 1.2",
        )

    def test_probability_mass_by_fsum(self, tmp_path, capsys):
        # weights whose fsum is 1 + 1.0e-12: refused by the space, before
        # any law is built on them
        bad = tmp_path / "bad.csv"
        weights = [float.fromhex(h) for h in (
            "0x1.a9028bb0f5b6ap-2", "0x1.6ceb6e469db63p-2", "0x1.d4240c10e1f23p-3")]
        bad.write_text("state,prob,book\n" + "".join(
            "s%d,%r,%d\n" % (i, w, i) for i, w in enumerate(weights)))
        err = expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "probabilities sum to 1.0000000000010001, not 1 within",
        )
        assert "atom probabilities" not in err

    def test_empty_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "is empty",
        )

    def test_header_without_rows(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("state,prob,book\n")
        expect_input_error(
            capsys,
            ["eval", "--input", str(bad), "--spec", str(DATA / "basic.json")],
            "header but no scenario rows",
        )

    def test_out_path_unwritable(self, tmp_path, capsys):
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"),
             "--spec", str(DATA / "basic.json"),
             "--out", str(tmp_path / "missing" / "r.json")],
            "cannot write",
        )

    def test_negative_tolerance(self, capsys):
        # argparse swallows "-1e-9" as an option string; "--tol=-1" binds.
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"),
             "--spec", str(DATA / "basic.json"), "--tol=-1"],
            "--tol must be nonnegative",
        )

    def test_nan_tolerance(self, capsys):
        # NaN compares false with everything, so every check would pass
        err = expect_input_error(
            capsys,
            ["axioms", "--spec", str(DATA / "convex_check.json"), "--seed", "2",
             "--tol", "nan"],
            "--tol must be nonnegative",
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["axioms", "infconv"])
    def test_negative_seed(self, command, capsys):
        argv = [command, "--spec", str(DATA / "infconv_pair.json"), "--seed=-1"]
        if command == "infconv":
            argv += ["--input", str(DATA / "book.csv")]
        err = expect_input_error(capsys, argv, "--seed must be nonnegative")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry", [
        {"kind": "var", "beta": "abc"},
        {"kind": "es", "beta": None},
        {"kind": "entropic", "lambda": [1]},
        {"kind": "shortfall", "utility_knots": [[0, 0, 1]]},
        {"kind": "lvar", "benchmark_steps": 5},
        {"kind": "maxvar", "beta": 0.5, "members": [["a", "b", "c", "d"]]},
        {"kind": "choquet", "members": ["v"], "capacity": {"order_statistic": "x"}},
        {"kind": "choquet", "members": ["v"], "capacity": {"order_statistic": 1.5}},
        {"kind": "choquet", "members": ["v"], "capacity": {"masks": []}},
        {"kind": "choquet", "members": ["v"], "capacity": {"masks": {"a": 1}}},
        {"kind": "choquet", "members": ["v"], "capacity": {"additive": ["x"]}},
        {"kind": "blend", "members": ["v"], "weight": "w"},
    ], ids=["beta-text", "beta-null", "lambda-list", "knot-triple", "steps-number",
            "maxvar-text-weights", "order-statistic-text", "order-statistic-fraction",
            "masks-list", "mask-text",
            "additive-text", "blend-weight-text"])
    def test_malformed_measure_field(self, entry, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [
            {"name": "v", "kind": "var", "beta": 0.5},
            dict(entry, name="bad"),
        ]}))
        err = expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "error: measure 'bad': ",
        )
        assert err.count("\n") == 1

    def test_spec_not_json(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{not json")
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "not valid JSON",
        )

    def test_spec_without_measures(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{}")
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "'measures' list",
        )

    @pytest.mark.parametrize("measures, fragment", [
        ([], "spec lists no measures"),
        ([["v", "var", 0.5]], "each measure entry must be an object"),
    ], ids=["empty-list", "entry-not-object"])
    def test_malformed_measures_list(self, measures, fragment, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": measures}))
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            fragment,
        )

    def test_spec_unreadable(self, tmp_path, capsys):
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"),
             "--spec", str(tmp_path / "missing.json")],
            "cannot read",
        )

    @pytest.mark.parametrize("which, content", [
        ("--input", b"state,prob,book\ns1,1.0,\xff\n"),
        ("--spec", b'{"measures": [{"name": "v\xff", "kind": "var", "beta": 0.5}]}'),
        # past csv's field limit of 131,072 characters
        ("--input", b"state,prob,book\ns1,1.0," + b"1" * 131_073 + b"\n"),
    ], ids=["csv-not-utf8", "spec-not-utf8", "csv-field-too-long"])
    def test_unreadable_content(self, which, content, tmp_path, capsys):
        # each used to escape as a traceback, with exit status 1
        bad = tmp_path / "bad"
        bad.write_bytes(content)
        argv = ["eval", "--input", str(DATA / "book.csv"), "--spec", str(DATA / "basic.json")]
        argv[argv.index(which) + 1] = str(bad)
        expect_input_error(capsys, argv, "cannot read %s: " % bad)

    def test_properties_not_a_list(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({
            "measures": [{"name": "v", "kind": "var", "beta": 0.5}],
            "properties": "star_shaped",
        }))
        expect_input_error(
            capsys,
            ["axioms", "--spec", str(bad), "--seed", "1"],
            "'properties' must be a list of property names",
        )

    @pytest.mark.parametrize("admissible", [3, [[]], [0, 1]],
                             ids=["number", "empty-subset", "flat-list"])
    def test_malformed_admissible(self, admissible, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({
            "measures": [
                {"name": "e", "kind": "es", "beta": 0.5},
                {"name": "w", "kind": "worst_case"},
            ],
            "admissible": admissible,
        }))
        expect_input_error(
            capsys,
            ["margin", "--input", str(DATA / "book.csv"), "--spec", str(bad),
             "--seed", "1"],
            "'admissible' must be a list of nonempty index lists",
        )

    def test_duplicate_measure_names(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [
            {"name": "v", "kind": "var", "beta": 0.5},
            {"name": "v", "kind": "es", "beta": 0.5},
        ]}))
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "duplicate measure name 'v'",
        )

    def test_unknown_kind(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [{"name": "m", "kind": "vr"}]}))
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "unknown kind 'vr'",
        )

    def test_missing_field_names_measure_and_field(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [{"name": "v", "kind": "var"}]}))
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "measure 'v': kind 'var' needs field 'beta'",
        )

    def test_unknown_member_reference(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [
            {"name": "v", "kind": "var", "beta": 0.5},
            {"name": "c", "kind": "choquet", "members": ["v", "ghost"],
             "capacity": "sup"},
        ]}))
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "measure 'c' references unknown member 'ghost'",
        )

    def test_member_kind_requires_input(self, capsys):
        expect_input_error(
            capsys,
            ["axioms", "--spec", str(DATA / "aggregate.json"), "--seed", "1"],
            "needs --input",
        )

    def test_bad_capacity(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [
            {"name": "v", "kind": "var", "beta": 0.5},
            {"name": "e", "kind": "es", "beta": 0.5},
            {"name": "c", "kind": "choquet", "members": ["v", "e"],
             "capacity": "max"},
        ]}))
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "unrecognized capacity 'max'",
        )

    def test_additive_capacity_length(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [
            {"name": "v", "kind": "var", "beta": 0.5},
            {"name": "e", "kind": "es", "beta": 0.5},
            {"name": "c", "kind": "choquet", "members": ["v", "e"],
             "capacity": {"additive": [1.0]}},
        ]}))
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "additive capacity needs 2 weights",
        )

    @pytest.mark.parametrize("entry, fragment", [
        ({"kind": "entropic", "lambda": math.inf}, "entropic parameter must be finite"),
        ({"kind": "lvar", "benchmark_steps": [[0, 0.5], [math.nan, 0.9]]},
         "benchmark times must be finite"),
        ({"kind": "shortfall", "utility_knots": [[-1, -3], [0, 0], [math.nan, 1]]},
         "utility knots must be finite"),
        ({"kind": "choquet", "members": ["v", "e"],
          "capacity": {"additive": [math.nan, 1.0]}}, "weights must be finite"),
        ({"kind": "choquet", "members": ["v", "e"],
          "capacity": {"masks": {"0": 0, "1": math.nan, "2": 0.5, "3": 1}}},
         "capacity values must lie in [0, 1]"),
    ], ids=["lambda-infinity", "steps-nan", "knots-nan", "additive-nan", "masks-nan"])
    def test_non_finite_spec_parameter(self, entry, fragment, tmp_path, capsys):
        # JSON Infinity and NaN parse as floats; each used to exit 0
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [
            {"name": "v", "kind": "var", "beta": 0.5},
            {"name": "e", "kind": "es", "beta": 0.5},
            dict(entry, name="bad"),
        ]}))
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            fragment,
        )

    @pytest.mark.parametrize("command", ["axioms", "envelope", "infconv", "margin"])
    def test_sampling_commands_require_seed(self, command, capsys):
        argv = [command, "--spec", str(DATA / "infconv_pair.json")]
        if command in ("infconv", "margin"):
            argv += ["--input", str(DATA / "book.csv")]
        expect_input_error(capsys, argv, "--seed is required")

    def test_infconv_kind_requires_seed(self, capsys):
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "weighted.csv"),
             "--spec", str(DATA / "infconv_kind.json")],
            "kind 'infconv' is solver backed and needs --seed",
        )

    def test_infconv_refuses_free_money(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"measures": [
            {"name": "a", "kind": "var", "beta": 0.5},
            {"name": "b", "kind": "var", "beta": 0.5},
        ]}))
        expect_input_error(
            capsys,
            ["infconv", "--input", str(DATA / "book.csv"), "--spec", str(spec),
             "--seed", "3"],
            "normality check failed",
        )

    def test_margin_index_out_of_range(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "measures": [
                {"name": "e", "kind": "es", "beta": 0.5},
                {"name": "w", "kind": "worst_case"},
            ],
            "admissible": [[0], [5]],
        }))
        expect_input_error(
            capsys,
            ["margin", "--input", str(DATA / "book.csv"), "--spec", str(spec),
             "--seed", "1"],
            "admissible index 5 out of range",
        )

    def test_aggregate_without_aggregate_kinds(self, capsys):
        expect_input_error(
            capsys,
            ["aggregate", "--input", str(DATA / "book.csv"),
             "--spec", str(DATA / "basic.json")],
            "no aggregate measures",
        )

    @pytest.mark.parametrize("masks", [
        {"0": 0, "1": 0.5, "2": 0.5, "5": 1},
        # numpy would read -1 as the full set
        {"0": 0, "1": 0.5, "2": 0.5, "-1": 1},
    ], ids=["past-the-full-set", "negative"])
    def test_capacity_mask_out_of_range(self, masks, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [
            {"name": "e", "kind": "es", "beta": 0.5},
            {"name": "w", "kind": "worst_case"},
            {"name": "c", "kind": "choquet", "members": ["e", "w"],
             "capacity": {"masks": masks}},
        ]}))
        err = expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "error: capacity mask ",
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["maxvar", "medvar"])
    @pytest.mark.parametrize("members", [[], "", {}], ids=["list", "text", "object"])
    def test_scenario_var_without_weight_vectors(self, kind, members, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [
            {"name": "s", "kind": kind, "beta": 0.5, "members": members},
        ]}))
        err = expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            "error: %s needs at least one weight vector" % kind,
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry, fragment", [
        ({"name": "c", "kind": "choquet", "members": "v", "capacity": "sup"},
         "measure 'c': 'members' must be a nonempty list"),
        ({"kind": "var", "beta": 0.5}, "every measure needs a nonempty string 'name'"),
    ], ids=["members-not-a-list", "no-name"])
    def test_malformed_spec_entry(self, entry, fragment, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"measures": [
            {"name": "v", "kind": "var", "beta": 0.5}, entry,
        ]}))
        expect_input_error(
            capsys,
            ["eval", "--input", str(DATA / "book.csv"), "--spec", str(bad)],
            fragment,
        )


# -- the exit contract under malformed specs ------------------------------------

# Field values of the wrong JSON type, not finite, zero, negative, huge or
# fractional, and empty or nested lists
_JUNK = [None, True, False, "x", "", {}, {"a": 1}, math.nan, math.inf, -math.inf,
         0, -1, -0.5, 1e308, -1e308, 10**30, 0.5, 1.5, 2.9,
         [], [[]], [[[]]], [1.5], [[0.5, 0.5]], [[0.25] * 4, []], ["e", "nope"]]
_MISSING = object()
_MASKS = st.dictionaries(
    st.sampled_from(["0", "1", "2", "3", "5", "16", "-1", "1.5", "x"]),
    st.sampled_from([0, 0.5, 1, -1, math.nan, "x", []]), max_size=5)
_CAPACITIES = st.one_of(
    st.sampled_from(["sup", "inf", "median", "max"]),
    st.builds(lambda m: {"masks": m}, st.one_of(st.sampled_from(_JUNK), _MASKS)),
    st.builds(lambda r: {"order_statistic": r},
              st.one_of(st.sampled_from(_JUNK), st.integers(-2, 4))),
    st.builds(lambda w: {"additive": w}, st.sampled_from(_JUNK + [[0.5, 0.5]])),
)
# one valid value per field; each field draws it, junk, or nothing
_VALID = {
    "beta": 0.5, "lambda": 1.0, "weight": 0.5, "capacity": "sup",
    "benchmark_steps": [[0.0, 0.5], [1.0, 0.75]],
    "utility_knots": [[-1.0, -3.0], [0.0, 0.0], [1.0, 2.0]],
}
_FIELDS = {
    "var": ["beta"], "es": ["beta"], "lvar": ["benchmark_steps"],
    "shortfall": ["utility_knots"], "entropic": ["lambda"], "mean": [],
    "worst_case": [], "maxvar": ["beta", "members"], "medvar": ["beta", "members"],
    "choquet": ["members", "capacity"], "blend": ["members", "weight"],
    "margin": ["members"], "infconv": ["members"],
}


@st.composite
def malformed_entries(draw):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    entry = {"name": "bad", "kind": kind}
    for field in _FIELDS[kind]:
        if field != "members":
            valid = _VALID[field]
        elif _KINDS[kind][1]:
            valid = ["e", "w"]
        else:
            valid = [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]]
        junk = _CAPACITIES if field == "capacity" else st.sampled_from(_JUNK)
        value = draw(st.one_of(st.just(valid), junk, st.just(_MISSING)))
        if value is not _MISSING:
            entry[field] = value
    return entry


def test_fields_cover_every_kind():
    assert set(_FIELDS) == set(_KINDS)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["eval", "aggregate"]), malformed_entries(),
       st.sampled_from([[], ["--seed", "1"]]))
# specs that escaped with a traceback before the factories checked them
@example("eval", {"name": "bad", "kind": "maxvar", "beta": 0.5, "members": []}, [])
@example("aggregate", {"name": "bad", "kind": "choquet", "members": ["e", "w"],
                       "capacity": {"masks": []}}, [])
@example("aggregate", {"name": "bad", "kind": "choquet", "members": ["e", "w"],
                       "capacity": {"masks": {"0": 0, "1": 0.5, "2": 0.5, "5": 1}}}, [])
def test_malformed_specs_exit_0_or_2(tmp_path_factory, command, entry, seed):
    # main never raises: 0 with a report, or 2 with one error line
    work = tmp_path_factory.getbasetemp()
    spec = work / "fuzz_spec.json"
    spec.write_text(json.dumps({"measures": [
        {"name": "e", "kind": "es", "beta": 0.5},
        {"name": "w", "kind": "worst_case"},
        entry,
    ]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--input", str(DATA / "book.csv"), "--spec", str(spec),
                     "--out", str(work / "fuzz_report.json")] + seed)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


class TestSerialization:
    def test_rounding_to_fifteen_digits(self):
        assert _clean(0.1 + 0.2) == 0.3
        assert _clean(2.0) == 2.0
        assert _clean([1, True, None, "x"]) == [1, True, None, "x"]

    def test_infinities_become_strings(self):
        assert _clean(float("inf")) == "inf"
        assert _clean(float("-inf")) == "-inf"
        assert _clean({"a": float("inf")}) == {"a": "inf"}

    def test_numpy_scalars_and_arrays(self):
        import numpy as np

        out = _clean({"v": np.float64(0.5), "n": np.int64(3),
                      "b": np.bool_(True), "arr": np.array([1.0, 2.0])})
        assert out == {"v": 0.5, "n": 3, "b": True, "arr": [1.0, 2.0]}
        assert isinstance(out["b"], bool)

    def test_no_seventeen_digit_noise_in_reports(self, tmp_path):
        csv_file = tmp_path / "t.csv"
        csv_file.write_text(
            "state,prob,a\ns1,0.1,0.1\ns2,0.2,0.1\ns3,0.3,0.1\ns4,0.4,0.30000000000000004\n"
        )
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"measures": [{"name": "m", "kind": "mean"}]}))
        code, raw = run(tmp_path, "r", ["eval", "--input", str(csv_file),
                                        "--spec", str(spec)])
        assert code == 0
        assert b"00000000000000" not in raw


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "r.json"
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "starrisk", "eval",
             "--input", str(DATA / "book.csv"),
             "--spec", str(DATA / "basic.json"), "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["results"]["book"]["e"] == 3.5

    def test_console_script_if_installed(self, tmp_path):
        exe = shutil.which("starrisk")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "eval", "--input", str(DATA / "book.csv"),
             "--spec", str(DATA / "basic.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["book"]["v"] == 2.0

    def test_spec_help_lists_kinds(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "kinds: " + ", ".join(_KINDS) in help_text

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the parser is built on the first call and reused; failed and
        # --help calls leave nothing behind that later calls would see
        _parser.cache_clear()
        eval_argv = data_argv("eval", "book.csv", "basic.json")
        with pytest.raises(SystemExit) as exc:
            main(eval_argv + ["--tol", "abc"])
        assert exc.value.code == 2
        assert main(eval_argv + ["--tol=-1"]) == 2
        capsys.readouterr()
        code, raw = run(tmp_path, "r", eval_argv)
        assert code == 0
        data_dir = json.dumps(str(DATA))[1:-1].encode()
        golden = (DATA / "golden" / "eval_basic.json").read_bytes()
        assert raw.replace(data_dir, b"<data>") == golden
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert "--spec" in helps[0]
        assert _parser.cache_info().misses == 1

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--spec", "x.json"])
        assert exc.value.code == 2


def test_readme_properties_match_checks():
    readme = (ROOT / "README.md").read_text()
    (listed,) = re.findall(r"`starrisk\.axioms` — property checks \((.*?)\)", readme, re.S)
    assert re.findall(r"`(\w+)`", listed) == list(SUPPORTED_PROPERTIES)


def test_readme_kinds_match_registry():
    readme = (ROOT / "README.md").read_text()
    (paragraph,) = re.findall(r"^Kinds: .*?(?=\n\n)", readme, re.M | re.S)
    # kinds are the backticked names outside the parenthesized field notes
    named = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", paragraph))
    assert named == list(_KINDS)
