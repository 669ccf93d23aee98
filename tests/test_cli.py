"""Tests for the command-line interface."""

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from motcalc import cli, exactlin
from motcalc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    EXIT_VALIDATION,
    main,
)
from motcalc.document import dual_document, parse_input, serialize_document
from motcalc.motive import OneMotive

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "motives")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

CORPUS_FILES = [
    "sec39_gm3.json",
    "sec39_gm2.json",
    "sec39_z4_gm.json",
    "z0.json",
    "z1.json",
    "ell_indep.json",
    "ell_rel.json",
    "ext_weil.json",
]


def corpus_path(name):
    return os.path.join(CORPUS_DIR, name)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_output(capsys):
    code, out, _ = run_main(capsys, "analyze", corpus_path("sec39_gm3.json"))
    assert code == 0
    assert "motive sec39_gm3" in out
    assert "dim Lie = dim B (0) + dim Z (2) + reductive (1) = 3" in out


def test_analyze_json_output(capsys):
    code, out, _ = run_main(capsys, "analyze", corpus_path("sec39_gm3.json"),
                            "--format", "json")
    assert code == 0
    payload = json.loads(out)
    dims = payload["reports"][0]["dims"]
    assert dims == {"dim_B": 0, "dim_Z": 2, "dim_unipotent": 2,
                    "reductive_dim": 1, "total_dim": 3}


def test_analyze_is_deterministic(capsys):
    _, first, _ = run_main(capsys, "analyze", corpus_path("ext_weil.json"),
                           "--format", "json")
    _, second, _ = run_main(capsys, "analyze", corpus_path("ext_weil.json"),
                            "--format", "json")
    assert first == second


def test_analyze_whole_corpus(capsys):
    for name in CORPUS_FILES:
        code, out, _ = run_main(capsys, "analyze", corpus_path(name))
        assert code == 0
        assert "dim Lie" in out


def test_check_invariants_flag(capsys):
    for name in CORPUS_FILES:
        code, _, err = run_main(capsys, "analyze", corpus_path(name),
                                "--check-invariants")
        assert code == 0
        assert err == ""


def test_reductive_dim_flag(capsys):
    code, out, _ = run_main(capsys, "analyze", corpus_path("ext_weil.json"),
                            "--reductive-dim", "2")
    assert code == 0
    assert "dim Lie = dim B (2) + dim Z (1) + reductive (2) = 5" in out


def test_dual_output_is_a_valid_input(capsys):
    code, out, _ = run_main(capsys, "dual", corpus_path("ext_weil.json"))
    assert code == 0
    doc = parse_input(out)
    entry = doc.normalized["motives"][0]
    assert entry["A"] == "Estar"
    assert entry["v"] == ["Q"]


def test_dual_twice_restores_the_document(capsys, tmp_path):
    for name in CORPUS_FILES:
        _, once, _ = run_main(capsys, "dual", corpus_path(name))
        dual_file = tmp_path / name
        dual_file.write_text(once)
        _, twice, _ = run_main(capsys, "dual", str(dual_file))
        original = parse_input(open(corpus_path(name)).read())
        assert parse_input(twice).normalized == original.normalized


def test_dual_swaps_group_actions(capsys, tmp_path):
    payload = {
        "group": {"generators": 1, "relators": [[1, 1]]},
        "motives": [{"name": "m", "X_rank": 2, "Yv_rank": 1,
                     "X_action": [[[0, 1], [1, 0]]], "Yv_action": [[[-1]]]}],
    }
    source = tmp_path / "actions.json"
    source.write_text(json.dumps(payload))
    code, once, _ = run_main(capsys, "dual", str(source))
    assert code == 0
    entry = json.loads(once)["motives"][0]
    assert (entry["X_rank"], entry["Yv_rank"]) == (1, 2)
    assert entry["X_action"] == [[["-1"]]]
    assert entry["Yv_action"] == [[["0", "1"], ["1", "0"]]]
    dual_file = tmp_path / "dual.json"
    dual_file.write_text(once)
    _, twice, _ = run_main(capsys, "dual", str(dual_file))
    assert twice == serialize_document(parse_input(json.dumps(payload)).normalized)


def test_check_invariants_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("motcalc.cli.check_invariants",
                        lambda doc: ["Z moved: witness (1, 0)"])
    code, out, err = run_main(capsys, "analyze", corpus_path("sec39_gm3.json"),
                              "--check-invariants")
    assert code == EXIT_CHECK_FAILED
    assert err.splitlines() == ["invariant violated: Z moved: witness (1, 0)"]
    assert "motive sec39_gm3" in out


def test_gr_text(capsys):
    code, out, _ = run_main(capsys, "gr", corpus_path("ext_weil.json"))
    assert code == 0
    assert "ext_weil" in out
    assert "A = E" in out


def test_gr_json(capsys):
    code, out, _ = run_main(capsys, "gr", corpus_path("sec39_gm3.json"),
                            "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gr"][0]["X_rank"] == 1
    assert payload["gr"][0]["Y_rank"] == 3


def test_missing_file_exits_2(capsys):
    code, _, err = run_main(capsys, "analyze", corpus_path("missing.json"))
    assert code == EXIT_PARSE
    assert "missing.json" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"motives": [,]}')
    code, _, err = run_main(capsys, "analyze", str(bad))
    assert code == EXIT_PARSE
    assert "line" in err


def test_invalid_document_exits_3(capsys, tmp_path):
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps({"motives": [{"X_rank": 1}]}))
    code, _, err = run_main(capsys, "analyze", str(bad))
    assert code == EXIT_VALIDATION
    assert "motives[0]" in err


@pytest.mark.parametrize("command", ["analyze", "dual"])
@pytest.mark.parametrize("text", ["0.5", " 1/2 ", "1_000", "1e3", "1e5000"])
def test_rational_outside_the_grammar_exits_3(capsys, tmp_path, command, text):
    bad = tmp_path / "rational.json"
    bad.write_text(json.dumps({"mult_basis": ["q"], "motives": [
        {"X_rank": 1, "Yv_rank": 1, "psi": [[[text]]]}]}))
    code, out, err = run_main(capsys, command, str(bad))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "motives[0].psi[0][0][0]: cannot parse %r as a rational" % (text,) in err


def test_signed_rationals_normalize(capsys, tmp_path):
    source = tmp_path / "signed.json"
    source.write_text(json.dumps({
        "mult_basis": ["q", "t"],
        "varieties": [{"name": "E", "g": 1, "points": ["P"], "dual": "Es"},
                      {"name": "Es", "g": 1, "points": ["Q"], "dual": "E"}],
        "motives": [{"X_rank": 1, "Yv_rank": 1, "A": "E", "v": [["-3/6"]],
                     "vstar": [["+2"]], "psi": [[["-3/6", "+2"]]]}]}))
    code, out, _ = run_main(capsys, "dual", str(source))
    assert code == 0
    entry = json.loads(out)["motives"][0]
    assert (entry["v"], entry["vstar"]) == ([["2"]], [["-1/2"]])
    assert entry["psi"] == [[["-1/2", "2"]]]


def test_relator_mismatch_exits_3(capsys, tmp_path):
    order3 = [[0, -1], [1, -1]]
    payload = {
        "group": {"generators": 1, "relators": [[1, 1]]},
        "motives": [{"X_rank": 2, "Yv_rank": 0, "X_action": [order3]}],
    }
    bad = tmp_path / "relator.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run_main(capsys, "analyze", str(bad))
    assert code == EXIT_VALIDATION
    assert "motives[0].X_action" in err
    assert "relator" in err


def test_infinite_order_action_exits_3(capsys, tmp_path):
    # the shear, and a det-2 matrix, which the finite-order check rejects
    for action in ([[1, 1], [0, 1]], [[2, 0], [0, 1]]):
        payload = {
            "group": {"generators": 1},
            "motives": [{"X_rank": 2, "Yv_rank": 0, "X_action": [action]}],
        }
        bad = tmp_path / "infinite_order.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run_main(capsys, "analyze", "--check-invariants", str(bad))
        assert code == EXIT_VALIDATION
        assert "motives[0].X_action" in err
        assert "finite order" in err


def test_non_list_points_exit_3(capsys, tmp_path):
    bad = tmp_path / "points.json"
    bad.write_text(json.dumps({
        "varieties": [{"name": "E", "g": 1, "points": "PQ"}],
        "motives": [],
    }))
    code, out, err = run_main(capsys, "analyze", str(bad))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "varieties[0].points: expected a list" in err


CM = [[0, -1], [1, 0]]


def cm_side(name, dual, algebra=CM):
    return {"name": name, "g": 1, "points": [name + "1", name + "2"],
            "end_generators": [algebra], "end_action": [algebra],
            "dual": dual}


@pytest.mark.parametrize("varieties, message", [
    ([cm_side("A", "B"), cm_side("B", "A", [[0, 2], [1, 0]])],
     "varieties[0].end_generators: the dual variety already declares its "
     "own algebra"),
    ([cm_side("A", "B"), {"name": "B", "g": 1, "points": ["B1", "B2"],
                          "dual": "A"}],
     "varieties[0].end_generators: needs a dual_transfer"),
    ([dict(cm_side("E", "E"), dual_transfer=[[[0, 1], [-1, 0]]])],
     "varieties[0].dual_transfer: a self-dual variety takes no "
     "dual_transfer"),
], ids=["two_algebras", "one_sided_algebra", "self_dual_transfer"])
def test_dual_pair_without_one_algebra_source_exits_3(capsys, tmp_path,
                                                     varieties, message):
    bad = tmp_path / "pair.json"
    bad.write_text(json.dumps({"varieties": varieties, "motives": []}))
    for command in ("analyze", "dual"):
        code, out, err = run_main(capsys, command, str(bad))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "validation error: " + message in err


def test_unsupported_model_exits_4(capsys, tmp_path):
    # a split algebra, and one generated by a projector
    for generator in ([["0", "1"], ["1", "0"]], [[1, 0], [0, 0]]):
        payload = {
            "varieties": [{
                "name": "A", "g": 1, "points": ["P", "R"],
                "end_generators": [generator],
                "end_action": [generator],
            }],
            "motives": [],
        }
        bad = tmp_path / "unsupported.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run_main(capsys, "analyze", str(bad))
        assert code == EXIT_UNSUPPORTED
        assert "not a field" in err


def run_module(*argv):
    """Run ``python -m motcalc.cli`` in a fresh process on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "motcalc.cli", *argv],
        capture_output=True, text=True, env=env)


def test_entry_point_runs_as_module():
    result = run_module("analyze", corpus_path("sec39_gm3.json"))
    assert result.returncode == 0
    assert "dim Lie" in result.stdout


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch,
                                                   tmp_path):
    """Calls of ``main`` in one process, mixing subcommands, a missing
    file and a usage error, print the same stdout and exit with the same
    codes as fresh processes, and build no argument parser."""
    calls = [
        ("analyze", corpus_path("ext_weil.json"), "--format", "json"),
        ("dual", corpus_path("sec39_gm3.json")),
        ("gr", corpus_path("ell_rel.json"), "--format", "json"),
        ("analyze", str(tmp_path / "missing.json")),
        ("gr", corpus_path("z1.json"), "--format", "yaml"),
        ("analyze", corpus_path("sec39_z4_gm.json")),
        ("gr", corpus_path("ext_weil.json")),
    ]
    fresh = [run_module(*argv) for argv in calls]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        for argv, expected in zip(calls, fresh):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            assert (code, out) == (expected.returncode, expected.stdout), argv
    assert built == []


def parse_outcome(capsys, parse, argv):
    """Exit code (None when ``parse`` returns), stdout and stderr of parse(argv)."""
    try:
        parse(list(argv))
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


USAGE_FILE = corpus_path("z0.json")


@pytest.mark.parametrize("argv", [
    (), ("--help",), ("-h", "analyze"), ("analyze", "--help"),
    ("frobnicate", USAGE_FILE), ("analyze",),
    ("analyze", USAGE_FILE, "--bogus"),
    ("gr", USAGE_FILE, "--format", "yaml"),
    ("dual", USAGE_FILE, "--format", "json"),
    ("analyze", USAGE_FILE, "--reductive-dim", "x"),
], ids=["no_arguments", "help", "help_before_command", "command_help",
        "unknown_command", "missing_file", "unknown_option",
        "invalid_choice", "option_of_another_command", "invalid_int"])
def test_main_stops_where_the_full_parser_stops(capsys, argv):
    """A help request or a usage error gives the exit code, stdout and
    stderr of the full parser; its usage text varies across Python
    versions, so the parser is the reference, not a literal."""
    expected = parse_outcome(capsys, cli._PARSER.parse_args, argv)
    assert expected[0] is not None
    assert parse_outcome(capsys, main, argv) == expected


@pytest.mark.parametrize("argv", [
    ("analyze", USAGE_FILE, "--form", "json"),
    ("analyze", USAGE_FILE, "--format=json"),
    ("analyze", "--format", "json", USAGE_FILE),
    ("analyze", "--check-invariants", "--format=json", USAGE_FILE),
], ids=["abbreviated_option", "option_with_equals", "option_before_file",
        "options_before_file"])
def test_spellings_of_an_analyze_call_print_one_report(capsys, argv):
    expected = run_main(capsys, "analyze", USAGE_FILE, "--format", "json")
    assert expected[0] == 0
    assert run_main(capsys, *argv) == expected


@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"motives": []}', b"[" * 100000,
     b'{"motives": [{"X_rank": ' + b"1" * 5000 + b', "Yv_rank": 1}]}'],
    ids=["not_utf8", "nested_past_the_recursion_limit",
         "integer_past_the_digit_limit"])
def test_unreadable_input_exits_2_without_traceback(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    result = run_module("analyze", str(bad))
    assert result.returncode == EXIT_PARSE
    assert result.stdout == ""
    assert result.stderr.startswith("cannot read input: ")
    assert result.stderr.count("\n") == 1


def test_negative_reductive_dim_flag_exits_3(capsys):
    code, out, err = run_main(capsys, "analyze", corpus_path("ext_weil.json"),
                              "--reductive-dim", "-5")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "reductive_dim: must be >= 0" in err


def test_negative_reductive_dim_option_exits_3(capsys, tmp_path):
    with open(corpus_path("ext_weil.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["options"] = {"reductive_dim": -5}
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "analyze", str(path))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "reductive_dim: must be >= 0" in err


GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "perfbench", "golden.json")


def corpus_digests():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["corpus"]["any"]


def test_golden_digests_cover_the_corpus():
    names = {os.path.basename(p)[:-len(".json")]
             for p in glob.glob(os.path.join(CORPUS_DIR, "*.json"))}
    assert names == set(corpus_digests())


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_analyze_json_matches_recorded_digest(capsys, name):
    """The JSON report is byte-identical to the one recorded in golden.json."""
    code, out, _ = run_main(capsys, "analyze", corpus_path(name),
                            "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == corpus_digests()[name[:-len(".json")]]


GENERATE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "perfbench", "generate.py")


def benchmark_generator():
    spec = importlib.util.spec_from_file_location("perfbench_generate",
                                                  GENERATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["trivial_ladder", "cyclic_relators"])
def test_generated_workloads_match_recorded_digests(capsys, tmp_path,
                                                    workload):
    """Seed 0 of each generated benchmark workload reports byte-identically."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        recorded = json.load(handle)[workload]["0"]
    documents = benchmark_generator().documents(workload, 0)
    assert {label for label, _ in documents} == set(recorded)
    for label, text in documents:
        path = tmp_path / (label + ".json")
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_main(capsys, "analyze", str(path), "--format",
                                "json")
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == recorded[label], label


def test_parse_reads_actions_and_points_as_ints(monkeypatch):
    """Parsing an End = Q document turns no action matrix, tracked point
    or psi value into ``Fraction``s and back: psi reaches the motive as
    its integer rows, so no ``_integer_rows`` runs."""
    callers = []
    for name in ("_integer_rows", "_fraction_row"):
        original = getattr(exactlin, name)

        def counting(*args, original=original, name=name):
            callers.append((name, sys._getframe(1).f_code.co_name))
            return original(*args)

        for key, module in list(sys.modules.items()):
            if key.startswith("motcalc") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
    generate = benchmark_generator()
    for workload in ("cyclic_relators", "trivial_ladder"):
        for _, text in generate.documents(workload, 0):
            parse_input(text)
    assert callers == []


def test_analyze_forms_no_fraction_rows_of_a_subspace(capsys, monkeypatch):
    """Reports are written from integer rows, and Z's ``Fraction`` rows
    (the extension characters) are formed only when read: analyze of each
    bundled motive makes no ``_fraction_row`` call from ``Subspace.rows``."""
    callers = []
    original = exactlin._fraction_row

    def counting(*args):
        callers.append((sys._getframe(2).f_code.co_name,
                        sys._getframe(1).f_code.co_name))
        return original(*args)

    for key, module in list(sys.modules.items()):
        if key.startswith("motcalc") and vars(module).get("_fraction_row") is original:
            monkeypatch.setattr(module, "_fraction_row", counting)
    paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
    assert len(paths) == 8
    for path in paths:
        code, _, _ = run_main(capsys, "analyze", path, "--format", "json")
        assert code == 0
    # Subspace.rows calls it from a generator expression
    assert ("rows", "<genexpr>") not in callers


# sha256 of ``analyze --format json`` on two n = 8 documents of
# perfbench/generate.py (seed 0), recorded when reports were written by
# json.dumps and every character basis was saturated by Smith form.
LARGER_REPORT_DIGESTS = {
    "trivial_n8":
        "fab122ddf917b4aef01b9b1fa8c8d7dc76a8e5c49fbb3bfac74da3d47469929c",
    "cyclic_n8":
        "f98e470848cc116fcc0ed6cf0e8b6a29a6aff39ed0573c9ecee7efeabe8f4b4c",
}


@pytest.mark.parametrize("label", sorted(LARGER_REPORT_DIGESTS))
def test_larger_reports_match_recorded_digests(capsys, tmp_path, label):
    generate = benchmark_generator()
    if label == "trivial_n8":
        doc = generate.trivial_document(random.Random(0), label, 8, True)
    else:
        doc = generate.cyclic_document(random.Random(0), label, 8)
    path = tmp_path / (label + ".json")
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    code, out, _ = run_main(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == LARGER_REPORT_DIGESTS[label]


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def self_dual_document(label, g, generators, n, v, vstar, psi):
    """One self-dual variety A with points P0, ..., P(n-1) and the algebra
    of ``generators``, and one motive over it."""
    return {
        "mult_basis": ["q"],
        "varieties": [{"name": "A", "g": g,
                       "points": ["P%d" % i for i in range(n)],
                       "end_generators": generators,
                       "end_action": generators, "dual": "A"}],
        "motives": [{"name": label, "X_rank": len(v), "Yv_rank": len(vstar),
                     "A": "A", "v": v, "vstar": vstar, "psi": psi}],
    }


END_ALGEBRA_DOCUMENTS = {
    "Q_i_dual_pair": {
        "mult_basis": ["q"],
        "varieties": [
            {"name": "E", "g": 1, "points": ["E1", "E2"],
             "end_generators": [CM], "end_action": [CM],
             "dual": "F", "dual_transfer": [[["0", "1"], ["-1", "0"]]]},
            {"name": "F", "g": 1, "points": ["F1", "F2"], "dual": "E"},
        ],
        "motives": [{"name": "Q_i_dual_pair", "X_rank": 2, "Yv_rank": 1,
                     "A": "E", "v": ["E1", ["1", "1"]], "vstar": ["F2"],
                     "psi": [[["1"]], [["2"]]]}],
    },
    "Q_sqrt2_rational_generator": self_dual_document(
        "Q_sqrt2_rational_generator", 2, [[[0, "1/2"], [1, 0]]], 2,
        ["P0"], ["P1"], [[["1"]]]),
    "Q_zeta3": self_dual_document(
        "Q_zeta3", 1, [[[0, -1], [1, -1]]], 2, ["P0", "P1"],
        ["P1", ["1", "-1"]], [[["1"], ["0"]], [["0"], ["1"]]]),
    "Q_i_sqrt2": self_dual_document(
        "Q_i_sqrt2", 2, [kron(CM, [[1, 0], [0, 1]]),
                         kron([[1, 0], [0, 1]], [[0, 2], [1, 0]])], 4,
        ["P0", ["1", "1", "0", "0"]], ["P3"], [[["1"]], [["-1"]]]),
}

# sha256 of ``analyze --format json --check-invariants`` and of ``dual`` on
# the documents above, recorded while the algebra closure reduced tagged
# Fraction rows.
END_ALGEBRA_DIGESTS = {
    "Q_i_dual_pair": (
        "24703aec2b78618c371ce6401a5efc1ca214759ef2e7f7b195abdd465272656e",
        "a691ae008fc5a7853a2eefa1c43d06dac7f7be8a314476bcfa0199c71b113a3a"),
    "Q_sqrt2_rational_generator": (
        "7e1d65791037b3dbdd9c49c0fe1e49527cf593e7aa184c4cdfd9462245e04d6b",
        "3703463c47e3c1d5acce7da258ce8cab3ea97e2d11637080ecf3713f54c7546c"),
    "Q_zeta3": (
        "ecfebeb361f7b3ffbf9401a08f129319f4ba38b0c7feaeade243a93e8e989b67",
        "586f87ee479f92f00d138104335f97c1d83476f42d421d755c85abc876a254da"),
    "Q_i_sqrt2": (
        "7755d0685ea6432e6c4a31af7de4d3e714b9264a3e9ec43f534833fe06c291ef",
        "53c90a4920b5d6e789876c169d6160e6d9b57a011da7ed2e01d95e0327685f5f"),
}


@pytest.mark.parametrize("label", sorted(END_ALGEBRA_DIGESTS))
def test_end_algebra_reports_match_recorded_digests(capsys, tmp_path, label):
    """Reports over End ⊗ Q ⊋ Q, of dimension 2 and 4, are byte-identical
    to the recorded ones."""
    path = tmp_path / (label + ".json")
    path.write_text(json.dumps(END_ALGEBRA_DOCUMENTS[label]), encoding="utf-8")
    digests = []
    for argv in (("analyze", "--format", "json", "--check-invariants"),
                 ("dual",)):
        code, out, _ = run_main(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert tuple(digests) == END_ALGEBRA_DIGESTS[label]


# A document whose rationals are written every way the grammar allows:
# "p/q", "+p" and unreduced "-3/6" entries in v, v* and psi, point
# relations, mult_relations, and named points mixed with coordinate rows.
# No corpus document has a "p/q" entry or mult_relations.
RATIONAL_DOCUMENT = {
    "mult_basis": ["q1", "q2", "q3", "q4"],
    "mult_relations": [["-2", "+1", 0, 0], ["1/3", 0, "-3/6", 0]],
    "varieties": [
        {"name": "E", "g": 1, "points": ["P1", "P2", "P3"],
         "relations": [["-4/2", "+1", 0]], "dual": "Es"},
        {"name": "Es", "g": 1, "points": ["Q1", "Q2", "Q3"],
         "relations": [["3/6", "-1", "+1"]], "dual": "E"},
    ],
    "motives": [
        {"name": "rational", "X_rank": 2, "Yv_rank": 2, "A": "E",
         "v": ["P2", ["1/3", "-3/6"]], "vstar": [["+2", "5/7"], "Q3"],
         "psi": [[["1/2", "+1", 0, "-3/6"], ["2", 0, "7/3", 1]],
                 [[0, "-3/6", 1, "+4"], ["1", "1", "1", "1"]]]},
        {"name": "torus", "X_rank": 1, "Yv_rank": 2,
         "psi": [[["-3/6", "+1", 0, "2/4"], [0, 0, 0, 0]]]},
    ],
}

# sha256 of ``analyze --format json --check-invariants`` and of ``dual`` on
# RATIONAL_DOCUMENT, recorded while the parser read each entry as a Fraction.
RATIONAL_DOCUMENT_DIGESTS = (
    "64bf08be5670c52b1f09a318c89e5c93714d99867d26e56a9bbad2e64429252f",
    "d242074b763afe3f4dcd29e0e1d6bd88bf87b9c8db4c171a2abb74c6b1c08959")


def test_rational_document_matches_recorded_digests(capsys, tmp_path):
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(RATIONAL_DOCUMENT), encoding="utf-8")
    digests = []
    for argv in (("analyze", "--format", "json", "--check-invariants"),
                 ("dual",)):
        code, out, _ = run_main(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert tuple(digests) == RATIONAL_DOCUMENT_DIGESTS


@pytest.mark.parametrize("field", ["psi", "v", "mult_relations"])
@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000, "1/0"],
                         ids=["numerator_past_the_digit_limit",
                              "denominator_past_the_digit_limit",
                              "zero_denominator"])
@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_rational_past_the_integer_route_exits_3(capsys, tmp_path, command,
                                                  text, field):
    doc = json.loads(json.dumps(RATIONAL_DOCUMENT))
    first = doc["motives"][0]
    if field == "psi":
        first["psi"][0][1][2], where = text, "motives[0].psi[0][1][2]"
    elif field == "v":
        first["v"][1][0], where = text, "motives[0].v[1][0]"
    else:
        doc["mult_relations"][1][0], where = text, "mult_relations[1][0]"
    bad = tmp_path / "limit.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_main(capsys, command, str(bad))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "%s: cannot parse %r as a rational" % (where, text) in err


@pytest.mark.parametrize("name", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(CORPUS_DIR, "*.json"))))
@pytest.mark.parametrize("argv", [("dual",), ("gr", "--format", "json")])
def test_dual_and_gr_json_match_json_dumps(capsys, name, argv):
    code, out, _ = run_main(capsys, argv[0], corpus_path(name), *argv[1:])
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_exit_code_constants_are_distinct():
    codes = {EXIT_CHECK_FAILED, EXIT_PARSE, EXIT_VALIDATION, EXIT_UNSUPPORTED}
    assert codes == {1, 2, 3, 4}


# ----- the normalized document against an eager oracle --------------------


def eager_normalized(data):
    """The normalized form of the raw document ``data``, formed in one
    pass over it: every rational as the text of its ``Fraction``, the
    varieties sorted by name, and each optional part only where given."""
    def row(values):
        return [str(Fraction(x)) for x in values]

    def matrices(value):
        return [[row(r) for r in m] for m in value]

    out = {}
    if "group" in data:
        out["group"] = {"generators": data["group"]["generators"],
                        "relators": [list(w) for w in
                                     data["group"].get("relators", [])]}
    if data.get("mult_basis"):
        out["mult_basis"] = list(data["mult_basis"])
    if data.get("mult_relations"):
        out["mult_relations"] = [row(r) for r in data["mult_relations"]]
    varieties = []
    for entry in sorted(data.get("varieties", []), key=lambda e: e["name"]):
        norm = {"name": entry["name"], "g": entry["g"]}
        if entry.get("points"):
            norm["points"] = list(entry["points"])
        if entry.get("relations"):
            norm["relations"] = [row(r) for r in entry["relations"]]
        for key in ("end_generators", "end_action", "dual_transfer"):
            if key in entry:
                norm[key] = matrices(entry[key])
        if "dual" in entry:
            norm["dual"] = entry["dual"]
        varieties.append(norm)
    if varieties:
        out["varieties"] = varieties
    motives = []
    for entry in data["motives"]:
        norm = {"X_rank": entry["X_rank"], "Yv_rank": entry["Yv_rank"]}
        for key in ("name", "A"):
            if key in entry:
                norm[key] = entry[key]
        for key in ("X_action", "Yv_action"):
            if key in entry:
                norm[key] = matrices(entry[key])
        if "A" in entry:
            for key in ("v", "vstar"):
                norm[key] = [e if isinstance(e, str) else row(e)
                             for e in entry.get(key, [])]
        if "psi" in entry:
            norm["psi"] = [[row(vec) for vec in r] for r in entry["psi"]]
        motives.append(norm)
    out["motives"] = motives
    if "options" in data:
        out["options"] = dict(data["options"])
    return out


def eager_dual(data, normalized):
    """The Cartier-dual document of ``normalized``, with each abelian
    part's dual named from the raw varieties of ``data``."""
    duals = {}
    for entry in data.get("varieties", []):
        if "dual" in entry:
            duals[entry["name"]] = entry["dual"]
            duals.setdefault(entry["dual"], entry["name"])
    out = {key: value for key, value in normalized.items() if key != "motives"}
    out["motives"] = []
    for entry in normalized["motives"]:
        dual = {"X_rank": entry["Yv_rank"], "Yv_rank": entry["X_rank"]}
        for key, dual_key in (("name", "name"), ("X_action", "Yv_action"),
                              ("Yv_action", "X_action"), ("v", "vstar"),
                              ("vstar", "v")):
            if key in entry:
                dual[dual_key] = entry[key]
        if "A" in entry:
            dual["A"] = duals[entry["A"]]
        if "psi" in entry:
            dual["psi"] = [[row[j] for row in entry["psi"]]
                           for j in range(entry["Yv_rank"])]
        out["motives"].append(dual)
    return out


def oracle_documents():
    """(label, text): the corpus, generated seeds 0-2 of both generated
    workloads, RATIONAL_DOCUMENT and the End ⊋ Q documents."""
    docs = [(os.path.basename(p), open(p, encoding="utf-8").read())
            for p in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))]
    generate = benchmark_generator()
    for workload in ("trivial_ladder", "cyclic_relators"):
        for seed in range(3):
            docs += [("%s-%d-%s" % (workload, seed, label), text)
                     for label, text in generate.documents(workload, seed)]
    docs.append(("rational", json.dumps(RATIONAL_DOCUMENT)))
    docs += [(label, json.dumps(doc))
             for label, doc in sorted(END_ALGEBRA_DOCUMENTS.items())]
    return docs


def test_normalized_document_and_motives_match_the_eager_oracle():
    for label, text in oracle_documents():
        data = json.loads(text)
        doc = parse_input(text)
        want = eager_normalized(data)
        assert doc.normalized == want, label
        assert [entry for entry, _ in doc.motives] == want["motives"], label
        assert dual_document(doc) == eager_dual(data, want), label
        for raw, (_, motive) in zip(data["motives"], doc.motives):
            # psi through the public constructor, from Fraction values
            psi = [[doc.mult_space.quotient.project(
                [Fraction(x) for x in vec]) for vec in r]
                for r in raw.get("psi", [])] or None
            again = OneMotive(motive.X, motive.Yv, A=motive.A,
                              Astar=motive.Astar, v=motive.v,
                              vstar=motive.vstar, psi=psi,
                              mult_space=motive.mult_space)
            assert motive.structurally_equal(again), label
            for key, points in (("v", motive.v), ("vstar", motive.vstar)):
                if "A" not in raw:
                    continue
                model = points.variety
                want_rows = [model.point(e) if isinstance(e, str)
                             else tuple(map(Fraction, e))
                             for e in raw.get(key, [])]
                assert list(points.coords) == want_rows, (label, key)


def test_analyze_forms_no_normalized_entry(capsys, monkeypatch, tmp_path):
    """analyze, with and without --check-invariants, and gr write only the
    report's text: no entry of the normalized document is formed."""
    callers = []
    original = exactlin._text_row

    def counting(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return original(*args)

    for key, module in list(sys.modules.items()):
        if key.startswith("motcalc") and vars(module).get("_text_row") is original:
            monkeypatch.setattr(module, "_text_row", counting)
    cyclic = benchmark_generator().cyclic_document(random.Random(0), "c4", 4)
    documents = [RATIONAL_DOCUMENT, END_ALGEBRA_DOCUMENTS["Q_i_dual_pair"],
                 cyclic]
    for index, payload in enumerate(documents):
        path = tmp_path / ("doc%d.json" % (index,))
        path.write_text(json.dumps(payload), encoding="utf-8")
        for argv in (("analyze", "--format", "json"),
                     ("analyze", "--format", "json", "--check-invariants"),
                     ("gr", "--format", "json")):
            code, _, _ = run_main(capsys, argv[0], str(path), *argv[1:])
            assert code == 0
    assert callers
    assert set(callers) <= {"_basis_json", "_rows_json", "analyze_motive"}
