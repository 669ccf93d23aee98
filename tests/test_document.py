"""Tests for input-document parsing, serialization, and reports."""

import gc
import itertools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motcalc import document, exactlin, radical
from motcalc.abelian import PointVector, SubvarietyData
from motcalc.document import (
    analyze_motive,
    build_report,
    check_invariants,
    dual_document,
    gr_summary,
    load_input,
    parse_input,
    report_text,
    serialize_document,
)
from motcalc.errors import UnsupportedModelError, ValidationError
from motcalc.exactlin import Subspace
from motcalc.motive import OneMotive, cartier_dual
from motcalc.radical import BData, RadicalReport, radical_cartier_dual, \
    unipotent_radical

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "motives")

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


def doc_text(payload):
    return json.dumps(payload)


GM3_DOC = {
    "mult_basis": ["q1", "q2"],
    "motives": [{
        "name": "gm3",
        "X_rank": 1,
        "Yv_rank": 3,
        "psi": [[["1", "0"], ["0", "1"], ["0", "0"]]],
    }],
}

ELL_REL_DOC = {
    "varieties": [
        {"name": "E", "g": 1, "points": ["P1", "P2"],
         "relations": [["-2", "1"]], "dual": "Estar"},
        {"name": "Estar", "g": 1, "dual": "E"},
    ],
    "motives": [{
        "name": "ell",
        "X_rank": 2,
        "Yv_rank": 0,
        "A": "E",
        "v": ["P1", "P2"],
        "vstar": [],
    }],
}


def test_parse_simple_torus_document():
    doc = parse_input(doc_text(GM3_DOC))
    entry, motive = doc.motives[0]
    assert motive.r == 1 and motive.s == 3 and motive.g == 0
    assert motive.psi[0][0] == (Fraction(1), Fraction(0))
    assert motive.psi[0][2] == (Fraction(0), Fraction(0))
    assert entry["name"] == "gm3"


def test_parse_point_relations_reduce_the_space():
    doc = parse_input(doc_text(ELL_REL_DOC))
    model = doc.varieties["E"]
    assert model.point_space_dim == 1
    assert model.point("P1") == (Fraction(1, 2),)
    assert model.point("P2") == (Fraction(1),)
    _, motive = doc.motives[0]
    assert unipotent_radical(motive).dim_B == 1


def test_parse_points_by_coordinates():
    payload = json.loads(doc_text(ELL_REL_DOC))
    payload["motives"][0]["v"] = [["1/2"], ["1"]]
    doc = parse_input(doc_text(payload))
    _, motive = doc.motives[0]
    assert motive.v.coords == ((Fraction(1, 2),), (Fraction(1),))


def test_corpus_round_trips():
    for name in CORPUS_FILES:
        doc = load_input(corpus_path(name))
        text = serialize_document(doc.normalized)
        again = parse_input(text)
        assert again.normalized == doc.normalized
        assert serialize_document(again.normalized) == text


def test_dual_document_swaps_roles():
    doc = load_input(corpus_path("ext_weil.json"))
    dual = dual_document(doc)
    entry = dual["motives"][0]
    assert entry["A"] == "Estar"
    assert entry["v"] == ["Q"]
    assert entry["vstar"] == ["P"]
    assert entry["X_rank"] == entry["Yv_rank"] == 1


def test_dual_document_is_an_involution():
    for name in CORPUS_FILES:
        doc = load_input(corpus_path(name))
        dual = parse_input(serialize_document(dual_document(doc)))
        double = parse_input(serialize_document(dual_document(dual)))
        assert double.normalized == doc.normalized


def test_dual_document_analyzes_to_equal_dims():
    for name in CORPUS_FILES:
        doc = load_input(corpus_path(name))
        dual = parse_input(serialize_document(dual_document(doc)))
        for (_, m), (_, md) in zip(doc.motives, dual.motives):
            rep = unipotent_radical(m)
            rep_d = unipotent_radical(md)
            assert (rep.dim_B, rep.dim_Z) == (rep_d.dim_B, rep_d.dim_Z)


def test_dual_transposes_psi():
    doc = load_input(corpus_path("sec39_z4_gm.json"))
    dual = dual_document(doc)
    psi = dual["motives"][0]["psi"]
    assert len(psi) == 1 and len(psi[0]) == 4
    assert psi[0][1] == ["3", "0"]


def test_report_values_for_gm3():
    doc = parse_input(doc_text(GM3_DOC))
    report = build_report(doc)
    entry = report["reports"][0]
    assert entry["dims"] == {
        "dim_B": 0, "dim_Z": 2, "dim_unipotent": 2,
        "reductive_dim": 1, "total_dim": 3,
    }
    assert entry["Z"]["z_basis"] == [["1", "0", "0"], ["0", "1", "0"]]
    assert entry["Z"]["quasi_deficient"] is True
    assert entry["dual_radical"]["Zv_rank"] == 2
    assert entry["dual_radical"]["expressible"] is True


def test_report_values_for_ext_weil():
    doc = load_input(corpus_path("ext_weil.json"))
    report = build_report(doc)
    entry = report["reports"][0]
    assert entry["dims"]["dim_B"] == 2
    assert entry["dims"]["dim_Z"] == 1
    assert entry["dims"]["dim_unipotent"] == 3
    assert entry["dims"]["reductive_dim"] == "dim Lie G_mot(A)"
    assert entry["dims"]["total_dim"] is None
    assert entry["B"]["w_a_basis"] == [["1"]]
    assert entry["extension"] == [{
        "character": ["1"],
        "astar_points": [["1"]],
        "a_points": [["1"]],
    }]
    assert entry["dual_radical"]["expressible"] is False


def test_report_is_deterministic():
    doc1 = load_input(corpus_path("ext_weil.json"))
    doc2 = load_input(corpus_path("ext_weil.json"))
    assert serialize_document(build_report(doc1)) == \
        serialize_document(build_report(doc2))


def test_reductive_dim_override():
    doc = load_input(corpus_path("ext_weil.json"))
    report = build_report(doc, reductive_dim=2)
    dims = report["reports"][0]["dims"]
    assert dims["reductive_dim"] == 2
    assert dims["total_dim"] == 5


def test_reductive_dim_document_option():
    payload = json.loads(doc_text(ELL_REL_DOC))
    payload["options"] = {"reductive_dim": 1}
    doc = parse_input(doc_text(payload))
    report = build_report(doc)
    assert report["reports"][0]["dims"]["total_dim"] == 2


def test_report_text_prints_the_dimension_identity():
    doc = parse_input(doc_text(GM3_DOC))
    text = report_text(build_report(doc))
    assert "dim Lie = dim B (0) + dim Z (2) + reductive (1) = 3" in text


def test_gr_summary():
    doc = load_input(corpus_path("ext_weil.json"))
    summary = gr_summary(doc)
    assert summary["gr"][0] == {
        "name": "ext_weil", "X_rank": 1, "A": "E", "A_dim": 1, "Y_rank": 1,
    }


def test_check_invariants_clean_on_corpus():
    for name in CORPUS_FILES:
        doc = load_input(corpus_path(name))
        assert check_invariants(doc) == []


def replaced(report, name, space):
    """The report with its Z1, Z, W_A or W_A* replaced by ``space``."""
    z1 = space if name == "Z1" else report.z1
    z = space if name == "Z" else report.z
    w_a, w_astar = report.b.w_a, report.b.w_astar
    if name == "W_A":
        w_a = SubvarietyData(w_a.variety, w_a.multiplicity, space, w_a.dim)
    if name == "W_A*":
        w_astar = SubvarietyData(w_astar.variety, w_astar.multiplicity,
                                 space, w_astar.dim)
    return RadicalReport(report.motive, report.b1, report.b2,
                         BData(w_a, w_astar), z1, z, report.reductive_dim)


def space_of(report, name):
    if name in ("W_A", "W_A*"):
        side = report.b.w_a if name == "W_A" else report.b.w_astar
        return side.module
    return report.z1 if name == "Z1" else report.z


def witness(text):
    """The vector of a "(a, b) lies in ..." clause, as Fractions."""
    return [Fraction(x) for x in text[1:text.index(")")].split(", ")]


def test_check_invariants_names_z1_outside_z(monkeypatch):
    # every report gets Z = 0, so Z1 = <(1)> of ext_weil is outside it
    def radical_with_zero_z(m):
        report = unipotent_radical(m)
        return replaced(report, "Z", Subspace.zero(report.z.ambient_dim))

    monkeypatch.setattr(document, "unipotent_radical", radical_with_zero_z)
    doc = load_input(corpus_path("ext_weil.json"))
    assert check_invariants(doc) == [
        "ext_weil: Z1 is not contained in Z: (1) lies in Z1 and not in Z"]


@pytest.mark.parametrize("name, file, moved_to", [
    ("Z1", "ext_weil.json", "zero"),
    ("Z", "sec39_gm3.json", "full"),
    ("W_A", "ell_rel.json", "full"),
    ("W_A*", "ext_weil.json", "zero"),
])
def test_check_invariants_names_the_subspace_scaling_moved(
        monkeypatch, name, file, moved_to):
    scaled = []
    original_scaled = document._scaled_motive

    def recording(m, n):
        scaled.append(original_scaled(m, n))
        return scaled[-1]

    def radical_moving_one_space(m):
        report = unipotent_radical(m)
        if not any(m is c for c in scaled):
            return report
        n = space_of(report, name).ambient_dim
        space = Subspace.zero(n) if moved_to == "zero" else Subspace.full(n)
        return replaced(report, name, space)

    monkeypatch.setattr(document, "_scaled_motive", recording)
    monkeypatch.setattr(document, "unipotent_radical",
                        radical_moving_one_space)
    doc = load_input(corpus_path(file))
    (message,) = check_invariants(doc)
    label = doc.motives[0][1].name
    head = "%s: scaling (v, v*, psi) by (2, 2, 4) moved %s: " % (label, name)
    assert message.startswith(head)
    clause = message[len(head):]
    vec = witness(clause)
    before = space_of(unipotent_radical(doc.motives[0][1]), name)
    if moved_to == "full":
        assert clause.endswith(" lies in the scaled %s and not in %s"
                               % (name, name))
        assert not before.contains(vec)
    else:
        assert clause.endswith(" lies in %s and not in the scaled %s"
                               % (name, name))
        assert before.contains(vec) and any(vec)


def fault_document(name):
    """ext_weil, whose Z is Z1 and all of Q^1, or halves, where Z1 is a
    proper subspace and psi adds two rows to it."""
    if name == "halves":
        return halves_document()
    return load_input(corpus_path("ext_weil.json"))


@pytest.mark.parametrize("name", ["ext_weil", "halves"])
def test_check_invariants_catches_a_torus_Z_that_drops_a_psi_row(
        monkeypatch, name):
    # Z from the psi rows less the first, with Z1 left out: Z1 is outside it
    def dropping(m, b_data, z1):
        return Subspace._span(z1.ambient_dim, list(m.psi_integer_rows()[0][1:]))

    monkeypatch.setattr(radical, "torus_Z", dropping)
    doc = fault_document(name)
    (_, motive), = doc.motives
    head = "%s: Z1 is not contained in Z: " % (motive.name or "motives[0]",)
    (message,) = [f for f in check_invariants(doc) if f.startswith(head)]
    clause = message[len(head):]
    assert clause.endswith(" lies in Z1 and not in Z")
    vec = witness(clause)
    report = unipotent_radical(motive)
    assert report.z1.contains(vec) and not report.z.contains(vec)


@pytest.mark.parametrize("name, wrong", [
    ("ext_weil", "zero"), ("halves", "zero"), ("halves", "full")])
def test_check_invariants_catches_a_wrong_Z1_span(monkeypatch, name, wrong):
    # the scaled copy's Z1 is the wrong span, and its Z is built on it
    scaled = []
    original_scaled = document._scaled_motive
    original_z1 = radical.derived_torus_Z1

    def recording(m, n):
        scaled.append(original_scaled(m, n))
        return scaled[-1]

    def wrong_span(m, b_data):
        z1 = original_z1(m, b_data)
        if not any(m is c for c in scaled):
            return z1
        n = z1.ambient_dim
        return Subspace.zero(n) if wrong == "zero" else Subspace.full(n)

    monkeypatch.setattr(document, "_scaled_motive", recording)
    monkeypatch.setattr(radical, "derived_torus_Z1", wrong_span)
    doc = fault_document(name)
    (_, motive), = doc.motives
    head = "scaling (v, v*, psi) by (2, 2, 4) moved Z1: "
    (message,) = [f for f in check_invariants(doc) if head in f]
    clause = message[message.index(head) + len(head):]
    vec = witness(clause)
    before = unipotent_radical(motive).z1
    if wrong == "full":
        assert clause.endswith(" lies in the scaled Z1 and not in Z1")
        assert not before.contains(vec)
    else:
        assert clause.endswith(" lies in Z1 and not in the scaled Z1")
        assert before.contains(vec) and any(vec)


HALVES = {
    "mult_basis": ["q", "t"],
    "varieties": [
        {"name": "E", "g": 1, "points": ["P", "R"], "dual": "Es"},
        {"name": "Es", "g": 1, "points": ["Q"], "dual": "E"}],
    "motives": [{
        "X_rank": 2, "Yv_rank": 3, "A": "E",
        "v": [["1/2", "-3/4"], [0, "5/6"]],
        "vstar": [["1/2"], ["-1/4"], [3]],
        "psi": [[["1/2", 0], ["1/4", "-1/3"], [0, 0]],
                [[1, "7/8"], ["-1/2", "1/6"], ["2/3", 5]]]}],
}


def halves_document():
    """v, v* and psi with even denominators: 1/2 * 2 must read "1"."""
    return parse_input(json.dumps(HALVES))


def entrywise_scaled(m, n):
    """The copy built the plain way: n * c per entry, through the checks."""
    def times(k, rows):
        return [[k * c for c in row] for row in rows]

    return OneMotive(m.X, m.Yv, A=m.A, Astar=m.Astar,
                     v=PointVector(m.A, times(n, m.v.coords)),
                     vstar=PointVector(m.Astar, times(n, m.vstar.coords)),
                     psi=[times(n * n, row) for row in m.psi],
                     mult_space=m.mult_space)


@pytest.mark.parametrize("n", [2, 3, -1, 4])
def test_scaled_motive_equals_the_entrywise_product(n):
    _, m = halves_document().motives[0]
    scaled = document._scaled_motive(m, n)
    reference = entrywise_scaled(m, n)
    assert scaled.structurally_equal(reference)
    assert reference.structurally_equal(scaled)
    pairs = [(scaled.v.coords, reference.v.coords),
             (scaled.vstar.coords, reference.vstar.coords)]
    pairs += list(zip(scaled.psi, reference.psi))
    for got, want in pairs:
        assert got == want
        assert [[str(x) for x in row] for row in got] == \
            [[str(x) for x in row] for row in want]
        assert all(type(x) is Fraction for row in got for x in row)
    assert scaled.v.variety is m.A and scaled.vstar.variety is m.Astar
    if n == 2:
        # 1/2 * 2 and 1/4 * 4 are the integer 1, not 2/2 or 4/4
        assert str(scaled.v.coords[0][0]) == str(scaled.psi[0][1][0]) == "1"
        assert scaled.v.coords[0][0].denominator == 1


def test_scaled_motive_without_abelian_part():
    _, m = load_input(corpus_path("sec39_gm3.json")).motives[0]
    scaled = document._scaled_motive(m, 2)
    assert scaled.v is None and scaled.vstar is None
    assert scaled.psi == tuple(tuple(tuple(4 * c for c in entry)
                                     for entry in row) for row in m.psi)


CYCLIC_HALVES = {
    "group": {"generators": 1, "relators": [[1, 1]]},
    "mult_basis": ["q", "t"],
    "varieties": [
        {"name": "E", "g": 1, "points": ["P", "R"], "dual": "Es"},
        {"name": "Es", "g": 1, "points": ["Q"], "dual": "E"}],
    "motives": [{
        "X_rank": 2, "Yv_rank": 2, "A": "E",
        "X_action": [[[0, 1], [1, 0]]], "Yv_action": [[[0, 1], [1, 0]]],
        "v": [["1/2", "-3/4"], ["1/2", "-3/4"]],
        "vstar": [["2/3"], ["2/3"]],
        "psi": [[["1/2", 0], ["-3/4", "5/6"]],
                [["-3/4", "5/6"], ["1/2", 0]]]}],
}


def cyclic_halves_document():
    """The swap on X and Yv, with v, v* and psi fixed by it and with
    denominators."""
    return parse_input(json.dumps(CYCLIC_HALVES))


def as_text(rows):
    return [[str(x) for x in row] for row in rows]


@pytest.mark.parametrize("n", [2, 3, -1])
@pytest.mark.parametrize("make", [halves_document, cyclic_halves_document])
def test_points_and_psi_integer_forms(make, n):
    doc = make()
    _, m = doc.motives[0]
    # a parsed motive builds its Fraction psi only when psi is read
    unipotent_radical(m)
    assert check_invariants(doc) == []
    assert m._psi is None
    spec = {halves_document: HALVES, cyclic_halves_document: CYCLIC_HALVES}[make]
    assert m.psi == tuple(tuple(tuple(map(Fraction, entry)) for entry in row)
                          for row in spec["motives"][0]["psi"])
    r, s, mu = m.r, m.s, m.mult_space.dim
    for p in (m.v, m.vstar):
        ints, den = p.integer_coords()
        want = [[Fraction(x, den) for x in row] for row in ints]
        assert [list(row) for row in p.coords] == want
        assert as_text(p.coords) == as_text(want)
    rows, den = m.psi_integer_rows()
    assert den > 1 and len(rows) == mu
    for i, j in itertools.product(range(r), range(s)):
        want = [Fraction(rows[k][i * s + j], den) for k in range(mu)]
        assert list(m.psi[i][j]) == want
        assert as_text([m.psi[i][j]]) == as_text([want])

    dual = cartier_dual(m)
    dual_rows, dual_den = dual.psi_integer_rows()
    assert dual_den == den
    assert dual_rows == tuple(
        tuple(row[i * s + j] for j in range(s) for i in range(r))
        for row in rows)
    assert cartier_dual(dual).structurally_equal(m)

    got = unipotent_radical(document._scaled_motive(m, n))
    want = unipotent_radical(entrywise_scaled(m, n))
    assert (got.z1, got.z) == (want.z1, want.z)
    assert got.b.w_a.module == want.b.w_a.module
    assert got.b.w_astar.module == want.b.w_astar.module

    copy = document._scaled_motive(m, 2)
    unipotent_radical(copy)
    assert copy._psi is None
    assert copy.v._coords is None and copy.vstar._coords is None


def oracle_rref(rows, n):
    """The reduced echelon rows of Fraction rows of length n, with pivots."""
    rows, out, pivots = [list(row) for row in rows], [], []
    for c in range(n):
        top = next((row for row in rows if row[c]), None)
        if top is None:
            continue
        rows.remove(top)
        top = [x / top[c] for x in top]
        out = [[a - row[c] * b for a, b in zip(row, top)] for row in out]
        rows = [[a - row[c] * b for a, b in zip(row, top)] for row in rows]
        out.append(top)
        pivots.append(c)
    return out, pivots


def oracle_project(vec, relations):
    """Quotient coordinates of a Fraction vector modulo the span of
    ``relations``: the vector reduced against their echelon rows, at the
    columns that are not pivots."""
    rows, pivots = oracle_rref(relations, len(vec))
    vec = list(vec)
    for p, row in zip(pivots, rows):
        vec = [a - vec[p] * b for a, b in zip(vec, row)]
    return [x for j, x in enumerate(vec) if j not in pivots]


def oracle_form(rows):
    ints, den = exactlin._integer_rows(rows)
    return tuple(map(tuple, ints)), den


RATIONAL_ENTRY = st.one_of(
    st.integers(-6, 6),
    st.integers(-6, 6).map(str),
    st.integers(0, 6).map("+{}".format),
    st.tuples(st.integers(-6, 6), st.integers(1, 6)).map("%d/%d".__mod__))


@st.composite
def rational_documents(draw):
    """A trivial-group document with r, s <= 3 and every rational written
    as an int, "p", "+p" or "p/q" (not always reduced), with optional
    point and multiplicative relations and named points mixed with
    coordinate rows; and its parsed values, computed with Fractions."""
    def rows(count, width):
        return draw(st.lists(st.lists(RATIONAL_ENTRY, min_size=width,
                                      max_size=width),
                             min_size=count, max_size=count))

    def values(raw):
        return [[Fraction(x) for x in row] for row in raw]

    mu = draw(st.integers(0, 3))
    names = ["q%d" % k for k in range(mu)]
    mult_relations = rows(draw(st.integers(0, mu)), mu) if mu else []
    varieties, points = [], {}
    for name, dual in (("E", "Es"), ("Es", "E")):
        n = draw(st.integers(0, 3))
        relations = rows(draw(st.integers(0, n)), n) if n else []
        entry = {"name": name, "g": 1, "dual": dual}
        if n:
            entry["points"] = ["%s%d" % (name, j) for j in range(n)]
        if relations:
            entry["relations"] = relations
        varieties.append(entry)
        unit = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
        named = {"%s%d" % (name, j): oracle_project(u, values(relations))
                 for j, u in enumerate(unit)}
        points[name] = (named, n - len(oracle_rref(values(relations), n)[1]))
    r, s = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    motive = {"name": "m", "X_rank": r, "Yv_rank": s, "A": "E"}
    coords = {}
    for key, variety, rank in (("v", "E", r), ("vstar", "Es", s)):
        named, dim = points[variety]
        motive[key], coords[key] = [], []
        for _ in range(rank):
            if named and draw(st.booleans()):
                label = draw(st.sampled_from(sorted(named)))
                motive[key].append(label)
                coords[key].append(named[label])
            else:
                row = rows(1, dim)[0]
                motive[key].append(row)
                coords[key].append([Fraction(x) for x in row])
    motive["psi"] = [rows(s, mu) for _ in range(r)]
    psi = [[oracle_project([Fraction(x) for x in e], values(mult_relations))
            for e in row] for row in motive["psi"]]
    payload = {"varieties": varieties, "motives": [motive]}
    if names:
        payload["mult_basis"] = names
    if mult_relations:
        payload["mult_relations"] = mult_relations
    return payload, coords, psi


def fraction_text(node):
    """Each rational in nested lists as the text str gives its Fraction."""
    if isinstance(node, list):
        return [fraction_text(x) for x in node]
    return str(Fraction(node))


@settings(max_examples=200, deadline=None)
@given(rational_documents())
def test_parsed_integer_forms_match_a_fraction_oracle(case):
    """The parser's integer rows of v, v* and psi, and its normalized text,
    equal what Fraction arithmetic gives on the same document."""
    payload, coords, psi = case
    doc = parse_input(json.dumps(payload))
    _, m = doc.motives[0]
    assert m.v.integer_coords() == oracle_form(coords["v"])
    assert m.vstar.integer_coords() == oracle_form(coords["vstar"])
    r, s, mu = m.r, m.s, m.mult_space.dim
    assert m.psi_integer_rows() == oracle_form(
        [[psi[i][j][k] for i in range(r) for j in range(s)]
         for k in range(mu)])
    assert m.psi == tuple(tuple(tuple(e) for e in row) for row in psi)
    want = json.loads(json.dumps(payload))
    want["varieties"].sort(key=lambda entry: entry["name"])
    for entry in [want] + want["varieties"]:
        for key in ("relations", "mult_relations"):
            if key in entry:
                entry[key] = fraction_text(entry[key])
    entry = want["motives"][0]
    for key in ("v", "vstar"):
        entry[key] = [e if isinstance(e, str) else fraction_text(e)
                      for e in entry[key]]
    entry["psi"] = fraction_text(entry["psi"])
    assert doc.normalized == want


def formatted_radical_fields(motive):
    """The Z, extension and dual radical fields, each formatted on its own."""
    def vec(v):
        return [str(x) for x in v]

    def points(p):
        return None if p is None else [vec(row) for row in p.coords]

    report = unipotent_radical(motive)
    ext, dual = report.extension, radical_cartier_dual(report)
    return {
        "z1_basis": [vec(v) for v in report.z1.basis_columns()],
        "z_basis": [vec(v) for v in report.z.basis_columns()],
        "extension": [
            {"character": vec(c), "astar_points": points(p), "a_points": points(q)}
            for c, p, q in zip(ext.characters, ext.astar_values, ext.a_values)],
        "characters": [vec(c) for c in dual.characters],
        "V_astar": [points(p) for p in dual.astar_values],
        "V_a": [points(p) for p in dual.a_values],
    }


def torus_with_rational_z_document():
    """[Z -> Gm^2] with u(1) = (q^2, q): Z is spanned by (1, 1/2)."""
    return parse_input(json.dumps({
        "mult_basis": ["q"],
        "motives": [{"X_rank": 1, "Yv_rank": 2, "psi": [[[2], [1]]]}],
    }))


def test_report_shares_lists_that_format_the_same_objects():
    docs = [load_input(corpus_path(name)) for name in CORPUS_FILES]
    docs += [torus_with_rational_z_document(), halves_document()]
    shared_z1 = shared_dual = unshared_dual = shared_rows = 0
    for doc in docs:
        for _, motive in doc.motives:
            payload, report = analyze_motive(motive)
            z, dual = payload["Z"], payload["dual_radical"]
            assert formatted_radical_fields(motive) == dict(
                z1_basis=z["z1_basis"], z_basis=z["z_basis"],
                extension=payload["extension"], characters=dual["characters"],
                V_astar=dual["V_astar"], V_a=dual["V_a"])
            # the text of a shared list is that of its unshared copy
            unshared = json.loads(json.dumps(payload))
            assert serialize_document(payload) == serialize_document(unshared)
            assert serialize_document(payload) == dumps_text(payload)
            # equal Weil rows are one tuple, formatted into one list
            rows = [row for entry in payload["E"]["bracket"]
                    for row in entry["matrix"]]
            assert len({id(row) for row in rows}) == \
                len({tuple(row) for row in rows})
            shared_rows += len(rows) - len({id(row) for row in rows})
            if report.z1 is report.z:
                assert z["z1_basis"] is z["z_basis"]
                shared_z1 += 1
            if radical_cartier_dual(report).extension is report.extension:
                assert dual["characters"] is z["z_basis"]
                shared_dual += 1
            else:
                unshared_dual += 1
    assert shared_z1 and shared_dual and unshared_dual and shared_rows


def test_analyze_motive_matches_unipotent_radical():
    doc = load_input(corpus_path("ell_rel.json"))
    _, motive = doc.motives[0]
    payload, report = analyze_motive(motive)
    assert payload["dims"]["dim_B"] == report.dim_B == 1
    assert payload["B"]["w_a_basis"] == [["1", "2"]]


def test_galois_group_document():
    payload = {
        "group": {"generators": 1, "relators": [[1, 1]]},
        "mult_basis": ["q"],
        "motives": [{
            "X_rank": 2,
            "Yv_rank": 1,
            "X_action": [[["0", "1"], ["1", "0"]]],
            "psi": [[["1"]], [["1"]]],
        }],
    }
    doc = parse_input(doc_text(payload))
    _, motive = doc.motives[0]
    rep = unipotent_radical(motive)
    assert rep.dim_Z == 1
    assert [list(v) for v in rep.z.basis_columns()] == [[1, 1]]


def test_dual_transfer_sets_the_dual_action():
    imag = [["0", "-1"], ["1", "0"]]
    adjoint = [["0", "1"], ["-1", "0"]]
    payload = {
        "varieties": [
            {"name": "A", "g": 1, "points": ["P", "R"],
             "end_generators": [imag], "end_action": [imag],
             "dual": "B", "dual_transfer": [adjoint]},
            {"name": "B", "g": 1, "points": ["S", "T"], "dual": "A"},
        ],
        "motives": [],
    }
    doc = parse_input(doc_text(payload))
    b = doc.varieties["B"]
    assert b.end_algebra is doc.varieties["A"].end_algebra
    assert b.end_action[0].row_list() == [[0, 1], [-1, 0]]


def fails_with(payload, fragment, error=ValidationError):
    with pytest.raises(error) as info:
        parse_input(doc_text(payload))
    assert fragment in str(info.value)


def test_validation_positions():
    fails_with({"motives": [{"X_rank": 1}]}, "motives[0]")
    fails_with({"motives": [], "bogus": 1}, "bogus")
    fails_with({"motives": [{"X_rank": 1, "Yv_rank": 0,
                             "psi": [[["x"]]]}]}, "motives[0].psi")
    fails_with({"motives": [{"X_rank": "1", "Yv_rank": 0}]},
               "motives[0].X_rank")
    fails_with({"motives": [{"X_rank": 1, "Yv_rank": 0, "v": [[]]}]},
               "motives[0].v")
    fails_with({"motives": [{"X_rank": 1, "Yv_rank": 0, "A": "E"}]},
               "motives[0].A")
    fails_with({"varieties": [{"name": "E", "g": 0}], "motives": []},
               "varieties[0].g")
    fails_with({"varieties": [{"name": "E", "g": 1},
                              {"name": "E", "g": 1}], "motives": []},
               "duplicate variety name")
    fails_with({"varieties": [{"name": "E", "g": 1,
                               "relations": [["1"]]}], "motives": []},
               "varieties[0].relations")
    fails_with({"varieties": [{"name": "E", "g": 1, "points": "PQ"}],
                "motives": []}, "varieties[0].points")
    fails_with({"varieties": [{"name": "E", "g": 1, "dual": "F"}],
                "motives": []}, "varieties[0].dual")
    fails_with({"group": {"generators": 1, "relators": [[2]]},
                "motives": []}, "group")
    fails_with({"mult_relations": [["1"]], "motives": []},
               "mult_relations")
    fails_with({"options": {"reductive": 1}, "motives": []}, "options")


@pytest.mark.parametrize("key", ["v", "vstar"])
@pytest.mark.parametrize("value, message", [
    (0, "expected a list"), (None, "expected a list"),
    (False, "expected a list"), ({}, "expected a list"),
    ("", "expected a list"), ("x", "expected a list"),
    (["P"], "given but the motive declares no abelian part"),
])
def test_points_without_abelian_part_rejected(key, value, message):
    fails_with({"motives": [{"X_rank": 1, "Yv_rank": 0, key: value}]},
               "motives[0].%s: %s" % (key, message))


def test_unknown_point_name_position():
    payload = json.loads(doc_text(ELL_REL_DOC))
    payload["motives"][0]["v"] = ["P1", "P9"]
    fails_with(payload, "motives[0].v[1]")


def test_asymmetric_dual_rejected():
    payload = {
        "varieties": [
            {"name": "A", "g": 1, "dual": "B"},
            {"name": "B", "g": 1, "dual": "C"},
            {"name": "C", "g": 1},
        ],
        "motives": [],
    }
    fails_with(payload, "not symmetric")


def test_dual_transfer_without_dual_rejected():
    payload = {
        "varieties": [{"name": "A", "g": 1, "dual_transfer": []}],
        "motives": [],
    }
    fails_with(payload, "dual_transfer")


def test_dual_transfer_conflict_rejected():
    imag = [["0", "-1"], ["1", "0"]]
    payload = {
        "varieties": [
            {"name": "A", "g": 1, "points": ["P", "R"],
             "end_generators": [imag], "end_action": [imag],
             "dual": "B", "dual_transfer": [imag]},
            {"name": "B", "g": 1, "points": ["S", "T"],
             "end_generators": [imag], "end_action": [imag], "dual": "A"},
        ],
        "motives": [],
    }
    fails_with(payload, "already declares")


CM = [[0, -1], [1, 0]]
IMAG = [["0", "-1"], ["1", "0"]]


def test_self_dual_transfer_rejected():
    # the transfer would silently replace the variety's own end_action
    payload = {
        "varieties": [{"name": "E", "g": 1, "points": ["P", "iP"],
                       "end_generators": [CM], "end_action": [CM],
                       "dual": "E", "dual_transfer": [[[0, 1], [-1, 0]]]}],
        "motives": [],
    }
    fails_with(payload, "varieties[0].dual_transfer: a self-dual variety "
                        "takes no dual_transfer")


def test_one_sided_algebra_without_transfer_rejected():
    cm = {"name": "A", "g": 1, "points": ["P", "R"],
          "end_generators": [CM], "end_action": [CM], "dual": "B"}
    plain = {"name": "B", "g": 1, "points": ["S", "T"], "dual": "A"}
    fails_with({"varieties": [cm, plain], "motives": []},
               "varieties[0].end_generators: needs a dual_transfer: the "
               "dual variety 'B' shares this algebra")
    fails_with({"varieties": [plain, cm], "motives": []},
               "varieties[1].end_generators: needs a dual_transfer")


@pytest.mark.parametrize("other", [CM, [[0, 2], [1, 0]]])
def test_independent_algebras_on_a_pair_rejected(other):
    payload = {
        "varieties": [
            {"name": "A", "g": 1, "points": ["P", "R"],
             "end_generators": [CM], "end_action": [CM], "dual": "B"},
            {"name": "B", "g": 1, "points": ["S", "T"],
             "end_generators": [other], "end_action": [other], "dual": "A"},
        ],
        "motives": [],
    }
    fails_with(payload, "varieties[0].end_generators: the dual variety "
                        "already declares its own algebra")


def test_transfer_needs_one_matrix_per_generator():
    payload = pair_document(False, (True, False), (True, False))
    payload["varieties"][0]["dual_transfer"] *= 2
    fails_with(payload, "varieties[0].dual_transfer: expected 1 matrices, "
                        "got 2")


def test_variety_named_as_dual_twice_rejected():
    # B names no dual; A claims it first, so C's transfer must not reach B
    cm = {"name": "C", "g": 1, "points": ["C1", "C2"], "dual": "B",
          "end_generators": [IMAG], "end_action": [IMAG],
          "dual_transfer": [IMAG]}
    payload = {
        "varieties": [{"name": "A", "g": 1, "dual": "B"},
                      {"name": "B", "g": 1, "points": ["B1", "B2"]}, cm],
        "motives": [],
    }
    fails_with(payload, "varieties[2].dual: model 'B' is already linked to "
                        "a different dual")


def test_first_variety_to_name_a_pair_is_primal():
    first = {"name": "F", "g": 1}
    second = {"name": "E", "g": 1, "dual": "F"}
    doc = parse_input(doc_text({"varieties": [first, second], "motives": []}))
    assert doc.varieties["E"].is_primal
    assert not doc.varieties["F"].is_primal


def pair_document(self_dual, gens, transfers):
    """One self-dual variety E, or a pair E, F; side k declares Q(i) when
    gens[k] and a dual_transfer when transfers[k].  One motive over E."""
    names = ["E"] if self_dual else ["E", "F"]
    sides = []
    for k, name in enumerate(names):
        side = {"name": name, "g": 1, "points": [name + "1", name + "2"],
                "dual": names[-1 - k]}
        if gens[k]:
            side.update(end_generators=[IMAG], end_action=[IMAG])
        if transfers[k]:
            side["dual_transfer"] = [[["0", "1"], ["-1", "0"]]]
        sides.append(side)
    return {
        "mult_basis": ["q"],
        "varieties": sides,
        "motives": [{"X_rank": 1, "Yv_rank": 1, "A": "E", "v": ["E1"],
                     "vstar": [names[-1] + "2"], "psi": [[["1"]]]}],
    }


FLAGS = list(itertools.product((False, True), repeat=2))
PAIR_CONFIGS = [(True, (g,), (t,)) for g, t in FLAGS] + [
    (False, gens, transfers) for gens in FLAGS for transfers in FLAGS]


def pair_config_id(config):
    self_dual, gens, transfers = config

    def sides(flags):
        return "".join(n for n, f in zip("EF", flags) if f) or "none"

    return "%s-gens_%s-transfer_%s" % ("self" if self_dual else "pair",
                                       sides(gens), sides(transfers))


@pytest.mark.parametrize("self_dual, gens, transfers", PAIR_CONFIGS,
                         ids=map(pair_config_id, PAIR_CONFIGS))
def test_dual_pair_has_one_algebra_source(self_dual, gens, transfers):
    """A pair parses exactly when its algebra has one source: none at all
    (both Q), or one side with end_generators and dual_transfer whose
    dual declares neither.  A self-dual variety takes no transfer."""
    payload = pair_document(self_dual, gens, transfers)
    if self_dual:
        one_source = not transfers[0]
    else:
        one_source = gens == transfers and sum(gens) <= 1
    if not one_source:
        with pytest.raises(ValidationError, match=r"^varieties\[[01]\]\."
                           r"(end_generators|dual_transfer): "):
            parse_input(doc_text(payload))
        return
    doc = parse_input(doc_text(payload))
    assert doc.normalized["varieties"] == payload["varieties"]
    e = doc.varieties["E"]
    assert e.end_algebra is e.dual.end_algebra
    assert e.end_algebra.dimension == (2 if any(gens) else 1)
    if self_dual and gens[0]:
        assert e.end_action[0].row_list() == CM
    once = parse_input(serialize_document(dual_document(doc)))
    assert once.motives[0][1].A.name == e.dual.name
    twice = parse_input(serialize_document(dual_document(once)))
    assert twice.normalized == doc.normalized


def test_a_dropped_document_leaves_no_reference_cycle():
    """With the collector off, parse, analyze and check documents with an
    abelian part (the corpus, a self-dual Q(i) variety and a Q(i) pair
    through a transfer), drop them, and nothing is left for it to find."""
    texts = []
    for name in CORPUS_FILES:
        with open(corpus_path(name), encoding="utf-8") as handle:
            texts.append(handle.read())
    texts += [doc_text(pair_document(True, (True,), (False,))),
              doc_text(pair_document(False, (True, False), (True, False)))]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            doc = parse_input(text)
            serialize_document(build_report(doc))
            assert check_invariants(doc) == []
            del doc
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_split_algebra_raises_unsupported():
    payload = {
        "varieties": [{
            "name": "A", "g": 1, "points": ["P", "R"],
            "end_generators": [[["0", "1"], ["1", "0"]]],
            "end_action": [[["0", "1"], ["1", "0"]]],
        }],
        "motives": [],
    }
    fails_with(payload, "not a field", error=UnsupportedModelError)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 7: i + sqrt(-3) has minimal polynomial (x^2+1)(x^2+3), "
    "squarefree with no rational root, so the parser accepts the product "
    "Q(i) x Q(sqrt(-3)) as a field and analyze later exits 3 with no path"))
def test_product_of_two_fields_raises_unsupported():
    generator = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -3], [0, 0, 1, 0]]
    payload = {
        "mult_basis": ["q"],
        "varieties": [{
            "name": "A", "g": 2, "points": ["P0", "P1", "P2", "P3"],
            "end_generators": [generator], "end_action": [generator],
            "dual": "A",
        }],
        "motives": [{"X_rank": 1, "Yv_rank": 1, "A": "A", "v": ["P0"],
                     "vstar": ["P2"], "psi": [[["1"]]]}],
    }
    with pytest.raises(UnsupportedModelError):
        parse_input(doc_text(payload))


def test_malformed_json_raises_decode_error():
    with pytest.raises(json.JSONDecodeError):
        parse_input("{")


# Declares every optional list-valued field of the schema.
ALL_LISTS_DOC = {
    "group": {"generators": 1, "relators": [[1, 1]]},
    "mult_basis": ["q", "u", "w"],
    "mult_relations": [["1", "-1", "0"]],
    "varieties": [
        {"name": "E", "g": 1, "points": ["P", "R", "S"],
         "relations": [["1", "1", "-1"]],
         "end_generators": [IMAG], "end_action": [IMAG],
         "dual": "F", "dual_transfer": [[["0", "1"], ["-1", "0"]]]},
        {"name": "F", "g": 1, "points": ["Q", "T"], "dual": "E"},
    ],
    "motives": [{
        "name": "all_lists", "X_rank": 2, "Yv_rank": 1,
        "X_action": [[[1, 0], [0, 1]]], "Yv_action": [[[1]]],
        "A": "E", "v": ["P", ["0", "1"]], "vstar": ["Q"],
        "psi": [[["1", "0", "2"]], [["0", "0", "1"]]],
    }],
}


def list_fields(node, path=""):
    """(JSON path, key path) of every list in a document, outermost first."""
    if isinstance(node, list):
        yield path, ()
        items = (("%s[%d]" % (path, i), i, x) for i, x in enumerate(node))
    elif isinstance(node, dict):
        items = (("%s.%s" % (path, k) if path else k, k, x)
                 for k, x in node.items())
    else:
        return
    for sub, key, value in items:
        for where, keys in list_fields(value, sub):
            yield where, (key,) + keys


def point_names(payload):
    return {name for variety in payload.get("varieties", [])
            for name in variety.get("points", [])}


def test_all_lists_document_parses():
    doc = parse_input(doc_text(ALL_LISTS_DOC))
    assert doc.normalized["motives"][0]["v"] == ["P", ["0", "1"]]


def corpus_payload(name):
    with open(corpus_path(name), encoding="utf-8") as handle:
        return json.load(handle)


LIST_FIELD_DOCS = [corpus_payload(name) for name in CORPUS_FILES]
LIST_FIELD_DOCS.append(ALL_LISTS_DOC)



def non_list_values(names):
    """Any JSON value but a list; a string in a v or vstar row would read
    as a point name, so no string in ``names`` is drawn."""
    return st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=4).filter(lambda text: text not in names),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LIST_FIELD_DOCS), st.data())
def test_non_list_field_is_rejected_at_its_path(payload, data):
    where, keys = data.draw(st.sampled_from(list(list_fields(payload))))
    value = data.draw(non_list_values(point_names(payload)))
    broken = json.loads(json.dumps(payload))
    node = broken
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ValidationError) as info:
        parse_input(doc_text(broken))
    assert str(info.value).startswith(where + ": ")


# ------------------------------------------------------------- JSON writer

def dumps_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


json_texts = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x07\x1f\x7f\n\t\u00e9'
                                       '\u2028\u20ac\U0001f600'),
                       st.characters()),
    max_size=6)
json_scalars = st.one_of(
    st.none(), st.booleans(), json_texts,
    st.integers(-10 ** 6, 10 ** 6),
    st.sampled_from([-2 ** 63, -10 ** 40 - 7, 2 ** 64]))
json_payloads = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(json_texts, max_size=4),
        st.lists(children, max_size=4),
        st.dictionaries(json_texts, children, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(json_payloads)
def test_serialize_document_matches_json_dumps(payload):
    assert serialize_document(payload) == dumps_text(payload)


@pytest.mark.parametrize("payload", [
    {}, [], "", None, True, False, 0, -10 ** 30,
    ["a", 1, None, ["b"], {}], [["x", "y"], []], ["x", {"k": "v"}],
    {"b": [], "a": {}, "": ["\"\\", "\u00e9\x01"]},
])
def test_serialize_document_examples(payload):
    assert serialize_document(payload) == dumps_text(payload)


shareable_lists = st.one_of(
    st.lists(st.sampled_from(["0", "12", "-3", "2/5", "\u00e9", '"', "\n"]),
             min_size=1, max_size=5),
    st.lists(json_payloads, min_size=1, max_size=3))


@st.composite
def payloads_sharing_a_list(draw):
    """A payload holding one list object more than once: at one depth, at
    two depths, or inside both dicts and lists."""
    shared, other = draw(shareable_lists), draw(json_payloads)
    return draw(st.sampled_from([
        [shared, other, shared],
        {"a": shared, "b": other, "c": shared},
        {"a": shared, "b": [other, [shared]]},
        [{"x": shared}, [shared, {"y": [shared]}], other],
    ]))


@settings(max_examples=200, deadline=None)
@given(payloads_sharing_a_list())
def test_serialize_document_writes_a_shared_list_as_json_dumps(payload):
    assert serialize_document(payload) == dumps_text(payload)


class RowSubclass(list):
    pass


class TableSubclass(dict):
    pass


class CountSubclass(int):
    pass


class TextSubclass(str):
    pass


def test_serialize_document_writes_list_and_dict_subclasses():
    row = RowSubclass(["1", "\u00e9", "2/3"])
    payload = TableSubclass(b=[row, RowSubclass([row, 1])],
                            a=TableSubclass(c=row, d=RowSubclass()),
                            e=CountSubclass(-7), f=TextSubclass('say "\u00e9"\n'))
    assert serialize_document(payload) == dumps_text(payload)


@pytest.mark.parametrize("payload", [
    1.5, {"a": [0.0]}, (1, 2), {"a": ("x",)}, ["x", ("y",)],
    {1: "a"}, {"a": {None: 1}}, Fraction(1, 2), {"a": b"x"},
])
def test_serialize_document_rejects_other_types(payload):
    with pytest.raises(TypeError):
        serialize_document(payload)
