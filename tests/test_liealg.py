"""Tests for the graded endomorphism Lie algebra and its action maps."""

import itertools
from fractions import Fraction

import pytest

from motcalc.abelian import AbelianVarietyModel, PointVector, link_duals
from motcalc.exactlin import RatMatrix
from motcalc.lattices import GaloisLattice
from motcalc.liealg import (
    AY,
    XA,
    ActionMaps,
    GradedEndData,
    bracket_value,
    build_E,
    verify_lie_module,
)
from motcalc.motive import GradedPieces, OneMotive, cartier_dual, gr
from motcalc.multgroup import MultSpace
from motcalc.pairings import (
    TorusPairingClass,
    _weil_table,
    antisymmetrize,
    assemble_example_biext,
)


def dual_pair(name="E"):
    a = AbelianVarietyModel(name, 1, point_space_dim=2)
    b = AbelianVarietyModel(name + "*", 1, point_space_dim=2)
    link_duals(a, b)
    return a, b


def pieces(r, a, s):
    return GradedPieces(GaloisLattice(r), a, GaloisLattice(s))


# ----------------------------------------------------------------- build_E

def test_build_E_no_abelian_part():
    data = build_E(pieces(1, None, 3))
    assert sum(b.dim for b in data.em1_space.blocks) == 0
    assert data.em1_dims == (0, 0)
    assert data.em2.rank == 3
    assert data.bracket.is_zero()


def test_build_E_no_torus_part():
    a, _ = dual_pair()
    data = build_E(pieces(1, a, 0))
    assert sum(b.dim for b in data.em1_space.blocks) == 1
    assert data.em2.rank == 0
    assert data.bracket.is_zero()


def test_build_E_single_weil_symbol():
    a, _ = dual_pair()
    data = build_E(pieces(1, a, 1))
    assert data.em1_dims == (1, 1)
    assert data.em2.rank == 1
    assert data.bracket.entry(0, 0, 1) == RatMatrix.identity(1)
    assert data.bracket.entry(0, 1, 0) == RatMatrix.identity(1).scale(-1)


def test_bracket_matches_assembled_class():
    a, _ = dual_pair()
    for r, s in itertools.product(range(4), repeat=2):
        data = build_E(pieces(r, a, s))
        if r >= 1 and s >= 1:
            expected = antisymmetrize(assemble_example_biext(r, s, a))
            assert data.bracket == expected
        else:
            assert data.bracket.is_zero()


def test_product_is_one_sided():
    a, _ = dual_pair()
    data = build_E(pieces(2, a, 3))
    for (l, p, q) in data.product.coefficients:
        assert (p, q) == (0, 1)
    assert antisymmetrize(data.product) == data.bracket


@pytest.mark.parametrize("r, s", [(0, 2), (1, 1), (2, 3)])
def test_build_E_wraps_the_weil_table_unchecked(monkeypatch, r, s):
    a, _ = dual_pair()
    g = pieces(r, a, s)
    calls = []
    original = RatMatrix.is_zero

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RatMatrix, "is_zero", counting)
    data = build_E(g)
    assert calls == []
    table = _weil_table(r, s)
    half = {key: mat for key, mat in table.items() if key[1:] == (0, 1)}
    space = data.em1_space
    assert data.bracket == TorusPairingClass(space, space, g.em2, table)
    assert data.product == TorusPairingClass(space, space, g.em2, half)


@pytest.mark.parametrize("x, y", [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3),
                                  (3, 3), (4, 2)])
def test_weil_table_entrywise_with_shared_rows(x, y):
    table = _weil_table(x, y)
    assert len(table) == 2 * x * y
    rows = {}
    for i, j in itertools.product(range(x), range(y)):
        forward, backward = table[(i * y + j, 0, 1)], table[(i * y + j, 1, 0)]
        assert (forward.rows, forward.cols) == (x, y)
        assert (backward.rows, backward.cols) == (y, x)
        for p, q in itertools.product(range(x), range(y)):
            assert forward[p, q] == (1 if (p, q) == (i, j) else 0)
            assert backward[q, p] == (-1 if (p, q) == (i, j) else 0)
        for mat in (forward, backward):
            for k in range(mat.rows):
                row = mat.row(k)
                assert type(row) is tuple
                assert all(type(c) is Fraction for c in row)
                rows[id(row)] = row
    assert len(rows) <= x + y + 2


# ------------------------------------------------------------- action maps

def test_alpha1_evaluation():
    a, _ = dual_pair()
    acts = ActionMaps(build_E(pieces(2, a, 1)))
    assert acts.alpha1((XA, 0, "P"), 0) == {"P": Fraction(1)}
    assert acts.alpha1((XA, 0, "P"), 1) == {}
    assert acts.alpha1((AY, 0, "Q"), 0) == {}


def test_alpha2_weil_per_copy():
    a, _ = dual_pair()
    acts = ActionMaps(build_E(pieces(1, a, 2)))
    out = acts.alpha2((AY, 1, "Q"), {"P": Fraction(2)})
    assert out == {(1, ("weil", "P", "Q")): Fraction(2)}
    assert acts.alpha2((XA, 0, "P"), {"R": Fraction(1)}) == {}


def test_gamma_evaluation():
    a, _ = dual_pair()
    acts = ActionMaps(build_E(pieces(2, a, 2)))
    z = {(2, 1): Fraction(1)}  # coordinate (i=1, j=0), rational key
    assert acts.gamma(z, 1) == {(0, 1): Fraction(1)}
    assert acts.gamma(z, 0) == {}


def test_bracket_value_orientation():
    a, _ = dual_pair()
    data = build_E(pieces(1, a, 1))
    forward = bracket_value(data, (XA, 0, "p"), (AY, 0, "q"))
    assert forward == {(0, ("weil", "p", "q")): Fraction(1)}
    backward = bracket_value(data, (AY, 0, "q"), (XA, 0, "p"))
    assert backward == {(0, ("weil", "p", "q")): Fraction(-1)}


# ---------------------------------------------------------- module axioms

def test_verify_lie_module_all_small_ranks():
    a, _ = dual_pair()
    for r, s in itertools.product(range(4), repeat=2):
        for variety in (None, a):
            data = build_E(pieces(r, variety, s))
            check = verify_lie_module(data, pieces(r, variety, s))
            assert check, check.witness


def test_verify_lie_module_on_dual_variety():
    # the A-role played by the non-primal member of the pair
    a, astar = dual_pair()
    data = build_E(pieces(2, astar, 2))
    assert verify_lie_module(data, pieces(2, astar, 2))


def test_verify_lie_module_via_motive_duality():
    a, astar = dual_pair()
    space = MultSpace(["q"])
    m = OneMotive(GaloisLattice(1), GaloisLattice(1), A=a, Astar=astar,
                  v=PointVector(a, [[1, 0]]),
                  vstar=PointVector(astar, [[0, 1]]),
                  mult_space=space, psi=[[space.element({"q": 1})]])
    direct = build_E(gr(m))
    dualized = build_E(gr(cartier_dual(m)))
    assert sum(b.dim for b in direct.em1_space.blocks) == \
        sum(b.dim for b in dualized.em1_space.blocks)
    assert direct.em2.rank == dualized.em2.rank
    assert verify_lie_module(direct, gr(m))
    assert verify_lie_module(dualized, gr(cartier_dual(m)))


def test_verify_lie_module_negative_control():
    a, _ = dual_pair()
    good = build_E(pieces(1, a, 1))
    # corrupt the sign of the swapped-role entry: no longer antisymmetric
    table = dict(good.bracket.coefficients)
    table[(0, 1, 0)] = table[(0, 1, 0)].scale(-1)
    from motcalc.pairings import TorusPairingClass
    bad_bracket = TorusPairingClass(good.em1_space, good.em1_space,
                                    good.em2, table)
    bad = GradedEndData(good.em1_space, good.em2, good.product, bad_bracket,
                        good.r, good.s, good.variety)
    check = verify_lie_module(bad, pieces(1, a, 1))
    assert not check
    assert check.witness


def test_verify_lie_module_detects_wrong_coefficient():
    a, _ = dual_pair()
    good = build_E(pieces(2, a, 1))
    table = dict(good.bracket.coefficients)
    # scale one component antisymmetrically: antisymmetry still holds,
    # but the module axiom pins the coefficient to the action maps
    table[(0, 0, 1)] = table[(0, 0, 1)].scale(2)
    table[(0, 1, 0)] = table[(0, 1, 0)].scale(2)
    from motcalc.pairings import TorusPairingClass
    bad_bracket = TorusPairingClass(good.em1_space, good.em1_space,
                                    good.em2, table)
    bad = GradedEndData(good.em1_space, good.em2, good.product, bad_bracket,
                        good.r, good.s, good.variety)
    check = verify_lie_module(bad, pieces(2, a, 1))
    assert not check
    assert "module axiom" in check.witness
