"""Tests for torus-valued pairing classes and the explicit biextension."""

import itertools

import pytest

from motcalc.abelian import AbelianVarietyModel, link_duals
from motcalc.errors import ValidationError
from motcalc.exactlin import RatMatrix
from motcalc.lattices import GaloisLattice
from motcalc.pairings import (
    BlockSpace,
    TorusPairingClass,
    abelian_block,
    antisymmetrize,
    assemble_example_biext,
    swap_pullback,
)


def dual_pair(name="A"):
    a = AbelianVarietyModel(name, 1, point_space_dim=2)
    b = AbelianVarietyModel(name + "*", 1, point_space_dim=2)
    link_duals(a, b)
    return a, b


def weil_class(a):
    """The Weil pairing class A x A* -> Z(1) with coefficient 1."""
    left = BlockSpace([abelian_block(a, 1)])
    right = BlockSpace([abelian_block(a.dual, 1)])
    return TorusPairingClass(left, right, GaloisLattice(1),
                             {(0, 0, 0): RatMatrix.identity(1)})


def self_dual_space(dim):
    """One block of dim copies of a self-dual variety, which pairs with itself."""
    a = AbelianVarietyModel("S", 1, point_space_dim=2)
    link_duals(a, a)
    return BlockSpace([abelian_block(a, dim)])


def unit_matrix(rows, cols, i, j, value=1):
    m = [[0] * cols for _ in range(rows)]
    m[i][j] = value
    return RatMatrix.from_rows(m)


# ------------------------------------------------------------ construction

def test_non_dual_abelian_entry_rejected():
    a, _ = dual_pair("A")
    b, _ = dual_pair("B")
    space_a = BlockSpace([abelian_block(a, 1)])
    space_b = BlockSpace([abelian_block(b, 1)])
    with pytest.raises(ValidationError):
        TorusPairingClass(space_a, space_b, GaloisLattice(1),
                          {(0, 0, 0): RatMatrix.identity(1)})


def test_same_variety_entry_rejected():
    a, _ = dual_pair()
    space = BlockSpace([abelian_block(a, 1)])
    with pytest.raises(ValidationError):
        TorusPairingClass(space, space, GaloisLattice(1),
                          {(0, 0, 0): RatMatrix.identity(1)})


def test_self_dual_entry_allowed():
    space = self_dual_space(2)
    form = RatMatrix.from_rows([[1, 2], [3, 4]])
    c = TorusPairingClass(space, space, GaloisLattice(1), {(0, 0, 0): form})
    assert c.entry(0, 0, 0) == form


def test_zero_entries_dropped():
    left = self_dual_space(1)
    c = TorusPairingClass(left, left, GaloisLattice(1),
                          {(0, 0, 0): RatMatrix.zero(1, 1)})
    assert c.is_zero()
    assert c == TorusPairingClass(left, left, GaloisLattice(1))


def test_entry_shape_checked():
    left = self_dual_space(2)
    with pytest.raises(ValidationError):
        TorusPairingClass(left, left, GaloisLattice(1),
                          {(0, 0, 0): RatMatrix.identity(3)})


# -------------------------------------------------------------- swap pullback

def test_swap_pullback_of_poincare_has_sign():
    a, _ = dual_pair()
    p = weil_class(a)
    sp = swap_pullback(p)
    assert sp.left_space == p.right_space
    assert sp.entry(0, 0, 0) == RatMatrix.identity(1).scale(-1)


def test_swap_pullback_is_involution():
    a, _ = dual_pair()
    c = assemble_example_biext(2, 3, a)
    assert swap_pullback(swap_pullback(c)) == c


def test_assemble_1x1():
    a, astar = dual_pair()
    c = assemble_example_biext(1, 1, a)
    assert c.target.rank == 1
    # Weil symbol on the (A, A*) block
    assert c.entry(0, 0, 1) == RatMatrix.identity(1)
    # the swapped role on the (A*, A) block carries the sign
    assert c.entry(0, 1, 0) == RatMatrix.identity(1).scale(-1)
    assert c.entry(0, 0, 0).is_zero()
    assert c.entry(0, 1, 1).is_zero()


def test_assemble_2x3_component_support():
    a, _ = dual_pair()
    c = assemble_example_biext(2, 3, a)
    assert c.target.rank == 6
    for i in range(2):
        for j in range(3):
            l = i * 3 + j
            assert c.entry(l, 0, 1) == unit_matrix(2, 3, i, j)
            assert c.entry(l, 1, 0) == unit_matrix(3, 2, j, i, -1)
            assert c.entry(l, 0, 0).is_zero()
            assert c.entry(l, 1, 1).is_zero()


def test_assemble_requires_positive_counts():
    a, _ = dual_pair()
    with pytest.raises(ValidationError):
        assemble_example_biext(0, 1, a)
    with pytest.raises(ValidationError):
        assemble_example_biext(1, 1, None)


# ----------------------------------------------------------- antisymmetrize

def test_antisymmetrize_kills_symmetric_form():
    left = self_dual_space(2)
    sym = RatMatrix.from_rows([[1, 5], [5, 2]])
    c = TorusPairingClass(left, left, GaloisLattice(1), {(0, 0, 0): sym})
    assert antisymmetrize(c).is_zero()


def test_antisymmetrize_general_form():
    left = self_dual_space(2)
    form = RatMatrix.from_rows([[0, 1], [0, 0]])
    c = TorusPairingClass(left, left, GaloisLattice(1), {(0, 0, 0): form})
    result = antisymmetrize(c)
    assert result.entry(0, 0, 0) == RatMatrix.from_rows([[0, 1], [-1, 0]])


def test_antisymmetrize_idempotent():
    a, _ = dual_pair()
    c = assemble_example_biext(2, 2, a)
    once = antisymmetrize(c)
    assert antisymmetrize(once) == once
    # the assembled class is already fixed by the swap pullback
    assert once == c


def test_antisymmetrize_output_is_antisymmetric():
    left = self_dual_space(3)
    form = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    c = TorusPairingClass(left, left, GaloisLattice(1), {(0, 0, 0): form})
    result = antisymmetrize(c)
    assert swap_pullback(result) == result


def test_antisymmetrize_requires_square_shape():
    a, astar = dual_pair()
    left = BlockSpace([abelian_block(a, 1)])
    right = BlockSpace([abelian_block(astar, 1)])
    c = TorusPairingClass(left, right, GaloisLattice(1),
                          {(0, 0, 0): RatMatrix.identity(1)})
    with pytest.raises(ValidationError):
        antisymmetrize(c)


def direct_bracket_table(x, y, a):
    """Independent constructor of the antisymmetrized block table.

    Walks all index pairs directly: component (i, j) pairs the i-th copy
    of A with the j-th copy of A* with coefficient +1, and the j-th copy
    of A* with the i-th copy of A with coefficient -1; nothing else.
    """
    space = BlockSpace([abelian_block(a, x), abelian_block(a.dual, y)])
    table = {}
    for i in range(x):
        for j in range(y):
            table[(i * y + j, 0, 1)] = unit_matrix(x, y, i, j)
            table[(i * y + j, 1, 0)] = unit_matrix(y, x, j, i, -1)
    return TorusPairingClass(space, space, GaloisLattice(x * y), table)


def test_assemble_antisymmetrized_matches_direct_table():
    a, _ = dual_pair()
    for x, y in itertools.product(range(1, 5), repeat=2):
        got = antisymmetrize(assemble_example_biext(x, y, a))
        assert got == direct_bracket_table(x, y, a)


# ------------------------------------------------------------------ algebra

def test_symmetrized_restriction_is_twice_the_class():
    """The symmetrization c + s*c of a swap-fixed class is 2c."""
    a, _ = dual_pair()
    for x, y in ((1, 1), (2, 3)):
        c = assemble_example_biext(x, y, a)
        doubled = {key: mat.scale(2) for key, mat in c.coefficients.items()}
        assert c + swap_pullback(c) == TorusPairingClass(
            c.left_space, c.right_space, c.target, doubled)


def test_class_addition_and_scaling():
    left = self_dual_space(1)
    one = RatMatrix.identity(1)

    def times(k):
        return TorusPairingClass(left, left, GaloisLattice(1),
                                 {(0, 0, 0): one.scale(k)})

    assert times(1) + times(1) == times(2)
    assert (times(1) + times(-1)).is_zero()


def test_class_addition_requires_same_spaces():
    a, _ = dual_pair()
    c = assemble_example_biext(1, 1, a)
    d = assemble_example_biext(1, 2, a)
    with pytest.raises(ValidationError):
        c + d
