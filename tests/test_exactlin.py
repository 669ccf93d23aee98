"""Tests for the exact linear algebra substrate."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from motcalc import exactlin
from motcalc.multgroup import MultSpace
from motcalc.exactlin import (
    IntLattice,
    QuotientSpace,
    RatMatrix,
    Subspace,
    _smith,
    annihilator,
    kernel,
    rat,
    saturate,
    smith_normal_form,
    space_intersect,
    space_sum,
)


def random_matrix(rng, rows, cols, span=6):
    return RatMatrix(
        rows, cols, [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
    )


def test_rat_coercion():
    assert rat(3) == Fraction(3)
    assert rat("2/5") == Fraction(2, 5)
    assert rat(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(TypeError):
        rat(0.5)


@pytest.mark.parametrize("text", [
    "0.5", " 1/2 ", "1_000", "1e3", "1e200000", "1/0",
    pytest.param("1" * 5000, id="digits_past_the_limit")])
def test_rat_reads_only_the_rational_grammar(text):
    """A string is "p" or "p/q" in ASCII digits, p optionally signed, as in
    a document; "1e200000" does not build a 664,386-bit integer."""
    with pytest.raises(ValueError, match="cannot parse"):
        rat(text)
    with pytest.raises(ValueError, match="cannot parse"):
        MultSpace(["q"]).element({"q": text})
    assert rat("+3") == 3 and rat("-3/6") == Fraction(-1, 2)


def test_matrix_round_trip_is_identical():
    m = RatMatrix.from_rows([["1/3", 2], [-5, "7/2"]])
    again = RatMatrix.from_rows(m.row_list())
    assert m == again
    assert hash(m) == hash(again)


def test_matrix_product_and_transpose():
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    b = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b) == RatMatrix.from_rows([[2, 1], [4, 3]])
    assert a.transpose() == RatMatrix.from_rows([[1, 3], [2, 4]])


def test_kernel_single_equation():
    s = kernel(RatMatrix.from_rows([[1, 2]]))
    assert s.dim == 1
    assert s.contains([-2, 1])


def test_kernel_identity_is_zero():
    assert kernel(RatMatrix.identity(3)).dim == 0


def test_kernel_rank_one():
    s = kernel(RatMatrix.from_rows([[1, 1], [1, 1]]))
    assert s.dim == 1
    assert s.contains([1, -1])


def test_rank_nullity_against_sympy():
    rng = random.Random(20260815)
    for _ in range(60):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = random_matrix(rng, rows, cols)
        ker = kernel(m)
        sm = sympy.Matrix(rows, cols, [sympy.Rational(x) for r in m.row_list() for x in r])
        assert ker.dim + sm.rank() == cols
        for col in ker.basis_columns():
            assert all(x == 0 for x in m.apply(col))


def test_inverse_and_det_against_sympy():
    rng = random.Random(7)
    found = 0
    while found < 20:
        m = random_matrix(rng, 3, 3)
        sm = sympy.Matrix(m.row_list())
        if m.det() == 0:
            assert sm.det() == 0
            continue
        found += 1
        assert sympy.Rational(m.det()) == sm.det()
        inv = m.inverse()
        assert m * inv == RatMatrix.identity(3)


def test_annihilator_examples():
    s = Subspace(3, [[0, 0, 1]])
    a = annihilator(s)
    assert a.dim == 2
    assert a.contains([1, 0, 0]) and a.contains([0, 1, 0])

    assert annihilator(Subspace.zero(2)) == Subspace.full(2)

    line = annihilator(Subspace(2, [[2, -1]]))
    assert line.dim == 1
    assert line.contains([1, 2])


def test_annihilator_involution_and_dimension():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(0, 5)
        k = rng.randint(0, n) if n else 0
        s = Subspace(n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)])
        a = annihilator(s)
        assert s.dim + a.dim == n
        assert annihilator(a) == s


def test_sum_intersect_examples():
    e1 = Subspace(2, [[1, 0]])
    e2 = Subspace(2, [[0, 1]])
    assert space_sum(e1, e2) == Subspace.full(2)
    assert space_intersect(e1, e2) == Subspace.zero(2)
    assert space_intersect(e1, e1) == e1


def test_sum_intersect_dimension_formula():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(0, 5)
        a = Subspace(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n) if n else 0)])
        b = Subspace(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n) if n else 0)])
        u = space_sum(a, b)
        w = space_intersect(a, b)
        assert a.dim + b.dim == u.dim + w.dim
        assert u.contains_space(a) and u.contains_space(b)
        assert a.contains_space(w) and b.contains_space(w)


def test_subspace_canonical_equality():
    a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace(3, [[2, 2, 2], [1, 1, -5]])
    assert a == b
    assert a.rows == b.rows and (a.den, a.ints) == (b.den, b.ints)


def test_zero_dimensional_ambient_is_legal():
    z = Subspace.zero(0)
    assert z.dim == 0
    assert annihilator(z).dim == 0
    assert kernel(RatMatrix.zero(0, 0)).dim == 0
    assert space_sum(z, z) == z


def test_saturate_examples():
    full = saturate(IntLattice(2, [(2, 0), (0, 3)]))
    assert full == IntLattice(2, [(1, 0), (0, 1)])

    line = saturate(IntLattice(2, [(2, 4)]))
    assert line == IntLattice(2, [(1, 2)])

    empty = saturate(IntLattice(3, []))
    assert empty.rank == 0


def test_saturate_idempotent_and_span_preserving():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(0, 3)
        lat = IntLattice(n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)])
        sat = saturate(lat)
        assert saturate(sat) == sat
        assert Subspace(n, sat.generators) == Subspace(n, lat.generators)


def test_smith_normal_form_against_sympy():
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(31)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        um = RatMatrix.from_rows(u)
        vm = RatMatrix.from_rows(v)
        assert abs(um.det()) == 1 and abs(vm.det()) == 1
        prod = um * RatMatrix.from_rows(m) * vm
        assert prod == RatMatrix.from_rows(d)
        diag = [d[t][t] for t in range(min(rows, cols)) if d[t][t] != 0]
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        expected = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        got = [abs(x) for x in diag]
        want = [abs(expected[t, t]) for t in range(min(rows, cols)) if expected[t, t] != 0]
        assert got == want


def test_hermite_canonical_form_is_generator_order_independent():
    a = IntLattice(3, [(2, 0, 1), (0, 3, 1)])
    b = IntLattice(3, [(0, 3, 1), (2, 0, 1), (2, 3, 2)])
    assert a == b


@pytest.mark.xfail(strict=True, reason=(
    "_hermite_rows reduces above the pivots from the last one up, so "
    "clearing column 1 puts (1, 0, -1) where the other order holds "
    "(1, 0, 1)"))
def test_hermite_canonical_form_is_generator_order_independent_above_pivots():
    a = IntLattice(3, [(1, 0, 5), (0, 1, 3), (0, 0, 2)])
    b = IntLattice(3, [(1, 1, 8), (0, 1, 3), (0, 0, 2)])
    assert a == b


def test_quotient_space_no_relations_is_identity():
    q = QuotientSpace(3)
    assert q.dim == 3
    assert q.project((1, 2, 3)) == (1, 2, 3)


def test_quotient_space_without_relations_eliminates_nothing(monkeypatch):
    def no_elimination(*args):
        raise AssertionError("eliminated an empty relation list")

    monkeypatch.setattr(exactlin, "_echelon", no_elimination)
    for q in (QuotientSpace(3), QuotientSpace(3, []), QuotientSpace(0),
              MultSpace(["a", "b", "c"]).quotient):
        assert q.relations == Subspace.zero(q.ambient_dim)
        assert q.free == tuple(range(q.ambient_dim))


def test_quotient_space_single_relation():
    # generator 1 equals twice generator 0
    q = QuotientSpace(2, [(-2, 1)])
    assert q.dim == 1
    assert q.project((1, 0)) == (Fraction(1, 2),)
    assert q.project((0, 1)) == (Fraction(1),)


def test_quotient_space_presentation_independent():
    a = QuotientSpace(3, [(1, -1, 0), (0, 1, -1)])
    b = QuotientSpace(3, [(2, -2, 0), (1, 0, -1), (1, -1, 0)])
    for i in range(3):
        unit = tuple(int(j == i) for j in range(3))
        assert a.project(unit) == b.project(unit)


def test_quotient_space_kills_relations():
    rng = random.Random(41)
    for _ in range(20):
        k = rng.randint(1, 5)
        rels = [[rng.randint(-3, 3) for _ in range(k)]
                for _ in range(rng.randint(0, 3))]
        q = QuotientSpace(k, rels)
        for r in rels:
            assert q.project(r) == (Fraction(0),) * q.dim
        assert q.dim == k - sympy_rank(k, rels)


def test_quotient_space_projection_is_linear():
    q = QuotientSpace(3, [(1, 1, 1)])
    u, v = (1, 2, 0), (0, -1, 4)
    summed = tuple(a + b for a, b in zip(u, v))
    assert q.project(summed) == tuple(
        a + b for a, b in zip(q.project(u), q.project(v)))


def test_smith_tracks_the_exact_inverse_of_u():
    rng = random.Random(37)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u_inv, _ = _smith(m)
        u, d_snf, v = smith_normal_form(m)
        assert d_snf == d
        # U·m·V = D, and m·V = U⁻¹·D with U⁻¹ integral and unimodular
        assert (RatMatrix.from_rows(u) * RatMatrix.from_rows(m)
                * RatMatrix.from_rows(v) == RatMatrix.from_rows(d))
        assert abs(RatMatrix.from_rows(v).det()) == 1
        u_inv = RatMatrix.from_rows(u_inv)
        assert abs(u_inv.det()) == 1
        assert (RatMatrix.from_rows(m) * RatMatrix.from_rows(v)
                == u_inv * RatMatrix.from_rows(d))


# ----- property tests against sympy ---------------------------------------

small_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
# Matrix entries: zero one time in three, so that zero rows, zero pivot
# candidates and row swaps are common.
entries = st.integers(0, 2).flatmap(lambda k: small_rationals if k else st.just(Fraction(0)))


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for row in m.row_list() for x in row])


@st.composite
def rat_matrices(draw, rows, cols):
    return RatMatrix(rows, cols, [[draw(entries) for _ in range(cols)]
                                  for _ in range(rows)])


@st.composite
def product_operands(draw):
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(rat_matrices(rows, inner)), draw(rat_matrices(inner, cols))


def assert_matches_sympy(got, want):
    assert (got.rows, got.cols) == want.shape
    assert all(isinstance(x, Fraction) for row in got.row_list() for x in row)
    assert to_sympy(got) == want


@settings(max_examples=150, deadline=None)
@given(product_operands())
def test_product_against_sympy(operands):
    a, b = operands
    assert_matches_sympy(a * b, to_sympy(a) * to_sympy(b))


@st.composite
def apply_operands(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return draw(rat_matrices(rows, cols)), draw(st.lists(small_rationals, min_size=cols,
                                                         max_size=cols))


def assert_apply_matches_sympy(m, vec):
    got = m.apply(vec)
    assert all(isinstance(x, Fraction) for x in got)
    want = to_sympy(m) * sympy.Matrix(len(vec), 1, [sympy.Rational(x) for x in vec])
    assert [sympy.Rational(x) for x in got] == list(want)


@settings(max_examples=150, deadline=None)
@given(apply_operands())
def test_apply_against_sympy(operands):
    assert_apply_matches_sympy(*operands)


@st.composite
def integer_forms(draw):
    """A canonical integer form (rows, den), gcd(den, every entry) = 1, with
    den often > 1 and rows often zero."""
    cols = draw(st.integers(0, 4))
    row = st.lists(st.integers(-30, 30), min_size=cols, max_size=cols)
    rows = draw(st.lists(st.one_of(st.just([0] * cols), row), max_size=4))
    den = draw(st.integers(1, 12))
    g = math.gcd(den, *itertools.chain.from_iterable(rows))
    return tuple(tuple(x // g for x in r) for r in rows), den // g


@settings(max_examples=200, deadline=None)
@given(integer_forms(), st.sampled_from([k for k in range(-6, 7) if k]))
def test_fraction_row_and_scaled_match_fraction_arithmetic(form, k):
    rows, den = form
    for r in rows:
        got = exactlin._fraction_row(r, den)
        assert got == tuple(Fraction(x, den) for x in r)
        assert all(type(x) is Fraction for x in got)
        assert all(x is exactlin._ZERO for x in got if not x)
    k_rows, k_den = exactlin._scaled(form, k)
    assert k_den > 0
    assert math.gcd(k_den, *itertools.chain.from_iterable(k_rows)) == 1
    assert [[Fraction(y, k_den) for y in r] for r in k_rows] == \
        [[k * Fraction(x, den) for x in r] for r in rows]


@st.composite
def text_forms(draw):
    """Ints within 10^30 of zero, zero included, over a den from 1 to
    10^12: any, or a product of several small primes, with entries that
    share a factor with den or are multiples of it."""
    den = draw(st.one_of(
        st.just(1), st.integers(1, 10 ** 12),
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=2,
                 max_size=10).map(math.prod)))
    factor = math.gcd(den, draw(st.integers(1, 10 ** 6)))
    bound = 10 ** 30
    small = st.integers(-10 ** 6, 10 ** 6)
    entry = st.one_of(st.just(0), st.integers(-bound, bound),
                      small.map(lambda x: x * factor),
                      small.map(lambda x: x * den))
    return draw(st.lists(entry, max_size=6)), den


@settings(max_examples=300, deadline=None)
@given(text_forms())
def test_text_row_is_the_text_of_each_fraction(form):
    ints, den = form
    assert exactlin._text_row(ints, den) == [str(Fraction(x, den)) for x in ints]
    if den == 1:
        assert exactlin._text_row(ints) == list(map(str, ints))


@pytest.mark.parametrize("rows, inner, cols", [
    (0, 0, 0), (0, 3, 0), (0, 0, 3), (3, 0, 0), (0, 3, 2), (2, 0, 3), (2, 3, 0),
])
def test_product_and_apply_on_empty_shapes(rows, inner, cols):
    rng = random.Random(rows * 100 + inner * 10 + cols)

    def rand_matrix(r, c):
        return RatMatrix(r, c, [[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                 for _ in range(c)] for _ in range(r)])

    a, b = rand_matrix(rows, inner), rand_matrix(inner, cols)
    assert_matches_sympy(a * b, to_sympy(a) * to_sympy(b))
    assert_apply_matches_sympy(a, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                   for _ in range(inner)])


@st.composite
def subspace_pairs(draw):
    """Two subspaces of Q^n; the second often spanned inside the first."""
    n = draw(st.integers(0, 5))
    vectors = st.lists(st.lists(small_rationals, min_size=n, max_size=n), max_size=4)
    a = draw(vectors)
    if a and draw(st.booleans()):
        coeffs = draw(st.lists(st.lists(small_rationals, min_size=len(a), max_size=len(a)),
                               max_size=4))
        b = [[sum(c * v[i] for c, v in zip(row, a)) for i in range(n)] for row in coeffs]
        if draw(st.booleans()):
            b += draw(vectors)
    else:
        b = draw(vectors)
    return Subspace(n, a), Subspace(n, b)


@settings(max_examples=150, deadline=None)
@given(subspace_pairs())
def test_contains_space_matches_per_column_solve(spaces):
    a, b = spaces
    by_solve = all(a.contains(col) for col in b.basis_columns())
    assert a.contains_space(b) == by_solve
    assert b.contains_space(a) == all(b.contains(col) for col in a.basis_columns())
    assert a.contains_space(a) and a.contains_space(Subspace.zero(a.ambient_dim))


def reduces_into(space, other):
    """other ⊆ space by reducing each echelon row of other, with no shortcut."""
    echelon = tuple(zip(space.pivots, space.ints))
    return all(not any(exactlin._reduce(space.den, echelon, row)) for row in other.ints)


@settings(max_examples=150, deadline=None)
@given(subspace_pairs())
def test_contains_space_shortcuts_agree_with_the_reduction(spaces):
    for a in spaces:
        full = Subspace.full(a.ambient_dim)
        assert a.contains_space(a) is reduces_into(a, a) is True
        for b in spaces + (full,):
            assert full.contains_space(b) is reduces_into(full, b) is True
            assert a.contains_space(b) is reduces_into(a, b)


def sympy_rank(n, vectors):
    """Rank of a list of vectors in Q^n, computed by sympy."""
    return sympy.Matrix(len(vectors), n, [sympy.Rational(x) for v in vectors for x in v]).rank()


@st.composite
def spans_with_vectors(draw):
    """(n, generators, vectors) in Q^n for n = 0..5.

    The generators span the zero space one time in five, the full space
    one time in five, and otherwise are the rows of a drawn matrix.  Each
    vector is, half the time when there are generators, a rational
    combination of them, so that membership holds as often as not.
    """
    n = draw(st.integers(0, 5))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        gens = []
    elif kind == 1:
        gens = RatMatrix.identity(n).row_list()
    else:
        gens = draw(deficient_matrices(cols=n)).row_list()
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        if gens and draw(st.booleans()):
            coeffs = draw(st.lists(small_rationals, min_size=len(gens), max_size=len(gens)))
            vectors.append([sum((c * g[j] for c, g in zip(coeffs, gens)), Fraction(0))
                            for j in range(n)])
        else:
            vectors.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return n, gens, vectors


@settings(max_examples=200, deadline=None)
@given(spans_with_vectors())
def test_membership_agrees_with_sympy_rank(case):
    """v in S iff rank [S; v] = dim S, and T within S iff rank [S; T] = dim S."""
    n, gens, vectors = case
    s = Subspace(n, gens)
    dim = sympy_rank(n, gens)
    assert s.dim == dim
    for v in vectors:
        assert s.contains(v) == (sympy_rank(n, gens + [v]) == dim)
    assert s.contains_space(Subspace(n, vectors)) == (sympy_rank(n, gens + vectors) == dim)
    assert s.contains_space(Subspace.zero(n)) and Subspace.full(n).contains_space(s)
    assert Subspace.zero(n).contains_space(s) == (dim == 0)
    assert s.contains_space(Subspace.full(n)) == (dim == n)


@settings(max_examples=200, deadline=None)
@given(spans_with_vectors())
def test_quotient_coordinates_agree_with_sympy_rank(case):
    """project(v) == project(w) iff v - w lies in the relation span."""
    n, gens, vectors = case
    q = QuotientSpace(n, gens)
    dim = sympy_rank(n, gens)
    assert q.dim == n - dim
    for v, u in itertools.product(vectors, repeat=2):
        w = [a + b for a, b in zip(v, u)]
        in_span = sympy_rank(n, gens + [u]) == dim
        assert (q.project(v) == q.project(w)) == in_span


def test_span_queries_run_no_elimination(monkeypatch):
    s = Subspace(4, [(1, 2, 0, 1), (0, 1, 1, 3), (2, 5, 1, 5)])
    t = Subspace(4, [(1, 3, 1, 4)])
    q = QuotientSpace(4, [(1, -1, 0, 0), (0, 0, 2, 1)])
    original = exactlin._gauss_jordan
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactlin, "_gauss_jordan", counting)
    assert s.contains((1, 3, 1, 4)) and not s.contains((0, 0, 0, 1))
    assert s.contains_space(t) and not t.contains_space(s)
    assert q.project((1, -1, 2, 1)) == (0, 0) and q.project((0, 0, 1, 0)) == (0, Fraction(-1, 2))
    assert calls == []
    Subspace(2, [(1, 1)])
    assert len(calls) == 1


@st.composite
def deficient_matrices(draw, rows=None, cols=None):
    """Rational matrices up to 6 x 6, empty shapes included, where each row
    after the first is, one time in four, a rational combination of the
    rows above it, so that rank deficiency is common."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    out = []
    for _ in range(rows):
        if out and draw(st.integers(0, 3)) == 0:
            coeffs = draw(st.lists(small_rationals, min_size=len(out), max_size=len(out)))
            out.append([sum((c * row[j] for c, row in zip(coeffs, out)), Fraction(0))
                        for j in range(cols)])
        else:
            out.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return RatMatrix(rows, cols, out)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 6))
    return draw(deficient_matrices(n, n))


@settings(max_examples=200, deadline=None)
@given(deficient_matrices())
def test_rref_against_sympy(m):
    red, pivots = m.rref()
    want, want_pivots = to_sympy(m).rref()
    assert_matches_sympy(red, want)
    assert pivots == list(want_pivots)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_det_and_inverse_against_sympy(m):
    det = m.det()
    want = to_sympy(m).det()
    assert isinstance(det, Fraction)
    assert sympy.Rational(det) == want
    if want == 0:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert_matches_sympy(m.inverse(), to_sympy(m).inv())


def test_det_of_a_permutation_matrix_is_its_sign():
    for perm in itertools.permutations(range(4)):
        m = RatMatrix(4, 4, [[int(j == perm[i]) for j in range(4)] for i in range(4)])
        inversions = sum(perm[a] > perm[b] for a in range(4) for b in range(a + 1, 4))
        assert m.det() == (-1) ** inversions


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
def test_elimination_on_empty_shapes(rows, cols):
    m = RatMatrix.zero(rows, cols)
    red, pivots = m.rref()
    assert (red, pivots) == (m, [])
    if rows == cols:
        assert m.det() == 1 and isinstance(m.det(), Fraction)
        assert m.inverse() == m


@settings(max_examples=100, deadline=None)
@given(deficient_matrices())
def test_unchecked_matrices_equal_constructed_ones(m):
    """Results wrapped without coercion equal and hash like checked ones."""
    wrapped = RatMatrix._of(m.rows, m.cols, tuple(tuple(row) for row in m.row_list()))
    assert wrapped == m and hash(wrapped) == hash(m)
    q = Fraction(-3, 2)
    for out in (m.transpose(), m * m.transpose(), m.rref()[0], m.kron(m),
                m.scale(q), m + m):
        checked = RatMatrix(out.rows, out.cols, out.row_list())
        assert out == checked and hash(out) == hash(checked)


# ----- the integer echelon form of Subspace --------------------------------

def assert_canonical_form(s):
    """den > 0, gcd(den, every entry) = 1, and each row den at its own pivot
    and 0 at the others: the RREF times the least den that makes it integral."""
    assert s.den > 0 and math.gcd(s.den, *(x for row in s.ints for x in row)) == 1
    assert len(s.ints) == len(s.pivots) == s.dim
    assert list(s.pivots) == sorted(set(s.pivots))
    for row, p in zip(s.ints, s.pivots):
        assert all(type(x) is int for x in row) and not any(row[:p])
        assert [row[q] for q in s.pivots] == [s.den * (q == p) for q in s.pivots]


@st.composite
def regenerated_spans(draw):
    """(n, generators, other generators of the same span): the second list
    permutes the first, scales each by a nonzero rational, repeats some and
    adds rational combinations of them."""
    n, gens, _ = draw(spans_with_vectors())
    scales = st.builds(Fraction, st.integers(1, 30) | st.integers(-30, -1),
                       st.integers(1, 12))
    other = [[c * x for x in g] for c, g in zip(
        draw(st.lists(scales, min_size=len(gens), max_size=len(gens))), gens)]
    other += [list(g) for g in draw(st.lists(st.sampled_from(gens), max_size=3))] if gens else []
    for _ in range(draw(st.integers(0, 2)) if gens else 0):
        coeffs = draw(st.lists(small_rationals, min_size=len(gens), max_size=len(gens)))
        other.append([sum((c * g[j] for c, g in zip(coeffs, gens)), Fraction(0))
                      for j in range(n)])
    return n, gens, draw(st.permutations(other))


@settings(max_examples=200, deadline=None)
@given(regenerated_spans())
def test_integer_form_depends_only_on_the_span(case):
    n, gens, other = case
    a, b = Subspace(n, gens), Subspace(n, other)
    assert_canonical_form(a)
    assert (a.den, a.ints, a.pivots) == (b.den, b.ints, b.pivots)
    assert a == b and hash(a) == hash(b)
    ints = Subspace(n, [exactlin._integer_row(g)[0] for g in gens])
    assert (ints.den, ints.ints) == (a.den, a.ints)


@settings(max_examples=200, deadline=None)
@given(spans_with_vectors())
def test_basis_columns_are_sympy_rref(case):
    n, gens, _ = case
    s = Subspace(n, gens)
    if gens:
        reduced, pivots = sympy.Matrix(
            len(gens), n, [sympy.Rational(x) for g in gens for x in g]).rref()
        want = [tuple(reduced.row(i)) for i in range(len(pivots))]
    else:
        want, pivots = [], ()
    assert [tuple(map(sympy.Rational, row)) for row in s.basis_columns()] == want
    assert s.pivots == tuple(pivots)
    assert all(type(x) is Fraction for row in s.rows for x in row)
    assert s.rows == tuple(tuple(Fraction(x, s.den) for x in row) for row in s.ints)


@settings(max_examples=200, deadline=None)
@given(subspace_pairs())
def test_contains_space_and_intersection_agree_with_sympy_rank(spaces):
    a, b = spaces
    n = a.ambient_dim
    together = sympy_rank(n, a.basis_columns() + b.basis_columns())
    assert a.contains_space(b) == (together == a.dim)
    assert b.contains_space(a) == (together == b.dim)
    meet = space_intersect(a, b)
    assert_canonical_form(meet)
    assert meet.dim == a.dim + b.dim - together
    assert a.contains_space(meet) and b.contains_space(meet)
    assert space_sum(a, b).dim == together


def test_integer_constructors_give_the_checked_form():
    s = Subspace(3, [(Fraction(1, 2), 1, 0), (0, Fraction(2, 3), 1)])
    assert (s.den, s.ints, s.pivots) == (2, ((2, 0, -6), (0, 2, 3)), (0, 1))
    assert s.rows == ((1, 0, -3), (0, 1, Fraction(3, 2)))
    assert Subspace._span(3, [[1, 2, 0], [0, -4, -6]]) == s
    assert Subspace._of(3, 2, ((2, 0, -6), (0, 2, 3)), (0, 1)) == s
    assert Subspace(2, [(-3, -6)]).ints == ((1, 2),)
    assert Subspace.zero(2) == Subspace(2, [(0, 0)]) and Subspace.zero(2).den == 1


def eager_gauss_jordan(rows, ncols):
    """The oracle for ``exactlin._gauss_jordan``: Bareiss's fraction-free
    Gauss–Jordan elimination that rescales every row at every step, as the
    kernel was first written."""
    nrows = len(rows)
    pivots = []
    prev = 1
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        pc = top[c]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [(pc * a - f * b) // prev for a, b in zip(rows[i], top)]
            elif pc != prev:
                rows[i] = [pc * a // prev for a in rows[i]]
        prev = pc
        pivots.append(c)
    return rows, pivots, prev, sign


@st.composite
def elimination_inputs(draw):
    """(rows, ncols): up to 7 integer rows of width up to 9, entries in
    [-4, 4], dense or mostly zero.  A row is, at times, zero or an integer
    combination of the rows above it, and ``ncols`` is at times less than
    the width, as in the [A | I] rows of an inverse."""
    width = draw(st.integers(0, 9))
    sparse = draw(st.booleans())
    entry = st.integers(-4, 4)
    if sparse:
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            rows.append([0] * width)
        elif kind == 1 and rows:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(width)])
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    ncols = draw(st.one_of(st.just(width), st.integers(0, width)))
    return rows, ncols


def assert_kernel_matches_eager(rows, ncols):
    want = eager_gauss_jordan([list(row) for row in rows], ncols)
    assert exactlin._gauss_jordan([list(row) for row in rows], ncols) == want


@settings(max_examples=1000, deadline=None)
@given(elimination_inputs())
def test_gauss_jordan_matches_the_eager_oracle(case):
    assert_kernel_matches_eager(*case)


@pytest.mark.parametrize("rows, ncols", [
    ([], 0),
    ([], 3),
    ([[]], 0),
    ([[], []], 0),
    ([[0, 0, 0]], 3),
    ([[0, 0], [0, 0], [0, 0]], 2),
    ([[0, 2, 4], [0, 0, 0], [0, 1, 2]], 3),
    ([[1, 2, 3], [2, 4, 6], [0, 0, 5]], 3),
    ([[0, 0, 3], [0, 0, 0], [2, 0, 0], [0, 5, 0]], 3),
    # [A | I] with A invertible and singular: pivots in the first ncols only
    ([[2, 1, 1, 0], [1, 1, 0, 1]], 2),
    ([[1, 2, 1, 0], [2, 4, 0, 1]], 2),
    ([[3, 0, 0, 1, 0, 0], [0, 0, 2, 0, 1, 0], [0, 4, 1, 0, 0, 1]], 3),
])
def test_gauss_jordan_matches_the_eager_oracle_on_edge_cases(rows, ncols):
    assert_kernel_matches_eager(rows, ncols)
