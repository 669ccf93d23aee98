"""Tests for abelian variety models and smallest-subvariety computation."""

import doctest
import itertools
import random
import signal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from motcalc import abelian
from motcalc.abelian import (
    AbelianVarietyModel,
    EndAlgebraRep,
    PointVector,
    RATIONAL_FIELD,
    SubvarietyData,
    annihilator_module,
    link_duals,
    smallest_subvariety,
)
from motcalc.errors import UnsupportedModelError, ValidationError
from motcalc.exactlin import RatMatrix, Subspace, _integer_rows, kernel


def test_doctests():
    failed, _ = doctest.testmod(abelian)
    assert failed == 0


# ---------------------------------------------------------------- algebras

SQRT2 = RatMatrix.from_rows([[0, 2], [1, 0]])
IMAG = RatMatrix.from_rows([[0, -1], [1, 0]])


def test_rational_field():
    assert RATIONAL_FIELD.degree == 1
    assert RATIONAL_FIELD.dimension == 1
    assert RATIONAL_FIELD.basis == (RatMatrix.identity(1),)


def test_quadratic_field_closure():
    alg = EndAlgebraRep(2, [SQRT2])
    assert alg.dimension == 2
    assert alg.basis[0] == RatMatrix.identity(2)
    assert alg.basis[1] == SQRT2
    # sqrt2 * sqrt2 = 2 * identity
    assert alg.coordinates(SQRT2 * SQRT2) == (2, 0)


def test_structure_constants_reproduce_products():
    alg = EndAlgebraRep(2, [IMAG])
    lam = alg.structure_constants
    for t, u in itertools.product(range(alg.dimension), repeat=2):
        prod = alg.basis[t] * alg.basis[u]
        recon = RatMatrix.zero(2, 2)
        for v, c in enumerate(lam[t][u]):
            if c:
                recon = recon + alg.basis[v].scale(c)
        assert recon == prod


def test_cubic_field():
    # companion matrix of x^3 - 2
    cbrt2 = RatMatrix.from_rows([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    alg = EndAlgebraRep(3, [cbrt2])
    assert alg.dimension == 3


def test_noncommutative_rejected():
    a = RatMatrix.from_rows([[0, 1], [0, 0]])
    b = RatMatrix.from_rows([[0, 0], [1, 0]])
    with pytest.raises(UnsupportedModelError):
        EndAlgebraRep(2, [a, b])


def test_nonfield_rejected():
    # a singular nonscalar generator has the root 0 in its minimal polynomial
    for rows, message in (
        ([[1, 0], [0, 0]], "rational root"),  # a projector: x^2 - x
        ([[0, 0], [0, 2]], "rational root"),  # x^2 - 2x
        ([[0, 0], [1, 0]], "repeated factor"),  # nilpotent: x^2
    ):
        with pytest.raises(UnsupportedModelError, match=message):
            EndAlgebraRep(2, [RatMatrix.from_rows(rows)])


def algebra_outcome(generator):
    try:
        EndAlgebraRep(generator.rows, [generator])
    except UnsupportedModelError as exc:
        return str(exc)
    return "accepted"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-3, 3, max_denominator=2), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_field_checks_ignore_scaling(rows):
    """The checks read the generator scaled to integer entries, so a scalar
    multiple of a generator gets the same answer."""
    g = RatMatrix.from_rows(rows)
    outcome = algebra_outcome(g)
    assert algebra_outcome(g.scale(3)) == outcome
    assert algebra_outcome(g.scale(Fraction(1, 5))) == outcome


@st.composite
def monic_integer_polynomials(draw):
    """Monic of degree 2-5, constant coefficient first: random, with p[0] = 0,
    or a product (x - a)·q with q monic."""
    degree = draw(st.integers(2, 5))
    coefficients = st.integers(-12, 12)
    kind = draw(st.sampled_from(("random", "zero constant", "linear factor")))
    if kind == "linear factor":
        a = draw(coefficients)
        q = draw(st.lists(coefficients, min_size=degree - 1, max_size=degree - 1)) + [1]
        return [-a * q[0]] + [q[i - 1] - a * q[i] for i in range(1, degree)] + [1]
    p = draw(st.lists(coefficients, min_size=degree, max_size=degree)) + [1]
    if kind == "zero constant":
        p[0] = 0
    return p


@settings(max_examples=200, deadline=None)
@given(monic_integer_polynomials())
def test_has_rational_root_against_sympy(p):
    x = sympy.Symbol("x")
    roots = sympy.Poly(list(reversed(p)), x).ground_roots()
    assert abelian._has_rational_root(p) == bool(roots)


def test_split_algebra_rejected():
    # swap generates Q[x]/(x^2 - 1) = Q x Q, whose basis elements are all
    # invertible; the rational root of the minimal polynomial catches it
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(UnsupportedModelError):
        EndAlgebraRep(2, [swap])


class _TookTooLong(Exception):
    pass


@pytest.mark.xfail(strict=True, raises=_TookTooLong, reason=(
    "_has_rational_root trial-divides the constant term up to its square "
    "root, about 10^9 steps for x^2 + 10^18 + 3"))
def test_large_constant_term_is_accepted_fast():
    # x^2 + N has no rational root for N > 0, so Q(sqrt(-N)) is a field
    n = 10 ** 18 + 3
    generator = RatMatrix.from_rows([[0, -n], [1, 0]])

    def expire(signum, frame):
        raise _TookTooLong()

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        alg = EndAlgebraRep(2, [generator])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert alg.dimension == 2


def test_hidden_nilpotent_rejected():
    # I + N with N nilpotent is invertible and so is every closure basis
    # element, but the minimal polynomial (x - 1)^2 is not squarefree
    unipotent = RatMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(UnsupportedModelError):
        EndAlgebraRep(2, [unipotent])


def test_coordinates_outside_algebra():
    alg = EndAlgebraRep(2, [IMAG])
    with pytest.raises(ValidationError):
        alg.coordinates(RatMatrix.from_rows([[1, 1], [0, 1]]))


def assert_minimal_polynomial(m):
    """p(M) = 0 for the monic integer p, and I, M, ..., M^(deg-1) are independent.

    M is m scaled to integer entries, the matrix ``_minimal_polynomial`` takes.
    """
    ints = _integer_rows(m.row_list())[0]
    poly = abelian._minimal_polynomial(ints)
    deg = len(poly) - 1
    assert poly[-1] == 1
    assert all(type(c) is int for c in poly)
    sm = sympy.Matrix(m.rows, m.cols, [x for row in ints for x in row])
    value = sympy.zeros(m.rows, m.rows)
    power = sympy.eye(m.rows)
    flat = []
    for c in poly:
        value += c * power
        flat.append(list(power))
        power = power * sm
    assert value == sympy.zeros(m.rows, m.rows)
    assert sympy.Matrix(flat[:deg]).rank() == deg


@st.composite
def unimodular_matrices(draw, n):
    """The identity of size n after up to five random row additions."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 5)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.integers(-2, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return RatMatrix(n, n, u)


@st.composite
def finite_order_matrices(draw):
    """A signed permutation of size 1-6 conjugated by a unimodular U."""
    n = draw(st.integers(1, 6))
    u = draw(unimodular_matrices(n))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    sigma = RatMatrix(n, n, [[signs[i] if perm[i] == j else 0
                              for j in range(n)] for i in range(n)])
    return u * sigma * u.inverse()


FIELDS = [
    EndAlgebraRep(2, [SQRT2]),
    EndAlgebraRep(2, [IMAG]),
    EndAlgebraRep(3, [RatMatrix.from_rows([[0, 0, 2], [1, 0, 0], [0, 1, 0]])]),
    # Q(zeta_5): companion matrix of x^4 + x^3 + x^2 + x + 1
    EndAlgebraRep(4, [RatMatrix.from_rows([[0, 0, 0, -1], [1, 0, 0, -1],
                                           [0, 1, 0, -1], [0, 0, 1, -1]])]),
]


@st.composite
def field_elements(draw):
    """A random Q-combination of the basis of a number field."""
    alg = draw(st.sampled_from(FIELDS))
    element = RatMatrix.zero(alg.degree, alg.degree)
    for b in alg.basis:
        c = draw(st.fractions(-3, 3, max_denominator=4))
        element = element + b.scale(c)
    return element


@settings(max_examples=80, deadline=None)
@given(st.one_of(finite_order_matrices(), field_elements()))
def test_minimal_polynomial_against_sympy(m):
    assert_minimal_polynomial(m)


@st.composite
def similar_to_triangular(draw):
    """u T u^-1 for an upper triangular T of size 0-5.

    The diagonal of T repeats values from {0, 1, -1, 2} and its entries
    above the diagonal are zero half the time, so the minimal polynomial
    often has lower degree than the size, and repeated roots.
    """
    n = draw(st.integers(0, 5))
    diag = draw(st.lists(st.sampled_from((0, 1, -1, 2)), min_size=n, max_size=n))
    above = st.sampled_from((0, 0, 1, Fraction(-1, 2)))
    t = RatMatrix(n, n, [[diag[i] if i == j else draw(above) if j > i else 0
                          for j in range(n)] for i in range(n)])
    u = draw(unimodular_matrices(n))
    return u * t * u.inverse()


@settings(max_examples=150, deadline=None)
@given(similar_to_triangular())
def test_minimal_polynomial_with_repeated_roots_against_sympy(m):
    assert_minimal_polynomial(m)


@pytest.mark.parametrize("rows", [
    [[0]], [[3]], [[0, 0], [0, 0]], [[1, 1], [0, 1]], [[2, 0], [0, 2]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
])
def test_minimal_polynomial_examples(rows):
    assert_minimal_polynomial(RatMatrix.from_rows(rows))


def flatten(m):
    """Row-major flattening of a matrix into one coordinate tuple."""
    return tuple(x for row in m.row_list() for x in row)


def reference_closure(degree, generators):
    """Basis, words and flattened-basis matrix of the generated algebra.

    The reference for ``EndAlgebraRep``: a candidate product is new when
    it lies outside a ``Subspace`` rebuilt from every flattened basis
    element found so far; coordinates then come from sympy's solver
    against the flattened basis, returned as a sympy matrix.
    """
    size = degree * degree
    basis = [RatMatrix.identity(degree)]
    words = [()]
    flats = [flatten(basis[0])]
    span = Subspace(size, flats)
    queue = [0]
    while queue:
        idx = queue.pop(0)
        for gi, g in enumerate(generators):
            cand = basis[idx] * g
            vec = flatten(cand)
            if span.contains(vec):
                continue
            flats.append(vec)
            span = Subspace(size, flats)
            basis.append(cand)
            words.append(words[idx] + (gi,))
            queue.append(len(basis) - 1)
    return tuple(basis), tuple(words), sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in f]
         for f in flats]).T


def companion(coeffs):
    """Companion matrix of the monic x^n + sum c_i x^i, c_0 first."""
    n = len(coeffs)
    return RatMatrix(n, n, [[int(i == j + 1) for j in range(n - 1)]
                            + [-coeffs[i]] for i in range(n)])


# Phi_3, Phi_4, Phi_5, Phi_7, Phi_8 and Phi_12 without their leading 1
CYCLOTOMIC = [(1, 1), (1, 0), (1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
              (1, 0, 0, 0), (1, 0, -1, 0)]


@st.composite
def field_generators(draw):
    """Generators of a number field, conjugated by C = U·S.

    A cyclotomic field, a quadratic field Q(sqrt a), or Q(i, sqrt2) on
    4 x 4 matrices with two commuting generators.  U is unimodular and S
    diagonal with |det S| >= 2, so the conjugated generators have
    denominators.  Half the time g^2 joins as a last generator, which
    the closure skips wherever it already lies in the span.
    """
    kind = draw(st.sampled_from(("cyclotomic", "quadratic", "biquadratic")))
    if kind == "cyclotomic":
        gens = [companion(draw(st.sampled_from(CYCLOTOMIC)))]
    elif kind == "quadratic":
        a = draw(st.sampled_from((-5, -3, -2, -1, 2, 3, 5, 6, 7)))
        gens = [companion((-a, 0))]
    else:
        gens = [IMAG.kron(RatMatrix.identity(2)),
                RatMatrix.identity(2).kron(SQRT2)]
    if draw(st.booleans()):
        gens.append(gens[0] * gens[0])
    n = gens[0].rows
    scales = [draw(st.sampled_from((2, 3, Fraction(-5, 2))))] + draw(st.lists(
        st.sampled_from((1, -1, 2, 3)), min_size=n - 1, max_size=n - 1))
    c = draw(unimodular_matrices(n)) * RatMatrix(n, n, [
        [scales[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return n, [c * g * c.inverse() for g in gens]


@settings(max_examples=60, deadline=None)
@given(field_generators(), st.data())
def test_algebra_closure_matches_subspace_and_solve_reference(field, data):
    degree, gens = field
    alg = EndAlgebraRep(degree, gens)
    basis, words, flat = reference_closure(degree, gens)
    assert alg.basis == basis
    assert alg.words == words

    def reference_coordinates(m):
        rhs = sympy.Matrix([sympy.Rational(x.numerator, x.denominator)
                            for x in flatten(m)])
        try:
            solution, _ = flat.gauss_jordan_solve(rhs)
        except ValueError:  # inconsistent
            return None
        return tuple(Fraction(int(x.p), int(x.q)) for x in solution)

    assert alg.structure_constants == tuple(
        tuple(reference_coordinates(bt * bu) for bu in basis)
        for bt in basis)
    coeffs = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                                min_size=len(basis), max_size=len(basis)))
    element = RatMatrix.zero(degree, degree)
    for b, c in zip(basis, coeffs):
        element = element + b.scale(c)
    assert alg.coordinates(element) == tuple(coeffs)
    assert reference_coordinates(element) == tuple(coeffs)
    # a field has no nonzero singular element, so element + E_ij is not in it
    i, j = data.draw(st.tuples(st.integers(0, degree - 1),
                               st.integers(0, degree - 1)))
    outside = element + RatMatrix(degree, degree, [
        [int((r, c) == (i, j)) for c in range(degree)]
        for r in range(degree)])
    assert reference_coordinates(outside) is None
    with pytest.raises(ValidationError):
        alg.coordinates(outside)


# ------------------------------------------------------------------ models

def simple_model(name="A", n=2):
    return AbelianVarietyModel(name, 1, point_space_dim=n)


def cm_model(name="E"):
    """Elliptic curve with complex multiplication by Q(i)."""
    return AbelianVarietyModel(
        name, 1, end_algebra=EndAlgebraRep(2, [IMAG]),
        point_space_dim=2, end_action=[IMAG])


def test_model_validation():
    with pytest.raises(ValidationError):
        AbelianVarietyModel("A", 0)
    with pytest.raises(ValidationError):
        AbelianVarietyModel("", 1)
    with pytest.raises(ValidationError):
        AbelianVarietyModel("A", 1, end_algebra=EndAlgebraRep(2, [IMAG]),
                            point_space_dim=2, end_action=[])
    with pytest.raises(ValidationError):
        AbelianVarietyModel("A", 1, point_space_dim=2,
                            tracked_points={"P": (1, 2, 3)})


def test_action_must_satisfy_algebra_relations():
    # IMAG squares to -1, but the declared point action squares to +1
    bad = RatMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValidationError):
        AbelianVarietyModel("E", 1, end_algebra=EndAlgebraRep(2, [IMAG]),
                            point_space_dim=2, end_action=[bad])


def test_action_on_larger_point_space():
    # Q(i) acting diagonally on two copies of its standard plane
    big = RatMatrix.from_rows([
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ])
    model = AbelianVarietyModel(
        "E", 1, end_algebra=EndAlgebraRep(2, [IMAG]),
        point_space_dim=4, end_action=[big])
    assert model.element_point_matrix((0, 1)) == big


def test_tracked_points():
    model = AbelianVarietyModel("A", 1, point_space_dim=2,
                                tracked_points={"P": (1, 2)})
    assert model.point("P") == (1, 2)
    with pytest.raises(ValidationError):
        model.point("Q")


def test_link_duals():
    a = simple_model("A")
    b = simple_model("B")
    link_duals(a, b)
    assert a.dual is b and b.dual is a
    link_duals(a, b)  # relinking the same pair is fine
    c = simple_model("C")
    with pytest.raises(ValidationError):
        link_duals(a, c)


def test_link_duals_self():
    a = simple_model("A")
    link_duals(a, a)
    assert a.dual is a


def test_link_duals_dimension_mismatch():
    a = simple_model("A")
    b = AbelianVarietyModel("B", 2, point_space_dim=2)
    with pytest.raises(ValidationError):
        link_duals(a, b)


def test_link_duals_rejects_different_algebras():
    with pytest.raises(ValidationError, match="share one algebra"):
        link_duals(cm_model("E"), simple_model("Q"))
    sqrt2 = AbelianVarietyModel(
        "R", 1, end_algebra=EndAlgebraRep(2, [SQRT2]),
        point_space_dim=2, end_action=[SQRT2])
    with pytest.raises(ValidationError, match="share one algebra"):
        link_duals(cm_model("E"), sqrt2)
    # an equal algebra built twice is the same algebra
    e, f = cm_model("E"), cm_model("F")
    link_duals(e, f)
    assert e.dual is f


def test_dual_unset():
    with pytest.raises(ValidationError):
        simple_model().dual


# --------------------------------------------------------- point relations

def relation_module(p):
    """All D-linear relations among the entries of a point vector.

    For p = (P_1, ..., P_m) on A with End(A) tensor Q = D of Q-dimension d,
    the module of relations is

        N = { phi in D^m : phi_1(P_1) + ... + phi_m(P_m) = 0 },

    returned as a Q-subspace of Q^(m*d): the kernel of the evaluation
    matrix whose column (j, t) is P_t p_j.  Flattened coordinates are
    copy-major: position j*d + t is the coefficient of the t-th algebra
    basis element in phi_j.  With ``annihilator_module`` it is the kernel
    route that ``smallest_subvariety`` is compared with.
    """
    variety = p.variety
    d = variety.end_algebra.dimension
    n = variety.point_space_dim
    units = RatMatrix.identity(d).row_list()
    cols = [list(variety.element_point_matrix(units[t]).apply(pj))
            for pj in p.coords for t in range(d)]
    return kernel(RatMatrix(n, len(cols), [[c[i] for c in cols] for i in range(n)]))


def test_relation_module_multiple():
    model = simple_model()
    p = PointVector(model, [[1, 0], [2, 0]])
    n = relation_module(p)
    assert n.dim == 1
    assert n.contains((-2, 1))


def test_relation_module_independent():
    model = simple_model()
    p = PointVector(model, [[1, 0], [0, 1]])
    assert relation_module(p).dim == 0


def test_relation_module_zero_points():
    model = simple_model()
    assert relation_module(PointVector.zero(model, 3)).dim == 3


def test_relation_module_cm():
    model = cm_model()
    base = (1, 0)
    p = PointVector(model, [base, IMAG.apply(base)])
    n = relation_module(p)
    # the single D-relation i*P - Q = 0 spans a Q-plane
    assert n.dim == 2
    assert n.contains((0, 1, -1, 0))


def left_multiplication_matrix(alg, gi):
    """Matrix of left multiplication by generator gi on the closure basis."""
    cols = [list(alg.coordinates(alg.generators[gi] * b)) for b in alg.basis]
    return RatMatrix(alg.dimension, len(cols), [[c[i] for c in cols]
                                                for i in range(alg.dimension)])


def test_relation_module_is_d_submodule():
    model = cm_model()
    rng = random.Random(7)
    lmul = left_multiplication_matrix(model.end_algebra, 0)
    d = model.end_algebra.dimension
    for _ in range(20):
        coords = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
        p = PointVector(model, coords)
        n = relation_module(p)
        for phi in n.basis_columns():
            scaled = []
            for j in range(p.multiplicity):
                scaled.extend(lmul.apply(phi[j * d:(j + 1) * d]))
            assert n.contains(tuple(scaled))


# ------------------------------------------------------ smallest subvariety

def on_subvariety(data, p):
    """Whether p lies on the point space of the subvariety ``data``.

    That space is the image of (w, x) -> (w_1(x), ..., w_m(x)) over w in
    the module and x in the point space: spanned, for each basis vector w,
    by the columns of the stacked point-space matrices of w_1, ..., w_m.
    """
    variety, m = data.variety, data.multiplicity
    assert p.variety is variety and p.multiplicity == m
    d, n = variety.end_algebra.dimension, variety.point_space_dim
    cols = [[x for j in range(m) for x in variety.element_point_matrix(
                w[j * d:(j + 1) * d]).column(k)]
            for w in data.module.basis_columns() for k in range(n)]
    return Subspace(m * n, cols).contains(p.flat())


def test_smallest_subvariety_zero_point():
    model = simple_model()
    data = smallest_subvariety(PointVector.zero(model, 2))
    assert data.dim == 0
    assert data.module.dim == 0


def test_smallest_subvariety_independent_pair():
    model = simple_model()
    data = smallest_subvariety(PointVector(model, [[1, 0], [0, 1]]))
    assert data.dim == 2
    assert data.module == Subspace.full(2)


def test_smallest_subvariety_dependent_pair():
    model = simple_model()
    p = PointVector(model, [[1, 0], [2, 0]])
    data = smallest_subvariety(p)
    assert data.dim == 1
    assert data.module.dim == 1
    assert data.module.contains((1, 2))
    assert on_subvariety(data, p)


def test_smallest_subvariety_cm():
    model = cm_model()
    base = (1, 0)
    p = PointVector(model, [base, IMAG.apply(base)])
    data = smallest_subvariety(p)
    # the graph of multiplication by i is an elliptic curve in E^2
    assert data.dim == 1
    assert on_subvariety(data, p)


def test_annihilator_module_full_relations():
    model = simple_model()
    full = Subspace.full(2)
    assert annihilator_module(model, 2, full).dim == 0


def brute_force_minimum(model, p, span_range=2):
    """Smallest subvariety dimension by enumerating rational submodules.

    Only valid for end algebra Q and multiplicity 2: candidate submodules
    of Q^2 are zero, lines with small integer direction, and the full
    plane.
    """
    assert model.end_algebra.dimension == 1 and p.multiplicity == 2
    best = None
    candidates = [Subspace.zero(2), Subspace.full(2)]
    for a in range(-span_range, span_range + 1):
        for b in range(-span_range, span_range + 1):
            if a or b:
                candidates.append(Subspace(2, [[a, b]]))
    for module in candidates:
        data = SubvarietyData(model, 2, module,
                              module.dim * model.g)
        if on_subvariety(data, p):
            if best is None or data.dim < best:
                best = data.dim
    return best


def test_smallest_subvariety_matches_brute_force():
    model = simple_model()
    rng = random.Random(11)
    for _ in range(40):
        if rng.random() < 0.4:
            # force a rational dependence with small coefficients
            base = [rng.randint(-2, 2) for _ in range(2)]
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            coords = [[a * c for c in base], [b * c for c in base]]
        else:
            coords = [[rng.randint(-2, 2) for _ in range(2)]
                      for _ in range(2)]
        p = PointVector(model, coords)
        data = smallest_subvariety(p)
        assert on_subvariety(data, p)
        assert data.dim == brute_force_minimum(model, p)


# Q, Q(sqrt2), Q(i), Q(cbrt2), Q(zeta_5) and Q(i, sqrt2)
B_FIELDS = [RATIONAL_FIELD] + FIELDS + [
    EndAlgebraRep(4, [IMAG.kron(RatMatrix.identity(2)),
                      RatMatrix.identity(2).kron(SQRT2)]),
]


@st.composite
def points_on_d_modules(draw):
    """Points on D^k (k = 1-3), its coordinates moved by a unimodular U.

    Each of the 0-4 points is zero, random, or a D-multiple of an earlier
    one, so the relation module reaches zero, proper and full.
    """
    alg = draw(st.sampled_from(B_FIELDS))
    k = draw(st.integers(1, 3))
    n = alg.degree * k
    u = draw(unimodular_matrices(n))
    action = [u.inverse() * RatMatrix.identity(k).kron(g) * u
              for g in alg.generators]
    model = AbelianVarietyModel("A", 1, end_algebra=alg, point_space_dim=n,
                                end_action=action)
    small = st.integers(-2, 2)
    points = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("zero", "random", "multiple")))
        if kind == "multiple" and points:
            earlier = points[draw(st.integers(0, len(points) - 1))]
            coords = [draw(small) for _ in range(alg.dimension)]
            points.append(model.element_point_matrix(coords).apply(earlier))
        elif kind == "random":
            points.append([draw(small) for _ in range(n)])
        else:
            points.append([0] * n)
    return PointVector(model, points)


@settings(max_examples=150, deadline=None)
@given(points_on_d_modules())
def test_smallest_subvariety_matches_kernel_route(p):
    """The trace-dual row space is the annihilator of the relation module."""
    data = smallest_subvariety(p)
    reference = annihilator_module(p.variety, p.multiplicity,
                                   relation_module(p))
    assert data.module == reference
    assert on_subvariety(data, p)


def test_trace_dual_basis_of_rational_field_is_identity():
    model = simple_model(n=3)
    assert model._trace_dual_basis == (RatMatrix.identity(3),)


def trace_dual_product_module(p):
    """The module as the row space of P*_u p_j over the trace-dual basis."""
    variety, m = p.variety, p.multiplicity
    n, d = variety.point_space_dim, variety.end_algebra.dimension
    points = RatMatrix(m, n, p.coords).transpose()
    images = [(pu * points).row_list() for pu in variety._trace_dual_basis]
    return Subspace(m * d, [[image[i][j] for j in range(m) for image in images]
                            for i in range(n)])


@pytest.mark.parametrize("n, coords", [
    (2, []),                                   # m = 0
    (0, [[], [], []]),                         # point_space_dim = 0
    (3, [[0, 0, 0], [0, 0, 0]]),               # all-zero points
    (3, [[1, 2, 0], [2, 4, 0], [0, 0, Fraction(1, 2)], [1, 2, 3]]),
])
def test_smallest_subvariety_over_Q_is_the_trace_dual_product(n, coords):
    """At End = Q the points' own row space is the trace-dual product route."""
    p = PointVector(simple_model(n=n), coords)
    data = smallest_subvariety(p)
    reference = trace_dual_product_module(p)
    assert data.module == reference
    assert data.module.ambient_dim == len(coords)
    assert data.dim == reference.dim
    assert on_subvariety(data, p)


def test_smallest_subvariety_minimality_cm():
    """No proper D-submodule below the computed one contains the point."""
    model = cm_model()
    rng = random.Random(13)
    d = 2
    for _ in range(15):
        coords = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        p = PointVector(model, coords)
        data = smallest_subvariety(p)
        assert on_subvariety(data, p)
        # candidate D-lines in D^2 with small Gaussian-integer directions
        for parts in itertools.product(range(-1, 2), repeat=4):
            if not any(parts):
                continue
            w1 = (parts[0], parts[1])
            w2 = (parts[2], parts[3])
            lmul = left_multiplication_matrix(model.end_algebra, 0)
            vecs = [w1 + w2,
                    tuple(lmul.apply(w1)) + tuple(lmul.apply(w2))]
            module = Subspace(4, vecs)
            line = SubvarietyData(model, 2, module, (module.dim // d) * model.g)
            if on_subvariety(line, p):
                assert data.dim <= line.dim
