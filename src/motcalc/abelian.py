"""Abelian varieties as declared data, and the subvariety generated by points.

A variety is never presented by equations here.  A model consists of a name,
a dimension g, a rational representation of an endomorphism algebra D, a
finite dimensional "point space" (a Q-vector space receiving the tracked
points, typically a subgroup of A(k) tensor Q), and the action of D on that
space.  All questions asked later reduce to exact linear algebra over the
declared data.

The computational service is ``smallest_subvariety(p)``: the smallest
abelian subvariety of A^m whose points contain a tuple p of points.  It
is the annihilator, under the multiplication pairing of D, of the module
of D-linear relations satisfied by p, and it is computed as one row
space, through the trace-dual basis of D on the point space.
``annihilator_module`` takes the annihilator of a given relation module;
the tests compare the row space with it, applied to the relation module
found as a kernel.

The algebra D is restricted to commutative fields in this version; a
noncommutative declaration raises :class:`UnsupportedModelError`.  D's
matrices are handled flattened (row-major) in ``exactlin``'s integer
kernel: the closure of the generators grows one ``Subspace`` by each
product outside it, and the coordinates of an element are its entries at
that span's pivots times one inverse matrix.  ``_minimal_polynomial``
eliminates the flattened powers of an integer matrix with
``exactlin._gauss_jordan``, in ints, first up to M^2 only; the field
checks read it on each generator scaled to integer entries, and so does
the finite-order check of ``lattices``, where ``_poly_divmod`` stays in
ints.
"""

import weakref
from fractions import Fraction

from .errors import UnsupportedModelError, ValidationError
from .exactlin import (RatMatrix, Subspace, _fraction_row, _gauss_jordan,
                       _int_matmul, _integer_row, _integer_rows, kernel, rat)


def _flat(m):
    """The entries of a matrix, row-major."""
    return [x for i in range(m.rows) for x in m.row(i)]


def _minimal_polynomial(ints):
    """Monic minimal polynomial of a square integer matrix, constant coefficient first.

    ``_gauss_jordan`` eliminates the flattened powers M^0, ..., M^k (M
    given as integer rows) as columns, at k = n, the size, and before that
    in a cheap first round at k = 2, which settles every degree up to 2
    (below size 4 that round would be most of the full one, and is left
    out).  Once M^j depends on the powers before it so do all later ones,
    so the degree j is the number of pivots, and column j gives
    M^j = sum_i c_i M^i.  The c_i are integers (Gauss's lemma), so the
    result is a tuple of ints.
    """
    n = len(ints)
    cols = list(zip(*ints))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    flats = [[x for row in power for x in row]]
    for k in range(1, n + 1):
        power = _int_matmul(power, cols)
        flats.append([x for row in power for x in row])
        if k == n or k == 2 < n - 1:
            reduced, pivots, last, _ = _gauss_jordan([list(c) for c in zip(*flats)], k + 1)
            j = len(pivots)
            if j <= k:
                return tuple(-reduced[i][j] // last for i in range(j)) + (1,)
    return (1,)  # n = 0


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    """Quotient and trimmed remainder of a by b, constant coefficient first.

    b must have a nonzero leading coefficient; a monic b keeps ints ints.
    """
    a = list(a)
    n = len(b) - 1
    q = [0] * max(len(a) - n, 0)
    for shift in range(len(a) - n - 1, -1, -1):
        c = a[shift + n] if b[-1] == 1 else Fraction(a[shift + n]) / b[-1]
        q[shift] = c
        if c:
            for i, bc in enumerate(b):
                a[shift + i] -= c * bc
    return q, _poly_trim(a[:n])


def _is_squarefree(p):
    derivative = _poly_trim(
        [Fraction(k) * c for k, c in enumerate(p)][1:])
    a, b = _poly_trim(p), derivative
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return len(a) == 1


def _divisors(n):
    n = abs(n)
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return out


def _has_rational_root(p):
    """Whether a monic integer p, constant first, has a root: an integer dividing p[0]."""
    if p[0] == 0:
        return True
    for d in _divisors(p[0]):
        for x in (d, -d):
            value = 0
            for c in reversed(p):
                value = value * x + c
            if value == 0:
                return True
    return False


class EndAlgebraRep:
    """A unital commutative matrix algebra over Q, closed under products.

    ``degree`` is the size of the matrices.  ``generators`` is any finite
    set of degree x degree rational matrices; the represented algebra is the
    unital Q-algebra they generate.  Construction verifies commutativity,
    checks that the algebra is a field, and then computes a Q-basis of it
    (always containing the identity) with its generator ``words``, its
    ``dimension`` (the degree of the field over Q), the
    ``structure_constants`` of its products and its inverse trace form.
    The field check: every generator, scaled to integer entries, must have
    a squarefree minimal polynomial with no rational root in degree two or
    more (scaling keeps both).  The squarefree condition makes nilpotent
    detection complete (commuting matrices with squarefree minimal
    polynomials generate a reduced algebra).  A singular basis element is
    a nonzero product with a singular nonscalar generator, whose root 0 the
    two tests reject.  A product of two fields neither of which is Q can
    still evade the root test, as i + sqrt(-3) does, with minimal
    polynomial (x^2+1)(x^2+3).  Such a product is accepted here, but the
    radical is not exact over it: the row space of ``smallest_subvariety``
    need not be a module over the product, and when its dimension is no
    multiple of d the analysis fails with a ValidationError that names no
    path.

    >>> E = EndAlgebraRep(1)
    >>> E.dimension
    1
    >>> sqrt2 = RatMatrix.from_rows([[0, 2], [1, 0]])
    >>> EndAlgebraRep(2, [sqrt2]).dimension
    2
    """

    def __init__(self, degree, generators=()):
        if degree < 1:
            raise ValidationError("endomorphism algebra degree must be >= 1")
        gens = tuple(generators)
        for m in gens:
            if not isinstance(m, RatMatrix):
                raise ValidationError("algebra generators must be matrices")
            if m.rows != degree or m.cols != degree:
                raise ValidationError(
                    "algebra generator has shape %dx%d, expected %dx%d"
                    % (m.rows, m.cols, degree, degree)
                )
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                if a * b != b * a:
                    raise UnsupportedModelError(
                        "algebra generators do not commute; only "
                        "commutative fields are accepted"
                    )
        self.degree = degree
        self.generators = gens
        for g in gens:
            poly = _minimal_polynomial(_integer_rows(g.row_list())[0])
            if not _is_squarefree(poly):
                raise UnsupportedModelError(
                    "an algebra generator has a repeated factor in its "
                    "minimal polynomial (a nilpotent element), so the "
                    "algebra is not a field"
                )
            if len(poly) > 2 and _has_rational_root(poly):
                raise UnsupportedModelError(
                    "an algebra generator's minimal polynomial has a "
                    "rational root, so the algebra splits as a product "
                    "and is not a field"
                )
        self.basis, self.words, self._span = self._close()
        self.dimension = len(self.basis)
        # B_pt = basis[t] at pivot p of the span maps coordinates to pivot
        # entries; the span's RREF, T times the flattened basis with T
        # invertible, is I at the pivots, so B is invertible
        self._from_pivots = RatMatrix(self.dimension, self.dimension, [
            [b[divmod(p, degree)] for b in self.basis]
            for p in self._span.pivots
        ]).inverse()
        # lam[t][u] = coordinates of basis[t] * basis[u]; the generators
        # commute, so the basis does, and lam[u][t] = lam[t][u]
        lam = [[None] * self.dimension for _ in self.basis]
        for t, bt in enumerate(self.basis):
            for u in range(t, self.dimension):
                lam[t][u] = lam[u][t] = self.coordinates(bt * self.basis[u])
        self.structure_constants = tuple(map(tuple, lam))
        self._trace_form_inverse = self._trace_form().inverse()

    def _close(self):
        """Basis of the generated unital algebra, with generator words.

        Each basis element carries the tuple of generator indices whose
        product produced it; the identity carries the empty word.  The words
        let a variety model replay the same products on its point space.
        A candidate product is a new basis element when its flattened
        entries lie outside the span of the basis found so far, and the
        span then grows by that row.  The span is returned too, for
        ``coordinates``.
        """
        size = self.degree * self.degree
        basis = [RatMatrix.identity(self.degree)]
        words = [()]
        span = Subspace(size, [_flat(basis[0])])
        # the basis grows while it is walked: it is its own breadth-first queue
        for idx, bt in enumerate(basis):
            for gi, g in enumerate(self.generators):
                cand = bt * g
                row = _integer_row(_flat(cand))[0]
                if span.contains(row):
                    continue
                span = Subspace._span(size, [*span.ints, row])
                basis.append(cand)
                words.append(words[idx] + (gi,))
        return tuple(basis), tuple(words), span

    def coordinates(self, m):
        """Coordinates of an algebra element in the closure basis.

        m lies in the algebra iff its flattened entries lie in the closure
        span, and then its coordinates are its entries at the span's
        pivots times the inverse computed at construction.
        """
        if m.rows == m.cols == self.degree:
            flat = _flat(m)
            if self._span.contains(flat):
                return self._from_pivots.apply([flat[p] for p in self._span.pivots])
        raise ValidationError("matrix does not lie in the algebra")

    def _trace_form(self):
        """G_tu = Tr(e_t e_u), the trace of multiplication on the algebra.

        Tr(e_w) = sum_v lam[w][v][v], and Tr is linear.  The algebra is
        commutative and reduced (the squarefree minimal polynomials see
        to that), so it is a product of fields and G is nondegenerate.
        """
        lam = self.structure_constants
        d = self.dimension
        trace = [sum(lam[w][v][v] for v in range(d)) for w in range(d)]
        return RatMatrix(d, d, [
            [sum(c * trace[w] for w, c in enumerate(lam[t][u]) if c)
             for u in range(d)]
            for t in range(d)])

    def __eq__(self, other):
        if not isinstance(other, EndAlgebraRep):
            return NotImplemented
        return self.degree == other.degree and self.generators == other.generators

    def __repr__(self):
        return "EndAlgebraRep(degree=%d, dimension=%d)" % (
            self.degree, self.dimension)


RATIONAL_FIELD = EndAlgebraRep(1)


class AbelianVarietyModel:
    """Declared data for an abelian variety A over a fixed base field.

    Parameters
    ----------
    name:
        Identifier used in reports and cross references.
    g:
        Dimension of the variety, a positive integer.
    end_algebra:
        An :class:`EndAlgebraRep` for End(A) tensor Q.  Defaults to Q.
    point_space_dim:
        Dimension n of the tracked point space, a Q-vector space through
        which all declared points factor.
    end_action:
        One n x n matrix per algebra generator, giving the action of the
        endomorphism algebra on the point space.  The matrices must satisfy
        every linear relation that holds among the corresponding products
        of algebra generators.
    tracked_points:
        Mapping from point names to coordinate tuples of length n, held
        as integer forms (ints, den); ``point`` reads one as ``Fraction``s.

    A model may be linked to a dual model with :func:`link_duals`, after
    which ``model.dual`` is available.  There is no polarization data here;
    pairings between a model and its dual are registered where they are
    used.
    """

    def __init__(self, name, g, end_algebra=None, point_space_dim=0,
                 end_action=(), tracked_points=None):
        if not name:
            raise ValidationError("abelian variety model needs a name")
        if g < 1:
            raise ValidationError("abelian variety dimension must be >= 1")
        if point_space_dim < 0:
            raise ValidationError("point space dimension must be >= 0")
        self.name = name
        self.g = g
        self.end_algebra = end_algebra if end_algebra is not None else RATIONAL_FIELD
        self.point_space_dim = point_space_dim
        action = tuple(end_action)
        if len(action) != len(self.end_algebra.generators):
            raise ValidationError(
                "need one point-space matrix per algebra generator "
                "(%d given, %d generators)"
                % (len(action), len(self.end_algebra.generators))
            )
        for m in action:
            if m.rows != point_space_dim or m.cols != point_space_dim:
                raise ValidationError(
                    "point-space action matrix has shape %dx%d, expected %dx%d"
                    % (m.rows, m.cols, point_space_dim, point_space_dim)
                )
        self.end_action = action
        self._basis_matrices = self._trace_dual_matrices = None
        if action:  # with no generator (End = Q) there is no relation
            self._check_action_relations()
        self.tracked_points = {}
        for pname, coords in (tracked_points or {}).items():
            ints, den = _integer_row(coords)
            if len(ints) != point_space_dim:
                raise ValidationError(
                    "point %r has %d coordinates, expected %d"
                    % (pname, len(ints), point_space_dim)
                )
            self.tracked_points[pname] = tuple(ints), den
        self._dual = None
        self._primal = None

    @property
    def _point_basis(self):
        """The point-space matrices of the closure basis, formed on first read."""
        if self._basis_matrices is None:
            self._basis_matrices = tuple(
                self._word_matrix(w) for w in self.end_algebra.words)
        return self._basis_matrices

    @property
    def _trace_dual_basis(self):
        """P*_u = sum_t (G^-1)_tu P_t, the point-space matrices of the basis
        trace-dual to the closure basis (G is symmetric), formed on first
        read: only ``smallest_subvariety`` at d > 1 reads them."""
        if self._trace_dual_matrices is None:
            ginv = self.end_algebra._trace_form_inverse
            self._trace_dual_matrices = tuple(
                self.element_point_matrix(ginv.column(u))
                for u in range(ginv.cols))
        return self._trace_dual_matrices

    def _word_matrix(self, word):
        m = RatMatrix.identity(self.point_space_dim)
        for gi in word:
            m = m * self.end_action[gi]
        return m

    def _check_action_relations(self):
        """The point-space matrices must represent the same algebra.

        For every closure basis element b_t and generator g, the algebra
        product b_t * g has known coordinates in the basis; the same linear
        combination must hold among the point-space matrices.
        """
        alg = self.end_algebra
        for t, bt in enumerate(alg.basis):
            for gi, g in enumerate(alg.generators):
                rhs = self.element_point_matrix(alg.coordinates(bt * g))
                if self._point_basis[t] * self.end_action[gi] != rhs:
                    raise ValidationError(
                        "point-space action of %r does not satisfy the "
                        "algebra relations" % (self.name,)
                    )

    def element_point_matrix(self, coords):
        """Point-space matrix of the algebra element with given coordinates."""
        m = None
        for t, c in enumerate(coords):
            c = rat(c)
            if c:
                term = self._point_basis[t]
                if c != 1:
                    term = term.scale(c)
                m = term if m is None else m + term
        if m is None:
            return RatMatrix.zero(self.point_space_dim, self.point_space_dim)
        return m

    def _partner(self):
        """The linked dual or None (a weak reference but on a primal model)."""
        d = self._dual
        return d() if isinstance(d, weakref.ref) else d

    @property
    def dual(self):
        d = self._partner()
        if d is None:
            raise ValidationError(
                "model %r has no dual registered; call link_duals first"
                % (self.name,)
            )
        return d

    @property
    def has_dual(self):
        return self._partner() is not None

    @property
    def is_primal(self):
        """Whether this model is the first member of its dual pair.

        The canonical Weil symbol of a pair takes its first argument on
        the primal member; coefficient tables are stored against that
        orientation.
        """
        if self._primal is None:
            raise ValidationError(
                "model %r has no dual registered; call link_duals first"
                % (self.name,))
        return self._primal

    def point(self, name):
        return _fraction_row(*self._point_form(name))

    def _point_form(self, name):
        if name not in self.tracked_points:
            raise ValidationError(
                "model %r has no tracked point %r" % (self.name, name))
        return self.tracked_points[name]

    def __repr__(self):
        return "AbelianVarietyModel(%r, g=%d, n=%d)" % (
            self.name, self.g, self.point_space_dim)


def link_duals(a, b):
    """Register two models as mutually dual.

    Either model may already be linked to the other (relinking the same
    pair is a no-op); linking a model to two different duals is an error.
    A model may be self-dual: ``link_duals(a, a)`` is allowed.  ``a`` holds
    ``b``, and ``b`` refers back weakly, so the pair is no reference cycle
    and ``b.dual`` needs ``a`` alive (a motive or a document holds both).

    Their endomorphism algebras must be equal: phi -> phi^v identifies
    End(A) tensor Q with End(A*) tensor Q, and the radical pairs the
    coordinates of A and A* in one basis of that algebra.
    """
    already_linked = a._partner() is b and b._partner() is a
    for m, other in ((a, b), (b, a)):
        partner = m._partner()
        if partner is not None and partner is not other:
            raise ValidationError(
                "model %r is already linked to a different dual" % (m.name,))
        if m.g != other.g:
            raise ValidationError("dual abelian varieties must share g")
    if a.end_algebra != b.end_algebra:
        raise ValidationError("dual abelian varieties must share one algebra")
    if not already_linked:
        # the first member named is the primal one; relinking keeps the
        # original orientation
        b._dual = weakref.ref(a)
        if b is not a:
            a._dual = b
        a._primal = True
        b._primal = b is a


class PointVector:
    """A tuple of m points on a single abelian variety model.

    Coordinates are stored per copy, in two forms of the same numbers:
    ``coords[j]`` is the point-space coordinate tuple of the j-th entry,
    as ``Fraction``s, and ``integer_coords()`` is (ints, den) with
    coords[j][k] == ints[j][k] / den, int tuples over den, the lcm of the
    denominators (the least one, so the form is canonical; only the
    radical's extension values, which the report writes as text, may hold
    a larger common one).  Each form is built from the other on first read
    and kept: the radical and the report read only the integer form, so
    points wrapped from one (``_of_ints``: parsed, a scaled copy, or an
    extension value) build no ``Fraction`` unless something reads ``coords``.
    """

    def __init__(self, variety, coords):
        rows = tuple(tuple(rat(c) for c in row) for row in coords)
        for row in rows:
            if len(row) != variety.point_space_dim:
                raise ValidationError(
                    "point entry has %d coordinates, expected %d"
                    % (len(row), variety.point_space_dim))
        self.variety = variety
        self._coords, self._ints, self._subvariety = rows, None, None

    @classmethod
    def _of_ints(cls, variety, ints, den):
        """Wrap an integer form (see the class) of the right shape, unchecked."""
        p = object.__new__(cls)
        p.variety, p._coords, p._ints, p._subvariety = variety, None, (ints, den), None
        return p

    @classmethod
    def zero(cls, variety, multiplicity):
        return cls(variety,
                   [[0] * variety.point_space_dim
                    for _ in range(multiplicity)])

    @property
    def coords(self):
        """The coordinates as ``Fraction`` tuples, built on first read."""
        if self._coords is None:
            ints, den = self._ints
            self._coords = tuple(_fraction_row(row, den) for row in ints)
        return self._coords

    @property
    def multiplicity(self):
        return len(self._coords if self._coords is not None else self._ints[0])

    def integer_coords(self):
        """(ints, den) with coords[j][k] == ints[j][k] / den, den one lcm,
        computed on first read and kept."""
        if self._ints is None:
            ints, den = _integer_rows(self._coords)
            self._ints = tuple(map(tuple, ints)), den
        return self._ints

    def subvariety(self):
        """``smallest_subvariety`` of these points, computed on first read
        and kept: a motive and its Cartier dual share their point vectors."""
        if self._subvariety is None:
            self._subvariety = smallest_subvariety(self)
        return self._subvariety

    def flat(self):
        out = []
        for row in self.coords:
            out.extend(row)
        return tuple(out)

    def __repr__(self):
        return "PointVector(%r, m=%d)" % (self.variety.name, self.multiplicity)


class SubvarietyData:
    """Result of :func:`smallest_subvariety`.

    ``module`` is a Q-subspace of the flattened D^m selecting the
    subvariety { (w_1(a), ..., w_m(a)) : a in A, w in module }, and ``dim``
    is its dimension as a variety, g * dim_D(module).
    """

    def __init__(self, variety, multiplicity, module, dim):
        self.variety = variety
        self.multiplicity = multiplicity
        self.module = module
        self.dim = dim

    def __repr__(self):
        return "SubvarietyData(%r, m=%d, dim=%d)" % (
            self.variety.name, self.multiplicity, self.dim)


def annihilator_module(variety, multiplicity, relations):
    """Annihilator of a Q-subspace of D^m under coordinatewise multiplication.

    Returns { w in D^m : sum_j phi_j * w_j = 0 in D for all phi } as a
    Q-subspace of the same flattened Q^(m*d).  Because D is a field, this
    is the exact annihilator of the relation module, and it is itself a
    D-submodule.  Applied to the relation module of a point vector,
    found as a kernel by the ``relation_module`` oracle of
    ``tests/test_abelian.py``, it is the reference the tests compare
    ``smallest_subvariety`` with.
    """
    d = variety.end_algebra.dimension
    lam = variety.end_algebra.structure_constants
    m = multiplicity
    # entry (j, u) of row (phi, v): coordinate v of sum_t phi_jt e_t e_u
    rows = [[sum(phi[j * d + t] * lam[t][u][v] for t in range(d))
             for j in range(m) for u in range(d)]
            for phi in relations.basis_columns() for v in range(d)]
    if not rows:
        return Subspace.full(m * d)
    return kernel(RatMatrix.from_rows(rows))


def smallest_subvariety(p):
    """The smallest abelian subvariety of A^m through a point vector.

    The subvariety is cut out by the relation module N of p: a candidate
    W = { w in D^m : w annihilates N } always contains p, and any abelian
    subvariety of A^m containing p corresponds to a D-submodule whose
    annihilator consists of relations satisfied by p, hence contains W.

    W is computed as one row space, not as ``annihilator_module`` of the
    kernel N (the route the tests keep as the reference).  Let M be the
    n x (m*d) evaluation matrix whose column (j, t) is P_t p_j, so that
    N = ker M.  The model check makes the point-space matrices represent
    D, so N is a D-submodule, and for a D-submodule the D-valued product
    sum_j phi_j w_j vanishes for all phi in N iff its trace does:
    Tr(lambda x) = 0 for every lambda in D forces x = 0, because the
    trace form G_tu = Tr(e_t e_u) of the reduced algebra D is
    nondegenerate.  So W is the annihilator of ker M under
    phi^T (I_m tensor G) w, which is (I_m tensor G)^-1 rowspace(M): the
    row space of the n x (m*d) matrix whose column (j, u) is P*_u p_j,
    with P*_u = sum_t (G^-1)_tu P_t the trace-dual basis the model
    forms on first read.  For D = Q, P*_0 = I: W is the row space of the points' integer
    columns, no product.

    >>> A = AbelianVarietyModel("A", 1, point_space_dim=2)
    >>> smallest_subvariety(PointVector(A, [[1, 0], [2, 0]])).dim
    1
    >>> smallest_subvariety(PointVector(A, [[1, 0], [0, 1]])).dim
    2
    >>> smallest_subvariety(PointVector.zero(A, 2)).dim
    0
    """
    variety = p.variety
    d = variety.end_algebra.dimension
    m = p.multiplicity
    n = variety.point_space_dim
    if d == 1:
        module = Subspace._span(m, list(zip(*p.integer_coords()[0])))
    else:
        points = RatMatrix._of(m, n, p.coords).transpose()
        images = [(pu * points).row_list() for pu in variety._trace_dual_basis]
        module = Subspace(m * d, [
            [image[i][j] for j in range(m) for image in images]
            for i in range(n)])
    if module.dim % d != 0:
        raise ValidationError(
            "annihilator is not a module over the endomorphism algebra")
    dim = (module.dim // d) * variety.g
    return SubvarietyData(variety, m, module, dim)
