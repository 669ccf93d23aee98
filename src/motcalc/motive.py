"""The 1-motive data model: 7-tuples, weights, graded pieces, Cartier duality.

A 1-motive M = [X -> G] over k, with G an extension of an abelian variety A
by a torus with character lattice Yv, is stored in its symmetric 7-tuple
form (X, Yv, A, A*, v, v*, psi):

* ``X``: a Galois lattice of rank r,
* ``Yv``: a Galois lattice of rank s,
* ``A`` and ``Astar``: a registered dual pair of abelian variety models
  (both None when there is no abelian part),
* ``v``: the images v(e_i) in A(k), a point vector of multiplicity r,
* ``vstar``: the images v*(f_j) in A*(k), a point vector of multiplicity s,
* ``psi``: an r x s matrix of values in a multiplicative group, the
  trivialization of the pullback of the Poincare biextension.

The points and psi are held only as integers over one least denominator
(``PointVector.integer_coords``, ``psi_integer_rows``), which the radical
reads.  The parser reads them as integer rows and hands psi over in that
form (``_PsiForm``), and ``Fraction``s are built only on first read of
``coords`` or ``psi``.

The group G itself is never materialized; every computation downstream
consumes the 7-tuple directly.  Tracked points and psi values are taken
Galois-fixed (defined over k), so equivariance of (v, v*, psi) amounts to
invariance under the declared action on X and Yv.

A motive is checked once, where it enters: the public ``OneMotive``
constructor checks shapes, the registered dual pair and equivariance,
and rejects data that fails.  The Cartier dual and the isogenous copies
that the invariant checks build from a motive that passed are valid by
construction, so they go through the unchecked ``OneMotive._of`` (the
argument is in ``cartier_dual`` and ``_of``).

The weight filtration has W_-1 = [0 -> G] of dimension g + s and
W_-2 = the torus of dimension s; the graded pieces are X, A and Y(1).
Cartier duality exchanges the two halves of the 7-tuple and transposes
psi; it is an involution.
"""

from .abelian import AbelianVarietyModel, PointVector
from .errors import ValidationError
from .exactlin import _fraction_row, _int_matmul, _integer_rows
from .lattices import GaloisLattice, dual, tensor
from .multgroup import MultSpace


class _PsiForm(tuple):
    """psi given to ``OneMotive`` as its integer form (rows, den) of
    ``psi_integer_rows``, den the least one: how the parser reads it."""

    __slots__ = ()


class OneMotive:
    """A 1-motive in 7-tuple form with a declared value group for psi."""

    def __init__(self, X, Yv, A=None, Astar=None, v=None, vstar=None,
                 psi=None, mult_space=None, name=None):
        if not isinstance(X, GaloisLattice) or not isinstance(Yv, GaloisLattice):
            raise ValidationError("X and Yv must be Galois lattices")
        if X.group != Yv.group:
            raise ValidationError("X and Yv must carry actions of the same group")
        self.X = X
        self.Yv = Yv
        self.name = name

        if (A is None) != (Astar is None):
            raise ValidationError("A and Astar must be given together or not at all")
        if A is not None:
            if not isinstance(A, AbelianVarietyModel):
                raise ValidationError("A must be an abelian variety model")
            if not A.has_dual or A.dual is not Astar:
                raise ValidationError("Astar must be the registered dual of A")
        self.A = A
        self.Astar = Astar

        self.v = self._check_points(v, A, X.rank, "v")
        self.vstar = self._check_points(vstar, Astar, Yv.rank, "vstar")

        self.mult_space = mult_space if mult_space is not None else MultSpace()
        self._psi, self._psi_ints = None, self._check_psi(psi)
        self._check_equivariance()

    @classmethod
    def _of(cls, X, Yv, A, Astar, v, vstar, psi_ints, mult_space, name=None):
        """Wrap the parts of a valid motive as they are, unchecked.

        The parts must be what the public constructor stores: ``v`` and
        ``vstar`` are point vectors (None without an abelian part) and
        ``psi_ints`` is psi's integer form (rows, den) of
        ``psi_integer_rows``, the one form of psi that any motive holds
        (``psi`` is built from it on first read).  The callers derive the
        parts from a motive that passed the public checks, by a map that
        keeps every check true:

        * the Cartier dual swaps (X, v) with (Yv, v*) and transposes
          psi (see ``cartier_dual``);
        * the copy scaled by n (``document._scaled_motive``) multiplies v
          and v* by n and psi by n^2; every check is linear (P gx = P,
          Q gy = Q, gx^T C gy = C) or about shapes, so it still holds.
        """
        m = object.__new__(cls)
        m.X = X
        m.Yv = Yv
        m.name = name
        m.A = A
        m.Astar = Astar
        m.v = v
        m.vstar = vstar
        m.mult_space = mult_space
        m._psi = None
        m._psi_ints = psi_ints
        return m

    @staticmethod
    def _check_points(points, variety, multiplicity, label):
        if variety is None:
            if points is not None and points.multiplicity != 0:
                raise ValidationError(
                    "%s given but the motive has no abelian part" % (label,))
            return None
        if points is None:
            return PointVector.zero(variety, multiplicity)
        if points.variety is not variety:
            raise ValidationError("%s lives on the wrong variety" % (label,))
        if points.multiplicity != multiplicity:
            raise ValidationError(
                "%s has multiplicity %d, expected %d"
                % (label, points.multiplicity, multiplicity))
        return points

    def _check_psi(self, psi):
        """psi's integer form (rows, den): row k holds psi[i][j][k] at
        i*s + j, over den, the lcm of every denominator in psi.  psi is an
        r x s table of value tuples, or that form already (``_PsiForm``),
        whose shape is checked as the table's.  An entry that is not an
        exact rational raises ``TypeError``."""
        r, s, mu = self.X.rank, self.Yv.rank, self.mult_space.dim
        if psi is None:
            return ((0,) * (r * s),) * mu, 1
        if type(psi) is _PsiForm:
            rows, den = psi
            if any(len(row) != r * s for row in rows):
                raise ValidationError("psi must be an r x s matrix of values")
            if r * s and len(rows) != mu:
                raise ValidationError(
                    "psi entry has %d coordinates, value group has dim %d"
                    % (len(rows), mu))
            return rows, den
        rows = [[tuple(entry) for entry in row] for row in psi]
        if len(rows) != r or any(len(row) != s for row in rows):
            raise ValidationError("psi must be an r x s matrix of values")
        entries = [entry for row in rows for entry in row]
        for entry in entries:
            if len(entry) != mu:
                raise ValidationError(
                    "psi entry has %d coordinates, value group has dim %d"
                    % (len(entry), mu))
        ints, den = _integer_rows([[e[k] for e in entries] for k in range(mu)])
        return tuple(map(tuple, ints)), den

    def _check_equivariance(self):
        """P gx = P, Q gy = Q and gx^T C gy = C for every generator.

        gx, gy (the lattices' int rows), P, Q (the points of v and v* as
        columns, held transposed) and the psi components C are the integer
        forms the motive keeps, and the products are compared in integers.
        The mu components take two products per generator: gx^T times
        [C_1 | ... | C_mu], whose blocks, stacked as rows, times gy.
        """
        if not self.X.group.generator_count:
            return
        r, s = self.X.rank, self.Yv.rank
        pt = (list(map(list, self.v.integer_coords()[0]))
              if self.A is not None and r else None)
        qt = (list(map(list, self.vstar.integer_coords()[0]))
              if self.Astar is not None and s else None)
        psi_rows = self._psi_ints[0] if r and s else ()
        # column j of C_t is row t of psi at j, s + j, ..., (r-1)*s + j
        columns = [row[j::s] for row in psi_rows for j in range(s)]
        stacked = [list(row[i * s:(i + 1) * s])
                   for row in psi_rows for i in range(r)]
        for k in range(self.X.group.generator_count):
            gxt = list(zip(*self.X.integer_action[k]))
            gyt = list(zip(*self.Yv.integer_action[k]))
            if pt is not None and _int_matmul(gxt, list(zip(*pt))) != pt:
                raise ValidationError(
                    "v is not equivariant under generator %d" % (k,))
            if qt is not None and _int_matmul(gyt, list(zip(*qt))) != qt:
                raise ValidationError(
                    "vstar is not equivariant under generator %d" % (k,))
            if stacked:
                left = _int_matmul(gxt, columns)
                # the columns of gy are the rows of gy^T
                blocks = [row[t * s:(t + 1) * s]
                          for t in range(len(psi_rows)) for row in left]
                if _int_matmul(blocks, gyt) != stacked:
                    raise ValidationError(
                        "psi is not equivariant under generator %d" % (k,))

    @property
    def psi(self):
        """psi as an r x s tuple of value tuples of ``Fraction``, built
        from the integer rows on first read."""
        if self._psi is None:
            rows, den = self._psi_ints
            s = self.s
            entries = list(zip(*rows)) if rows else [()] * (self.r * s)
            self._psi = tuple(
                tuple(_fraction_row(e, den) for e in entries[i * s:(i + 1) * s])
                for i in range(self.r))
        return self._psi

    def psi_integer_rows(self):
        """(rows, den): for each value-group coordinate k, the r*s entries
        psi[i][j][k] at index i*s + j, as ints over one least den."""
        return self._psi_ints

    @property
    def r(self):
        return self.X.rank

    @property
    def s(self):
        return self.Yv.rank

    @property
    def g(self):
        return self.A.g if self.A is not None else 0

    def structurally_equal(self, other):
        """Field-by-field comparison (models compared by identity).

        Points and psi are compared in their integer forms, which are
        canonical: each den is the least one.
        """
        return (
            self.X == other.X
            and self.Yv == other.Yv
            and self.A is other.A
            and self.Astar is other.Astar
            and _integer_form(self.v) == _integer_form(other.v)
            and _integer_form(self.vstar) == _integer_form(other.vstar)
            and self._psi_ints == other._psi_ints
            and self.mult_space.generator_names == other.mult_space.generator_names
        )

    def __repr__(self):
        return "OneMotive(r=%d, g=%d, s=%d%s)" % (
            self.r, self.g, self.s,
            ", name=%r" % (self.name,) if self.name else "")


def _integer_form(points):
    return None if points is None else points.integer_coords()


class WeightFiltration:
    """Dimensions of the weight steps of a 1-motive.

    W_0 is the motive itself; W_-1 = [0 -> G] is the semi-abelian part of
    dimension g + s; W_-2 is the torus of dimension s.
    """

    def __init__(self, r, s, g):
        self.r = r
        self.s = s
        self.g = g

    @property
    def dim_wm1(self):
        return self.g + self.s

    @property
    def dim_wm2(self):
        return self.s

    def __repr__(self):
        return "WeightFiltration(dim W_-1=%d, dim W_-2=%d; r=%d, s=%d, g=%d)" % (
            self.dim_wm1, self.dim_wm2, self.r, self.s, self.g)


class GradedPieces:
    """The split weight-graded object X + A + Y(1) of a 1-motive.

    ``grm2`` is Y, the dual of Yv, and ``em2`` is X^v tensor Y (rank
    r*s).  Each forms its matrices (inverse transposes, Kronecker
    products) only when read, which no reader on the analyze path does.
    """

    def __init__(self, gr0, grm1, grm2):
        self.gr0 = gr0
        self.grm1 = grm1
        self.grm2 = grm2
        self.em2 = tensor(dual(gr0), grm2)

    def __repr__(self):
        return "GradedPieces(rank X=%d, dim A=%d, rank Y=%d)" % (
            self.gr0.rank,
            self.grm1.g if self.grm1 is not None else 0,
            self.grm2.rank)


def weight_filtration(m):
    """Weight filtration dimensions of a 1-motive.

    >>> from motcalc.lattices import GaloisLattice
    >>> wf = weight_filtration(OneMotive(GaloisLattice(1), GaloisLattice(3),
    ...                                  mult_space=MultSpace(["q1", "q2"]),
    ...                                  psi=[[(1, 0), (0, 1), (0, 0)]]))
    >>> wf.dim_wm1, wf.dim_wm2
    (3, 3)
    """
    return WeightFiltration(m.r, m.s, m.g)


def gr(m):
    """Graded pieces (X, A, Y(1)); Y is the dual lattice of Yv."""
    return GradedPieces(m.X, m.A, dual(m.Yv))


def cartier_dual(m):
    """The Cartier dual 7-tuple (Yv, X, A*, A, v*, v, psi transposed).

    Transposition of psi: the dual's entry at (j, i) is psi(e_i, f_j).
    Applying the operation twice returns a motive structurally equal to
    the input.

    The dual is built unchecked (``OneMotive._of``): it is valid because
    m is.  It swaps (X, v) with (Yv, v*), so the shapes swap with them
    (v* has multiplicity s = rank of the new X), and the registered dual
    pair (A, A*) becomes (A*, A), which is registered too.  The point
    conditions Q gy = Q and P gx = P carry over unchanged, now read on
    the new X and Yv, and for each psi component C the dual's component
    is C^T, with gy^T C^T gx = (gx^T C gy)^T = C^T.
    """
    rows, den = m.psi_integer_rows()
    s = m.s
    psi_t = []
    for row in rows:
        # entry (i, j) at i*s + j moves to (j, i) at j*r + i: block j is row[j::s]
        t = []
        for j in range(s):
            t += row[j::s]
        psi_t.append(tuple(t))
    return OneMotive._of(
        m.Yv, m.X, m.Astar, m.A, m.vstar, m.v, (tuple(psi_t), den), m.mult_space,
        name=None if m.name is None else m.name + "*")
