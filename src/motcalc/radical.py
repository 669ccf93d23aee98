"""The unipotent radical of the motivic Galois group of a 1-motive.

Given a 1-motive M with graded pieces (X, A, Y(1)) of ranks (r, g, s), the
negative-weight part of Lie G_mot(M) is a semi-abelian variety: an
extension of an abelian variety B by a torus Z(1).  This module computes
both pieces exactly from the declared data, each as a span:

* b = (b1, b2) is the point of E_-1(k) determined by (v, v*);
* B is the smallest Galois-stable abelian subvariety of
  X^v tensor A + A* tensor Y (up to isogeny, over k) whose points contain
  b: per side, the row space of the frame points under the trace-dual
  basis of the algebra of dimension d that A and A* share
  (``smallest_subvariety``, ``link_duals``);
* Z1(1) is the smallest Galois-stable subtorus of (X^v tensor Y)(1)
  containing the image of the Lie bracket restricted to B.  By
  bilinearity its span is U tensor W, U in Q^r and W in Q^s spanned by
  slices of the two B modules, and the integer Kronecker rows of their
  echelon bases are already that of Z1: nothing is eliminated in Q^(r*s);
* Z(1) is the smallest one that also contains the projection pi(b~) of
  the lifted point: Z1 plus the row space of the psi pairing, one integer
  elimination, or none when Z1 is all of Q^(r*s).

Spans suffice because the dot product on Q^(r*s) is nondegenerate (see
``derived_torus_Z1`` and ``torus_Z``).

No Galois closure is taken, because each span is fixed pointwise.  Write
P and Q for the matrices of v and v*, gx and gy for a generator on X and
Yv, and C for a psi component; the motive check enforces P gx = P,
Q gy = Q and gx^T C gy = C.  So the rows of P*_u P that span the A-side
module of B are fixed by the X^v action tensored with the identity of
the algebra (likewise on the Y side); U and W are spanned by slices of
those rows, so U tensor W is fixed by X^v tensor Y; and
gx^-T C gy^-1 = C says each psi row is a fixed vector.  A generator
therefore restricts to the identity on Z, and ``radical_cartier_dual``
gives Z^v the trivial action.

The bracket image treats the formal Weil values <B_t alpha, B_tau beta>
of endomorphism translates, t and tau over the d basis elements, as
independent symbols.  For End = Q this is exact; for larger fields it
can only overestimate Z1, never miss a required character.

dim of the unipotent radical is dim B + dim Z; the total dim of
Lie G_mot(M) adds the reductive dimension of the graded part: 1 when
A = 0 and Y is nonzero, 0 when A = Y = 0, and otherwise supplied by the
caller, or the symbolic value "dim Lie G_mot(A)" when it is not.
Subspaces of X^v tensor Y are flattened with index (i, j) -> i*s + j.
"""

import math

from .abelian import PointVector
from .exactlin import IntLattice, Subspace, _fraction_row, _least, saturate
from .lattices import GaloisLattice
from .motive import OneMotive
from .multgroup import MultSpace

REDUCTIVE_SYMBOL = "dim Lie G_mot(A)"


class BData:
    """The abelian part B of the radical, one module per side."""

    def __init__(self, w_a, w_astar):
        self.w_a = w_a
        self.w_astar = w_astar
        self.dim = (w_a.dim if w_a is not None else 0) + \
            (w_astar.dim if w_astar is not None else 0)

    def __repr__(self):
        return "BData(dim=%d)" % (self.dim,)


def smallest_B(m):
    """The smallest Galois-stable abelian subvariety through b.

    Per side this is ``smallest_subvariety`` of the frame points, one
    row space each: v and v* are equivariant, so the rows that span each
    module are fixed by its copy lattice (X^v or Y, tensored with the
    identity of the endomorphism algebra).  Each is kept on its point
    vector (``PointVector.subvariety``), which the Cartier dual shares.
    """
    if m.A is None:
        return BData(None, None)
    return BData(m.v.subvariety(), m.vstar.subvariety())


def derived_torus_Z1(m, b_data):
    """Z1 = U tensor W: the span of the bracket image on B, in closed form.

    The image is spanned by u_t tensor w_tau (flat index i*s + j) over the
    basis pairs (u, w) of the two B modules and the algebra coordinates t
    and tau, with u_t = (u_(i*d+t))_i a slice in Q^r.  The characters that
    kill it are the orthogonal complement of that span, so Z1 is the span,
    and by bilinearity it is U tensor W, U and W the spans of the slices
    (the B modules when d = 1).  The Kronecker row of echelon rows a of U
    and b of W, pivots p and q, is 1 at p*s + q and 0 before it, and every
    other such row is 0 there; in the order (a, b) the pivots increase, so
    the rows are Z1's reduced echelon basis with no elimination in Q^(r*s).
    In integers they are the products of the two integer bases over
    den_U * den_W, already canonical: each factor's rows have content 1.
    Each product row a tensor b is formed by concatenation, one block of
    width s per entry x of a: b itself when x = 1, one shared zero block
    when x = 0, and x*b otherwise.

    >>> from motcalc.abelian import AbelianVarietyModel, link_duals
    >>> E = AbelianVarietyModel("E", 1, point_space_dim=2)
    >>> Es = AbelianVarietyModel("E*", 1, point_space_dim=1)
    >>> link_duals(E, Es)
    >>> m = OneMotive(GaloisLattice(3), GaloisLattice(2), A=E, Astar=Es,
    ...               v=PointVector(E, [[1, 0], [0, 1], [1, 1]]),
    ...               vstar=PointVector(Es, [[1], [2]]))
    >>> z1 = derived_torus_Z1(m, smallest_B(m))
    >>> z1, z1.pivots
    (Subspace(dim 2 of Q^6: (1, 2, 0, 0, 1, 2), (0, 0, 1, 2, 1, 2)), (0, 2))
    """
    r, s = m.r, m.s
    if m.A is None:
        return Subspace.zero(r * s)
    d = m.A.end_algebra.dimension
    u, w = (side.module if d == 1 else Subspace._span(
        n, [vec[t::d] for vec in side.module.ints for t in range(d)])
        for n, side in ((r, b_data.w_a), (s, b_data.w_astar)))
    if not (u.dim and w.dim):
        return Subspace.zero(r * s)
    zero = (0,) * s
    rows = []
    for a in u.ints:
        for b in w.ints:
            row = []
            for x in a:
                row += b if x == 1 else zero if not x else [x * y for y in b]
            rows.append(tuple(row))
    return Subspace._of(r * s, u.den * w.den, tuple(rows),
                        tuple(p * s + q for p in u.pivots for q in w.pivots))


def torus_Z(m, b_data, z1):
    """Z = Z1 + rowspace psi: Z1 grown to see pi(b~).

    The characters killing both the bracket image and pi(b~) are
    ann(Z1) intersect ker psi, and the smallest subspace they all kill is
    ann(ann(Z1) intersect ker psi) = Z1 + ann(ker psi) = Z1 + rowspace psi.
    Equivariance of psi (gx^T C gy = C) makes each psi row a fixed vector
    of X^v tensor Y, so the sum is as stable as Z1.  When Z1 is already
    all of Q^(r*s) it is Z, and nothing is eliminated; otherwise Z1's
    integer rows and the motive's psi integer rows, one per value-group
    coordinate, are, in one elimination.
    """
    if z1.dim == z1.ambient_dim:
        return z1
    return Subspace._span(z1.ambient_dim, [*z1.ints, *m.psi_integer_rows()[0]])


class ExtensionHom:
    """The hom V: Z^v -> B* on a basis of Z-characters.

    For a character z (an r x s table), the A*-side value puts
    sum_j z_ij v*(f_j) on the i-th copy of A*, and the A-side value puts
    sum_i z_ij v(e_i) on the j-th copy of A; together these are the
    coordinates of a point of B*(k) tensor Q.  The characters are held
    as integer rows ``ints`` over one denominator ``den``.
    """

    def __init__(self, ints, den, astar_values, a_values):
        self.ints = ints
        self.den = den
        self.astar_values = astar_values
        self.a_values = a_values

    @property
    def characters(self):
        """The characters ints[k]/den as ``Fraction`` rows, formed when read."""
        return tuple(_fraction_row(row, self.den) for row in self.ints)

    def __repr__(self):
        return "ExtensionHom(%d characters)" % (len(self.astar_values),)


def _extension_values(m, ints, den):
    """V on each character ints[k]/den, built in one pass over its nonzero
    entries.

    Entry k of z, at (i, j) = divmod(k, s), adds z_k v*_j to row i of the
    A* side and z_k v_i to row j of the A side.  Each value is an integer
    form (``PointVector._of_ints``) over dz * d, with z = ints/dz at its
    least dz and d the points' denominator, so a common denominator but
    not always the least one.  A row with one term of coefficient 1 (every
    nonzero row of a unit character) is the input point's own int row, a
    row with none the side's one zero row, and any other an integer sum:
    the report formats a shared row once (``document._rows_json``).
    """
    if m.A is None:
        none = (None,) * len(ints)
        return ExtensionHom(ints, den, none, none)
    r, s = m.r, m.s
    vstar, dstar = m.vstar.integer_coords()
    v, d = m.v.integer_coords()
    zero_star = (0,) * m.Astar.point_space_dim
    zero = (0,) * m.A.point_space_dim
    astar_values, a_values = [], []
    for z in ints:
        dz = den
        if den != 1:
            z, dz = _least(z, den)
        on_astar, on_a = {}, {}
        for k, x in enumerate(z):
            if x:
                i, j = divmod(k, s)
                on_astar.setdefault(i, []).append((x, vstar[j]))
                on_a.setdefault(j, []).append((x, v[i]))
        rows = [zero_star] * r
        for i, terms in on_astar.items():
            rows[i] = _point_row(terms)
        astar_values.append(PointVector._of_ints(m.Astar, tuple(rows), dz * dstar))
        rows = [zero] * s
        for j, terms in on_a.items():
            rows[j] = _point_row(terms)
        a_values.append(PointVector._of_ints(m.A, tuple(rows), dz * d))
    return ExtensionHom(ints, den, tuple(astar_values), tuple(a_values))


def _point_row(terms):
    """The int row sum x·row over the (x, row) of ``terms``, none zero:
    the row itself for one term with x = 1."""
    if len(terms) == 1:
        x, row = terms[0]
        return row if x == 1 else tuple(x * y for y in row)
    return tuple(map(sum, zip(*([x * y for y in row] for x, row in terms))))


class RadicalReport:
    """Everything computed about W_-1(Lie G_mot(M))."""

    def __init__(self, motive, b1, b2, b_data, z1, z, reductive_dim):
        self.motive = motive
        self.b1 = b1
        self.b2 = b2
        self.b = b_data
        self.z1 = z1
        self.z = z
        # Filled by ``extension`` on first read: the invariant checks
        # build reports that never read it.
        self._extension = None
        self.dim_B = b_data.dim
        self.dim_Z = z.dim
        self.dim_unipotent = self.dim_B + self.dim_Z
        self.derived_dim = z1.dim
        self.quasi_deficient = z1.dim == 0
        self.reductive_dim = reductive_dim
        self.total_dim = (self.dim_unipotent + reductive_dim
                          if isinstance(reductive_dim, int) else None)

    @property
    def extension(self):
        """V: Z^v -> B* on the basis of Z, built on first read and kept."""
        if self._extension is None:
            z = self.z
            self._extension = _extension_values(self.motive, z.ints, z.den)
        return self._extension

    def __repr__(self):
        return "RadicalReport(dim_B=%d, dim_Z=%d)" % (self.dim_B, self.dim_Z)


def unipotent_radical(m, reductive_dim=None):
    """Full radical computation for one motive.

    ``reductive_dim`` supplies dim Lie G_mot(Gr M) when the motive has an
    abelian part; without an abelian part the value is forced (1 if the
    torus part is nonzero, else 0) and the argument is ignored.
    """
    b_data = smallest_B(m)
    z1 = derived_torus_Z1(m, b_data)
    z = torus_Z(m, b_data, z1)
    if m.A is None:
        reductive = 1 if m.s > 0 else 0
    elif reductive_dim is not None:
        reductive = int(reductive_dim)
    else:
        reductive = REDUCTIVE_SYMBOL
    return RadicalReport(m, m.v, m.vstar, b_data, z1, z, reductive)


def _integral_basis(space):
    """Integer basis of (space intersect Z^n): the HNF rows of its saturation.

    When the echelon basis of ``space`` is integral (den 1) its rows are
    that HNF already: an integral vector of the span has integer
    coordinates at the unit pivots, so the rows span the saturation, and
    unit pivots with zeros above and below them leave nothing to reduce.
    Other bases go through ``saturate``, whose HNF depends on the
    generators it is given (see ``_hermite_rows``); the primitive multiples
    of the echelon rows fix them, so the result is a function of the space.
    Those multiples are already their own ``_hermite_rows`` output (each
    pivot positive, every other pivot column zero, nothing above a pivot
    to reduce), so they are wrapped as they are (``IntLattice._of``).
    """
    if space.den == 1:
        return space.ints
    primitive = []
    for row in space.ints:
        g = math.gcd(space.den, *row)
        primitive.append(tuple(x // g for x in row))
    return saturate(IntLattice._of(space.ambient_dim, tuple(primitive))).generators


class DualRadicalData:
    """The 1-motive [V: Z^v -> B*] dual to the unipotent radical.

    ``lattice`` is Z^v with the trivial action: X^v tensor Y fixes Z
    pointwise, so the dual of its restriction to Z is the identity.
    ``characters`` is the matching integral basis of Z, ``extension`` V on it.
    ``astar_values``/``a_values`` give V on each basis character as
    points on the two sides of B* ((A*)^r restricted by the W_A module,
    A^s restricted by the W_A* module; the module data itself sits in
    ``report.b``).
    """

    def __init__(self, report, lattice, characters, extension):
        self.report = report
        self.lattice = lattice
        self.characters = characters
        self.extension = extension
        self.astar_values = extension.astar_values
        self.a_values = extension.a_values

    def to_one_motive(self, name=None):
        """Re-express as a OneMotive when the data permits.

        Supported exactly when B = 0: the dual is the pure lattice
        motive [Z^v -> 0].  With a nonzero B the target B* is a product
        of subvariety quotients that has no registered model, so None is
        returned.
        """
        if self.report.dim_B != 0:
            return None
        group = self.lattice.group
        return OneMotive(
            self.lattice, GaloisLattice(0, group=group),
            mult_space=MultSpace(), name=name)

    def __repr__(self):
        return "DualRadicalData(rank=%d, dim_Bstar=%d)" % (
            self.lattice.rank, self.report.dim_B)


def radical_cartier_dual(report):
    """Emit [V: Z^v -> B*] from a computed radical report.

    Z^v carries the trivial action: each row spanning Z is a fixed
    vector of X^v tensor Y (see the module docstring), so the action
    restricted to Z and its dual are the identity.  V is re-evaluated on
    the integral character basis so that the emitted data is independent
    of the rational basis used internally.  When the two bases agree (Z's
    echelon basis is integral, den 1), the report's own table is that
    evaluation.  Z^v is built unchecked
    (``GaloisLattice._of``): every check holds on identity matrices.
    """
    m = report.motive
    chars = _integral_basis(report.z)
    group = m.X.group
    n, count = len(chars), group.generator_count
    action = ()
    if count:
        action = (tuple(tuple(int(i == j) for j in range(n))
                        for i in range(n)),) * count
    lattice = GaloisLattice._of(n, action, group)
    if report.z.den == 1:
        extension = report.extension
    else:
        extension = _extension_values(m, chars, 1)
    return DualRadicalData(report, lattice, chars, extension)
