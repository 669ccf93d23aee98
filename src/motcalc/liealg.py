"""The graded endomorphism Lie algebra of a split 1-motive and its actions.

For graded pieces (X, A, Y(1)) of ranks (r, g, s), the negative-weight part
of the internal endomorphism object has exactly two components:

* E_-1 = X^v tensor A + A* tensor Y, with coordinates Q^r over A plus
  Q^s over A*, and
* E_-2 = X^v tensor Y(1), a lattice of rank r*s.

Composition of endomorphisms gives a product E_-1 x E_-1 -> E_-2 supported
on (X^v tensor A) x (A* tensor Y), where it is the Weil symbol; the Lie
bracket is its antisymmetrization.  Both are stored as
:class:`~motcalc.pairings.TorusPairingClass` tables with target component
(i, j) flattened to i*s + j.

E acts on the graded pieces through three labeled maps:

* alpha1: (X^v tensor A) x X -> A, evaluation (e*_i tensor a, e_k) ->
  delta_ik a;
* alpha2: (A* tensor Y) x A -> Y(1), the Weil symbol per copy of Y,
  (b tensor y_j, a) -> <a, b> y_j;
* gamma: (X^v tensor Y(1)) x X -> Y(1), evaluation.

Values of these maps are kept formal: points of A and A* are opaque
symbols and Weil values appear as pairs (primal symbol, dual symbol), so
the module axiom can be verified exactly on basis elements without ever
evaluating a pairing.
"""

from .errors import ValidationError
from .exactlin import _ONE, _ZERO
from .pairings import (
    BlockSpace,
    TorusPairingClass,
    _weil_table,
    abelian_block,
    swap_pullback,
)

# E_-1 basis symbols: (part, copy index, formal point name) with part "XA"
# for the X^v tensor A summand and "AY" for the A* tensor Y summand.
XA = "XA"
AY = "AY"


class GradedEndData:
    """Weight components and bracket of the endomorphism object."""

    def __init__(self, em1_space, em2, product, bracket, r, s, variety):
        self.em1_space = em1_space
        self.em2 = em2
        self.product = product
        self.bracket = bracket
        self.r = r
        self.s = s
        self.variety = variety

    @property
    def em1_dims(self):
        """Coordinate dimensions of E_-1 over A and over A*."""
        if self.variety is None:
            return (0, 0)
        return (self.r, self.s)

    def __repr__(self):
        return "GradedEndData(r=%d, s=%d, em2 rank=%d)" % (
            self.r, self.s, self.em2.rank)


def build_E(g):
    """Construct E_-1, E_-2, the composition product and the bracket.

    The bracket is the table ``pairings._weil_table(r, s)``, which is the
    antisymmetrization of the product; the product is its one-sided
    (l, 0, 1) half.  Both are wrapped unchecked
    (``TorusPairingClass._of``): each entry is a nonzero unit matrix of
    its block's shape, at component l = i*s + j < r*s = rank E_-2,
    between A^r and (A*)^s or back, a registered dual pair.
    With no abelian part both E_-1 summands vanish and the bracket is the
    zero class; E_-2 keeps its full rank r*s either way.
    """
    r = g.gr0.rank
    s = g.grm2.rank
    a = g.grm1
    em2 = g.em2
    if a is None:
        space = BlockSpace(())
        zero = TorusPairingClass(space, space, em2)
        return GradedEndData(space, em2, zero, zero, r, s, None)
    space = BlockSpace([abelian_block(a, r), abelian_block(a.dual, s)])
    bracket = _weil_table(r, s)
    product = {key: mat for key, mat in bracket.items() if key[1:] == (0, 1)}
    return GradedEndData(space, em2,
                         TorusPairingClass._of(space, space, em2, product),
                         TorusPairingClass._of(space, space, em2, bracket),
                         r, s, a)


def _weil_key(variety, a_point, b_point):
    """Formal Weil value <a, b> keyed primal-first.

    ``a_point`` is a symbol on ``variety`` and ``b_point`` on its dual;
    the stored key always lists the primal member's symbol first.
    """
    if variety.is_primal:
        return ("weil", a_point, b_point)
    return ("weil", b_point, a_point)


def _add_term(table, key, coeff):
    total = table.get(key, _ZERO) + coeff
    if total:
        table[key] = total
    else:
        table.pop(key, None)


class ActionMaps:
    """The maps alpha1, alpha2, gamma of E on the graded pieces.

    Arguments of weight -1 are E_-1 basis symbols (part, copy, point
    name); points of A are formal sums {name: coefficient}; values in
    Y(1) are formal sums {(coordinate, scalar key): coefficient} where a
    scalar key is 1 for a rational or ("weil", primal, dual) for a formal
    Weil value.
    """

    def __init__(self, data):
        self.data = data

    def alpha1(self, x, k):
        """Action of E_-1 on X, landing in A: evaluation on the XA part."""
        part, copy, point = x
        if part == XA and copy == k:
            return {point: _ONE}
        return {}

    def alpha2(self, x, point_sum):
        """Action of E_-1 on A, landing in Y(1): Weil symbol per Y copy."""
        part, copy, point = x
        out = {}
        if part != AY:
            return out
        for name, coeff in point_sum.items():
            key = _weil_key(self.data.variety, name, point)
            _add_term(out, (copy, key), coeff)
        return out

    def gamma(self, z, k):
        """Action of E_-2 on X, landing in Y(1): evaluation."""
        s = self.data.s
        out = {}
        for (l, key), coeff in z.items():
            if l // s == k:
                _add_term(out, (l % s, key), coeff)
        return out


def bracket_value(data, x, y):
    """The bracket of two E_-1 basis symbols as a formal E_-2 element."""
    part_to_block = {XA: 0, AY: 1}
    px, cx, namex = x
    py, cy, namey = y
    out = {}
    for (l, p, q), mat in data.bracket.coefficients.items():
        if p != part_to_block[px] or q != part_to_block[py]:
            continue
        coeff = mat[cx, cy]
        if not coeff:
            continue
        left_variety = data.em1_space.blocks[p].variety
        _add_term(out, (l, _weil_key(left_variety, namex, namey)), coeff)
    return out


def _e1_basis(data, point_prefix):
    """All E_-1 basis symbols, with fresh formal point names."""
    out = []
    for i in range(data.r if data.variety is not None else 0):
        out.append((XA, i, "%s" % point_prefix))
    for j in range(data.s if data.variety is not None else 0):
        out.append((AY, j, "%s" % point_prefix))
    return out


class LieModuleCheck:
    """Outcome of :func:`verify_lie_module`: truthy iff all checks pass."""

    def __init__(self, ok, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "LieModuleCheck(ok)"
        return "LieModuleCheck(failed: %s)" % (self.witness,)


def verify_lie_module(data, g):
    """Check the module axiom, bracket antisymmetry and triviality of
    double brackets on all basis elements.

    The module axiom ties the bracket to the action maps: for all basis
    symbols x, y of E_-1 and basis elements e_k of X,

        gamma(bracket(x, y), e_k)
            = alpha2(y, alpha1(x, e_k)) - alpha2(x, alpha1(y, e_k)).

    Double brackets land in weight -3, which does not exist in E, so the
    Jacobi identity holds structurally; the check asserts the data model
    carries no such component.  Returns a falsy result with a witness
    triple on the first violated identity.
    """
    if data.bracket != swap_pullback(data.bracket):
        return LieModuleCheck(False, "bracket is not antisymmetric")
    # no component of the bracket may target anything but E_-2
    if data.bracket.target.rank != data.r * data.s:
        return LieModuleCheck(False, "bracket target is not E_-2")
    acts = ActionMaps(data)
    xs = _e1_basis(data, "p")
    ys = _e1_basis(data, "q")
    for x in xs:
        for y in ys:
            z = bracket_value(data, x, y)
            for k in range(data.r):
                lhs = acts.gamma(z, k)
                rhs = {}
                for key, coeff in acts.alpha2(y, acts.alpha1(x, k)).items():
                    _add_term(rhs, key, coeff)
                for key, coeff in acts.alpha2(x, acts.alpha1(y, k)).items():
                    _add_term(rhs, key, -coeff)
                if lhs != rhs:
                    return LieModuleCheck(
                        False, "module axiom fails at x=%r, y=%r, e_%d"
                        % (x, y, k))
            # antisymmetry on values
            zrev = bracket_value(data, y, x)
            flipped = {key: -coeff for key, coeff in zrev.items()}
            if z != flipped:
                return LieModuleCheck(
                    False, "bracket values not antisymmetric at x=%r, y=%r"
                    % (x, y))
    return LieModuleCheck(True)
