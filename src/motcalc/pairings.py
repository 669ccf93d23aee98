"""Torus-valued bilinear classes on block coordinate spaces.

Biextensions of split weight-graded objects by tori are classified by
bilinear maps into the torus's cocharacter lattice, so this module works
with classes only: a :class:`TorusPairingClass` is a block bilinear form
with values in a lattice L, standing for a biextension by the torus L(1).

A block space is a direct sum of coordinate blocks, each Q^m tensor a
variety model (m independent copies of the variety).  Between a block
and a block of the dual variety the only available pairing is a rational
multiple of the canonical Weil symbol, written <a, b> with the first
argument on the primal variety of the registered dual pair.  The stored
coefficient matrices are always expressed against that fixed
orientation, whichever side of the form holds the primal variety.
Pairings between blocks of non-dual varieties vanish for weight reasons
and are rejected.

Sign conventions, fixed once and used everywhere:

* the swap pullback of a class c is s*c = -(c o swap): transposing the
  arguments of a biextension changes the classifying map by a sign;
* antisymmetrize(c) = c + s*c, except that a class already fixed by s*
  is returned unchanged, making the operation idempotent (dividing by 2
  is always permitted under the isogeny convention).
"""

from .errors import ValidationError
from .exactlin import _ONE, _ZERO, RatMatrix
from .lattices import GaloisLattice


class CoordinateBlock:
    """One summand of a block space: m copies of a variety."""

    __slots__ = ("variety", "dim")

    # a form touching E_-2 lands in weight -3 or below and vanishes, so
    # every block the calculus pairs is a block of copies of a variety
    kind = "abelian"

    def __init__(self, variety, dim):
        if dim < 0:
            raise ValidationError("block dimension must be >= 0")
        if variety is None:
            raise ValidationError("a block needs a variety model")
        self.variety = variety
        self.dim = dim

    def __eq__(self, other):
        if not isinstance(other, CoordinateBlock):
            return NotImplemented
        return self.variety is other.variety and self.dim == other.dim

    def __repr__(self):
        return "CoordinateBlock(%s^%d)" % (self.variety.name, self.dim)


def abelian_block(variety, copies):
    return CoordinateBlock(variety, copies)


class BlockSpace:
    """A direct sum of coordinate blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks=()):
        self.blocks = tuple(blocks)

    def __eq__(self, other):
        if not isinstance(other, BlockSpace):
            return NotImplemented
        return self.blocks == other.blocks

    def __repr__(self):
        return "BlockSpace(%r)" % (list(self.blocks),)


def _dual_pair_ok(a, b):
    """Whether two blocks may carry a Weil symbol entry."""
    return a.variety.has_dual and a.variety.dual is b.variety


class TorusPairingClass:
    """A block bilinear form with values in a cocharacter lattice.

    ``coefficients`` maps (target component l, left block p, right block q)
    to a rational matrix of shape (left block dim, right block dim).  An
    absent key is the zero form; zero matrices are dropped on entry, so
    structural equality compares normalized tables.
    """

    __slots__ = ("left_space", "right_space", "target", "coefficients")

    def __init__(self, left_space, right_space, target, coefficients=None):
        if not isinstance(target, GaloisLattice):
            raise ValidationError("target must be a Galois lattice")
        self.left_space = left_space
        self.right_space = right_space
        self.target = target
        table = {}
        for key, mat in (coefficients or {}).items():
            l, p, q = key
            if not 0 <= l < target.rank:
                raise ValidationError("target component %r out of range" % (l,))
            if not 0 <= p < len(left_space.blocks):
                raise ValidationError("left block %r out of range" % (p,))
            if not 0 <= q < len(right_space.blocks):
                raise ValidationError("right block %r out of range" % (q,))
            left = left_space.blocks[p]
            right = right_space.blocks[q]
            if mat.rows != left.dim or mat.cols != right.dim:
                raise ValidationError(
                    "entry (%d, %d, %d) has shape %dx%d, expected %dx%d"
                    % (l, p, q, mat.rows, mat.cols, left.dim, right.dim))
            if mat.is_zero():
                continue
            if not _dual_pair_ok(left, right):
                raise ValidationError(
                    "nonzero pairing between non-dual blocks (%r, %r) "
                    "vanishes for weight reasons" % (left, right))
            table[(l, p, q)] = mat
        self.coefficients = table

    @classmethod
    def _of(cls, left_space, right_space, target, coefficients):
        """Wrap a normalized coefficient table as it is, unchecked.

        Every key must be in range, every matrix nonzero and of its
        block's shape, and every entry between the blocks of a registered
        dual pair: what the public constructor keeps.  ``liealg.build_E``
        wraps ``_weil_table`` this way (see there).
        """
        c = object.__new__(cls)
        c.left_space = left_space
        c.right_space = right_space
        c.target = target
        c.coefficients = coefficients
        return c

    def entry(self, l, p, q):
        """Coefficient matrix at (component, left block, right block)."""
        key = (l, p, q)
        if key in self.coefficients:
            return self.coefficients[key]
        return RatMatrix.zero(self.left_space.blocks[p].dim,
                              self.right_space.blocks[q].dim)

    def is_zero(self):
        return not self.coefficients

    def __eq__(self, other):
        if not isinstance(other, TorusPairingClass):
            return NotImplemented
        return (self.left_space == other.left_space
                and self.right_space == other.right_space
                and self.target == other.target
                and self.coefficients == other.coefficients)

    def __add__(self, other):
        if (self.left_space != other.left_space
                or self.right_space != other.right_space
                or self.target != other.target):
            raise ValidationError("classes live on different spaces")
        table = dict(self.coefficients)
        for key, mat in other.coefficients.items():
            total = table[key] + mat if key in table else mat
            if total.is_zero():
                table.pop(key, None)
            else:
                table[key] = total
        return TorusPairingClass(self.left_space, self.right_space,
                                 self.target, table)

    def __repr__(self):
        return "TorusPairingClass(%d entries, target rank %d)" % (
            len(self.coefficients), self.target.rank)


def swap_pullback(c):
    """The class of the argument-swapped biextension, s*c = -(c o swap)."""
    table = {}
    for (l, p, q), mat in c.coefficients.items():
        table[(l, q, p)] = mat.transpose().scale(-1)
    return TorusPairingClass(c.right_space, c.left_space, c.target, table)


def antisymmetrize(c):
    """The antisymmetrized class c(x, y) - c(y, x), normalized idempotently.

    A class already fixed by the swap pullback is returned unchanged;
    otherwise the result is c + s*c, which is fixed by the swap pullback.
    """
    if c.left_space != c.right_space:
        raise ValidationError("antisymmetrize needs equal left and right spaces")
    swapped = swap_pullback(c)
    if swapped == c:
        return c
    return c + swapped


_MINUS_ONE = -_ONE


def _weil_table(x, y):
    """The coefficient table of the Weil biextension class on (A^x + (A*)^y)^2.

    Target component (i, j) is flattened to l = i*y + j.  Its only nonzero
    blocks are the Weil symbol between the i-th copy of A and the j-th
    copy of A* (coefficient +1 at (l, 0, 1)) and its swapped role between
    the j-th copy of A* and the i-th copy of A (coefficient -1 at
    (l, 1, 0), the swap sign rule), so the class is fixed by the swap
    pullback.  The table is empty when x or y is 0.  Its 2xy matrices share
    one tuple per distinct row, at most x + y + 2: the zero row of each
    width and the +1 (-1) unit row at each column j (i).
    """
    zeros = {n: (_ZERO,) * n for n in (x, y)}
    zero_x, zero_y = zeros[x], zeros[y]
    plus = [zero_y[:j] + (_ONE,) + zero_y[j + 1:] for j in range(y)]
    minus = [zero_x[:i] + (_MINUS_ONE,) + zero_x[i + 1:] for i in range(x)]
    top, bottom = (zero_y,) * x, (zero_x,) * y
    table = {}
    for i in range(x):
        for j in range(y):
            l = i * y + j
            table[(l, 0, 1)] = RatMatrix._of(
                x, y, top[:i] + (plus[j],) + top[i + 1:])
            table[(l, 1, 0)] = RatMatrix._of(
                y, x, bottom[:j] + (minus[i],) + bottom[j + 1:])
    return table


def assemble_example_biext(x, y, a):
    """The explicit biextension class on (A^x + (A*)^y)^2 valued in Z^(x*y)(1).

    Its coefficients are ``_weil_table(x, y)``: the Weil symbol between
    the i-th copy of A and the j-th copy of A* at target component
    i*y + j, with the swapped role at coefficient -1.
    """
    if x < 1 or y < 1:
        raise ValidationError("assemble_example_biext needs x >= 1 and y >= 1")
    if a is None or not a.has_dual:
        raise ValidationError("assemble_example_biext needs a registered dual pair")
    space = BlockSpace([abelian_block(a, x), abelian_block(a.dual, y)])
    return TorusPairingClass(space, space, GaloisLattice(x * y),
                             _weil_table(x, y))
