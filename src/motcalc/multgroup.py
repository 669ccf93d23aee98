"""Finitely generated multiplicative groups, modulo torsion, over Q.

Values of the trivialization pairing live in k* for the base field k.  For
the linear algebra downstream only the group generated by the occurring
values matters, and only up to roots of unity: the relevant object is
Gamma tensor Q for a finitely generated subgroup Gamma of k*.  A
:class:`MultSpace` presents such a group by named generators plus declared
multiplicative relations and hands out exact coordinate vectors: the
parser reads psi's exponent rows as ints into ``quotient._coords``, and
``element`` is its ``Fraction`` view, so ``Fraction``s are built only on
first read of ``psi``.

Writing relations additively, a declared relation is an integer exponent
vector (e_1, ..., e_k) asserting g_1^e_1 * ... * g_k^e_k is a root of
unity.  Torsion is invisible after tensoring with Q, so 1 itself has
coordinate zero.
"""

from .errors import ValidationError
from .exactlin import QuotientSpace, rat


class MultSpace:
    """Q-vector space attached to a finitely generated subgroup of k*.

    >>> space = MultSpace(["q1", "q2"])
    >>> space.dim
    2
    >>> space.element({"q1": 3})
    (Fraction(3, 1), Fraction(0, 1))
    >>> cube = MultSpace(["r1", "r2"], relations=[(3, -1)])  # r2 = r1^3
    >>> cube.dim
    1
    >>> cube.element({"r1": 1}), cube.element({"r2": 1})
    ((Fraction(1, 3),), (Fraction(1, 1),))
    """

    def __init__(self, generator_names=(), relations=()):
        names = tuple(generator_names)
        if len(set(names)) != len(names):
            raise ValidationError("multiplicative generator names must be unique")
        for name in names:
            if not name:
                raise ValidationError("multiplicative generator names must be nonempty")
        self.generator_names = names
        self._index = {name: i for i, name in enumerate(names)}
        try:
            self.quotient = QuotientSpace(len(names), relations)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    @property
    def dim(self):
        return self.quotient.dim

    def element(self, exponents):
        """Coordinates of a product of generator powers.

        ``exponents`` is either a mapping from generator names to rational
        exponents or a full exponent vector in generator order.
        """
        if isinstance(exponents, dict):
            vec = [rat(0)] * len(self.generator_names)
            for name, e in exponents.items():
                if name not in self._index:
                    raise ValidationError(
                        "unknown multiplicative generator %r" % (name,))
                vec[self._index[name]] = rat(e)
        else:
            vec = [rat(e) for e in exponents]
            if len(vec) != len(self.generator_names):
                raise ValidationError(
                    "exponent vector has length %d, expected %d"
                    % (len(vec), len(self.generator_names)))
        return self.quotient.project(vec)

    def __repr__(self):
        return "MultSpace(%r, dim=%d)" % (list(self.generator_names), self.dim)
