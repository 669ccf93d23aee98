"""Finite-group actions on free Z-modules of finite rank.

A Galois action on a character or cocharacter lattice always factors
through a finite quotient, so it is entered here as a tuple of integer
generator matrices, each of finite order (so of determinant +-1), held
as int rows.  The operations are the ones the motive calculus needs:
tensor products (Kronecker, row-major basis order) and duals (inverse
transpose), which hold only the function that forms their rows on first
read; ``action``, the ``RatMatrix`` view, is also formed when read.
``stable_closure`` of a subspace has no caller in the calculus, whose
spans are stable by equivariance; it is kept as the reference the tests
compare those spans against.

An action is checked once, where it enters, in one pass that raises at
the first failure: the public ``GaloisLattice`` constructor tests the
matrix count, then each generator in turn (shape, integrality, then
finite order), then each relator not already found to hold.  A relator
g_k^n, a power of +k alone, that holds proves g_k of finite order; else
the integer minimal polynomial is divided by cyclotomic polynomials,
which forces det +-1.  So the first failure and its message do not
depend on the relators.  ``dual`` and ``tensor`` build their result from
lattices that passed that test, through the unchecked
``GaloisLattice._of``: the dual and the tensor product of
representations of a group are representations of it, with integral
unimodular matrices, so checking them again could not fail.  Finite
order of each generator does not make the group finite; that needs a
search over the group and is not checked.

>>> GaloisLattice(2, [RatMatrix.from_rows([[0, -1], [1, -1]])]).rank  # order 3
2
>>> GaloisLattice(2, [RatMatrix.from_rows([[1, 1], [0, 1]])])  # the shear
Traceback (most recent call last):
ValueError: action matrices must have finite order
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .abelian import _minimal_polynomial, _poly_divmod
from .exactlin import (RatMatrix, Subspace, _gauss_jordan, _int_matmul,
                       _integer_rows, space_sum)


class ActionGroup:
    """A finite group presented by a generator count and optional relators.

    Relators are words in the generators, written as sequences of
    nonzero integers: k means generator k, -k its inverse (1-based).
    They are used only for validation: a lattice whose generator
    matrices do not satisfy every relator is rejected.
    """

    __slots__ = ("generator_count", "relators")

    def __init__(self, generator_count: int = 0, relators: Iterable[Sequence[int]] = ()) -> None:
        if generator_count < 0:
            raise ValueError("generator count must be nonnegative")
        self.generator_count = generator_count
        rel = tuple(tuple(int(k) for k in word) for word in relators)
        for word in rel:
            for k in word:
                if k == 0 or abs(k) > generator_count:
                    raise ValueError(f"relator letter {k} out of range")
        self.relators = rel

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ActionGroup)
            and self.generator_count == other.generator_count
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.generator_count, self.relators))

    def __repr__(self) -> str:
        return f"ActionGroup({self.generator_count} generators)"


TRIVIAL_GROUP = ActionGroup(0)


class GaloisLattice:
    """A free Z-module of finite rank with an ActionGroup acting on it.

    An action matrix is given as a ``RatMatrix`` or as rows of rationals
    and held as int rows (``integer_action``), which equality compares; a
    tensor product or a dual holds instead the function that forms its
    rows on first read.  ``action`` is the ``RatMatrix`` view of the rows,
    formed when it is read.
    """

    __slots__ = ("group", "rank", "_rows", "_action")

    def __init__(
        self,
        rank: int,
        action: Optional[Iterable] = None,
        group: Optional[ActionGroup] = None,
    ) -> None:
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if action is not None:
            action = list(action)
        elif group is not None and group.generator_count:
            # omitted action with an explicit group means the trivial action
            action = [tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))]
            action *= group.generator_count
        else:
            action = []
        if group is None:
            group = ActionGroup(len(action)) if action else TRIVIAL_GROUP
        if len(action) != group.generator_count:
            raise ValueError("one action matrix per group generator required")
        rows, columns, proved = [], {}, set()
        for k, m in enumerate(action, 1):
            rows.append(_integer_matrix(m, rank))
            # a relator g_k^n that holds proves g_k of finite order
            powers = [i for i, w in enumerate(group.relators) if w and set(w) == {k}]
            proved.update(i for i in powers
                          if _holds(group.relators[i], rank, rows, columns, bounded=True))
            if rank and proved.isdisjoint(powers) and not _has_finite_order(rows[-1]):
                raise ValueError("action matrices must have finite order")
        _validate_relators(group, rank, rows, proved, columns)
        self.group, self.rank, self._rows, self._action = group, rank, tuple(rows), None

    @classmethod
    def _of(cls, rank: int, rows, group: ActionGroup) -> "GaloisLattice":
        """Wrap a tuple of int-row action matrices, or a function that
        forms it on first read, as it is, unchecked."""
        lat = object.__new__(cls)
        lat.group, lat.rank, lat._rows, lat._action = group, rank, rows, None
        return lat

    @property
    def integer_action(self) -> tuple:
        """The generator matrices as tuples of int rows."""
        if not isinstance(self._rows, tuple):
            self._rows = self._rows()
        return self._rows

    @property
    def action(self) -> tuple:
        """The generator matrices as ``RatMatrix``, formed on first read."""
        if self._action is None:
            self._action = tuple(RatMatrix(self.rank, self.rank, m)
                                 for m in self.integer_action)
        return self._action

    def __eq__(self, other) -> bool:
        if other is self:  # a double dual holds the motive's own lattices
            return True
        if not (
            isinstance(other, GaloisLattice)
            and self.group == other.group
            and self.rank == other.rank
        ):
            return False
        return self.integer_action == other.integer_action

    def __hash__(self) -> int:
        return hash((self.group, self.rank, self.integer_action))

    def __repr__(self) -> str:
        return f"GaloisLattice(rank {self.rank}, {self.group.generator_count} generators)"


def tensor(a: GaloisLattice, b: GaloisLattice) -> GaloisLattice:
    """Tensor product lattice; basis e_i⊗f_j at flat index (i-1)·rank(b)+j.

    The result forms its matrices, the Kronecker products ma ⊗ mb, on
    first read.  On an element read as the rank(a) x rank(b) table C
    (row-major), ma ⊗ mb is C -> ma·C·mbᵀ, so a caller that has the
    factors can apply it without forming it.

    The result is not checked again.  (a, b) -> a ⊗ b is a homomorphism,
    so a relator that holds on both factors holds on the product; a
    Kronecker product of integral matrices is integral, and
    det(a ⊗ b) = det(a)^rank(b) · det(b)^rank(a) = +-1.
    """
    if a.group != b.group:
        raise ValueError("tensor factors must share an action group")
    return GaloisLattice._of(a.rank * b.rank, lambda: _kron_rows(a, b), a.group)


def _kron_rows(a: GaloisLattice, b: GaloisLattice) -> tuple:
    """The Kronecker products of the int-row generator matrices of a and b."""
    return tuple(tuple(tuple(x * y for x in ra for y in rb) for ra in ma for rb in mb)
                 for ma, mb in zip(a.integer_action, b.integer_action))


def dual(a: GaloisLattice) -> GaloisLattice:
    """Dual lattice; generators act by the inverse transpose.

    The result forms its matrices m^-T, in ints, on first read.  It is
    not checked again.  m -> m^-T is a homomorphism, so a relator that
    holds on a holds on its dual, and the inverse transpose of an
    integral unimodular matrix is integral and unimodular.
    """
    return GaloisLattice._of(
        a.rank, lambda: tuple(tuple(zip(*_int_inverse(m))) for m in a.integer_action),
        a.group)


def _integer_matrix(m, rank: int) -> tuple:
    """A RatMatrix or rows of rationals as a tuple of int rows; a wrong
    shape or a non-integral entry raises."""
    rows = m.row_list() if isinstance(m, RatMatrix) else m
    if len(rows) != rank or any(len(row) != rank for row in rows):
        raise ValueError("action matrix shape does not match rank")
    if all(type(x) is int for row in rows for x in row):
        return tuple(map(tuple, rows))
    ints, d = _integer_rows(rows)
    if d != 1:
        raise ValueError("action matrices must be integral")
    return tuple(map(tuple, ints))


def _int_inverse(m: Sequence[Sequence[int]]) -> list:
    """m⁻¹ as int rows, for an integer matrix m of determinant ±1."""
    n = len(m)
    # [m | I] reduces to last·[I | m⁻¹], and det ±1 makes last ±1
    rows, _, last, _ = _gauss_jordan(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)], n)
    return [[x // last for x in row[n:]] for row in rows]


def _holds(word: Sequence[int], rank: int, action: list, columns: dict,
           bounded: bool = False) -> bool:
    """Whether the relator word multiplies out to I on the integer
    generator matrices.  When bounded, a product with an entry past
    (rank·m)^rank, m the largest entry of the word's generators, counts
    as a failure: a power of a matrix of infinite order grows past it
    fast.  ``columns`` caches each letter's columns, an inverse only for
    a negative letter, which is exact only for determinant ±1."""
    prod = identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    bound = (rank * max([1, *(abs(x) for k in set(word) for row in action[abs(k) - 1]
                              for x in row)])) ** rank if bounded else None
    for k in word:
        if k not in columns:
            m = action[abs(k) - 1]
            columns[k] = list(zip(*(_int_inverse(m) if k < 0 else m)))
        prod = _int_matmul(prod, columns[k])
        if bounded and any(max(row) > bound or -min(row) > bound for row in prod):
            return False
    return prod == identity


def _validate_relators(group: ActionGroup, rank: int, action: list,
                       proved=(), columns: Optional[dict] = None) -> None:
    """Multiply out each relator but those whose index is in ``proved``
    on integer generator matrices of finite order, and reject the first
    that is not I."""
    columns = {} if columns is None else columns
    for i, word in enumerate(group.relators):
        if i not in proved and not _holds(word, rank, action, columns):
            raise ValueError(
                f"relator {word} does not evaluate to the identity on rank-{rank} lattice"
            )


def _has_finite_order(m: list) -> bool:
    """Whether a square integer matrix (row lists) of positive size has finite order.

    It does iff its minimal polynomial is a product of distinct
    cyclotomic polynomials Phi_k.  Each such factor has degree
    phi(k) <= deg, the degree of the minimal polynomial, and
    phi(k) >= sqrt(k/2) bounds k by 2·deg².  Phi_k is built as
    x^k - 1 divided by the Phi_d of the proper divisors d of k, which
    have phi(d) <= phi(k) and so are built before it.
    """
    poly = list(_minimal_polynomial(m))
    deg = len(poly) - 1
    limit = 2 * deg * deg
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    cyclotomic = {}
    for k in range(1, limit + 1):
        if len(poly) == 1:
            break
        if phi[k] > deg:
            continue
        c = [-1] + [0] * (k - 1) + [1]
        for d, phi_d in cyclotomic.items():
            if k % d == 0:
                c = _poly_divmod(c, phi_d)[0]
        cyclotomic[k] = c
        q, rem = _poly_divmod(poly, c)
        if not rem:
            poly = q
    return len(poly) == 1


def stable_closure(l: GaloisLattice, s: Subspace) -> Subspace:
    """Smallest subspace containing s stable under every generator matrix.

    Computed by iterating image sums to a fixpoint; idempotent and
    monotone in s.  For the trivial group this is the identity.
    """
    if s.ambient_dim != l.rank:
        raise ValueError("subspace ambient dimension does not match lattice rank")
    current = s
    while True:
        nxt = current
        for m in l.action:
            image = Subspace(l.rank, [m.apply(col) for col in current.basis_columns()])
            nxt = space_sum(nxt, image)
        if nxt == current:
            return current
        current = nxt

