"""Finite-group actions on free Z-modules of finite rank.

A Galois action on a character or cocharacter lattice always factors
through a finite quotient, so it is entered here as a tuple of integer
generator matrices with determinant +-1.  The operations are the ones
the motive calculus needs: tensor products (Kronecker, row-major basis
order) and duals (inverse transpose).  ``stable_closure`` of a subspace
has no caller in the calculus, whose spans are stable by equivariance;
it is kept as the reference the tests compare those spans against.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .exactlin import RatMatrix, Subspace, space_sum


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
    """A free Z-module of finite rank with an ActionGroup acting on it."""

    __slots__ = ("group", "rank", "action")

    def __init__(
        self,
        rank: int,
        action: Optional[Iterable[RatMatrix]] = None,
        group: Optional[ActionGroup] = None,
    ) -> None:
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if action is not None:
            mats = tuple(action)
        elif group is not None:
            # omitted action with an explicit group means the trivial action
            mats = tuple(RatMatrix.identity(rank) for _ in range(group.generator_count))
        else:
            mats = ()
        if group is None:
            group = ActionGroup(len(mats)) if mats else TRIVIAL_GROUP
        if len(mats) != group.generator_count:
            raise ValueError("one action matrix per group generator required")
        for m in mats:
            if m.rows != rank or m.cols != rank:
                raise ValueError("action matrix shape does not match rank")
            if any(x.denominator != 1 for row in m.row_list() for x in row):
                raise ValueError("action matrices must be integral")
            if rank > 0 and abs(m.det()) != 1:
                raise ValueError("action matrices must have determinant +-1")
        self.group = group
        self.rank = rank
        self.action = mats
        self._validate_relators()

    def _validate_relators(self) -> None:
        for word in self.group.relators:
            prod = RatMatrix.identity(self.rank)
            for k in word:
                m = self.action[abs(k) - 1]
                prod = prod * (m if k > 0 else m.inverse())
            if prod != RatMatrix.identity(self.rank):
                raise ValueError(
                    f"relator {word} does not evaluate to the identity on rank-{self.rank} lattice"
                )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaloisLattice)
            and self.group == other.group
            and self.rank == other.rank
            and self.action == other.action
        )

    def __hash__(self) -> int:
        return hash((self.group, self.rank, self.action))

    def __repr__(self) -> str:
        return f"GaloisLattice(rank {self.rank}, {self.group.generator_count} generators)"

    def is_trivial_action(self) -> bool:
        ident = RatMatrix.identity(self.rank)
        return all(m == ident for m in self.action)


def tensor(a: GaloisLattice, b: GaloisLattice) -> GaloisLattice:
    """Tensor product lattice; basis e_i⊗f_j at flat index (i-1)·rank(b)+j."""
    if a.group != b.group:
        raise ValueError("tensor factors must share an action group")
    return GaloisLattice(
        a.rank * b.rank,
        [ma.kron(mb) for ma, mb in zip(a.action, b.action)],
        group=a.group,
    )


def dual(a: GaloisLattice) -> GaloisLattice:
    """Dual lattice; generators act by the inverse transpose."""
    return GaloisLattice(
        a.rank,
        [m.inverse().transpose() for m in a.action],
        group=a.group,
    )


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

