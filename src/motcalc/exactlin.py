"""Exact linear algebra over Q and Z.

Everything downstream runs on the three types defined here:

* ``RatMatrix``: an immutable matrix of ``fractions.Fraction`` entries.
  All arithmetic is exact; no floating point exists anywhere in the
  package.  Products (``*`` and ``apply``) write each row of the left
  operand and each column of the right one as integers over their
  common denominator, take integer dot products, and divide once, so
  they return the same exact ``Fraction``s with far fewer rational
  operations.  Elimination (``rref``, ``det``, ``inverse``, ``kernel``
  and every ``Subspace``) runs on integer rows too, in one fraction-free
  Gauss–Jordan kernel that divides exactly by the previous pivot
  (E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
  Gaussian elimination", Math. Comp. 22 (1968)) and touches only the
  rows a step changes.  The checks of integral
  actions (``lattices``, ``motive``) run on plain ints, multiplied by
  ``_int_matmul``.
* ``Subspace``: a subspace of Q^n, held as the integer rows of its
  reduced row echelon basis over one least denominator, and their
  pivots: a canonical form, so that equality is structural.  Spans,
  membership, containment and ``QuotientSpace`` coordinates never leave
  the integers; ``Fraction`` rows are built only when read.
* ``IntLattice``: a finitely generated subgroup of Z^n with a Hermite
  style echelon generator matrix (canonical only when every pivot is 1);
  ``saturate`` intersects its Q-span with the ambient Z^n (the "up to
  isogeny" normalization).

``Subspace``, the points and psi hold int rows over the least positive
den.  Only this module converts that form: ``_integer_rows``, ``_least``
and ``_stacked`` build it, ``_scaled`` multiplies it by an int,
``_fraction_row`` reads a row back as ``Fraction``s, with one shared zero,
and ``_text_row`` writes a row's text, the one place a rational's text is
formed.

Zero-dimensional ambients are legal everywhere: degenerate inputs
(rank-0 lattices, empty point tuples) are first-class test cases, not
errors.

>>> kernel(RatMatrix.from_rows([[1, 2]])).basis_columns()
[(Fraction(1, 1), Fraction(-1, 2))]
>>> saturate(IntLattice(2, [(2, 4)])).generators
((1, 2),)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain, islice
from operator import add, mul
from typing import Iterable, Sequence


_ZERO = Fraction(0)
_ONE = Fraction(1)
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _ratio(text: str) -> tuple:
    """(p, q), q > 0, for a rational as a string: "p" or "p/q" in ASCII digits, p signed or not."""
    try:
        return int((match := _RATIONAL.fullmatch(text))[1]), int(match[2] or 1)
    except (TypeError, ValueError):  # no match, or past int's digit limit
        raise ValueError(f"cannot parse {text!r} as a rational") from None


def rat(x) -> Fraction:
    """Coerce an int, a string of ``_ratio``'s grammar, or a Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(*_ratio(x)) if isinstance(x, str) else Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _integer_row(vec: Sequence) -> tuple:
    """(ints, d) with vec[k] == ints[k] / d, d the lcm of the denominators of
    the entries (ints, Fractions, or anything ``rat`` reads)."""
    try:
        dens = [x.denominator for x in vec]
    except AttributeError:
        vec = [rat(x) for x in vec]
        dens = [x.denominator for x in vec]
    d = math.lcm(*dens)
    if d == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (d // e) for x, e in zip(vec, dens)], d


def _integer_rows(rows: Sequence[Sequence]) -> tuple:
    """(ints, d) with rows[i][k] == ints[i][k] / d: one d, the lcm of every denominator."""
    flat, d = _integer_row([x for row in rows for x in row])
    entries = iter(flat)
    return [list(islice(entries, len(row))) for row in rows], d


def _least(row: Sequence[int], den: int) -> tuple:
    """The integer form (row, den), den > 0, at the least den."""
    g = math.gcd(den, *row)
    return tuple(x // g for x in row), den // g


def _stacked(forms: Sequence[tuple]) -> tuple:
    """One integer form (rows, den) of rows given each as its own least (row, d)."""
    den = math.lcm(*(d for _, d in forms))
    if den == 1:
        return tuple(tuple(row) for row, _ in forms), 1
    return tuple(tuple(x * (den // d) for x in row) for row, d in forms), den


def _fraction_row(row: Iterable[int], den: int) -> tuple:
    """The ints ``row`` over ``den`` as ``Fraction``s, each zero the shared ``_ZERO``."""
    return tuple(Fraction(x, den) if x else _ZERO for x in row)


def _text_row(row: Iterable[int], den: int = 1) -> list:
    """The ints ``row`` over ``den`` > 0 as text: each entry is
    str(Fraction(x, den)), "p" or "p/q" in lowest terms, with no Fraction
    built.  At den 1 each entry is written with str, so a row of
    ``Fraction``s is written as it is."""
    if den == 1:
        return list(map(str, row))
    out = []
    for x in row:
        g = math.gcd(x, den)
        out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return out


def _scaled(form: tuple, k: int) -> tuple:
    """k times the integer form (rows, den), at the least den again:
    k·rows/den is (k/g)·rows over den/g, with g = gcd(k, den)."""
    rows, den = form
    g = math.gcd(k, den)
    k //= g
    return tuple(tuple(k * x for x in row) for row in rows), den // g


def _int_matmul(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list:
    """The integer product A·B, from the rows of A and the columns of B, as row lists."""
    return [[sum(map(mul, a, b)) for b in cols] for a in rows]


def _gauss_jordan(rows: list, ncols: int) -> tuple:
    """Fraction-free Gauss–Jordan elimination of integer rows, in place.

    The step with pivot p = rows[r][c] replaces every other row by
    (p·row − row[c]·rows[r]) // prev, where prev is the pivot of the step
    before (1 at the first).  Each entry is then, up to sign, a minor of the
    input, so every division is exact (Bareiss 1968).
    At the end each pivot row holds the last pivot at its pivot column and
    zeros in the other pivot columns, and the rows below the pivot rows are
    zero in the first ``ncols`` columns (so zero when ``ncols`` is the
    width): the reduced echelon form is the pivot rows divided by the last
    pivot.

    A step touches only the rows it changes.  Each row keeps a scale, the
    pivot at which it was last formed (1 for an input row): the row as
    eliminated above is the row held times prev // scale.  A step brings
    its pivot row, and each row with a nonzero entry in the pivot column,
    to prev first (``x * prev // scale``), then gives them the new pivot as
    their scale; a row with a zero entry there is left alone, where the
    formula above would only multiply it by p // prev.  One pass at the end
    brings every row to the last pivot.  This is exact: a row left alone
    from the step with pivot p_k to the step with pivot p_m, eliminated as
    above, is the row held times p_m / p_k, and that is an integer row.

    Pivots are sought in the first ``ncols`` columns only, so rows [A | B]
    with A square, invertible and ``ncols`` wide end as last·[I | A⁻¹B].

    Returns:
        (rows, pivots, last_pivot, swap_sign), with pivots the pivot
        columns in row order.  For a square input of full rank,
        swap_sign · last_pivot is its determinant.
    """
    nrows = len(rows)
    scales = [1] * nrows
    pivots = []
    prev = 1
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for p in range(r, nrows):
            if rows[p][c]:
                break
        else:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            scales[r], scales[p] = scales[p], scales[r]
            sign = -sign
        top = rows[r]
        k = scales[r]
        if k != prev:
            top = rows[r] = [x * prev // k for x in top]
        pc = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            k = scales[i]
            if k != prev:
                row = [x * prev // k for x in row]
                f = row[c]
            rows[i] = [(pc * a - f * b) // prev for a, b in zip(row, top)]
            scales[i] = pc
        scales[r] = pc
        prev = pc
        pivots.append(c)
    for i, k in enumerate(scales):
        if k != prev:
            rows[i] = [x * prev // k for x in rows[i]]
    return rows, pivots, prev, sign


class RatMatrix:
    """An immutable rows x cols matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable]) -> None:
        data = tuple(tuple(rat(x) for x in row) for row in entries)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError(f"entry grid does not match shape {rows}x{cols}")
        self.rows, self.cols, self._entries = rows, cols, data

    @classmethod
    def _of(cls, rows: int, cols: int, data: tuple) -> "RatMatrix":
        """Wrap a rows x cols tuple of ``Fraction`` tuples as it is, unchecked."""
        m = object.__new__(cls)
        m.rows, m.cols, m._entries = rows, cols, data
        return m

    # ----- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        rows = tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))
        return cls._of(n, n, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._of(rows, cols, ((_ZERO,) * cols,) * rows)

    # ----- access -------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        return self._entries[ij[0]][ij[1]]

    def row(self, i: int) -> tuple:
        return self._entries[i]

    def column(self, j: int) -> tuple:
        return tuple(self._entries[i][j] for i in range(self.rows))

    def row_list(self) -> list:
        return [list(r) for r in self._entries]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._entries for x in row)

    # ----- structural ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and (self.rows, self.cols, self._entries) == (
            other.rows, other.cols, other._entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._entries)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # ----- arithmetic ---------------------------------------------------

    def _same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix._of(
            self.rows,
            self.cols,
            tuple(tuple(map(add, a, b)) for a, b in zip(self._entries, other._entries)),
        )

    def scale(self, q) -> "RatMatrix":
        q = rat(q)
        return RatMatrix._of(
            self.rows, self.cols, tuple(tuple(q * x for x in row) for row in self._entries)
        )

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        left = [_integer_row(row) for row in self._entries]
        right = [_integer_row(col) for col in other.transpose()._entries]
        zero_row = (_ZERO,) * other.cols
        return RatMatrix._of(
            self.rows,
            other.cols,
            tuple(
                tuple(
                    Fraction(x, da * db) if (x := sum(map(mul, a, b))) else _ZERO
                    for b, db in right
                )
                if any(a)
                else zero_row
                for a, da in left
            ),
        )

    def apply(self, vec: Sequence) -> tuple:
        """Multiply by a column vector, returning a tuple of Fractions."""
        v, dv = _integer_row(tuple(vec))
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            Fraction(sum(map(mul, a, v)), da * dv)
            for a, da in map(_integer_row, self._entries)
        )

    def transpose(self) -> "RatMatrix":
        columns = tuple(zip(*self._entries)) if self.rows else ((),) * self.cols
        return RatMatrix._of(self.cols, self.rows, columns)

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker product; row-major block ordering."""
        out = tuple(
            tuple(x * y for x in row for y in other_row)
            for row in self._entries
            for other_row in other._entries
        )
        return RatMatrix._of(self.rows * other.rows, self.cols * other.cols, out)

    # ----- elimination --------------------------------------------------

    def rref(self) -> tuple:
        """Reduced row echelon form.

        Returns:
            (R, pivots) with R the RREF matrix and pivots the list of
            pivot column indices in row order.
        """
        rows, pivots, last, _ = _gauss_jordan(
            [_integer_row(row)[0] for row in self._entries], self.cols
        )
        reduced = tuple(_fraction_row(row, last) for row in rows)
        return RatMatrix._of(self.rows, self.cols, reduced), pivots

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        ints, d = _integer_rows(self._entries)
        _, pivots, last, sign = _gauss_jordan(ints, self.rows)
        return Fraction(sign * last, d ** self.rows) if len(pivots) == self.rows else _ZERO

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        scaled = enumerate(map(_integer_row, self._entries))
        # [d_i·row_i | d_i·e_i] reduces to last·[I | A⁻¹]
        aug = [ints + [d * (i == j) for j in range(n)] for i, (ints, d) in scaled]
        rows, pivots, last, _ = _gauss_jordan(aug, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return RatMatrix._of(n, n, tuple(_fraction_row(row[n:], last) for row in rows))


def _reduce(den: int, echelon: Iterable, vec: Sequence[int]) -> list:
    """den·vec minus vec[p]·row for each (pivot p, row) of ``echelon``, the
    integer rows of a reduced echelon basis over ``den`` (den at its own pivot,
    0 at the others): den times vec reduced against the basis, zero iff vec
    lies in the span."""
    out = [den * a for a in vec] if den != 1 else list(vec)
    for p, row in echelon:
        f = vec[p]
        if f:
            out = [a - f * b for a, b in zip(out, row)]
    return out


def _echelon(rows: list, ncols: int) -> tuple:
    """(den, ints, pivots), the canonical form of the span of integer rows:
    ``_gauss_jordan`` leaves each pivot row last·(its RREF row), and dividing
    by gcd(last, every entry), signed as last, leaves the least den > 0."""
    rows, pivots, last, _ = _gauss_jordan(rows, ncols)
    top = rows[: len(pivots)]
    g = math.gcd(last, *chain.from_iterable(top))
    if last < 0:
        g = -g
    if g == 1:
        return last, tuple(map(tuple, top)), tuple(pivots)
    return last // g, tuple(tuple(x // g for x in row) for row in top), tuple(pivots)


class Subspace:
    """A subspace of Q^n held as its reduced row echelon basis, in integers.

    ``ints`` are the nonzero RREF rows of any spanning set times ``den``,
    the least positive integer that makes them integral (so gcd(den, every
    entry) = 1), and ``pivots`` their pivot columns.  The RREF is unique, so
    equality and hashing are structural on (ambient_dim, den, ints).
    Membership and containment reduce against ``ints`` (``_reduce``);
    ``rows`` is the RREF as ``Fraction`` tuples, built on first read.
    """

    __slots__ = ("ambient_dim", "den", "ints", "pivots", "_rows")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]) -> None:
        rows = [_integer_row(tuple(v))[0] for v in vectors]
        if any(len(v) != ambient_dim for v in rows):
            raise ValueError("vector length does not match ambient dimension")
        self.ambient_dim, self._rows = ambient_dim, None
        self.den, self.ints, self.pivots = _echelon(rows, ambient_dim)

    @classmethod
    def _of(cls, ambient_dim: int, den: int, ints: tuple, pivots: tuple) -> "Subspace":
        """Wrap a canonical integer echelon form (see the class) as it is, unchecked."""
        space = object.__new__(cls)
        space.ambient_dim, space.den, space.ints, space.pivots = ambient_dim, den, ints, pivots
        space._rows = None
        return space

    @classmethod
    def _span(cls, ambient_dim: int, rows: list) -> "Subspace":
        """The span of integer rows of length ambient_dim, unchecked."""
        return cls._of(ambient_dim, *_echelon(rows, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._of(ambient_dim, 1, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RatMatrix.identity(ambient_dim).row_list())

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> tuple:
        """The reduced echelon rows as ``Fraction`` tuples, built on first read."""
        if self._rows is None:
            self._rows = tuple(_fraction_row(row, self.den) for row in self.ints)
        return self._rows

    def basis_columns(self) -> list:
        return list(self.rows)

    def contains(self, vec: Sequence) -> bool:
        v = _integer_row(tuple(vec))[0]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return not any(_reduce(self.den, zip(self.pivots, self.ints), v))

    def contains_space(self, other: "Subspace") -> bool:
        """other ⊆ self: every echelon row of other reduces to zero.  Nothing
        is reduced when self is all of Q^n."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == self.ambient_dim:
            return True
        echelon = tuple(zip(self.pivots, self.ints))
        return all(not any(_reduce(self.den, echelon, row)) for row in other.ints)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and (self.ambient_dim, self.den, self.ints) == (
            other.ambient_dim, other.den, other.ints)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.den, self.ints))

    def __repr__(self) -> str:
        cols = ", ".join("(" + ", ".join(map(str, row)) + ")" for row in self.rows)
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: {cols})"


def kernel(m: RatMatrix) -> Subspace:
    """The exact null space {v : m·v = 0} of a rational matrix."""
    red, pivots = m.rref()
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -red[r, f]
        vectors.append(v)
    return Subspace(m.cols, vectors)


def annihilator(s: Subspace) -> Subspace:
    """{w : w·v = 0 for all v in s}, so dim(s) + dim(result) = ambient_dim."""
    return kernel(RatMatrix._of(s.dim, s.ambient_dim, s.rows))


def space_sum(a: Subspace, b: Subspace) -> Subspace:
    """Exact subspace sum a + b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace._span(a.ambient_dim, [*a.ints, *b.ints])


def space_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact subspace intersection a ∩ b, by Zassenhaus's sum: the rows (u, u)
    for u in a and (w, 0) for w in b span {(u + w, u)}, and its echelon rows
    with a pivot past n are the (0, u) with u = -w in a ∩ b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    _, ints, pivots = _echelon([u + u for u in a.ints] + [w + (0,) * n for w in b.ints], 2 * n)
    return Subspace._span(n, [row[n:] for row, p in zip(ints, pivots) if p >= n])


class QuotientSpace:
    """Q^k modulo the span of declared relation vectors.

    ``relations`` is that span as a ``Subspace``, and ``free`` the columns
    that are not its pivots.  A vector reduced against the relation rows
    is zero at every pivot, so its entries at the free columns are its
    canonical coordinates: two presentations with the same relation span
    give bit-identical coordinates.  With no relations, ``relations`` is
    ``Subspace.zero`` and nothing is eliminated.

    >>> q = QuotientSpace(2, [(-2, 1)])   # second generator is twice the first
    >>> q.dim
    1
    >>> q.project((1, 0)), q.project((0, 1))
    ((Fraction(1, 2),), (Fraction(1, 1),))
    """

    __slots__ = ("relations", "free")

    def __init__(self, ambient_dim: int, relations=()):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be >= 0")
        relations = tuple(relations)
        self.relations = (Subspace(ambient_dim, relations) if relations
                          else Subspace.zero(ambient_dim))
        pivots = set(self.relations.pivots)
        self.free = tuple(j for j in range(ambient_dim) if j not in pivots)

    @property
    def ambient_dim(self) -> int:
        return self.relations.ambient_dim

    @property
    def dim(self) -> int:
        return len(self.free)

    def _coords(self, ints: Sequence[int], den: int) -> tuple:
        """Quotient coordinates of the vector ints/den, both integer forms at the least den."""
        if len(ints) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        rel = self.relations
        if not rel.pivots:  # no relations: the vector is its own image
            return tuple(ints), den
        v = _reduce(rel.den, zip(rel.pivots, rel.ints), ints)
        return _least([v[j] for j in self.free], rel.den * den)

    def project(self, vec) -> tuple:
        """Quotient coordinates of an ambient vector, as ``Fraction``s."""
        return _fraction_row(*self._coords(*_integer_row(tuple(vec))))


# ----- integer lattices --------------------------------------------------


def _hermite_rows(rows: list) -> list:
    """Row echelon basis of the lattice spanned by integer rows.

    Pivots are positive and the entries above each pivot are reduced
    modulo it, from the last pivot up.  That order makes the form not
    canonical: reducing a row against an earlier pivot row can move the
    entries above a later pivot > 1 out of range again.  So one lattice
    can get different rows from different generators:
    [(1,0,5), (0,1,3), (0,0,2)] gives (1,0,1) on top, and
    [(1,1,8), (0,1,3), (0,0,2)] gives (1,0,-1).  With every pivot 1
    nothing is left above a pivot, and the rows are canonical.
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    out = []
    pivot_col = 0
    work = m
    while work and pivot_col < ncols:
        nonzero = [r for r in work if r[pivot_col] != 0]
        rest = [r for r in work if r[pivot_col] == 0]
        if not nonzero:
            work = rest
            pivot_col += 1
            continue
        # Euclid on the pivot column.
        while len(nonzero) > 1:
            nonzero.sort(key=lambda r: abs(r[pivot_col]))
            base = nonzero[0]
            reduced = []
            for r in nonzero[1:]:
                q = r[pivot_col] // base[pivot_col]
                newr = [a - q * b for a, b in zip(r, base)]
                if any(x != 0 for x in newr):
                    reduced.append(newr)
            nonzero = [base] + [r for r in reduced if r[pivot_col] != 0]
            rest.extend(r for r in reduced if r[pivot_col] == 0 and any(x != 0 for x in r))
        pivot = nonzero[0]
        if pivot[pivot_col] < 0:
            pivot = [-x for x in pivot]
        out.append(pivot)
        work = rest
        pivot_col += 1
    # Reduce entries above each pivot modulo it, last pivot first.
    for i in range(len(out) - 1, -1, -1):
        p = next(c for c in range(ncols) if out[i][c] != 0)
        d = out[i][p]
        for j in range(i):
            q = out[j][p] // d
            if q:
                out[j] = [a - q * b for a, b in zip(out[j], out[i])]
    return out


class IntLattice:
    """A finitely generated subgroup of Z^n, held as ``_hermite_rows``.

    Equal generators give equal lattices, but equal lattices need not
    compare equal: the form is canonical only when every pivot is 1
    (see ``_hermite_rows``).
    """

    __slots__ = ("ambient_rank", "generators")

    def __init__(self, ambient_rank: int, generators: Iterable[Sequence[int]]) -> None:
        self.ambient_rank = ambient_rank
        rows = [[int(x) for x in g] for g in generators]
        if any(len(g) != ambient_rank for g in rows):
            raise ValueError("generator length does not match ambient rank")
        self.generators = tuple(map(tuple, _hermite_rows([g for g in rows if any(g)])))

    @classmethod
    def _of(cls, ambient_rank: int, generators: tuple) -> "IntLattice":
        """Wrap int tuples that are already their own ``_hermite_rows``, unchecked."""
        lattice = object.__new__(cls)
        lattice.ambient_rank, lattice.generators = ambient_rank, generators
        return lattice

    @property
    def rank(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntLattice) and (self.ambient_rank, self.generators) == (
            other.ambient_rank, other.generators)

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.generators))

    def __repr__(self) -> str:
        return f"IntLattice(rank {self.rank} in Z^{self.ambient_rank}: {list(self.generators)})"


def smith_normal_form(m: list) -> tuple:
    """Smith normal form of an integer matrix given as a row list.

    Returns:
        (U, D, V) with U, V unimodular integer row lists and
        U·m·V = D diagonal with the divisibility chain d1 | d2 | ...
    """
    d, u_inv, col_ops = _smith(m)
    u = RatMatrix(len(u_inv), len(u_inv), u_inv).inverse()
    ncols = len(m[0]) if m else 0
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for i, j, q in col_ops:
        for row in v:
            if q is None:
                row[i], row[j] = row[j], row[i]
            else:
                row[i] -= q * row[j]
    return [[int(x) for x in row] for row in u.row_list()], d, v


def _smith(m: list) -> tuple:
    """(D, U⁻¹, column operations) of :func:`smith_normal_form`, D and
    U⁻¹ integer row lists.

    U⁻¹ is kept by undoing each row operation as a column operation, so
    it needs no rational inverse; ``saturate`` reads only D and U⁻¹.
    While the operations run it is held as sparse columns,
    {row: entry}: U⁻¹ starts as the identity and a column operation adds
    a multiple of a column that is mostly still a unit vector, so each
    one touches a few entries, not a whole column.  V is not formed: the
    column operations are listed in order, (i, j, q) for col i -= q·col j
    and (i, j, None) for a swap, and ``smith_normal_form`` replays them
    on the identity.
    """
    a = [list(r) for r in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u_inv_cols = [{k: 1} for k in range(nrows)]
    col_ops = []

    def row_op(i, j, q):  # row i -= q * row j; col j of U⁻¹ += q * col i
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        target = u_inv_cols[j]
        for k, y in u_inv_cols[i].items():
            target[k] = target.get(k, 0) + q * y

    def col_op(i, j, q):  # col i -= q * col j
        for r in range(nrows):
            a[r][i] -= q * a[r][j]
        col_ops.append((i, j, q))

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u_inv_cols[i], u_inv_cols[j] = u_inv_cols[j], u_inv_cols[i]

    def swap_cols(i, j):
        for r in range(nrows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        col_ops.append((i, j, None))

    t = 0
    while t < min(nrows, ncols):
        # Find the nonzero entry of least magnitude in the trailing block.
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce the divisibility chain d_t | a[i][j].
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    row_op(t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u_inv_cols[t] = {k: -x for k, x in u_inv_cols[t].items()}
            t += 1
    u_inv = [[0] * nrows for _ in range(nrows)]
    for c, col in enumerate(u_inv_cols):
        for k, x in col.items():
            u_inv[k][c] = x
    return a, u_inv, col_ops


def saturate(l: IntLattice) -> IntLattice:
    """The saturation (Q-span of l) ∩ Z^n, via Smith normal form.

    With the generators as the columns of M and U·M·V = D, the first
    rank(D) columns of U⁻¹ are a basis of the saturation.
    """
    if l.rank == 0:
        return l
    m = [[g[i] for g in l.generators] for i in range(l.ambient_rank)]
    d, u_inv, _ = _smith(m)
    r = sum(1 for t in range(min(len(d), len(d[0]))) if d[t][t] != 0)
    return IntLattice(l.ambient_rank, [[row[t] for row in u_inv] for t in range(r)])
