"""Tests for group actions on lattices."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motcalc import lattices
from motcalc.exactlin import RatMatrix, Subspace
from motcalc.lattices import (
    TRIVIAL_GROUP,
    ActionGroup,
    GaloisLattice,
    dual,
    stable_closure,
    tensor,
)

SWAP = RatMatrix.from_rows([[0, 1], [1, 0]])


def swap_lattice():
    return GaloisLattice(2, [SWAP])


def trivial_lattice(rank):
    return GaloisLattice(rank)


def test_action_matrices_must_be_unimodular():
    with pytest.raises(ValueError, match="finite order"):
        GaloisLattice(2, [RatMatrix.from_rows([[2, 0], [0, 1]])])
    with pytest.raises(ValueError, match="integral"):
        GaloisLattice(2, [RatMatrix.from_rows([["1/2", 0], [0, 2]])])


@st.composite
def non_unimodular_matrices(draw):
    """An integer matrix of size 1-4, entries in [-3, 3], with |det| != 1 by sympy."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(abs(sympy.Matrix(rows).det()) != 1)
    return rows


@settings(max_examples=150, deadline=None)
@given(non_unimodular_matrices())
def test_finite_order_rejects_every_non_unimodular_matrix(rows):
    """A matrix of finite order has an integer root of unity as its
    determinant, so the finite-order check alone rejects det 0 and |det| >= 2."""
    with pytest.raises(ValueError, match="finite order"):
        GaloisLattice(len(rows), [RatMatrix.from_rows(rows)])


def test_action_matrices_must_have_finite_order():
    finite = {
        1: [[1, 0], [0, 1]],
        2: [[1, 1], [0, -1]],
        3: [[0, -1], [1, -1]],
        4: [[0, -1], [1, 0]],
        6: [[1, -1], [1, 0]],
    }
    for order, rows in finite.items():
        m = RatMatrix.from_rows(rows)
        power = RatMatrix.identity(2)
        for _ in range(order):
            power = power * m
        assert power == RatMatrix.identity(2)
        assert GaloisLattice(2, [m]).action == (m,)
    # minimal polynomial Phi_3 · Phi_2, distinct factors: order 6
    GaloisLattice(3, [RatMatrix.from_rows([[0, -1, 0], [1, -1, 0], [0, 0, -1]])])
    # the shear and Arnold's cat map are unimodular of infinite order, and
    # so is -1 times the shear, whose minimal polynomial is Phi_2 squared
    for rows in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[-1, 1], [0, -1]]):
        with pytest.raises(ValueError, match="finite order"):
            GaloisLattice(2, [RatMatrix.from_rows(rows)])


def test_relator_mismatch_is_rejected():
    group = ActionGroup(1, relators=[(1, 1)])
    order3 = RatMatrix.from_rows([[0, -1], [1, -1]])
    with pytest.raises(ValueError, match="relator"):
        GaloisLattice(2, [order3], group=group)
    # A consistent relator is accepted.
    ok_group = ActionGroup(1, relators=[(1, 1)])
    assert GaloisLattice(2, [SWAP], group=ok_group).rank == 2
    # The commutator has inverse letters: it holds for commuting
    # generators and fails for SWAP and [[1, 1], [0, -1]], two
    # involutions whose product has order 6.
    commutator = ActionGroup(2, relators=[(1, 2, -1, -2)])
    minus = RatMatrix.identity(2).scale(-1)
    assert GaloisLattice(2, [SWAP, minus], group=commutator).rank == 2
    with pytest.raises(ValueError, match=r"relator \(1, 2, -1, -2\)"):
        GaloisLattice(2, [SWAP, RatMatrix.from_rows([[1, 1], [0, -1]])],
                      group=commutator)
    # Involutions are their own inverses; an element of order 3 is not.
    inverses = ActionGroup(1, relators=[(1, -1), (-1, -1, -1)])
    assert GaloisLattice(2, [order3], group=inverses).rank == 2


def test_tensor_examples():
    t = tensor(trivial_lattice(2), trivial_lattice(3))
    assert t.rank == 6
    assert all(m == RatMatrix.identity(6) for m in t.action)

    assert tensor(trivial_lattice(0), trivial_lattice(5)).rank == 0

    group = ActionGroup(1)
    s = GaloisLattice(2, [SWAP], group=group)
    one = GaloisLattice(1, [RatMatrix.identity(1)], group=group)
    st = tensor(s, one)
    assert st.rank == 2
    assert st.action[0] == SWAP


def test_tensor_basis_order_is_row_major():
    group = ActionGroup(1)
    a = GaloisLattice(2, [RatMatrix.from_rows([[1, 1], [0, -1]])], group=group)
    b = GaloisLattice(2, [RatMatrix.identity(2)], group=group)
    t = tensor(a, b)
    # e_1⊗f_j sits at flat index j-1, e_2⊗f_j at 2+(j-1).
    assert t.action[0].column(2) == (1, 0, -1, 0)


def test_tensor_forms_its_action_on_first_read(monkeypatch):
    calls = []
    original = lattices._kron_rows

    def counting(a, b):
        calls.append((a.rank, b.rank))
        return original(a, b)

    monkeypatch.setattr(lattices, "_kron_rows", counting)
    group = ActionGroup(1)
    a = GaloisLattice(2, [SWAP], group=group)
    b = GaloisLattice(3, [RatMatrix.identity(3).scale(-1)], group=group)
    t = tensor(a, b)
    assert (t.rank, t.group) == (6, group)
    assert calls == []
    # the RatMatrix view is the Kronecker product, formed once
    assert t.action == (SWAP.kron(RatMatrix.identity(3).scale(-1)),)
    assert t.action is t.action
    assert calls == [(2, 3)]
    # equal factors: equal, each side forming its rows once
    assert t == tensor(a, b)
    assert t.integer_action is t.integer_action
    assert calls == [(2, 3), (2, 3)]
    # unequal factors with equal products: (-a) ⊗ (-b) = a ⊗ b
    neg_a = GaloisLattice(2, [SWAP.scale(-1)], group=group)
    neg_b = GaloisLattice(3, [RatMatrix.identity(3)], group=group)
    assert tensor(neg_a, neg_b) == t and t == tensor(neg_a, neg_b)
    assert tensor(a, neg_b) != t
    # a plain lattice with the same matrices is equal either way round
    plain = GaloisLattice(6, t.action, group=group)
    assert plain == t and t == plain
    assert hash(plain) == hash(t)


def test_tensor_group_mismatch():
    with pytest.raises(ValueError):
        tensor(GaloisLattice(1, [RatMatrix.identity(1)]), trivial_lattice(1))


def test_dual_examples():
    assert all(m == RatMatrix.identity(3)
               for m in dual(trivial_lattice(3)).action)
    s = swap_lattice()
    assert dual(s).action[0] == SWAP
    shear = GaloisLattice(2, [RatMatrix.from_rows([[1, 1], [0, -1]])])
    assert dual(dual(shear)) == shear


@st.composite
def finite_actions(draw, generators):
    """Signed permutations of rank 0-4, conjugated by a unimodular U.

    A signed permutation matrix is its own inverse transpose; the
    conjugation makes m^-T differ from m.
    """
    n = draw(st.integers(0, 4))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.integers(-2, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    u = RatMatrix(n, n, u)
    mats = []
    for _ in range(generators):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n,
                              max_size=n))
        sigma = RatMatrix(n, n, [[signs[i] if perm[i] == j else 0
                                  for j in range(n)] for i in range(n)])
        mats.append(u * sigma * u.inverse())
    return n, mats


def matrix_order(m):
    power, order = m, 1
    while power != RatMatrix.identity(m.rows):
        power, order = power * m, order + 1
    return order


def relators_hold(word, generators, rank):
    """Whether ``_validate_relators`` accepts the single relator ``word``."""
    ints = [[[int(x) for x in row] for row in m.row_list()] for m in generators]
    try:
        lattices._validate_relators(ActionGroup(len(generators), [word]), rank, ints)
    except ValueError:
        return False
    return True


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_relators_match_the_letter_by_letter_product(data):
    n, mats = data.draw(finite_actions(2))
    runs = data.draw(st.lists(st.tuples(st.sampled_from((1, -1, 2, -2)),
                                        st.integers(1, 40)), max_size=5))
    word = tuple(k for k, e in runs for _ in range(e))
    product = RatMatrix.identity(n)
    for k in word:
        product = product * (mats[k - 1] if k > 0 else mats[-k - 1].inverse())
    assert relators_hold(word, mats, n) == (product == RatMatrix.identity(n))
    # the word repeated to the order of its product is a relator
    assert relators_hold(word * matrix_order(product), mats, n)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derived_lattices_pass_the_public_checks(data):
    generators = data.draw(st.integers(1, 2))
    xr, xm = data.draw(finite_actions(generators))
    yr, ym = data.draw(finite_actions(generators))
    orders = [math.lcm(matrix_order(a), matrix_order(b)) for a, b in zip(xm, ym)]
    group = ActionGroup(generators, [(k + 1,) * o for k, o in enumerate(orders)])
    x = GaloisLattice(xr, xm, group=group)
    yv = GaloisLattice(yr, ym, group=group)
    for derived in (dual(x), dual(dual(x)), tensor(x, yv), tensor(dual(x), dual(yv))):
        assert GaloisLattice(derived.rank, derived.action, group=group) == derived
    # the dual action keeps the evaluation pairing: (m^-T)^T m = 1
    for m, d in zip(x.action, dual(x).action):
        assert d.transpose() * m == RatMatrix.identity(xr)


# Phi_k for every k with phi(k) <= 4, monic, constant coefficient first
CYCLOTOMIC = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1],
              5: [1, 1, 1, 1, 1], 6: [1, -1, 1], 8: [1, 0, 0, 0, 1],
              10: [1, -1, 1, -1, 1], 12: [1, 0, -1, 0, 1]}


def elementary_product(draw, n, steps):
    """The identity of size n after row additions, then a row negated or not."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(steps) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if draw(st.booleans()):
        m[0] = [-a for a in m[0]]
    return m


@st.composite
def unimodular_matrices(draw):
    """A unimodular integer matrix of rank 1-4, as row lists, of finite order or not.

    Drawn as a conjugated signed permutation, a product of elementary
    matrices, or a conjugated block sum of companion matrices of
    cyclotomic polynomials (orders 5, 8, 10 and 12 are not signed
    permutations' orders in rank <= 4).
    """
    kind = draw(st.sampled_from(("signed", "elementary", "cyclotomic")))
    if kind == "signed":
        n, mats = draw(finite_actions(1).filter(lambda nm: nm[0] > 0))
        return [[int(x) for x in row] for row in mats[0].row_list()]
    n = draw(st.integers(1, 4))
    if kind == "elementary":
        return elementary_product(draw, n, st.integers(1, 6))
    blocks, size = [], 0
    while size < n:
        k = draw(st.sampled_from(sorted(k for k, p in CYCLOTOMIC.items()
                                        if len(p) - 1 <= n - size)))
        blocks.append(CYCLOTOMIC[k])
        size += len(CYCLOTOMIC[k]) - 1
    block_sum = [[0] * n for _ in range(n)]
    at = 0
    for p in blocks:
        d = len(p) - 1
        for i in range(d):
            if i:
                block_sum[at + i][at + i - 1] = 1
            block_sum[at + i][at + d - 1] = -p[i]
        at += d
    u = RatMatrix.from_rows(elementary_product(draw, n, st.integers(0, 3)))
    conjugate = u * RatMatrix.from_rows(block_sum) * u.inverse()
    return [[int(x) for x in row] for row in conjugate.row_list()]


def has_order_at_most_12(m):
    n = len(m)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    power = m
    for _ in range(12):
        if power == identity:
            return True
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)]
                 for row in power]
    return False


@settings(max_examples=200, deadline=None)
@given(unimodular_matrices())
def test_finite_order_check_matches_powers(m):
    """Accepted iff m^k = I for some 1 <= k <= 12.

    12 is the largest order of a finite-order element of GL_n(Z) for
    n <= 4, so the oracle is complete at these ranks.
    """
    matrix = RatMatrix.from_rows(m)
    if has_order_at_most_12(m):
        assert GaloisLattice(len(m), [matrix]).action == (matrix,)
    else:
        with pytest.raises(ValueError, match="finite order"):
            GaloisLattice(len(m), [matrix])


def test_stable_closure_examples():
    s = Subspace(2, [[1, 0]])
    assert stable_closure(trivial_lattice(2), s) == s
    assert stable_closure(swap_lattice(), s) == Subspace.full(2)
    assert stable_closure(swap_lattice(), Subspace.full(2)) == Subspace.full(2)


def test_stable_closure_matches_orbit_oracle():
    # Independent oracle: span the orbit of the basis under words in the
    # generators up to a fixed length; for a finite action a short bound
    # suffices and growth is monotone.
    lat = swap_lattice()
    s = Subspace(2, [[1, 0]])
    orbit = [list(col) for col in s.basis_columns()]
    frontier = list(orbit)
    for _ in range(2):
        frontier = [list(m.apply(v)) for m in lat.action for v in frontier]
        orbit.extend(frontier)
    assert stable_closure(lat, s) == Subspace(2, orbit)


def test_stable_closure_idempotent_monotone():
    rng = random.Random(11)
    order3 = RatMatrix.from_rows([[0, -1, 0], [1, -1, 0], [0, 0, 1]])
    lat = GaloisLattice(3, [order3])
    for _ in range(25):
        vecs = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(rng.randint(0, 2))]
        s = Subspace(3, vecs)
        c = stable_closure(lat, s)
        assert stable_closure(lat, c) == c
        assert c.contains_space(s)
        bigger = stable_closure(lat, Subspace(3, vecs + [[1, 1, 1]]))
        assert bigger.contains_space(c)


def test_trivial_group_is_shared_default():
    assert trivial_lattice(2).group is TRIVIAL_GROUP
    assert trivial_lattice(0).group is TRIVIAL_GROUP


def generator_first_failure(rank, mats, group):
    """The message of the first failing check when each generator's finite
    order (``_has_finite_order``) is tested before the relators, or None."""
    try:
        for m in mats:
            if rank and not lattices._has_finite_order(m):
                raise ValueError("action matrices must have finite order")
        lattices._validate_relators(group, rank, mats)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def relator_presentations(draw):
    """One or two integer generators of one rank 1-4, unimodular or not,
    with relators g^k and g^-k (k <= 12) and mixed words."""
    pick = st.one_of(unimodular_matrices(), non_unimodular_matrices())
    first = draw(pick)
    n = len(first)
    mats = [first] + [draw(pick.filter(lambda m: len(m) == n))
                      for _ in range(draw(st.integers(0, 1)))]
    letters = [k for g in range(1, len(mats) + 1) for k in (g, -g)]
    # 8, 10 and 12 are multiples of every order of a finite-order matrix here
    exponent = st.one_of(st.sampled_from((8, 10, 12)), st.integers(1, 12))
    power = st.tuples(st.sampled_from(letters), exponent).map(
        lambda t: (t[0],) * t[1])
    mixed = st.lists(st.sampled_from(letters), min_size=1, max_size=8).map(tuple)
    relators = draw(st.lists(st.one_of(power, mixed), max_size=3))
    return n, mats, ActionGroup(len(mats), relators)


@settings(max_examples=300, deadline=None)
@given(relator_presentations())
def test_relator_first_checks_decide_as_the_generator_first_oracle(case):
    """Same accept or reject, and the same message, whether the matrices
    come as RatMatrix or as int rows."""
    n, mats, group = case
    expected = generator_first_failure(n, mats, group)
    for given_as in ([RatMatrix.from_rows(m) for m in mats], mats):
        try:
            GaloisLattice(n, given_as, group=group)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected


IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
SHEAR = [[1, 1], [0, 1]]
HALF = [[Fraction(1, 2), 0], [0, 1]]
ORDER3 = [[0, -1], [1, -1]]
MINUS = [[-1, 0], [0, -1]]
FINITE = "action matrices must have finite order"


@pytest.mark.parametrize("mats, group, message", [
    ([IDENTITY3], ActionGroup(2), "one action matrix per group generator required"),
    ([SHEAR, IDENTITY3], None, FINITE),
    ([HALF, SHEAR], None, "action matrices must be integral"),
    ([SHEAR, HALF], None, FINITE),
    ([[[0, 1], [1, 0]], SHEAR], ActionGroup(2, [(1, 1), (2, 2)]), FINITE),
    ([ORDER3], ActionGroup(1, [(1, 1)]),
     "relator (1, 1) does not evaluate to the identity on rank-2 lattice"),
    ([[[0, 1], [1, 0]], MINUS], ActionGroup(2, [(1, 1), (1, 2)]),
     "relator (1, 2) does not evaluate to the identity on rank-2 lattice"),
])
def test_the_first_failure_names_the_mixed_fault_met_first(mats, group, message):
    """Count, then each generator in turn (shape, integrality, finite
    order), then the relators: the same message from RatMatrix and rows."""
    for given_as in ([RatMatrix.from_rows(m) for m in mats], mats):
        with pytest.raises(ValueError) as exc:
            GaloisLattice(2, given_as, group=group)
        assert str(exc.value) == message


def test_a_power_of_one_letter_pins_that_generator(monkeypatch):
    calls = []
    original = lattices._has_finite_order

    def counting(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(lattices, "_has_finite_order", counting)
    order3 = RatMatrix.from_rows([[0, -1], [1, -1]])
    for relators, tested in ([[(1, 1, 1)], 0], [[(1,) * 6], 0], [[], 1],
                             [[(-1, -1, -1)], 1], [[(1, -1)], 1]):
        calls.clear()
        GaloisLattice(2, [order3], group=ActionGroup(1, relators))
        assert len(calls) == tested, relators
    # g1^2 pins only the first generator
    calls.clear()
    GaloisLattice(2, [SWAP, order3], group=ActionGroup(2, [(1, 1)]))
    assert calls == [2]
    # a failing relator puts finite order first: the shear's message wins
    shear = RatMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="finite order"):
        GaloisLattice(2, [shear], group=ActionGroup(1, [(1, 1)]))


def test_a_long_power_of_an_infinite_order_matrix_is_given_up_early(monkeypatch):
    """A pin word g^5000 on Arnold's cat map, whose powers grow
    exponentially: the relators give up past (2·2)^2 = 16, after 4
    products, and the finite-order test then rejects the map."""
    calls = []
    original = lattices._int_matmul

    def counting(a, b):
        calls.append(len(a))
        return original(a, b)

    monkeypatch.setattr(lattices, "_int_matmul", counting)
    cat = RatMatrix.from_rows([[2, 1], [1, 1]])
    with pytest.raises(ValueError, match="finite order"):
        GaloisLattice(2, [cat], group=ActionGroup(1, [(1,) * 5000]))
    assert len(calls) == 4

def test_dual_forms_its_matrices_on_first_read(monkeypatch):
    calls = []
    original = lattices._int_inverse

    def counting(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(lattices, "_int_inverse", counting)
    shear = GaloisLattice(2, [RatMatrix.from_rows([[1, 1], [0, -1]])])
    d = dual(shear)
    assert calls == []
    assert d.integer_action == (((1, 0), (1, -1)),)
    assert calls == [2]
    assert d.action[0] == RatMatrix.from_rows([[1, 0], [1, -1]])
    assert d.action is d.action
    assert calls == [2]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dual_action_is_the_inverse_transpose(data):
    n, mats = data.draw(finite_actions(2))
    orders = [matrix_order(m) for m in mats]
    group = ActionGroup(2, [(k + 1,) * o for k, o in enumerate(orders)])
    x = GaloisLattice(n, mats, group=group)
    assert dual(x).action == tuple(m.inverse().transpose() for m in mats)
    assert dual(dual(x)) == x and x == dual(dual(x))
    assert hash(dual(dual(x))) == hash(x)
