"""Tests for the 1-motive data model, weights and Cartier duality."""

import pytest

from motcalc.abelian import AbelianVarietyModel, PointVector, link_duals
from motcalc.errors import ValidationError
from motcalc.exactlin import RatMatrix
from motcalc.lattices import ActionGroup, GaloisLattice
from motcalc.motive import (
    OneMotive,
    _PsiForm,
    cartier_dual,
    gr,
    weight_filtration,
)
from motcalc.multgroup import MultSpace


def dual_pair(name="E", n=2):
    a = AbelianVarietyModel(name, 1, point_space_dim=n)
    b = AbelianVarietyModel(name + "*", 1, point_space_dim=n)
    link_duals(a, b)
    return a, b


def torus_motive():
    """[Z -> Gm^3] sending 1 to (q1, q2, 1)."""
    space = MultSpace(["q1", "q2"])
    return OneMotive(
        GaloisLattice(1), GaloisLattice(3), mult_space=space,
        psi=[[space.element({"q1": 1}),
              space.element({"q2": 1}),
              space.element({})]])


def test_torus_motive_weights():
    m = torus_motive()
    assert (m.r, m.g, m.s) == (1, 0, 3)
    wf = weight_filtration(m)
    assert wf.dim_wm1 == 3
    assert wf.dim_wm2 == 3


def test_z0_and_z1_weights():
    z0 = OneMotive(GaloisLattice(1), GaloisLattice(0))
    z1 = OneMotive(GaloisLattice(0), GaloisLattice(1))
    assert (weight_filtration(z0).dim_wm1, weight_filtration(z0).dim_wm2) == (0, 0)
    assert (weight_filtration(z1).dim_wm1, weight_filtration(z1).dim_wm2) == (1, 1)


def test_weights_with_abelian_part():
    a, astar = dual_pair()
    m = OneMotive(GaloisLattice(2), GaloisLattice(0), A=a, Astar=astar,
                  v=PointVector(a, [[1, 0], [0, 1]]))
    wf = weight_filtration(m)
    assert (wf.dim_wm1, wf.dim_wm2) == (1, 0)


def test_gr_pieces():
    m = torus_motive()
    pieces = gr(m)
    assert pieces.gr0.rank == 1
    assert pieces.grm1 is None
    assert pieces.grm2.rank == 3

    a, astar = dual_pair()
    with_a = OneMotive(GaloisLattice(2), GaloisLattice(0), A=a, Astar=astar,
                       v=PointVector(a, [[1, 0], [0, 1]]))
    pieces = gr(with_a)
    assert pieces.gr0.rank == 2
    assert pieces.grm1 is a
    assert pieces.grm2.rank == 0


def test_gr_uses_cocharacters():
    action = RatMatrix.from_rows([[0, -1], [1, -1]])  # order 3
    group = ActionGroup(1)
    yv = GaloisLattice(2, action=[action], group=group)
    m = OneMotive(GaloisLattice(0, group=group), yv)
    pieces = gr(m)
    # cocharacter action is the inverse transpose of the character action
    assert pieces.grm2.action[0] == action.inverse().transpose()


def test_cartier_dual_z0_is_z1():
    z0 = OneMotive(GaloisLattice(1), GaloisLattice(0))
    d = cartier_dual(z0)
    assert (d.r, d.g, d.s) == (0, 0, 1)
    wf = weight_filtration(d)
    assert (wf.dim_wm1, wf.dim_wm2) == (1, 1)


def test_cartier_dual_swaps_points():
    a, astar = dual_pair()
    space = MultSpace(["q"])
    m = OneMotive(GaloisLattice(1), GaloisLattice(1), A=a, Astar=astar,
                  v=PointVector(a, [[1, 0]]),
                  vstar=PointVector(astar, [[0, 1]]),
                  mult_space=space, psi=[[space.element({"q": 1})]])
    d = cartier_dual(m)
    assert d.A is astar and d.Astar is a
    assert d.v.coords == m.vstar.coords
    assert d.vstar.coords == m.v.coords
    assert d.psi[0][0] == m.psi[0][0]


def test_cartier_dual_transposes_psi():
    space = MultSpace(["q1", "q2"])
    m = OneMotive(GaloisLattice(2), GaloisLattice(1), mult_space=space,
                  psi=[[space.element({"q1": 1})], [space.element({"q2": 1})]])
    d = cartier_dual(m)
    assert d.psi == (
        (space.element({"q1": 1}), space.element({"q2": 1})),
    )


def test_cartier_dual_is_involution():
    a, astar = dual_pair()
    space = MultSpace(["q"])
    m = OneMotive(GaloisLattice(1), GaloisLattice(1), A=a, Astar=astar,
                  v=PointVector(a, [[1, 0]]),
                  vstar=PointVector(astar, [[0, 1]]),
                  mult_space=space, psi=[[space.element({"q": 1})]],
                  name="M")
    dd = cartier_dual(cartier_dual(m))
    assert dd.structurally_equal(m)

    t = torus_motive()
    assert cartier_dual(cartier_dual(t)).structurally_equal(t)


def test_gr_of_dual_swaps_roles():
    m = torus_motive()
    pieces = gr(cartier_dual(m))
    assert pieces.gr0 == m.Yv
    assert pieces.grm2.rank == m.X.rank


def test_validation_requires_registered_dual():
    a = AbelianVarietyModel("A", 1, point_space_dim=2)
    b = AbelianVarietyModel("B", 1, point_space_dim=2)
    with pytest.raises(ValidationError):
        OneMotive(GaloisLattice(1), GaloisLattice(0), A=a, Astar=b,
                  v=PointVector(a, [[1, 0]]))


def test_validation_rejects_half_dual_data():
    a, astar = dual_pair()
    with pytest.raises(ValidationError):
        OneMotive(GaloisLattice(0), GaloisLattice(0), A=a, Astar=None)


def test_validation_multiplicity():
    a, astar = dual_pair()
    with pytest.raises(ValidationError):
        OneMotive(GaloisLattice(2), GaloisLattice(0), A=a, Astar=astar,
                  v=PointVector(a, [[1, 0]]))


def test_validation_points_without_abelian_part():
    a, _ = dual_pair()
    with pytest.raises(ValidationError):
        OneMotive(GaloisLattice(1), GaloisLattice(0),
                  v=PointVector(a, [[1, 0]]))


def test_validation_psi_shape():
    space = MultSpace(["q"])
    with pytest.raises(ValidationError):
        OneMotive(GaloisLattice(1), GaloisLattice(2), mult_space=space,
                  psi=[[space.element({"q": 1})]])
    with pytest.raises(ValidationError):
        OneMotive(GaloisLattice(1), GaloisLattice(1), mult_space=space,
                  psi=[[(1, 2)]])
    # the integer form the parser hands over is checked as the table is
    with pytest.raises(ValidationError, match="r x s matrix"):
        OneMotive(GaloisLattice(1), GaloisLattice(2), mult_space=space,
                  psi=_PsiForm((((1,),), 1)))
    with pytest.raises(ValidationError, match="has 2 coordinates"):
        OneMotive(GaloisLattice(1), GaloisLattice(1), mult_space=space,
                  psi=_PsiForm((((1,), (2,)), 1)))


def test_validation_group_mismatch():
    group = ActionGroup(1)
    x = GaloisLattice(1, action=[RatMatrix.identity(1)], group=group)
    with pytest.raises(ValidationError):
        OneMotive(x, GaloisLattice(1))


def test_equivariance_of_v():
    a, astar = dual_pair()
    group = ActionGroup(1, relators=[(1, 1)])
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    x = GaloisLattice(2, action=[swap], group=group)
    yv = GaloisLattice(0, group=group)
    # v constant on the swapped basis vectors is equivariant
    for points in ([[1, 0], [1, 0]], [["1/2", 0], ["1/2", 0]]):
        OneMotive(x, yv, A=a, Astar=astar, v=PointVector(a, points))
    # [[1/2, 0], [1, 0]] is not: scaled point by point it would read as
    # [[1, 0], [1, 0]], so the check needs one denominator for all of v
    for points in ([[1, 0], [0, 1]], [["1/2", 0], [1, 0]]):
        with pytest.raises(ValidationError, match="v is not equivariant"):
            OneMotive(x, yv, A=a, Astar=astar, v=PointVector(a, points))


def test_equivariance_of_vstar():
    a, astar = dual_pair()
    group = ActionGroup(1, relators=[(1, 1)])
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    x = GaloisLattice(0, group=group)
    yv = GaloisLattice(2, action=[swap], group=group)
    with pytest.raises(ValidationError):
        OneMotive(x, yv, A=a, Astar=astar,
                  vstar=PointVector(astar, [[1, 0], [0, 1]]))


def test_equivariance_of_psi():
    group = ActionGroup(1, relators=[(1, 1)])
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    x = GaloisLattice(2, action=[swap], group=group)
    yv = GaloisLattice(1, action=[RatMatrix.identity(1)], group=group)
    space = MultSpace(["q1", "q2"])
    same = space.element({"q1": 1})
    OneMotive(x, yv, mult_space=space, psi=[[same], [same]])
    # the second pair is the psi component [[1/2], [1]], which looks
    # constant when each row is scaled by its own denominator
    for first, second in (({"q1": 1}, {"q2": 1}), ({"q1": "1/2"}, {"q1": 1})):
        with pytest.raises(ValidationError, match="psi is not equivariant"):
            OneMotive(x, yv, mult_space=space,
                      psi=[[space.element(first)], [space.element(second)]])


SWAP = [[0, 1], [1, 0]]
IDENTITY = [[1, 0], [0, 1]]
# (action on X, action on Yv, a psi component both fix)
EQUIVARIANT_COMPONENTS = [
    (SWAP, SWAP, [[2, -1], [-1, 2]]),
    (IDENTITY, SWAP, [[2, 2], [-1, -1]]),
    (SWAP, IDENTITY, [[2, -1], [2, -1]]),
]


@pytest.mark.parametrize("gx, gy, good", EQUIVARIANT_COMPONENTS)
@pytest.mark.parametrize("bad", [None, 0, 1, 2])
def test_equivariance_of_each_psi_component(gx, gy, good, bad):
    """Three psi components on r = s = 2: only component ``bad`` is
    [[1, 0], [0, 0]], which none of the actions fixes, and the others are
    fixed.  The second generator acts, so a failure names generator 1."""
    group = ActionGroup(2)
    x = GaloisLattice(2, action=[IDENTITY, gx], group=group)
    yv = GaloisLattice(2, action=[IDENTITY, gy], group=group)
    space = MultSpace(["q1", "q2", "q3"])
    comps = [[[1, 0], [0, 0]] if t == bad else good for t in range(3)]
    psi = [[tuple(c[i][j] for c in comps) for j in range(2)]
           for i in range(2)]
    if bad is None:
        OneMotive(x, yv, mult_space=space, psi=psi)
        return
    with pytest.raises(ValidationError,
                       match="psi is not equivariant under generator 1$"):
        OneMotive(x, yv, mult_space=space, psi=psi)


def test_empty_motive():
    m = OneMotive(GaloisLattice(0), GaloisLattice(0))
    wf = weight_filtration(m)
    assert (wf.dim_wm1, wf.dim_wm2) == (0, 0)
    assert cartier_dual(m).structurally_equal(m)
