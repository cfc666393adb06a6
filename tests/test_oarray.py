"""Virtual orthogonal array: entries, validity, row recovery."""

import itertools

import pytest

import latticeobs.oarray as oarray
from latticeobs.gfpoly import FieldPrime, base_digits, poly_eval
from latticeobs.oarray import OASpec, oa_entry, oa_row_from_projection, oa_validate

S524 = OASpec(FieldPrime(5), 2, 4)


def test_spec_validation():
    with pytest.raises(ValueError):
        OASpec(FieldPrime(5), 2, 5)  # needs cols < modulus
    with pytest.raises(ValueError):
        OASpec(FieldPrime(5), 0, 2)
    with pytest.raises(ValueError):
        OASpec(FieldPrime(5), 3, 2)  # fewer columns than t
    assert S524.rows == 25


def test_oa_entry_frozen():
    assert [oa_entry(0, j, S524) for j in (1, 2, 3, 4)] == [0, 0, 0, 0]
    # row 5 is the identity polynomial: entry j is j mod 5
    assert [oa_entry(5, j, S524) for j in (1, 2, 3, 4)] == [1, 2, 3, 4]
    assert oa_entry(24, 1, S524) == 3
    assert oa_entry(7, 2, S524) == 4  # coeffs (1,2): 2+2


def test_oa_entry_matches_polynomial():
    for i in range(S524.rows):
        coeffs = base_digits(i, 2, S524.p)
        for j in range(1, 5):
            assert oa_entry(i, j, S524) == poly_eval(coeffs, j, S524.p)


def test_oa_entry_range_checked():
    with pytest.raises(ValueError):
        oa_entry(25, 1, S524)
    with pytest.raises(ValueError):
        oa_entry(0, 0, S524)
    with pytest.raises(ValueError):
        oa_entry(0, 5, S524)


@pytest.mark.parametrize(
    "modulus,t,cols",
    [(3, 2, 2), (5, 2, 4), (7, 3, 3), (5, 1, 4), (11, 2, 6)],
)
def test_oa_validate_true(modulus, t, cols):
    "Every t-column projection separates all rows."
    ok, violation = oa_validate(OASpec(FieldPrime(modulus), t, cols))
    assert ok
    assert violation is None


def test_oa_validate_reports_violation(monkeypatch):
    # collapse the array to a constant; rows 0 and 1 then collide
    monkeypatch.setattr(oarray, "poly_eval", lambda c, x, p: 0)
    ok, violation = oa_validate(OASpec(FieldPrime(3), 2, 2))
    assert not ok
    assert violation == ((1, 2), 0, 1)


def test_oa_validate_budget_guard():
    with pytest.raises(ValueError):
        oa_validate(OASpec(FieldPrime(101), 3, 8), budget=1000)


def test_row_from_projection_frozen():
    assert oa_row_from_projection((1, 2), (0, 0), S524) == 0
    assert oa_row_from_projection((1, 2), (1, 2), S524) == 5
    assert oa_row_from_projection((1, 2), (3, 2), S524) == 24


@pytest.mark.parametrize(
    "modulus,t,cols", [(5, 2, 4), (7, 3, 3), (3, 1, 2)]
)
def test_row_recovery_exhaustive(modulus, t, cols):
    "Any t columns of any row lead back to that row."
    spec = OASpec(FieldPrime(modulus), t, cols)
    for i in range(spec.rows):
        for columns in itertools.combinations(range(1, cols + 1), t):
            values = [oa_entry(i, j, spec) for j in columns]
            assert oa_row_from_projection(columns, values, spec) == i


def test_row_from_projection_validation():
    with pytest.raises(ValueError):
        oa_row_from_projection((1, 1), (0, 0), S524)  # duplicates
    with pytest.raises(ValueError):
        oa_row_from_projection((1,), (0,), S524)  # wrong arity
    with pytest.raises(ValueError):
        oa_row_from_projection((1, 5), (0, 0), S524)  # column range
    with pytest.raises(ValueError):
        oa_row_from_projection((1, 2), (0, 5), S524)  # value range
