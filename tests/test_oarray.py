"""Virtual orthogonal array: entries, validity, row recovery."""

import itertools
import time

import pytest

import latticeobs.oarray as oarray
from latticeobs.gfpoly import FieldPrime, base_digits, poly_eval
from latticeobs.oarray import OASpec, oa_row_from_projection, oa_validate

S524 = OASpec(FieldPrime(5), 2, 4)


def test_spec_validation():
    with pytest.raises(ValueError):
        OASpec(FieldPrime(5), 2, 5)  # needs cols < modulus
    with pytest.raises(ValueError):
        OASpec(FieldPrime(5), 0, 2)
    with pytest.raises(ValueError):
        OASpec(FieldPrime(5), 3, 2)  # fewer columns than t
    assert S524.rows == 25


def entry(i, j, spec):
    """Array entry at row i, column j: row i's coefficients evaluated at j."""
    return poly_eval(base_digits(i, spec.t, spec.p), j, spec.p)


def test_oa_entry_frozen():
    assert [entry(0, j, S524) for j in (1, 2, 3, 4)] == [0, 0, 0, 0]
    # row 5 is the identity polynomial: entry j is j mod 5
    assert [entry(5, j, S524) for j in (1, 2, 3, 4)] == [1, 2, 3, 4]
    assert entry(24, 1, S524) == 3
    assert entry(7, 2, S524) == 4  # coeffs (1,2): 2+2


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
            values = [entry(i, j, spec) for j in columns]
            assert oa_row_from_projection(columns, values, spec) == i


def test_row_from_projection_validation():
    with pytest.raises(ValueError):
        oa_row_from_projection((1, 1), (0, 0), S524)  # duplicates
    with pytest.raises(ValueError):
        oa_row_from_projection((1,), (0,), S524)  # wrong arity
    with pytest.raises(ValueError, match="need 2 values"):
        oa_row_from_projection((1, 2), (0,), S524)
    with pytest.raises(ValueError):
        oa_row_from_projection((1, 5), (0, 0), S524)  # column range
    with pytest.raises(ValueError):
        oa_row_from_projection((1, 2), (0, 5), S524)  # value range


def _reference_validate(spec):
    """The row-by-row dict scan: the first collision in (row, subset)
    order, with the earlier row of the pair."""
    combos = list(itertools.combinations(range(1, spec.cols + 1), spec.t))
    seen = {combo: {} for combo in combos}
    for i in range(spec.rows):
        coeffs = base_digits(i, spec.t, spec.p)
        vals = {j: oarray.poly_eval(coeffs, j, spec.p) for j in range(1, spec.cols + 1)}
        for combo in combos:
            other = seen[combo].setdefault(tuple(vals[j] for j in combo), i)
            if other != i:
                return False, (combo, other, i)
    return True, None


def _override(entries):
    "poly_eval with the given (coeffs, x) entries replaced."
    return lambda c, x, p: entries.get((tuple(c), x), poly_eval(c, x, p))


@pytest.mark.parametrize(
    "entries,expected",
    [
        # row 5 = (1, 0) reads 3 at column 1: subset (1,2) collides at
        # row 24, but the later subset (1,3) already at row 5
        ({((1, 0), 1): 3}, ((1, 3), 3, 5)),
        # row 7 = (1, 2) reads 0 at column 4: (1,4) collides at row 24,
        # (2,4) at row 18, and the last subset (3,4) first, at row 7
        ({((1, 2), 4): 0}, ((3, 4), 0, 7)),
    ],
)
def test_oa_validate_reports_earliest_row_across_subsets(monkeypatch, entries, expected):
    monkeypatch.setattr(oarray, "poly_eval", _override(entries))
    spec = OASpec(FieldPrime(5), 2, 4)
    assert oa_validate(spec) == (False, expected)
    assert _reference_validate(spec) == (False, expected)


FAULTS = {
    "zero": lambda c, x, p: 0,
    "parity": lambda c, x, p: poly_eval(c, x, p) % 2,
    "last column aliases the one before": (
        lambda c, x, p: poly_eval(c, x - 1 if x == 4 else x, p)
    ),
    "leading coefficient dropped": lambda c, x, p: poly_eval(c[1:], x, p),
    "two entries": _override({((0, 1, 1), 3): 0, ((2, 0, 4), 1): 6}),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("modulus,t,cols", [(5, 1, 4), (5, 2, 4), (7, 3, 4), (7, 3, 6)])
def test_oa_validate_matches_reference_scan_on_faults(monkeypatch, fault, modulus, t, cols):
    monkeypatch.setattr(oarray, "poly_eval", FAULTS[fault])
    spec = OASpec(FieldPrime(modulus), t, cols)
    assert oa_validate(spec) == _reference_validate(spec)


@pytest.mark.parametrize(
    "modulus,t,cols",
    [(3, 2, 2), (5, 2, 4), (7, 3, 3), (5, 1, 4), (11, 2, 6)],
)
def test_oa_validate_matches_reference_scan_on_valid_arrays(modulus, t, cols):
    spec = OASpec(FieldPrime(modulus), t, cols)
    assert oa_validate(spec) == _reference_validate(spec) == (True, None)


def test_oa_validate_refuses_over_budget_before_enumerating():
    "C(50, 40) is about 1.0e10 column subsets; none may be built."
    spec = OASpec(FieldPrime(1_000_000_007), 40, 50)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget is 10000000"):
        oa_validate(spec)
    assert time.perf_counter() - start < 1.0
