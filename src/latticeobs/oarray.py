"""Virtual orthogonal arrays backed by polynomial evaluation.

Row i of the array for (modulus, t, cols) holds the values at points
1..cols of the polynomial whose coefficient index is i.  Any t columns
project the rows injectively: two degree-<t polynomials agreeing at t
points are equal.  Nothing is materialized; entries are evaluated on
demand.
"""

import itertools
import math
from functools import cached_property

from .gfpoly import FieldPrime, coeffs_to_index, interpolate_coeffs, poly_column
from .lattice import Record, set_field


class OASpec(Record):
    _fields = ("p", "t", "cols")

    def __init__(self, p: FieldPrime, t: int, cols: int) -> None:
        set_field(self, "p", p)
        set_field(self, "t", t)
        set_field(self, "cols", cols)
        if t < 1:
            raise ValueError("t must be >= 1")
        if cols < t:
            raise ValueError("need at least t columns")
        if cols >= p.modulus:
            raise ValueError("cols must stay below the modulus so columns are distinct points")

    @cached_property
    def rows(self) -> int:
        return self.p.modulus**self.t


def oa_validate(spec: OASpec, budget: int = 10_000_000):
    """Exhaustively check that every t columns separate all rows.

    Returns (True, None), or (False, (columns, row_a, row_b)) for the
    first collision in scan order: the smallest (row_b, subset index),
    with row_a < row_b the earlier row of the pair.

    Refuses to run past `budget` projections before enumerating
    anything, in time bounded by the budget's size.  The rows alone
    number at least 2^(t * (bits(modulus) - 1)), so that power is
    compared with the budget's bit length first.  Only an array that
    passes it has its exact cost rows * C(cols, t) computed, and that
    cost then has under four times the budget's bits.

    Works by columns: each column's table is built by poly_column, t
    Horner passes that extend every entry by one rotated slice of
    range(modulus) instead of one modular step per row and digit, and
    each column subset is checked with one set of its projections.
    Memory grows with cols * rows plus that one set, which dominates:
    the tables share the int objects of range(modulus), while the set
    holds a new t-tuple per row.  A subset whose set comes up short is
    scanned again row by row to name the collision; later subsets then
    only need the rows before it.
    """
    floor_bits = spec.t * (spec.p.modulus.bit_length() - 1)
    if budget < 1 or floor_bits >= budget.bit_length():
        raise ValueError(
            f"validation needs at least 2^{floor_bits} projections, budget is {budget}"
        )
    rows = spec.rows
    cost = rows * math.comb(spec.cols, spec.t)
    if cost > budget:
        raise ValueError(f"validation needs {cost} projections, budget is {budget}")
    points = range(1, spec.cols + 1)
    column = {j: poly_column(j, spec.t, spec.p) for j in points}
    violation, limit = None, rows
    for combo in itertools.combinations(points, spec.t):
        projections = zip(*(column[j] for j in combo))
        if len(set(itertools.islice(projections, limit))) == limit:
            continue
        seen: dict[tuple, int] = {}
        for i, proj in enumerate(zip(*(column[j] for j in combo))):
            other = seen.setdefault(proj, i)
            if other != i:
                break
        violation, limit = (combo, other, i), i
    return violation is None, violation


def oa_row_from_projection(columns, values, spec: OASpec) -> int:
    """Row whose projection onto `columns` equals `values`."""
    cols = tuple(columns)
    vals = tuple(values)
    if len(cols) != spec.t or len(set(cols)) != spec.t:
        raise ValueError(f"need {spec.t} distinct columns")
    if len(vals) != spec.t:
        raise ValueError(f"need {spec.t} values")
    for j in cols:
        if not 1 <= j <= spec.cols:
            raise ValueError(f"column {j} outside [1, {spec.cols}]")
    for v in vals:
        if not 0 <= v < spec.p.modulus:
            raise ValueError(f"value {v} outside the field")
    coeffs = interpolate_coeffs(zip(cols, vals), spec.t, spec.p)
    return coeffs_to_index(coeffs, spec.p)
