"""Virtual orthogonal arrays backed by polynomial evaluation.

Row i of the array for (modulus, t, cols) holds the values at points
1..cols of the polynomial whose coefficient index is i.  Any t columns
project the rows injectively: two degree-<t polynomials agreeing at t
points are equal.  Nothing is materialized; entries are evaluated on
demand.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

from .gfpoly import FieldPrime, base_digits, coeffs_to_index, interpolate_coeffs, poly_eval


@dataclass(frozen=True)
class OASpec:
    p: FieldPrime
    t: int
    cols: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.cols < self.t:
            raise ValueError("need at least t columns")
        if self.cols >= self.p.modulus:
            raise ValueError("cols must stay below the modulus so columns are distinct points")

    @cached_property
    def rows(self) -> int:
        return self.p.modulus**self.t


def oa_entry(i: int, j: int, spec: OASpec) -> int:
    """Entry at row i, column j (columns are 1-based)."""
    if not 0 <= i < spec.rows:
        raise ValueError(f"row {i} outside [0, {spec.rows})")
    if not 1 <= j <= spec.cols:
        raise ValueError(f"column {j} outside [1, {spec.cols}]")
    return poly_eval(base_digits(i, spec.t, spec.p), j, spec.p)


def oa_validate(spec: OASpec, budget: int = 10_000_000):
    """Exhaustively check that every t columns separate all rows.

    Returns (True, None), or (False, (columns, row_a, row_b)) for the
    first collision in scan order.  Refuses to run past `budget`
    projections.
    """
    combos = list(itertools.combinations(range(1, spec.cols + 1), spec.t))
    cost = spec.rows * len(combos)
    if cost > budget:
        raise ValueError(f"validation needs {cost} projections, budget is {budget}")
    seen: dict[tuple, dict] = {combo: {} for combo in combos}
    for i in range(spec.rows):
        coeffs = base_digits(i, spec.t, spec.p)
        vals = {j: poly_eval(coeffs, j, spec.p) for j in range(1, spec.cols + 1)}
        for combo in combos:
            proj = tuple(vals[j] for j in combo)
            other = seen[combo].setdefault(proj, i)
            if other != i:
                return False, (combo, other, i)
    return True, None


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
