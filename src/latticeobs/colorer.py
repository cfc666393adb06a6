"""Edge-coloring schemes whose color sequences identify a walk.

Layout shared by the full schemes: a flat color id is

    group * group_size + (code - 1) * modulus + value

where `group` carries information about the edge's root node that
survives differencing (coefficient parities of the root's rank row,
plus ternary distance digits on undirected lattices), `code` is the
edge's orientation or axis, and `value` is the orthogonal-array entry
of the root's rank row at that code's column.

Kinds:
  colord    directed lattices, any t up to 2d
  color2    square directed 2-d lattices, t = 4, quotient/remainder blocks
  undir     undirected lattices, any t up to d
  mod3-aux  bare 3-coloring by distance to a reference corner (analysis aid)
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .gfpoly import FieldPrime, ceil_nth_root, next_prime_above, poly_eval
# unrank goes unused here; bench/layers.py counts calls made through
# colorer.unrank, so the name stays importable from this module.
from .lattice import Edge, LatticeSpec, Walk, edge_endpoints, in_bounds, rank, unrank
from .oarray import OASpec

KINDS = ("colord", "color2", "undir", "mod3-aux")

# color2 packs orientations into quotient/remainder blocks in this order:
# x-quotient, x-remainder, y-quotient, y-remainder.
_COLOR2_BLOCK_TO_CODE = (1, 3, 2, 4)
_COLOR2_CODE_TO_BLOCK = {code: block for block, code in enumerate(_COLOR2_BLOCK_TO_CODE)}


@dataclass(frozen=True)
class SchemeParams:
    lattice: LatticeSpec
    kind: str
    sigma: FieldPrime | None
    group_count: int
    group_size: int
    origin_index: int = 0

    @cached_property
    def oa(self) -> OASpec | None:
        if self.sigma is None:
            return None
        return OASpec(self.sigma, self.lattice.t, scheme_columns(self.lattice))


def scheme_columns(spec: LatticeSpec) -> int:
    """Array columns the scheme needs: one per orientation or axis."""
    return 2 * spec.d if spec.directed else spec.d


def default_sigma(spec: LatticeSpec) -> FieldPrime:
    """Smallest workable field prime: modulus^t must cover the node count
    and every column needs its own evaluation point."""
    return next_prime_above(max(ceil_nth_root(spec.size, spec.t), scheme_columns(spec)))


def make_scheme(
    spec: LatticeSpec, kind: str, origin_index: int = 0, sigma: int | None = None
) -> SchemeParams:
    if kind not in KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    d, t = spec.d, spec.t
    if kind == "color2":
        if not spec.directed or d != 2 or spec.dims[0] != spec.dims[1] or t != 4:
            raise ValueError("color2 needs a square directed 2-d lattice with t=4")
        if sigma is not None:
            raise ValueError("color2 uses no field prime")
        return SchemeParams(spec, kind, None, 4, ceil_nth_root(spec.dims[0], 2))
    if kind == "mod3-aux":
        if spec.directed:
            raise ValueError("mod3-aux colors undirected lattices")
        if not 0 <= origin_index <= d:
            raise ValueError(f"origin index must be in [0, {d}]")
        if sigma is not None:
            raise ValueError("mod3-aux uses no field prime")
        return SchemeParams(spec, kind, None, 3, 1, origin_index)
    if kind == "colord" and not spec.directed:
        raise ValueError("colord needs a directed lattice")
    if kind == "undir" and spec.directed:
        raise ValueError("undir needs an undirected lattice")
    cols = scheme_columns(spec)
    p = default_sigma(spec) if sigma is None else FieldPrime(sigma)
    if p.modulus <= cols or p.modulus**t < spec.size:
        raise ValueError(f"sigma {p.modulus} too small for this lattice")
    if kind == "colord":
        return SchemeParams(spec, kind, p, 2**t, 2 * d * p.modulus)
    return SchemeParams(spec, kind, p, 2**t * 3 ** (d - t + 2), d * p.modulus)


def palette_size(params: SchemeParams) -> int:
    """Number of distinct colors the scheme can emit."""
    return params.group_count * params.group_size


def parity_group(coeffs) -> int:
    """Coefficient parities packed as bits, leading coefficient highest."""
    g = 0
    for a in coeffs:
        g = g << 1 | a & 1
    return g


def parity_bits(group: int, t: int) -> tuple[int, ...]:
    """Unpack parity_group back into one bit per coefficient."""
    return tuple(group >> (t - k) & 1 for k in range(1, t + 1))


def distance_digits(u, spec: LatticeSpec) -> tuple[int, ...]:
    """Ternary digits stored for node u on an undirected lattice.

    Digit 0 is the coordinate sum mod 3.  Digit q >= 1 is
    (sum + n_q - 2 u_q) mod 3, one more than u's distance to the corner
    with coordinate q maxed out; recover_signs compensates for the
    offset.  d - t + 2 digits in total.
    """
    s = sum(u)
    digits = [s % 3]
    for q in range(1, spec.d - spec.t + 2):
        digits.append((s + spec.dims[q - 1] - 2 * u[q - 1]) % 3)
    return tuple(digits)


def _distance_group(u, spec: LatticeSpec) -> int:
    """u's distance digits packed base 3, digit 0 lowest, shifted above
    the t parity bits of the color group."""
    return sum(dig * 3**q for q, dig in enumerate(distance_digits(u, spec))) << spec.t


def _row_coeffs(r: int, t: int, m: int) -> list[int]:
    """Coefficients of array row r: its t base-m digits, leading first.
    Unchecked, unlike gfpoly.base_digits: make_scheme guarantees every
    rank is below m**t."""
    coeffs = [0] * t
    for k in range(t - 1, -1, -1):
        r, coeffs[k] = divmod(r, m)
    return coeffs


def oa_assign(root, r: int, code: int, params: SchemeParams) -> int:
    """Orthogonal-array schemes (colord, undir): offset group *
    group_size, where group = coefficient parities of row r (the root's
    rank), extended on undirected lattices by the root's ternary
    distance digits; block = code; value = array entry of row r at the
    code's column.  The edge must fit."""
    spec = params.lattice
    p = params.sigma
    coeffs = _row_coeffs(r, spec.t, p.modulus)
    group = parity_group(coeffs)
    if not spec.directed:
        group |= _distance_group(root, spec)
    return group * params.group_size + (code - 1) * p.modulus + poly_eval(coeffs, code, p)


def color2_assign(root, r: int, code: int, params: SchemeParams) -> int:
    """Square directed 2-d scheme with palette 4 * ceil(sqrt(n)).

    The root's x splits as quotient/remainder by group_size =
    ceil(sqrt(n)); the 1-up edge stores the quotient, the 1-down edge
    the remainder, and the axis-2 edges do the same for y.  The rank r
    goes unused.
    """
    size = params.group_size
    block = _COLOR2_CODE_TO_BLOCK[code]
    quotient, remainder = divmod(root[(code - 1) % 2], size)
    return block * size + (remainder if block % 2 else quotient)


def mod3_assign(root, r: int, code: int, params: SchemeParams) -> int:
    """Distance from the edge's root to the scheme's reference corner,
    mod 3.  Corner 0 is all-zeros; corner q >= 1 has coordinate q maxed
    and the rest zero.  The rank r goes unused."""
    spec = params.lattice
    q = params.origin_index
    if q == 0:
        return sum(root) % 3
    return (sum(root) + spec.dims[q - 1] - 1 - 2 * root[q - 1]) % 3


# Unchecked assigners: (root, root rank, code, params) -> color, for an
# edge already known to fit the lattice.
_ASSIGNERS = {
    "colord": oa_assign,
    "undir": oa_assign,
    "color2": color2_assign,
    "mod3-aux": mod3_assign,
}


def assign_color(edge: Edge, params: SchemeParams) -> int:
    """Color one edge under the scheme, validating the edge first."""
    spec = params.lattice
    root, _ = edge_endpoints(edge, spec)
    # only the orthogonal-array kinds read the root's rank
    r = rank(root, spec) if params.sigma else None
    return _ASSIGNERS[params.kind](root, r, edge.code, params)


@dataclass(frozen=True)
class UnpackedColor:
    group: int
    code: int | None
    value: int
    parities: tuple[int, ...] | None = None
    digits: tuple[int, ...] | None = None


def color_unpack(c: int, params: SchemeParams) -> UnpackedColor:
    """Invert a flat color id back into its parts."""
    if not 0 <= c < palette_size(params):
        raise ValueError(f"color {c} outside palette of {palette_size(params)}")
    t = params.lattice.t
    if params.kind == "color2":
        block, value = divmod(c, params.group_size)
        return UnpackedColor(block, _COLOR2_BLOCK_TO_CODE[block], value)
    if params.kind == "mod3-aux":
        return UnpackedColor(c, None, c)
    group, rem = divmod(c, params.group_size)
    block, value = divmod(rem, params.sigma.modulus)
    if params.kind == "colord":
        return UnpackedColor(group, block + 1, value, parities=parity_bits(group, t))
    m2 = group >> t
    digits = []
    for _ in range(params.lattice.d - t + 2):
        m2, dig = divmod(m2, 3)
        digits.append(dig)
    return UnpackedColor(
        group,
        block + 1,
        value,
        parities=parity_bits(group & (1 << t) - 1, t),
        digits=tuple(digits),
    )


def color_walk(w: Walk, params: SchemeParams) -> tuple[int, ...]:
    """Ground-truth observation: the color of each edge w traverses.

    One pass over the steps, in rank space: the start is checked and
    ranked once; each step code is looked up in the lattice's step
    table, only the coordinate it moves is checked, and the current
    node and its rank move together.  A bad code, a bad start or a step
    that leaves the lattice raises ValueError.  An up step's edge is
    rooted at the node it leaves, a down step's at the node it reaches,
    so no edge is built, validated or ranked on its own."""
    spec = params.lattice
    assign = _ASSIGNERS[params.kind]
    table, dims, weights, directed = spec.step_table, spec.dims, spec.weights, spec.directed
    if not in_bounds(w.start, spec):
        raise ValueError(f"start {w.start} outside lattice {spec.dims}")
    node = list(w.start)
    r = rank(node, spec)
    colors = []
    for s in w.steps:
        move = table.get(s)
        if move is None:
            raise ValueError(f"bad step code {s} for this lattice")
        axis, sign = move
        x = node[axis] + sign
        if not 0 <= x < dims[axis]:
            raise ValueError(f"step {s} leaves the lattice at {tuple(node)}")
        code = s if directed else axis + 1
        if sign > 0:
            colors.append(assign(node, r, code, params))
            node[axis] = x
            r += weights[axis]
        else:
            node[axis] = x
            r -= weights[axis]
            colors.append(assign(node, r, code, params))
    return tuple(colors)


def lattice_edges(spec: LatticeSpec):
    """Every node u in rank order, as (u, rank, codes): the codes of the
    edges u roots, ascending.  Each of those edges fits the lattice."""
    dims = spec.dims
    columns = [(c, (c - 1) % spec.d) for c in range(1, scheme_columns(spec) + 1)]
    for r, u in enumerate(product(*map(range, dims))):
        yield u, r, [c for c, axis in columns if u[axis] + 1 < dims[axis]]


def format_header(params: SchemeParams) -> str:
    spec = params.lattice
    dims = "x".join(str(n) for n in spec.dims)
    sig = params.sigma.modulus if params.sigma else 0
    return f"#dims={dims} directed={int(spec.directed)} t={spec.t} sigma={sig} scheme={params.kind}"


def coloring_lines(params: SchemeParams):
    """The export format: a header line, then one `coords code color`
    line per edge in (root rank, code) order.

    lattice_edges yields only edges that fit, so none is validated
    again.  The orthogonal-array kinds step an odometer with the rank:
    between carries only the last coefficient k = r mod sigma moves, and
    each step adds 1 mod sigma to every array entry and flips the last
    parity bit, so a root's entries are those of its row at k = 0, plus
    k.  Only a carry, once per sigma roots, splits the rank and
    evaluates the row again.  Distance digits repeat with period 3 along
    the last axis, so three roots per run of that axis compute them."""
    yield format_header(params)
    spec = params.lattice
    p = params.sigma
    if not p:
        assign = _ASSIGNERS[params.kind]
        for root, r, codes in lattice_edges(spec):
            coords = ",".join(map(str, root))
            for c in codes:
                yield f"{coords} {c} {assign(root, r, c, params)}"
        return
    m, t, size = p.modulus, spec.t, params.group_size
    columns = range(scheme_columns(spec) + 1)  # indexed by code; 0 unused
    blocks = [(c - 1) * m for c in columns]
    runs = range(min(3, spec.dims[-1]))
    distance = [0, 0, 0]
    for root, r, codes in lattice_edges(spec):
        k = r % m
        if not k:
            coeffs = _row_coeffs(r, t, m)
            entries = [poly_eval(coeffs, c, p) for c in columns]
            parity = parity_group(coeffs)
        x = root[-1]
        if not x and not spec.directed:
            distance = [_distance_group(root[:-1] + (y,), spec) for y in runs]
        base = (parity | k & 1 | distance[x % 3]) * size
        coords = ",".join(map(str, root))
        for c in codes:
            yield f"{coords} {c} {base + blocks[c] + (entries[c] + k) % m}"


def parse_header(line: str) -> SchemeParams:
    """Rebuild scheme parameters from a coloring file's first line."""
    if not line.startswith("#"):
        raise ValueError("coloring file must start with a '#' header line")
    fields = dict(
        part.split("=", 1) for part in line[1:].split() if "=" in part
    )
    try:
        dims = tuple(int(n) for n in fields["dims"].split("x"))
        directed = bool(int(fields["directed"]))
        t = int(fields["t"])
        sig = int(fields["sigma"])
        kind = fields["scheme"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed coloring header: {line!r}") from exc
    spec = LatticeSpec(dims, directed, t)
    params = make_scheme(spec, kind, sigma=sig if sig else None)
    declared = params.sigma.modulus if params.sigma else 0
    if declared != sig:
        raise ValueError(f"header sigma {sig} does not match scheme {kind}")
    return params
