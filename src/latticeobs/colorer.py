"""Edge-coloring schemes whose color sequences identify a walk.

Layout shared by the full schemes: a flat color id is

    group * group_size + (code - 1) * modulus + value

where `group` carries information about the edge's root node that
survives differencing (coefficient parities of the root's rank row,
plus ternary distance digits on undirected lattices), `code` is the
edge's orientation or axis, and `value` is the orthogonal-array entry
of the root's rank row at that code's column.  color_unpack inverts it
into a plain (code, value, parity, digits) tuple; the decoder expands
parity into bits only for the t columns it reads and its anchor edge.

Kinds:
  colord    directed lattices, any t up to 2d
  color2    directed lattices, t = 2d; block 2 * axis + down holds a root
            coordinate's quotient (up edge) or remainder (down edge)
  undir     undirected lattices, any t up to d
  mod3-aux  bare 3-coloring by distance to a reference corner (analysis aid)
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .gfpoly import FieldPrime, ceil_nth_root, next_prime_above
# unrank goes unused here; bench/layers.py counts calls made through
# colorer.unrank, so the name stays importable from this module.
from .lattice import Edge, LatticeSpec, Walk, edge_endpoints, in_bounds, rank, unrank
from .oarray import OASpec

KINDS = ("colord", "color2", "undir", "mod3-aux")


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
        return OASpec(self.sigma, self.lattice.t, self.lattice.codes)

    @cached_property
    def row_table(self) -> tuple:
        """Per edge code j, (j^k mod sigma, 1 << k) per rank digit k, lowest first."""
        m, t, codes = self.sigma.modulus, self.lattice.t, range(self.lattice.codes + 1)
        return tuple(tuple((pow(j, k, m), 1 << k) for k in range(t)) for j in codes)


def default_sigma(spec: LatticeSpec) -> FieldPrime:
    """Smallest workable field prime: modulus^t must cover the node count
    and every column (one per edge code) needs its own evaluation point."""
    return next_prime_above(max(ceil_nth_root(spec.size, spec.t), spec.codes))


def make_scheme(
    spec: LatticeSpec, kind: str, origin_index: int = 0, sigma: int | None = None
) -> SchemeParams:
    if kind not in KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    if origin_index and kind != "mod3-aux":
        raise ValueError("origin index applies only to mod3-aux")
    d, t = spec.d, spec.t
    if kind == "color2":
        if not spec.directed or t != spec.codes:
            raise ValueError(f"color2 needs a directed lattice with t={2 * d}")
        if sigma is not None:
            raise ValueError("color2 uses no field prime")
        return SchemeParams(spec, kind, None, spec.codes, ceil_nth_root(max(spec.dims), 2))
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
    p = default_sigma(spec) if sigma is None else FieldPrime(sigma)
    if p.modulus <= spec.codes or p.modulus**t < spec.size:
        raise ValueError(f"sigma {p.modulus} too small for this lattice")
    groups = 2**t if kind == "colord" else 2**t * 3 ** (d - t + 2)
    return SchemeParams(spec, kind, p, groups, spec.codes * p.modulus)


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


def _distance_group(u, spec: LatticeSpec) -> int:
    """Node u's undirected distance digits, base 3 above the parity bits.

    Digit 0 is the coordinate sum mod 3.  Digit q >= 1 is
    (sum + n_q - 2 u_q) mod 3, one more than u's distance to the corner
    with coordinate q maxed out; recover_signs compensates for the
    offset.  d - t + 2 digits in total, digit 0 lowest."""
    s = sum(u)
    group, weight = s % 3, 3
    for q in range(spec.d - spec.t + 1):
        group += (s + spec.dims[q] - 2 * u[q]) % 3 * weight
        weight *= 3
    return group << spec.t


def oa_assign(root, r: int, code: int, params: SchemeParams) -> int:
    """Orthogonal-array schemes (colord, undir): group * group_size +
    (code - 1) * sigma + value.  One loop over params.row_table reads
    the base-sigma digits of the root's rank r, lowest first, adding each
    digit's parity bit to group and its term to value: row r's array
    entry at the code's column, once reduced mod sigma.  Undirected
    lattices add the root's distance digits to group.  The edge must fit."""
    m = params.sigma.modulus
    group = value = 0
    for power, bit in params.row_table[code]:
        r, digit = divmod(r, m)
        value += digit * power
        if digit & 1:
            group |= bit
    spec = params.lattice
    if not spec.directed:
        group |= _distance_group(root, spec)
    return group * params.group_size + (code - 1) * m + value % m


def color2_assign(root, r: int, code: int, params: SchemeParams) -> int:
    """Directed scheme for t = 2d with palette 2d * ceil(sqrt(max n_j)).

    Code j is axis j up and code d + j axis j down, and block
    2 * axis + down holds one direction of one axis.  The root's
    coordinate on that axis splits as quotient/remainder by group_size =
    ceil(sqrt(max n_j)): the up edge stores the quotient, the down edge
    the remainder.  The rank r goes unused.
    """
    size = params.group_size
    down, axis = divmod(code - 1, len(root))
    quotient, remainder = divmod(root[axis], size)
    return (2 * axis + down) * size + (remainder if down else quotient)


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


def color_unpack(c: int, params: SchemeParams) -> tuple:
    """Invert a flat color id into (code, value, parity, digits): the
    edge code, the array value, the root row's coefficient parities
    packed as parity_group packs them, and the undirected distance
    digits.  color2 and mod3-aux carry parity 0 and no digits."""
    if not 0 <= c < palette_size(params):
        raise ValueError(f"color {c} outside palette of {palette_size(params)}")
    if params.kind == "color2":
        block, value = divmod(c, params.group_size)
        axis, down = divmod(block, 2)
        return axis + 1 + down * params.lattice.d, value, 0, ()
    if params.kind == "mod3-aux":
        return None, c, 0, ()
    t = params.lattice.t
    group, rem = divmod(c, params.group_size)
    block, value = divmod(rem, params.sigma.modulus)
    parity = group & (1 << t) - 1
    digits = []
    if params.kind == "undir":
        group >>= t
        for _ in range(params.lattice.d - t + 2):
            group, dig = divmod(group, 3)
            digits.append(dig)
    return block + 1, value, parity, tuple(digits)


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
    table, dims = spec.step_table, spec.dims
    if not in_bounds(w.start, spec):
        raise ValueError(f"start {w.start} outside lattice {spec.dims}")
    node = list(w.start)
    r = rank(node, spec)
    colors = []
    for s in w.steps:
        move = table.get(s)
        if move is None:
            raise ValueError(f"bad step code {s} for this lattice")
        axis, sign, dr, code = move
        x = node[axis] + sign
        if not 0 <= x < dims[axis]:
            raise ValueError(f"step {s} leaves the lattice at {tuple(node)}")
        if sign > 0:
            colors.append(assign(node, r, code, params))
            node[axis] = x
            r += dr
        else:
            node[axis] = x
            r += dr
            colors.append(assign(node, r, code, params))
    return tuple(colors)


def lattice_edges(spec: LatticeSpec):
    """Every node u in rank order, as (u, rank, codes): the codes of the
    edges u roots, ascending.  Each of those edges fits the lattice.

    Along a run of the last axis only the run's top node loses codes
    (those of the last axis), so each run builds two code lists and its
    roots share them; callers must not mutate them."""
    dims = spec.dims
    last = spec.d - 1
    top = dims[last] - 1
    columns = [(c, (c - 1) % spec.d) for c in range(1, spec.codes + 1)]
    for r, u in enumerate(product(*map(range, dims))):
        x = u[last]
        if not x:
            inner = [c for c, axis in columns if axis == last or u[axis] + 1 < dims[axis]]
            face = [c for c in inner if (c - 1) % spec.d != last]
        yield u, r, inner if x < top else face


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
    k.  Only a carry, once per sigma roots, colors the row again with
    oa_assign, whose group holds the row's parities.  Distance digits
    repeat with period 3 along the last axis, so three roots per run of
    that axis compute them."""
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
    columns = range(1, spec.codes + 1)
    blocks = [0] + [(c - 1) * m for c in columns]  # indexed by code
    runs = range(min(3, spec.dims[-1]))
    distance = [0, 0, 0]
    for root, r, codes in lattice_edges(spec):
        k = r % m
        if not k:
            row = [oa_assign(root, r, c, params) for c in columns]
            entries = [0] + [color % m for color in row]
            parity = row[0] // size & (1 << t) - 1
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
