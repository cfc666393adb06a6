"""Edge-coloring schemes whose color sequences identify a walk.

Layout shared by the full schemes: a flat color id is

    group * group_size + (code - 1) * modulus + value

where `group` carries information about the edge's root node that
survives differencing (coefficient parities of the root's rank row,
plus ternary distance digits on undirected lattices), `code` is the
edge's orientation or axis, and `value` is the orthogonal-array entry
of the root's rank row at that code's column.  color_unpack inverts it
into (code, value, parity, distance): the group's two fields stay
packed ints, the low t bits and the base-3 digits above them, and the
decoder reads single bits and digits off them where it needs them.

Kinds, each keyed in KINDS to whether its lattice must be directed:
  colord    directed lattices, any t up to 2d
  color2    directed lattices, t = 2d; block 2 * axis + down holds a root
            coordinate's quotient (up edge) or remainder (down edge)
  undir     undirected lattices, any t up to d

Every kind has a decoder, and a coloring file's header names its
parameters exactly: parse_header accepts only what format_header writes.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .gfpoly import FieldPrime, base_digits, ceil_nth_root, next_prime_above, poly_eval
# unrank goes unused here; bench/layers.py counts calls made through
# colorer.unrank, so the name stays importable from this module.
from .lattice import Edge, LatticeSpec, Walk, edge_endpoints, in_bounds, rank, unrank
from .oarray import OASpec

# scheme kind -> whether it colors a directed lattice
KINDS = {"colord": True, "color2": True, "undir": False}


@dataclass(frozen=True)
class SchemeParams:
    """A scheme that checks itself and derives its layout.  sigma None
    picks default_sigma (color2 takes none); an int becomes a FieldPrime
    after the kind's checks, so a request wrong in both names the kind."""

    lattice: LatticeSpec
    kind: str
    sigma: FieldPrime | None = None
    group_count: int = field(init=False)
    group_size: int = field(init=False)

    def __post_init__(self) -> None:
        spec, kind, p = self.lattice, self.kind, self.sigma
        if kind not in KINDS:
            raise ValueError(f"unknown scheme kind {kind!r}")
        d, t = spec.d, spec.t
        if kind == "color2":
            if not spec.directed or t != spec.codes:
                raise ValueError(f"color2 needs a directed lattice with t={2 * d}")
            if p is not None:
                raise ValueError("color2 uses no field prime")
            groups, size = spec.codes, ceil_nth_root(max(spec.dims), 2)
        else:
            if spec.directed != KINDS[kind]:
                raise ValueError(f"{kind} needs {'a ' if KINDS[kind] else 'an un'}directed lattice")
            if not isinstance(p, FieldPrime):
                p = default_sigma(spec) if p is None else FieldPrime(p)
            if p.modulus <= spec.codes or p.modulus**t < spec.size:
                raise ValueError(f"sigma {p.modulus} too small for this lattice")
            if p.modulus == 2:
                raise ValueError(f"{kind} needs an odd sigma: parity recovery cannot work mod 2")
            groups = 2**t if kind == "colord" else 2**t * 3 ** (d - t + 2)
            size = spec.codes * p.modulus
        object.__setattr__(self, "sigma", p)
        object.__setattr__(self, "group_count", groups)
        object.__setattr__(self, "group_size", size)

    @cached_property
    def oa(self) -> OASpec:
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


def make_scheme(spec: LatticeSpec, kind: str, sigma: int | None = None) -> SchemeParams:
    """SchemeParams for an int field prime, or None for the default."""
    return SchemeParams(spec, kind, sigma)


def palette_size(params: SchemeParams) -> int:
    """Number of distinct colors the scheme can emit."""
    return params.group_count * params.group_size


def parity_group(coeffs) -> int:
    """Coefficient parities packed as bits, leading coefficient highest."""
    g = 0
    for a in coeffs:
        g = g << 1 | a & 1
    return g


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


# Unchecked assigners: (root, root rank, code, params) -> color, for an
# edge already known to fit the lattice.
_ASSIGNERS = {
    "colord": oa_assign,
    "undir": oa_assign,
    "color2": color2_assign,
}


def assign_color(edge: Edge, params: SchemeParams) -> int:
    """Color one edge under the scheme, validating the edge first."""
    spec = params.lattice
    root, _ = edge_endpoints(edge, spec)
    return _ASSIGNERS[params.kind](root, rank(root, spec), edge.code, params)


def color_unpack(c: int, params: SchemeParams) -> tuple:
    """Invert a flat color id into (code, value, parity, distance): the
    edge code, the array value, the root row's coefficient parities
    packed as parity_group packs them, and the undirected distance
    digits packed base 3, digit 0 lowest.  distance is 0 on colord, and
    color2 carries 0 for both."""
    if not 0 <= c < palette_size(params):
        raise ValueError(f"color {c} outside palette of {palette_size(params)}")
    if params.kind == "color2":
        block, value = divmod(c, params.group_size)
        axis, down = divmod(block, 2)
        return axis + 1 + down * params.lattice.d, value, 0, 0
    t = params.lattice.t
    group, rem = divmod(c, params.group_size)
    block, value = divmod(rem, params.sigma.modulus)
    return block + 1, value, group & (1 << t) - 1, group >> t


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
        axis, sign, dr, code = table[s]
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


def _prefixes(dims):
    """Every point of the box dims in lexicographic order, stepped one
    axis at a time, so no axis is materialized as itertools.product does."""
    if not dims:
        return [()]
    return ((*head, x) for head in _prefixes(dims[:-1]) for x in range(dims[-1]))


def _runs(spec: LatticeSpec):
    """Every run of the last axis in rank order, as (prefix, head, inner,
    top): the run's other coordinates, those formatted as "x1,x2,", and
    the ascending codes of the fitting edges rooted at its interior roots
    and at its top root.  Callers must not mutate the code lists."""
    dims, last = spec.dims, spec.d - 1
    columns = [(c, (c - 1) % spec.d) for c in range(1, spec.codes + 1)]
    for prefix in _prefixes(dims[:-1]):
        inner = [c for c, axis in columns if axis == last or prefix[axis] + 1 < dims[axis]]
        top = [c for c in inner if (c - 1) % spec.d != last]
        yield prefix, "".join(f"{x}," for x in prefix), inner, top


def format_header(params: SchemeParams) -> str:
    spec = params.lattice
    dims = "x".join(str(n) for n in spec.dims)
    sig = params.sigma.modulus if params.sigma else 0
    return f"#dims={dims} directed={int(spec.directed)} t={spec.t} sigma={sig} scheme={params.kind}"


def coloring_lines(params: SchemeParams):
    """The export format: a header line, then one `coords code color`
    line per edge in (root rank, code) order.

    The lattice is walked one run of the last axis at a time (_runs); a
    run formats its prefix and lists the codes that fit once, so no edge
    is validated again.  The orthogonal-array kinds step an odometer
    with the rank: between carries only the last coefficient k = r mod
    sigma moves, and each step adds 1 mod sigma to every array entry and
    flips the last parity bit, so a root's entries are those of its row
    at k = 0, plus k.  Only a carry, once per sigma roots, reads that
    row's digits again and evaluates its entries and parities from them.
    Distance digits repeat with period 3 along the last axis, so each
    run computes them for its three residues."""
    yield format_header(params)
    spec = params.lattice
    n, p = spec.dims[-1], params.sigma
    if not p:  # color2 reads no rank
        for prefix, head, inner, top in _runs(spec):
            for x in range(n):
                root = (*prefix, x)
                for c in inner if x < n - 1 else top:
                    yield f"{head}{x} {c} {color2_assign(root, None, c, params)}"
        return
    m, size = p.modulus, params.group_size
    blocks = [0] + [c * m for c in range(spec.codes)]  # indexed by code
    for q, (prefix, head, inner, top) in enumerate(_runs(spec)):
        distance = [0 if spec.directed else _distance_group((*prefix, y), spec) for y in range(3)]
        for x, r in enumerate(range(q * n, q * n + n)):
            k = r % m
            if not k:
                digits = base_digits(r, spec.t, p)
                entries = [0] + [poly_eval(digits, c, p) for c in range(1, spec.codes + 1)]
                parity = parity_group(digits)
            base = (parity | k & 1 | distance[x % 3]) * size
            tag = f"{head}{x} "
            for c in inner if x < n - 1 else top:
                yield f"{tag}{c} {base + blocks[c] + (entries[c] + k) % m}"


def parse_header(line: str) -> SchemeParams:
    """Rebuild scheme parameters from a coloring file's first line,
    which must be exactly the line format_header writes for them."""
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
    if line != format_header(params):
        raise ValueError(f"non-canonical coloring header: {line!r}")
    return params
