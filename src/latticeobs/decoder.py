"""Recover a walk's location from its edge colors alone.

The decoder never sees the walk's start.  One pipeline serves every
scheme kind, in five stages:

  unpack   split each color into (code, value, parity, distance), the
           last two still packed ints that later stages read bits off;
  signs    read each step's traversal direction: from the code on
           directed lattices, from the distance digits on undirected
           ones (recover_signs);
  trace    rebuild the walk's shape and rank changes relative to its
           start and find its lexicographically smallest node;
  locate   place that minimum absolutely, reading rank gaps off the trace;
  verify   recolor the placed walk once and demand an exact match, the
           one placement check; the embedding is the start plus the
           offsets the trace found.

Only `locate` depends on the scheme kind: colord and undir solve the
minimum's orthogonal-array row from color-value differences, color2
reads each coordinate's quotient and remainder off an up/down edge pair
of its axis.
Anything inconsistent comes back with status "invalid".  An undirected
sequence whose distance digits cannot tell its traversal directions
apart (every stream constant, see recover_signs) comes back
"ambiguous"; that is decided before the dimension check and before any
placement, so it does not mean that two walks fit, and many such
sequences fit none.  Reports never guess.
"""

from operator import add

from .colorer import SchemeParams, color_unpack, color_walk
from .gfpoly import FieldPrime, poly_eval
# walk_nodes goes unused here; bench/layers.py times calls made through
# decoder.walk_nodes, so the name stays importable from this module.
from .lattice import Record, Walk, set_field, trace_steps, unrank, walk_nodes
from .oarray import oa_row_from_projection

OK = "ok"
AMBIGUOUS = "ambiguous"
INVALID = "invalid"


class ObservationError(ValueError):
    """The color sequence cannot come from any walk under this scheme."""


class AmbiguousObservation(ObservationError):
    """Sign recovery found every distance stream constant, so the
    digits leave the steps' directions open.  Raised before the
    dimension check and before any placement: the colors may fit two
    walks, one, or none."""


class WalkObservation(Record):
    _fields = ("colors", "params")

    def __init__(self, colors, params: SchemeParams) -> None:
        set_field(self, "colors", tuple(colors))
        set_field(self, "params", params)
        if not self.colors:
            raise ValueError("observation needs at least one color")


class DecodeReport(Record):
    _fields = ("status", "root", "root_index", "current", "embedding")

    def __init__(
        self,
        status: str,
        root: tuple | None = None,
        root_index: int | None = None,
        current: tuple | None = None,
        embedding: tuple | None = None,
    ) -> None:
        set_field(self, "status", status)
        set_field(self, "root", root)
        set_field(self, "root_index", root_index)
        set_field(self, "current", current)
        set_field(self, "embedding", embedding)


def recover_coef_diffs(
    ell: int, parity_a: int, parity_b: int, t: int, p: FieldPrime
) -> tuple[int, ...]:
    """Coefficient differences of two rank rows from their index gap.

    ell = index_a - index_b >= 0, and each parity is a row's coefficient
    parities as parity_group packs them.  Working least-significant
    digit first, each base-modulus digit of the remaining gap is the
    coefficient difference up to one borrow of the modulus; the known
    parities pick the single candidate in (-modulus, modulus) because
    the modulus is odd, which SchemeParams guarantees by refusing 2.
    """
    m = p.modulus
    if ell < 0:
        raise ObservationError("rank gap must be non-negative")
    flips = parity_a ^ parity_b
    deltas = [0] * t
    for k in range(t - 1, -1, -1):
        want = flips >> (t - 1 - k) & 1
        rem = ell % m
        delta = rem if rem % 2 == want else rem - m
        if delta <= -m:
            raise ObservationError("rank gap digit borrows past the modulus")
        deltas[k] = delta
        ell = (ell - delta) // m
    if ell:
        raise ObservationError("rank gap left over after t digits")
    return tuple(deltas)


def decode(obs: WalkObservation) -> DecodeReport:
    """Run the decode pipeline on one observation.

    Every refusal raises ObservationError (or AmbiguousObservation)
    from its stage and maps to a status here, in one place.
    """
    params = obs.params
    spec = params.lattice
    locate = _LOCATORS[params.kind]
    try:
        try:
            parts = [color_unpack(c, params) for c in obs.colors]
        except ValueError as exc:
            raise ObservationError(str(exc)) from None
        codes = [part[0] for part in parts]
        if spec.directed:
            signs = [spec.step_table[code][1] for code in codes]
            steps = codes
        else:
            signs = recover_signs(obs, parts)
            steps = [a * s for a, s in zip(codes, signs)]
        if len(set(codes)) < spec.t:
            raise ObservationError("walk spans fewer than t orientations")
        offsets, ranks, root_idx = trace_steps(steps, spec)
        start = locate(params, parts, codes, signs, offsets, ranks, root_idx)
        try:
            recolored = color_walk(Walk(start, tuple(steps)), params)
        except ValueError:
            raise ObservationError("placed walk leaves the lattice") from None
        if recolored != obs.colors:
            raise ObservationError("recolored walk differs from the observation")
    except AmbiguousObservation:
        return DecodeReport(AMBIGUOUS)
    except ObservationError:
        return DecodeReport(INVALID)
    # color_walk checked every start + offset; the list sizes the tuple exactly
    nodes = tuple([tuple(map(add, start, off)) for off in offsets])
    return DecodeReport(
        OK, root=nodes[root_idx], root_index=root_idx, current=nodes[-1], embedding=nodes
    )


def _locate_oa(params, parts, codes, signs, offsets, ranks, root_idx) -> tuple:
    """Start node from the orthogonal-array row of the walk's minimum.

    The first edge of each of the t smallest codes gives one column; its
    root is walk node pos or pos + 1, by the step's sign.  Any walk edge
    incident to the minimum is rooted there, so its parity bits describe
    the minimum's row; verify recolors that edge from the solved row,
    so a row with other parities fails there.
    """
    spec = params.lattice
    p, t = params.sigma, spec.t
    anchor_parity = parts[root_idx - 1 if root_idx else 0][2]
    columns = sorted(set(codes))[:t]
    values = []
    for column in columns:
        pos = codes.index(column)
        k = pos if signs[pos] > 0 else pos + 1
        gap = ranks[k] - ranks[root_idx]
        _, value, parity, _ = parts[pos]
        deltas = recover_coef_diffs(gap, parity, anchor_parity, t, p)
        # entries are linear in the coefficients
        values.append((value - poly_eval(deltas, column, p)) % p.modulus)
    row = oa_row_from_projection(columns, values, params.oa)
    if row >= spec.size:
        raise ObservationError("solved rank is outside the lattice")
    root = unrank(row, spec)
    return tuple(r - o for r, o in zip(root, offsets[root_idx]))


def _locate_color2(params, parts, codes, signs, offsets, ranks, root_idx) -> tuple:
    """Start node of a color2 walk, one coordinate per axis.

    Each axis needs one up/down alternation among its parallel edges;
    the two edges cross the same level, so the up edge's color holds
    that coordinate's quotient and the down edge's its remainder.
    """
    r, d = params.group_size, params.lattice.d
    start = []
    for axis in range(d):
        # decode demands all t = 2d codes, so every axis alternates
        prev = None
        for pos, code in enumerate(codes):
            if (code - 1) % d != axis:
                continue
            if prev is not None and signs[pos] != signs[prev]:
                break
            prev = pos
        upos, dpos = (prev, pos) if signs[prev] > 0 else (pos, prev)
        coord = parts[upos][1] * r + parts[dpos][1]
        # the up edge's root is its tail: walk node upos
        start.append(coord - offsets[upos][axis])
    return tuple(start)


# locate is the only stage that depends on the scheme kind
_LOCATORS = {"colord": _locate_oa, "undir": _locate_oa, "color2": _locate_color2}


def recover_signs(obs: WalkObservation, parts=None) -> list[int]:
    """Traversal direction of each step of an undir observation; parts,
    when given, are its colors already unpacked.

    Every color carries one distance digit per reference corner, packed
    base 3, and every stream q is read with one rule,
    (distance // 3**q - (code == q)) % 3: an edge along the corner's own
    axis (code q; no code is 0) is rooted at its farther endpoint, one
    past the nearer.  A stream's shared offset, like the +1 of q >= 1,
    cancels: only differences between adjacent edges are read.  The
    nearer-end distance moves +1 between edges that both head away from
    the corner, -1 when both head toward it, 0 when they oppose; any
    unequal adjacent pair pins every direction (flipped on the corner's
    own axis, where away is down).  A stream with no unequal pair says
    nothing; if all are constant the observation is ambiguous.
    """
    params = obs.params
    spec = params.lattice
    if params.kind != "undir":
        raise ValueError("sign recovery reads undir scheme digits")
    if parts is None:
        parts = [color_unpack(c, params) for c in obs.colors]
    weight = 1
    for q in range(spec.d - spec.t + 2):
        rel = _alternation_signs([(distance // weight - (code == q)) % 3
                                  for code, _, _, distance in parts])
        if rel is not None:
            # toward/away flips meaning on the corner's own axis
            return [-s if part[0] == q else s for part, s in zip(parts, rel)]
        weight *= 3
    raise AmbiguousObservation("every distance stream is constant")


def _alternation_signs(ideals) -> list[int] | None:
    """Rising(+1)/falling(-1) sense of each edge against one distance
    potential, or None when the stream is constant.

    One pass: a normalized difference of 0 between adjacent edges flips
    the relative sense, 1 (both rise) or 2 (both fall) keeps it and pins
    the global sign; every such pin must agree."""
    sense, pin, rel = 1, 0, [1]
    for a, b in zip(ideals, ideals[1:]):
        diff = (b - a) % 3
        if diff:
            need = sense if diff == 1 else -sense
            if pin and need != pin:
                raise ObservationError("distance digits fit no walk")
            pin = need
        else:
            sense = -sense
        rel.append(sense)
    if not pin:
        return None
    return rel if pin > 0 else [-s for s in rel]
