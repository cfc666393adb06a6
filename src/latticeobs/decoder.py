"""Recover a walk's location from its edge colors alone.

The decoder never sees the walk's start.  One pipeline serves every
decodable scheme, in five stages:

  unpack   split each color into a (code, value, parity, digits) tuple;
           locate expands parity bits for its t columns and anchor only;
  signs    read each step's traversal direction: from the code on
           directed lattices, from the distance digits on undirected
           ones (recover_signs);
  trace    rebuild the walk's shape relative to its start and find its
           lexicographically smallest node;
  locate   place that minimum absolutely;
  verify   recolor the placed walk once and demand an exact match; the
           embedding is the start plus the offsets the trace found.

Only `locate` depends on the scheme kind: colord and undir solve the
minimum's orthogonal-array row from color-value differences, color2
reads each coordinate's quotient and remainder off an up/down edge pair
of its axis.
Anything inconsistent comes back with status "invalid"; an undirected
sequence whose traversal directions are genuinely underdetermined comes
back "ambiguous".  Reports never guess.
"""

from dataclasses import dataclass
from operator import add

from .colorer import SchemeParams, color_unpack, color_walk, parity_bits, parity_group
from .gfpoly import FieldPrime, base_digits, poly_eval
# walk_nodes goes unused here; bench/layers.py times calls made through
# decoder.walk_nodes, so the name stays importable from this module.
from .lattice import Walk, rank_difference, trace_steps, unrank, walk_nodes
from .oarray import oa_row_from_projection

OK = "ok"
AMBIGUOUS = "ambiguous"
INVALID = "invalid"


class ObservationError(ValueError):
    """The color sequence cannot come from any walk under this scheme."""


class AmbiguousObservation(ObservationError):
    """More than one walk fits the color sequence."""


@dataclass(frozen=True)
class WalkObservation:
    colors: tuple[int, ...]
    params: SchemeParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if not self.colors:
            raise ValueError("observation needs at least one color")


@dataclass(frozen=True)
class DecodeReport:
    status: str
    root: tuple | None = None
    root_index: int | None = None
    current: tuple | None = None
    embedding: tuple | None = None


def recover_coef_diffs(
    ell: int, parity_a, parity_b, t: int, p: FieldPrime
) -> tuple[int, ...]:
    """Coefficient differences of two rank rows from their index gap.

    ell = index_a - index_b >= 0.  Working least-significant digit
    first, each base-modulus digit of the remaining gap is the
    coefficient difference up to one borrow of the modulus; the known
    parities pick the single candidate in (-modulus, modulus) because
    the modulus is odd.
    """
    m = p.modulus
    if m % 2 == 0:
        raise ValueError("parity recovery needs an odd modulus")
    if len(parity_a) != t or len(parity_b) != t:
        raise ValueError(f"need {t} parity bits per row")
    if ell < 0:
        raise ObservationError("rank gap must be non-negative")
    deltas = [0] * t
    for k in range(t - 1, -1, -1):
        want = parity_a[k] ^ parity_b[k]
        rem = ell % m
        delta = rem if rem % 2 == want else rem - m
        if delta <= -m:
            raise ObservationError("rank gap inconsistent with parities")
        deltas[k] = delta
        ell = (ell - delta) // m
    if ell:
        raise ObservationError("rank gap inconsistent with parities")
    return tuple(deltas)


def decode(obs: WalkObservation) -> DecodeReport:
    """Run the decode pipeline on one observation.

    Every refusal raises ObservationError (or AmbiguousObservation)
    from its stage and maps to a status here, in one place.
    """
    params = obs.params
    spec = params.lattice
    locate = _LOCATORS.get(params.kind)
    if locate is None:
        raise ValueError(f"scheme {params.kind!r} is not decodable")
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
        offsets, root_idx = trace_steps(steps, spec)
        start = locate(params, parts, signs, offsets, root_idx)
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


def _locate_oa(params, parts, signs, offsets, root_idx) -> tuple:
    """Start node from the orthogonal-array row of the walk's minimum.

    The first edge of each of the t smallest codes gives one column; its
    root is walk node pos or pos + 1, by the step's sign.  Any walk edge
    incident to the minimum is rooted there, so its parity bits describe
    the minimum's row.
    """
    spec = params.lattice
    p, t = params.sigma, spec.t
    codes = [part[0] for part in parts]
    anchor_parity = parts[root_idx - 1 if root_idx else 0][2]
    anchor_bits = parity_bits(anchor_parity, t)
    columns = sorted(set(codes))[:t]
    values = []
    for column in columns:
        pos = codes.index(column)
        k = pos if signs[pos] > 0 else pos + 1
        gap = rank_difference(offsets, k, root_idx, spec)
        _, value, parity, _ = parts[pos]
        deltas = recover_coef_diffs(gap, parity_bits(parity, t), anchor_bits, t, p)
        # entries are linear in the coefficients
        values.append((value - poly_eval(deltas, column, p)) % p.modulus)
    row = oa_row_from_projection(columns, values, params.oa)
    if row >= spec.size:
        raise ObservationError("solved rank is outside the lattice")
    if parity_group(base_digits(row, t, p)) != anchor_parity:
        raise ObservationError("parity mismatch at the solved root")
    root = unrank(row, spec)
    return tuple(r - o for r, o in zip(root, offsets[root_idx]))


def _locate_color2(params, parts, signs, offsets, root_idx) -> tuple:
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
        for pos, (code, _, _, _) in enumerate(parts):
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

    Every color carries one distance digit per reference corner.  Each
    stream is first normalized to "the nearer endpoint's distance mod 3"
    (the stored digit sits one past it, one more again when the edge
    runs along the corner's own axis, where the lexicographic root is
    the farther endpoint).  Between consecutive edges the nearer-end
    distance then moves +1 when both traversals head away from the
    corner, -1 when both head toward it, and 0 when they oppose; the
    first unequal adjacent pair pins every direction.  A stream with no
    unequal pair says nothing, and if all streams are constant the
    observation is ambiguous.
    """
    params = obs.params
    spec = params.lattice
    if params.kind != "undir":
        raise ValueError("sign recovery reads undir scheme digits")
    if parts is None:
        parts = [color_unpack(c, params) for c in obs.colors]
    for stream in range(spec.d - spec.t + 2):
        ideals = []
        for code, _, _, digits in parts:
            dig = digits[stream]
            if stream > 0:
                dig = (dig - 1 - (code == stream)) % 3
            ideals.append(dig)
        rel = _alternation_signs(ideals)
        if rel is None:
            continue
        if stream == 0:
            return rel
        # toward/away flips meaning on the corner's own axis
        return [-s if part[0] == stream else s for part, s in zip(parts, rel)]
    raise AmbiguousObservation("every distance stream is constant")


def _alternation_signs(ideals) -> list[int] | None:
    """Rising(+1)/falling(-1) sense of each edge against one distance
    potential, or None when the stream is constant."""
    n = len(ideals)
    boot = next((i for i in range(n - 1) if ideals[i] != ideals[i + 1]), None)
    if boot is None:
        return None
    signs = [0] * n
    signs[boot] = signs[boot + 1] = 1 if (ideals[boot + 1] - ideals[boot]) % 3 == 1 else -1
    for i in range(boot + 1, n - 1):
        signs[i + 1] = _chain(signs[i], (ideals[i + 1] - ideals[i]) % 3)
    for i in range(boot - 1, -1, -1):
        signs[i] = _chain(signs[i + 1], (ideals[i + 1] - ideals[i]) % 3)
    return signs


def _chain(known: int, diff: int) -> int:
    """Sign of the edge adjacent to one with a known sign, given the
    normalized color difference between them (0 opposes, 1 both rise,
    2 both fall)."""
    if diff == 0:
        return -known
    need = 1 if diff == 1 else -1
    if known != need:
        raise ObservationError("distance digits fit no walk")
    return need
