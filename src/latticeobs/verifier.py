"""Oracles and campaigns: color-count bounds, the edge-disjoint walk
family behind them, exhaustive ambiguity scans, seeded walk generation,
fault injection, and round-trip drives of the decoders.
"""

import itertools
import random

# assign_color and apply_step go unused here; bench/layers.py counts calls
# made through verifier.assign_color and verifier.apply_step, so both
# names stay importable from this module.
from .colorer import _ASSIGNERS, SchemeParams, assign_color, color_walk
from .decoder import OK, DecodeReport, WalkObservation, decode
from .gfpoly import ceil_nth_root
from .lattice import (
    Edge,
    LatticeSpec,
    Record,
    Walk,
    apply_step,
    set_field,
    unrank,
    walk_dimension,
    walk_nodes,
)


def lower_bound_colors(spec: LatticeSpec) -> int:
    """Fewest colors any scheme answering t-dimensional walks can use:
    ceil((size / 2^d)^(1/t)), since the walk family below has size/2^d
    members whose t-color sequences must all differ."""
    return ceil_nth_root(-(-spec.size // 2**spec.d), spec.t)


def lb_walk_family(spec: LatticeSpec) -> list[Walk]:
    """One t-edge walk per block of 2^d nodes, pairwise edge-disjoint.

    Each walk starts at an all-even node and steps up axes 1..min(t,d);
    a directed walk then comes back down the top t-d axes.  All edges
    stay inside the start's unit cube, so distinct starts never share
    an edge.
    """
    if any(n % 2 for n in spec.dims):
        raise ValueError("walk family needs even axis lengths")
    d, t = spec.d, spec.t
    steps = list(range(1, min(t, d) + 1))
    if spec.directed and t > d:
        steps += [3 * d - t + j for j in range(1, t - d + 1)]
    return [
        Walk(start, tuple(steps))
        for start in itertools.product(*(range(0, n, 2) for n in spec.dims))
    ]


# ambiguity_scan recurses once per step but the last, and every lattice
# but the two-node path has at least 2^32 walks of 64 steps, far past any
# budget.
MAX_SCAN_LEN = 64


class ScanReport(Record):
    _fields = ("scanned", "max_len", "collisions", "ok")

    def __init__(self, scanned: int, max_len: int, collisions: tuple, ok: bool) -> None:
        set_field(self, "scanned", scanned)
        set_field(self, "max_len", max_len)
        set_field(self, "collisions", collisions)
        set_field(self, "ok", ok)


def ambiguity_scan(
    params: SchemeParams,
    max_len: int,
    t_min: int,
    budget: int = 5_000_000,
    color_fn=None,
) -> ScanReport:
    """Enumerate every walk of length <= max_len; group the ones of
    dimension >= t_min by color sequence and flag any sequence reaching
    two distinct endpoints.  t_min must be in [1, min(max_len, codes)],
    since a walk of max_len steps spans at most that many edge codes;
    anything else would group no walk and check nothing.  max_len above
    MAX_SCAN_LEN is refused before any walk is built.

    On an undirected lattice a walk that never leaves one edge is never
    grouped: it crosses the same color whichever end it starts from, so
    no coloring can place it.  On a directed lattice such a walk has one
    step and is grouped like any other.  color_fn overrides the scheme's
    assigner, e.g. to show a broken coloring collides; it receives each
    edge as an Edge.

    The search runs on node ranks.  The first time it reaches a node it
    builds the node's successor list, one (next rank, edge id, color id,
    1 << code) per step that stays inside, and keeps it; so memory grows
    with the edges of the nodes visited.  Every edge is two one-step
    walks, so a lattice with more than budget / 2 edges is refused before
    any node is built.  Each edge is colored once, by color_fn or else by
    the scheme's unchecked assigner from the root and rank the search
    holds, and each distinct color gets a dense id from 1 up the first
    time it is seen.  A color sequence is keyed by one int, its ids as
    digits in base size * codes + 1, so a step multiplies and adds
    instead of copying a tuple; only reported sequences are decoded back
    to colors.  A walk's dimension is the bit count of its code bitmask.

    The search recurses once per step but the last: a walk one step
    short of max_len takes its last steps in a loop over its end's
    successors, and skips grouping them at once when it spans fewer
    than t_min - 1 codes.  The budget is counted per expansion, all
    successors at once, and still refuses exactly the scans of more
    than budget walks.  End nodes are kept as ranks; rank order is
    lexicographic order, so only reported ends are unranked.

    Acceptance criterion 7, the 249,848 walks of colord 4x4 up to 8
    steps, takes 0.10-0.14 s and peaks at 21.0 MiB traced (Python
    3.11, shared two-core Xeon host).
    """
    if max_len > MAX_SCAN_LEN:
        raise ValueError(f"max_len={max_len} above the scan cap of {MAX_SCAN_LEN} steps")
    spec = params.lattice
    top = min(max_len, spec.codes)
    if not 1 <= t_min <= top:
        raise ValueError(
            f"t_min={t_min} outside [1, {top}]: max_len={max_len}, {spec.codes} edge codes"
        )
    if 2 * sum(spec.size // n * (n - 1) for n in spec.dims) > budget:
        raise ValueError(f"scan exceeded budget of {budget} walks")
    assign = _ASSIGNERS[params.kind]
    if color_fn is not None:
        assign = lambda root, _, code, __: color_fn(Edge(root, code))
    dims, n_codes = spec.dims, spec.codes
    moves = spec.step_table.values()
    # A color sequence is keyed by the int whose base-B digits are its
    # colors' dense ids, first color most significant.  Ids run from 1 to
    # the number of distinct colors, at most one per edge id and so below
    # B: no digit is 0, and sequences of any lengths get distinct keys.
    B = spec.size * n_codes + 1
    ids: dict = {}  # color -> dense id, in first-seen order
    coded: dict[int, int] = {}  # edge id -> dense id of its color
    successors: dict[int, list] = {}
    ends: dict[int, int] = {}  # coded sequence -> first end rank
    clashes: dict[int, set] = {}  # coded sequence -> every end rank
    scanned = 0

    def build(r):
        u = unrank(r, spec)
        out = []
        for axis, sign, dr, code in moves:
            x = u[axis] + sign
            if not 0 <= x < dims[axis]:
                continue
            nxt = r + dr
            root, root_rank = (u, r) if sign > 0 else (u[:axis] + (x,) + u[axis + 1 :], nxt)
            edge = root_rank * n_codes + code - 1
            cid = coded.get(edge)
            if cid is None:
                color = assign(root, root_rank, code, params)
                cid = coded[edge] = ids.setdefault(color, len(ids) + 1)
            out.append((nxt, edge, cid, 1 << code))
        successors[r] = out
        return out

    def extend(r, depth, seq, lone, used):
        # seq: the walk's coded sequence times B, so a step adds its id;
        # lone: the one edge the walk has kept to, None before its first
        # step, -1 once it has used two or on a directed lattice, where
        # every walk is grouped; used: the walk's code bits
        nonlocal scanned
        succ = successors.get(r)
        if succ is None:
            succ = build(r)
        scanned += len(succ)
        if scanned > budget:
            raise ValueError(f"scan exceeded budget of {budget} walks")
        left = max_len - depth  # steps these walks may still take
        for nxt, edge, cid, bit in succ:
            walk = seq + cid
            one = edge if lone is None or lone == edge else -1
            mask = used | bit
            codes = mask.bit_count()
            if codes >= t_min and one < 0:
                first = ends.setdefault(walk, nxt)
                if first != nxt:
                    clashes.setdefault(walk, {first}).add(nxt)
            if left > 1:
                extend(nxt, depth + 1, walk * B, one, mask)
                continue
            if not left:
                continue
            # the last step, taken here rather than by a call per walk
            last = successors.get(nxt)
            if last is None:
                last = build(nxt)
            scanned += len(last)
            if scanned > budget:
                raise ValueError(f"scan exceeded budget of {budget} walks")
            # one step adds at most one code
            if codes + 1 < t_min:
                continue
            # skip a last step on a code the walk has used while it still
            # needs one more, or back over the one edge of a single-edge walk
            reused = mask if codes < t_min else 0
            walk *= B
            for end, last_edge, last_cid, last_bit in last:
                if last_bit & reused or last_edge == one:
                    continue
                key = walk + last_cid
                first = ends.setdefault(key, end)
                if first != end:
                    clashes.setdefault(key, {first}).add(end)

    lone = -1 if spec.directed else None
    for r in range(spec.size):
        extend(r, 1, 0, lone, 0)
    palette = (None, *ids) if clashes else ()  # dense id -> color

    def colors(key):
        seq = []
        while key:
            key, cid = divmod(key, B)
            seq.append(palette[cid])
        return tuple(reversed(seq))

    collisions = tuple(
        sorted(
            (colors(key), tuple(unrank(e, spec) for e in sorted(ranks)))
            for key, ranks in clashes.items()
        )
    )
    return ScanReport(scanned, max_len, collisions, not collisions)


# draws random_walk makes before it gives up on a (t, length) request
MAX_TRIES = 10_000


def random_walk(
    params: SchemeParams,
    t: int,
    length: int,
    seed: int,
    min_distinct_edges: int | None = None,
) -> Walk:
    """Seeded walk of exactly `length` steps spanning exactly t
    orientations (directed) or axes (undirected), crossing at least
    min_distinct_edges distinct edges: by default 2 on undirected
    lattices, where no coloring places a one-edge walk, 1 on directed
    ones.  Same seed, same walk.  Impossible requests fail before a draw.

    Each try draws t orientations or axes and a start, then steps to a
    uniformly drawn legal move; a move is legal when the one coordinate
    it changes stays inside its axis.  A walk over t codes crosses one
    edge per code, so edges are counted, as (root, code) pairs over
    walk_nodes, only when min_distinct_edges exceeds t."""
    spec = params.lattice
    n_codes = spec.codes
    if not 1 <= t <= n_codes:
        raise ValueError(f"t={t} not realizable on this lattice")
    if length < t:
        raise ValueError("dimension t needs at least t steps")
    if min_distinct_edges is None:
        min_distinct_edges = 1 if spec.directed else 2
    line, no_walk = max(spec.dims) - 1, f"no {t}-dimensional walk of length {length}"
    if min_distinct_edges > length:
        raise ValueError(f"{no_walk} crosses {min_distinct_edges} distinct edges")
    if t == 1 and spec.directed and length > line:
        raise ValueError(f"{no_walk} moves one way along an axis line of {line} edges")
    if t == 1 and min_distinct_edges > line:
        raise ValueError(f"{no_walk} crosses {min_distinct_edges} of an axis line's {line} edges")
    dims, table = spec.dims, spec.step_table
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        allowed = sorted(rng.sample(range(1, n_codes + 1), t))
        if not spec.directed:
            allowed = [s for a in allowed for s in (a, -a)]
        moves = [(s, *table[s][:2]) for s in allowed]  # (step, axis, sign)
        node = [rng.randrange(n) for n in dims]
        start = tuple(node)
        steps = []
        for _ in range(length):
            legal = [m for m in moves if 0 <= node[m[1]] + m[2] < dims[m[1]]]
            if not legal:
                break
            s, axis, sign = legal[rng.randrange(len(legal))]
            steps.append(s)
            node[axis] += sign
        if len(steps) < length:
            continue
        w = Walk(start, tuple(steps))
        if walk_dimension(w, spec) != t:
            continue
        if min_distinct_edges <= t:
            return w
        nodes = walk_nodes(w, spec)
        edges = {(min(u, v), table[s][3]) for s, u, v in zip(steps, nodes, nodes[1:])}
        if len(edges) >= min_distinct_edges:
            return w
    raise ValueError(f"{no_walk} in {MAX_TRIES} tries")


def fault_inject(obs: WalkObservation, position: int, new_color: int) -> WalkObservation:
    """Copy of the observation with one color substituted."""
    if not 0 <= position < len(obs.colors):
        raise ValueError(f"position {position} outside the observation")
    colors = list(obs.colors)
    colors[position] = new_color
    return WalkObservation(tuple(colors), obs.params)


class CampaignReport(Record):
    _fields = ("label", "total", "ok", "failures")

    def __init__(self, label: str, total: int, ok: int, failures: tuple) -> None:
        set_field(self, "label", label)
        set_field(self, "total", total)
        set_field(self, "ok", ok)
        set_field(self, "failures", failures)

    def lines(self) -> str:
        out = [self.label]
        out += [
            f"fail walk={i} start={start} steps={steps} status={status}"
            for i, start, steps, status in self.failures
        ]
        out.append(f"ok={self.ok}/{self.total}")
        return "\n".join(out)


def roundtrip_campaign(
    params: SchemeParams,
    t: int,
    n_walks: int,
    length: int,
    seed: int,
    min_distinct_edges: int | None = None,
) -> CampaignReport:
    """Drive the decoder with random_walk's seeded walks, min_distinct_edges
    as there: color each, decode the colors alone, compare with the truth."""
    if n_walks < 1:
        raise ValueError(f"n_walks={n_walks}: a campaign needs at least one walk")
    spec = params.lattice
    ok = 0
    failures = []
    for i in range(n_walks):
        w = random_walk(params, t, length, seed + i, min_distinct_edges)
        nodes = walk_nodes(w, spec)
        report = decode(WalkObservation(color_walk(w, params), params))
        root = min(nodes)
        if report == DecodeReport(OK, root, nodes.index(root), nodes[-1], tuple(nodes)):
            ok += 1
        else:
            failures.append((i, w.start, w.steps, report.status))
    dims = "x".join(map(str, spec.dims))
    label = (
        f"roundtrip scheme={params.kind} dims={dims} t={t} "
        f"walks={n_walks} length={length} seed={seed}"
    )
    return CampaignReport(label, n_walks, ok, tuple(failures))
