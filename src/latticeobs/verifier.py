"""Oracles and campaigns: color-count bounds, the edge-disjoint walk
family behind them, exhaustive ambiguity scans, seeded walk generation,
fault injection, and round-trip drives of the decoders.
"""

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from .colorer import SchemeParams, assign_color, color_walk
from .decoder import OK, WalkObservation, decode
from .lattice import (
    Edge,
    LatticeSpec,
    Walk,
    apply_step,
    step_edge,
    unrank,
    walk_dimension,
    walk_nodes,
)


def lower_bound_colors(spec: LatticeSpec) -> int:
    """Fewest colors any scheme answering t-dimensional walks can use:
    ceil((size / 2^d)^(1/t)), since the walk family below has size/2^d
    members whose t-color sequences must all differ."""
    c = 1
    while c**spec.t * 2**spec.d < spec.size:
        c += 1
    return c


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


@dataclass(frozen=True)
class ScanReport:
    scanned: int
    max_len: int
    collisions: tuple
    ok: bool


def ambiguity_scan(
    params: SchemeParams,
    max_len: int,
    t_min: int,
    budget: int = 5_000_000,
    exclude_single_edge: bool = False,
    color_fn=None,
) -> ScanReport:
    """Enumerate every walk of length <= max_len; group the ones of
    dimension >= t_min by color sequence and flag any sequence reaching
    two distinct endpoints.

    exclude_single_edge drops walks that keep re-crossing one edge
    (undirected schemes leave those ambiguous by design).  color_fn
    overrides the scheme's assigner, e.g. to show a broken coloring
    collides.
    """
    spec = params.lattice
    if color_fn is None:
        color_fn = lambda e: assign_color(e, params)
    if spec.directed:
        step_menu = list(range(1, 2 * spec.d + 1))
    else:
        step_menu = [s for a in range(1, spec.d + 1) for s in (a, -a)]
    cache: dict[Edge, int] = {}
    groups: dict[tuple, set] = {}
    scanned = 0
    colors: list[int] = []
    edges_used: Counter = Counter()
    marks_used: Counter = Counter()

    def extend(node, depth):
        nonlocal scanned
        for s in step_menu:
            try:
                nxt = apply_step(node, s, spec)
            except ValueError:
                continue
            edge, _ = step_edge(node, s, spec, nxt)
            color = cache.get(edge)
            if color is None:
                color = cache[edge] = color_fn(edge)
            mark = s if spec.directed else abs(s)
            colors.append(color)
            edges_used[edge] += 1
            marks_used[mark] += 1
            scanned += 1
            if scanned > budget:
                raise ValueError(f"scan exceeded budget of {budget} walks")
            if len(marks_used) >= t_min and not (
                exclude_single_edge and len(edges_used) < 2
            ):
                groups.setdefault(tuple(colors), set()).add(nxt)
            if depth < max_len:
                extend(nxt, depth + 1)
            colors.pop()
            edges_used[edge] -= 1
            if not edges_used[edge]:
                del edges_used[edge]
            marks_used[mark] -= 1
            if not marks_used[mark]:
                del marks_used[mark]

    for r in range(spec.size):
        extend(unrank(r, spec), 1)
    collisions = tuple(
        sorted(
            (seq, tuple(sorted(ends)))
            for seq, ends in groups.items()
            if len(ends) > 1
        )
    )
    return ScanReport(scanned, max_len, collisions, not collisions)


def random_walk(
    params: SchemeParams,
    t: int,
    length: int,
    seed: int,
    min_distinct_edges: int = 1,
    max_tries: int = 10_000,
) -> Walk:
    """Seeded walk of exactly `length` steps spanning exactly t
    orientations (directed) or axes (undirected).  Same seed, same walk."""
    spec = params.lattice
    menu = list(range(1, (2 * spec.d if spec.directed else spec.d) + 1))
    if not 1 <= t <= len(menu):
        raise ValueError(f"t={t} not realizable on this lattice")
    if length < t:
        raise ValueError("dimension t needs at least t steps")
    rng = random.Random(seed)
    for _ in range(max_tries):
        allowed = sorted(rng.sample(menu, t))
        if not spec.directed:
            allowed = [s for a in allowed for s in (a, -a)]
        node = tuple(rng.randrange(n) for n in spec.dims)
        start = node
        steps = []
        edges = set()
        for _ in range(length):
            legal = []
            for s in allowed:
                try:
                    legal.append((s, apply_step(node, s, spec)))
                except ValueError:
                    continue
            if not legal:
                break
            s, nxt = legal[rng.randrange(len(legal))]
            edges.add(step_edge(node, s, spec, nxt)[0])
            steps.append(s)
            node = nxt
        if len(steps) < length:
            continue
        w = Walk(start, tuple(steps))
        if walk_dimension(w, spec) == t and len(edges) >= min_distinct_edges:
            return w
    raise ValueError(f"no {t}-dimensional walk of length {length} in {max_tries} tries")


def fault_inject(obs: WalkObservation, position: int, new_color: int) -> WalkObservation:
    """Copy of the observation with one color substituted."""
    if not 0 <= position < len(obs.colors):
        raise ValueError(f"position {position} outside the observation")
    colors = list(obs.colors)
    colors[position] = new_color
    return WalkObservation(tuple(colors), obs.params)


@dataclass(frozen=True)
class CampaignReport:
    label: str
    total: int
    ok: int
    failures: tuple

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
    min_distinct_edges: int = 1,
) -> CampaignReport:
    """Drive the decoder with seeded ground-truth walks: color each walk,
    decode the colors alone, and compare against the truth."""
    spec = params.lattice
    ok = 0
    failures = []
    for i in range(n_walks):
        w = random_walk(params, t, length, seed + i, min_distinct_edges)
        nodes = walk_nodes(w, spec)
        report = decode(WalkObservation(color_walk(w, params), params))
        truth_root = min(nodes)
        if (
            report.status == OK
            and report.current == nodes[-1]
            and report.root == truth_root
            and report.root_index == nodes.index(truth_root)
            and report.embedding == tuple(nodes)
        ):
            ok += 1
        else:
            failures.append((i, w.start, w.steps, report.status))
    dims = "x".join(map(str, spec.dims))
    label = (
        f"roundtrip scheme={params.kind} dims={dims} t={t} "
        f"walks={n_walks} length={length} seed={seed}"
    )
    return CampaignReport(label, n_walks, ok, tuple(failures))
