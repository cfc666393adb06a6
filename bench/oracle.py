"""Correctness oracle behind the benchmark's failure count.

Ground truth is computed here from the generated inputs, without the
library's walk tracing.  An operation fails when:

- a clean decode's status, root, root index, current node or embedding
  differs from the ground-truth walk;
- a corrupted observation decodes ``ok`` and the library's ``color_walk``
  of the reported embedding does not reproduce the observation exactly
  (refusals are successes);
- a round trip is not ``ok``;
- an ambiguity scan or orthogonal-array check does not report ``ok``, or
  the scan enumerated another number of walks than a direct count gives;
- an export's line count differs from the edge count computed from
  ``dims``, its header does not round-trip through ``parse_header``, or a
  seeded sample of its lines disagrees with ``assign_color``.
"""

import math
from collections import Counter

from latticeobs import colorer, lattice
from latticeobs.decoder import OK


def step_move(step: int, d: int, directed: bool) -> tuple[int, int]:
    """(zero-based axis, +1 or -1) of one walk step."""
    if directed:
        return (step - 1) % d, 1 if step <= d else -1
    return abs(step) - 1, 1 if step > 0 else -1


def truth_nodes(walk, directed: bool) -> list[tuple]:
    """Every node a walk visits, from its start and steps alone."""
    node = list(walk.start)
    nodes = [tuple(node)]
    for step in walk.steps:
        axis, sign = step_move(step, len(node), directed)
        node[axis] += sign
        nodes.append(tuple(node))
    return nodes


def walk_from_embedding(embedding, directed: bool):
    """The walk through the embedding's nodes, or None when two
    consecutive nodes are not lattice neighbours."""
    if not embedding:
        return None
    steps = []
    for a, b in zip(embedding, embedding[1:]):
        if len(a) != len(b):
            return None
        moved = [(axis, y - x) for axis, (x, y) in enumerate(zip(a, b)) if x != y]
        if len(moved) != 1 or abs(moved[0][1]) != 1:
            return None
        axis, sign = moved[0]
        if directed:
            steps.append(axis + 1 if sign > 0 else len(a) + axis + 1)
        else:
            steps.append((axis + 1) * sign)
    return lattice.Walk(tuple(embedding[0]), tuple(steps))


def check_decode(report, nodes, colors, params, corrupted: bool) -> bool:
    """True when a decode report is correct for its observation.

    nodes is the ground-truth walk's node list; colors the observed
    sequence, which for a corrupted observation no longer matches it.
    """
    if not corrupted:
        root = min(nodes)
        return (
            report.status == OK
            and report.root == root
            and report.root_index == nodes.index(root)
            and report.current == nodes[-1]
            and report.embedding == tuple(nodes)
        )
    if report.status != OK:
        return True
    walk = walk_from_embedding(report.embedding, params.lattice.directed)
    if walk is None:
        return False
    try:
        return colorer.color_walk(walk, params) == tuple(colors)
    except ValueError:
        return False


def edge_count(dims, directed: bool) -> int:
    """Edges of the lattice: one per axis-neighbour pair, two if directed."""
    size = math.prod(dims)
    undirected = sum(size // n * (n - 1) for n in dims)
    return 2 * undirected if directed else undirected


def walk_count(dims, max_len: int) -> int:
    """Walks of 1..max_len steps, counted by dynamic programming over
    nodes.  Every neighbour is one step away in exactly one way, directed
    or not."""
    ways = Counter({node: 1 for node in _nodes(dims)})
    total = 0
    for _ in range(max_len):
        reached = Counter()
        for node, n in ways.items():
            for axis, size in enumerate(dims):
                for sign in (1, -1):
                    x = node[axis] + sign
                    if 0 <= x < size:
                        reached[node[:axis] + (x,) + node[axis + 1:]] += n
        total += sum(reached.values())
        ways = reached
    return total


def _nodes(dims):
    if not dims:
        yield ()
        return
    for rest in _nodes(dims[1:]):
        for x in range(dims[0]):
            yield (x,) + rest


def check_export(path: str, params, rng, sample: int) -> list[str]:
    """Reasons the coloring file at path is wrong; empty when it is right."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        return ["file does not end with a newline"]
    lines.pop()
    reasons = []
    spec = params.lattice
    want = edge_count(spec.dims, spec.directed)
    if len(lines) - 1 != want:
        reasons.append(f"{len(lines) - 1} edge lines, expected {want}")
    try:
        if colorer.parse_header(lines[0]) != params:
            reasons.append(f"header {lines[0]!r} names other parameters")
    except ValueError as exc:
        reasons.append(f"header does not parse: {exc}")
    body = lines[1:]
    for i in rng.sample(range(len(body)), min(sample, len(body))):
        try:
            coords, code, color = body[i].split(" ")
            edge = lattice.Edge(tuple(int(x) for x in coords.split(",")), int(code))
            right = colorer.assign_color(edge, params) == int(color)
        except ValueError:
            right = False
        if not right:
            reasons.append(f"line {i + 2} {body[i]!r} disagrees with assign_color")
    return reasons
