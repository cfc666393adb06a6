"""Rectangular lattice graphs: ranking, edges, walks, and tracing.

Nodes are integer points u with 0 <= u[j] < dims[j].  Nodes are ordered
lexicographically; rank(u) is u's position in that order, i.e. the
mixed-radix value of its coordinates.  Every edge is identified by its
root, the lexicographically smaller endpoint, plus a code:

  directed:   code in 1..2d.  Code j ("j-up") is the edge leaving the
              root along axis j; code d+j ("j-down") is the edge
              entering the root from the node above it on axis j.
  undirected: code in 1..d, the axis the edge is parallel to.

A walk stores its start node and its step sequence: orientation codes
when directed, signed axes (+j / -j) when undirected.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

Coord = tuple[int, ...]


class StepTable(dict):
    """A step table that refuses a code the lattice lacks with ValueError."""

    def __missing__(self, step):
        raise ValueError(f"bad step code {step} for this lattice")


@dataclass(frozen=True)
class LatticeSpec:
    dims: tuple[int, ...]
    directed: bool
    t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims or any(n < 2 for n in self.dims):
            raise ValueError(f"dims {self.dims}: need at least one axis, each of length >= 2")
        if not 1 <= self.t <= self.codes:
            raise ValueError(f"t must be in [1, {self.codes}] for this lattice")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def codes(self) -> int:
        """Edge codes: 2d orientations when directed, d axes when not."""
        return 2 * self.d if self.directed else self.d

    @cached_property
    def size(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Mixed-radix weights: rank changes by weights[j] per unit of u[j]."""
        w = [1] * self.d
        for j in range(self.d - 2, -1, -1):
            w[j] = w[j + 1] * self.dims[j + 1]
        return tuple(w)

    @cached_property
    def step_table(self) -> StepTable:
        """Every valid step code -> (zero-based axis, +1 or -1, rank
        change, edge code); the one place an unknown code is refused.

        A step's edge is rooted at its lexicographically smaller end: the
        node a +1 step leaves, the node a -1 step reaches.  Its code is
        the step itself on directed lattices and the axis (1-based) on
        undirected ones."""
        table = StepTable()
        for j, w in enumerate(self.weights):
            down = self.d + j + 1 if self.directed else -(j + 1)
            table[j + 1] = (j, 1, w, j + 1)
            table[down] = (j, -1, -w, down if self.directed else j + 1)
        return table


@dataclass(frozen=True)
class Edge:
    root: Coord
    code: int


@dataclass(frozen=True)
class Walk:
    start: Coord
    steps: tuple[int, ...]


def in_bounds(u: Sequence[int], spec: LatticeSpec) -> bool:
    return len(u) == spec.d and all(0 <= x < n for x, n in zip(u, spec.dims))


def rank(u: Sequence[int], spec: LatticeSpec) -> int:
    """Position of node u in lexicographic order."""
    if not in_bounds(u, spec):
        raise ValueError(f"node {tuple(u)} outside lattice {spec.dims}")
    return sum(x * w for x, w in zip(u, spec.weights))


def unrank(r: int, spec: LatticeSpec) -> Coord:
    """Node at position r in lexicographic order."""
    if not 0 <= r < spec.size:
        raise ValueError(f"rank {r} outside [0, {spec.size})")
    coords = []
    for w in spec.weights:
        x, r = divmod(r, w)
        coords.append(x)
    return tuple(coords)


def edge_endpoints(edge: Edge, spec: LatticeSpec) -> tuple[Coord, Coord]:
    """(root, far endpoint); validates the edge fits the lattice."""
    if not 1 <= edge.code <= spec.codes:
        raise ValueError(f"bad edge code {edge.code} for this lattice")
    axis = (edge.code - 1) % spec.d
    root = tuple(edge.root)
    far = root[:axis] + (root[axis] + 1,) + root[axis + 1 :]
    if not in_bounds(root, spec) or not in_bounds(far, spec):
        raise ValueError(f"edge {edge} does not fit lattice {spec.dims}")
    return root, far


def apply_step(u: Sequence[int], step: int, spec: LatticeSpec) -> Coord:
    """Node reached from u by one step; errors if either end is outside."""
    return walk_nodes(Walk(tuple(u), (step,)), spec)[1]


def walk_nodes(w: Walk, spec: LatticeSpec) -> list[Coord]:
    """Nodes w visits, start first; ValueError on a bad start, code or step."""
    if not in_bounds(w.start, spec):
        raise ValueError(f"start {w.start} outside lattice {spec.dims}")
    table, dims = spec.step_table, spec.dims
    u = tuple(w.start)
    nodes = [u]
    for s in w.steps:
        axis, sign, _, _ = table[s]
        x = u[axis] + sign
        if not 0 <= x < dims[axis]:
            raise ValueError(f"step {s} leaves the lattice at {u}")
        u = u[:axis] + (x,) + u[axis + 1 :]
        nodes.append(u)
    return nodes


def walk_dimension(w: Walk, spec: LatticeSpec) -> int:
    """Distinct edge codes crossed by w: orientations (directed) or axes
    (undirected)."""
    if not w.steps:
        raise ValueError("empty walk has no dimension")
    return len({spec.step_table[s][3] for s in w.steps})


def trace_steps(steps: Sequence[int], spec: LatticeSpec) -> tuple[tuple[Coord, ...], int]:
    """Node offsets relative to the start, plus the index of the
    lexicographically smallest node reached."""
    table = spec.step_table
    pos = (0,) * spec.d
    offsets = [pos]
    for s in steps:
        axis, sign, _, _ = table[s]
        pos = pos[:axis] + (pos[axis] + sign,) + pos[axis + 1 :]
        offsets.append(pos)
    root = min(range(len(offsets)), key=offsets.__getitem__)
    return tuple(offsets), root


def rank_difference(offsets, i: int, j: int, spec: LatticeSpec) -> int:
    """rank(node_i) - rank(node_j), computed from relative offsets alone."""
    oi, oj = offsets[i], offsets[j]
    return sum((a - b) * w for a, b, w in zip(oi, oj, spec.weights))
