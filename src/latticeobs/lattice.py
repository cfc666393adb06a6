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

LatticeSpec, Edge and Walk, and the library's other record types, are
Records: immutable values that print as Name(field=value, ...) and
compare and hash by their exact class and field tuple.
"""

import math
from collections.abc import Sequence
from functools import cached_property
from itertools import accumulate
from operator import attrgetter

Coord = tuple[int, ...]

# Record constructors store their fields past the frozen __setattr__.
set_field = object.__setattr__


class Record:
    """An immutable value over the field names in _fields.

    Each subclass writes its own __init__, storing every field with
    set_field.  repr, equality and hash read the field tuple; equality
    holds only between objects of the same class, and the hash is the
    field tuple's.  Assigning or deleting any attribute raises
    AttributeError.  Instances keep a __dict__, so cached_property works
    on them; copies and pickles carry the fields alone, and a cached
    value is computed again on first use."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        return dict(zip(self._fields, self._values(self)))


class StepTable(dict):
    """A step table that refuses a code the lattice lacks with ValueError."""

    def __missing__(self, step):
        raise ValueError(f"bad step code {step} for this lattice")


class LatticeSpec(Record):
    """Axis lengths, directedness and walk dimension t.  d, codes, size,
    weights and step_table are computed once per instance, not fields."""

    _fields = ("dims", "directed", "t")

    def __init__(self, dims: Sequence[int], directed: bool, t: int) -> None:
        set_field(self, "dims", tuple(dims))
        set_field(self, "directed", directed)
        set_field(self, "t", t)
        if not self.dims or any(n < 2 for n in self.dims):
            raise ValueError(f"dims {self.dims}: need at least one axis, each of length >= 2")
        if not 1 <= self.t <= self.codes:
            raise ValueError(f"t must be in [1, {self.codes}] for this lattice")

    @cached_property
    def d(self) -> int:
        return len(self.dims)

    @cached_property
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


class Edge(Record):
    _fields = ("root", "code")

    def __init__(self, root: Coord, code: int) -> None:
        set_field(self, "root", root)
        set_field(self, "code", code)


class Walk(Record):
    _fields = ("start", "steps")

    def __init__(self, start: Coord, steps: tuple[int, ...]) -> None:
        set_field(self, "start", start)
        set_field(self, "steps", steps)


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
    """Nodes w visits, start first, stepped on one list and stored as
    tuples; ValueError on a bad start, code or step."""
    if not in_bounds(w.start, spec):
        raise ValueError(f"start {w.start} outside lattice {spec.dims}")
    table, dims = spec.step_table, spec.dims
    node = list(w.start)
    nodes = [tuple(node)]
    for s in w.steps:
        axis, sign, _, _ = table[s]
        x = node[axis] + sign
        if not 0 <= x < dims[axis]:
            raise ValueError(f"step {s} leaves the lattice at {nodes[-1]}")
        node[axis] = x
        nodes.append(tuple(node))
    return nodes


def walk_dimension(w: Walk, spec: LatticeSpec) -> int:
    """Distinct edge codes crossed by w: orientations (directed) or axes
    (undirected)."""
    if not w.steps:
        raise ValueError("empty walk has no dimension")
    return len({spec.step_table[s][3] for s in w.steps})


def trace_steps(steps: Sequence[int], spec: LatticeSpec) -> tuple[list[int], int]:
    """Each node's rank change from the start, node 0 at 0, and the first
    index of the smallest: rank order is lexicographic order, so on a walk
    that fits the lattice that index is its smallest node's first visit."""
    table = spec.step_table
    ranks = list(accumulate((table[s][2] for s in steps), initial=0))
    return ranks, ranks.index(min(ranks))
