"""Lattice model: ranks, edges, walks, and tracing."""

import itertools

import pytest

from latticeobs.colorer import color_walk, make_scheme
from latticeobs.lattice import (
    Edge,
    LatticeSpec,
    Walk,
    apply_step,
    edge_endpoints,
    in_bounds,
    rank,
    trace_steps,
    unrank,
    walk_dimension,
    walk_nodes,
)

D33 = LatticeSpec((3, 3), directed=True, t=2)
U33 = LatticeSpec((3, 3), directed=False, t=2)


def all_coords(spec):
    return list(itertools.product(*(range(n) for n in spec.dims)))


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec((1, 3), directed=True, t=1)  # axis too short
    with pytest.raises(ValueError):
        LatticeSpec((3, 3), directed=True, t=5)  # t > 2d
    with pytest.raises(ValueError):
        LatticeSpec((3, 3), directed=False, t=3)  # t > d
    with pytest.raises(ValueError):
        LatticeSpec((3, 3), directed=True, t=0)


def test_rank_frozen():
    assert rank((0, 0), D33) == 0
    assert rank((2, 2), D33) == 8
    assert rank((1, 2), D33) == 5
    spec = LatticeSpec((4, 6), directed=True, t=2)
    assert rank((2, 3), spec) == 15


@pytest.mark.parametrize("dims", [(3, 4), (2, 2, 2), (5,)])
def test_rank_is_lex_position(dims):
    "Rank equals the index in the sorted coordinate list."
    spec = LatticeSpec(dims, directed=True, t=1)
    for i, u in enumerate(sorted(all_coords(spec))):
        assert rank(u, spec) == i
        assert unrank(i, spec) == u


def test_rank_bounds_checked():
    with pytest.raises(ValueError):
        rank((3, 0), D33)
    with pytest.raises(ValueError):
        unrank(9, D33)
    with pytest.raises(ValueError):
        unrank(-1, D33)


def test_apply_step_frozen():
    assert apply_step((0, 0), 1, D33) == (1, 0)
    assert apply_step((1, 1), 4, D33) == (1, 0)  # 2-down is code d+2
    with pytest.raises(ValueError):
        apply_step((0, 0), 3, D33)  # 1-down exits at the origin
    # undirected signed steps
    assert apply_step((1, 1), -1, U33) == (0, 1)
    with pytest.raises(ValueError):
        apply_step((0, 0), -2, U33)
    # a start outside the lattice is refused even when the step leads in
    for u, step, s in [((3, 0), 3, D33), ((0, -1), 2, D33), ((1, 3), -2, U33), ((1,), 1, D33)]:
        with pytest.raises(ValueError):
            apply_step(u, step, s)
    # bad step codes: 0 and anything past 2d (directed) or d (undirected)
    for step, s in [(0, D33), (5, D33), (-1, D33), (0, U33), (3, U33), (-3, U33)]:
        with pytest.raises(ValueError):
            apply_step((1, 1), step, s)


# every caller that reads a step code, each fed one bad code after a good step
STEP_CODE_READERS = {
    "walk_nodes": lambda s, spec: walk_nodes(Walk((1, 1), (1, s)), spec),
    "apply_step": lambda s, spec: apply_step((1, 1), s, spec),
    "walk_dimension": lambda s, spec: walk_dimension(Walk((1, 1), (1, s)), spec),
    "trace_steps": lambda s, spec: trace_steps((1, s), spec),
    "color_walk": lambda s, spec: color_walk(
        Walk((1, 1), (1, s)), make_scheme(spec, "colord" if spec.directed else "undir")
    ),
    "step_table": lambda s, spec: spec.step_table[s],
}


@pytest.mark.parametrize("reader", STEP_CODE_READERS)
@pytest.mark.parametrize(
    "spec,step",
    [(D33, 0), (D33, 5), (D33, -1), (U33, 0), (U33, 3), (U33, -3)],
    ids=lambda v: v if isinstance(v, int) else ("directed" if v.directed else "undirected"),
)
def test_step_table_owns_the_bad_code_refusal(reader, spec, step):
    "The step table refuses a code the lattice lacks, for every reader alike."
    with pytest.raises(ValueError, match=rf"^bad step code {step} for this lattice$"):
        STEP_CODE_READERS[reader](step, spec)


SMALL_SPECS = [
    LatticeSpec(dims, directed, 1)
    for d in (1, 2, 3)
    for dims in itertools.product((2, 3, 4), repeat=d)
    for directed in (True, False)
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: f"{s.dims}-{s.directed}")
def test_step_table_matches_reference_stack(spec):
    """Each entry (axis, sign, rank change, edge code) as apply_step,
    rank and edge_endpoints see it, from every node the step can leave;
    the reference edge is built from the two endpoints' coordinates
    alone; codes is the largest edge code edge_endpoints accepts."""
    d = spec.d
    if spec.directed:
        steps = set(range(1, 2 * d + 1))
    else:
        steps = {s for j in range(1, d + 1) for s in (j, -j)}
    assert set(spec.step_table) == steps
    for s, (axis, sign, dr, code) in spec.step_table.items():
        # directed: the step is its orientation code; undirected: the axis
        assert code == (s if spec.directed else abs(s))
        moved = 0
        for u in all_coords(spec):
            try:
                v = apply_step(u, s, spec)
            except ValueError:
                continue
            moved += 1
            delta = [b - a for a, b in zip(u, v)]
            assert delta == [sign if j == axis else 0 for j in range(d)]
            assert rank(v, spec) - rank(u, spec) == dr
            edge = Edge(min(u, v), s if spec.directed else abs(s))
            assert (edge.code, 1 if v > u else -1) == (code, sign)
            assert edge_endpoints(edge, spec) == (min(u, v), max(u, v))
        assert moved == spec.size // spec.dims[axis] * (spec.dims[axis] - 1)
    origin = (0,) * d
    assert spec.codes == (2 * d if spec.directed else d)
    edge_endpoints(Edge(origin, spec.codes), spec)
    for code in (0, spec.codes + 1):
        with pytest.raises(ValueError, match="bad edge code"):
            edge_endpoints(Edge(origin, code), spec)


def test_walk_nodes():
    w = Walk((0, 0), (1, 2, 3))
    assert walk_nodes(w, D33) == [(0, 0), (1, 0), (1, 1), (0, 1)]
    for bad in [
        Walk((3, 0), (3,)),  # start outside, first step leads back in
        Walk((0, 0), (1, 1, 1, 3)),  # leaves at a middle step
        Walk((0, 0), (1, 0)),
        Walk((0, 0), (1, 5)),
    ]:
        with pytest.raises(ValueError):
            walk_nodes(bad, D33)


def test_walk_dimension_frozen():
    assert walk_dimension(Walk((0, 0), (1, 3)), D33) == 2
    assert walk_dimension(Walk((0, 0), (1, -1)), U33) == 1
    spec3 = LatticeSpec((2, 2, 2), directed=True, t=3)
    assert walk_dimension(Walk((0, 0, 1), (1, 2, 6)), spec3) == 3
    with pytest.raises(ValueError):
        walk_dimension(Walk((0, 0), ()), D33)


def test_trace_steps_frozen():
    offsets, ranks, root = trace_steps((1, 2), D33)
    assert offsets == ((0, 0), (1, 0), (1, 1))
    assert ranks == [0, 3, 4]
    assert root == 0
    offsets, ranks, root = trace_steps((3, 2), D33)
    assert offsets == ((0, 0), (-1, 0), (-1, 1))
    assert ranks == [0, -3, -2]
    assert root == 1
    assert trace_steps((4,), D33)[1] == [0, -1]


def test_trace_steps_revisit_reports_first():
    # square cycle: the start reappears at index 4, root stays index 0
    offsets, ranks, root = trace_steps((1, 2, 3, 4), D33)
    assert offsets[0] == offsets[4] == (0, 0)
    assert ranks[0] == ranks[4] == 0
    assert root == 0


def test_in_bounds():
    assert in_bounds((2, 2), D33)
    assert not in_bounds((3, 0), D33)
    assert not in_bounds((0, -1), D33)


@pytest.mark.parametrize(
    "spec",
    [D33, U33, LatticeSpec((2, 2, 2), directed=False, t=2)],
    ids=["directed-3x3", "undirected-3x3", "undirected-2x2x2"],
)
def test_trace_steps_matches_walk_nodes_exhaustive(spec):
    """Every step sequence up to length 4: the offsets are walk_nodes'
    nodes minus the start, with the start placed so the walk fits (on a
    lattice of axes 5 long when it does not fit spec); the ranks are the
    offsets' weighted sums, and rank(u) - rank(start) when the walk fits
    spec; the root index is the first index of the smallest node,
    revisits included."""
    wide = LatticeSpec((5,) * spec.d, spec.directed, 1)
    revisited_minimum = fitted = 0
    for length in range(5):
        for steps in itertools.product(spec.step_table, repeat=length):
            offsets, ranks, root = trace_steps(steps, spec)
            assert ranks == [sum(x * w for x, w in zip(o, spec.weights)) for o in offsets]
            lows = [min(o[a] for o in offsets) for a in range(spec.d)]
            highs = [max(o[a] for o in offsets) for a in range(spec.d)]
            fits = all(hi - lo < n for lo, hi, n in zip(lows, highs, spec.dims))
            start = tuple(-lo for lo in lows)
            nodes = walk_nodes(Walk(start, steps), spec if fits else wide)
            assert offsets == tuple(tuple(x - s for x, s in zip(u, start)) for u in nodes)
            if fits:
                fitted += 1
                assert ranks == [rank(u, spec) - rank(start, spec) for u in nodes]
            smallest = min(nodes)
            assert root == next(i for i, u in enumerate(nodes) if u == smallest)
            revisited_minimum += nodes.count(smallest) > 1
    assert revisited_minimum
    assert fitted
