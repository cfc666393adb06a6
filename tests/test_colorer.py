"""Coloring schemes: assignment, packing, palette accounting, export."""

import itertools
import random

import pytest

from latticeobs.colorer import (
    SchemeParams,
    assign_color,
    color_unpack,
    color_walk,
    coloring_lines,
    default_sigma,
    distance_digits,
    format_header,
    lattice_edges,
    make_scheme,
    palette_size,
    parity_bits,
    parity_group,
    parse_header,
    scheme_columns,
)
from latticeobs.lattice import Edge, LatticeSpec, Walk, edge_endpoints, walk_edges, walk_nodes


def spec(dims, directed, t):
    return LatticeSpec(tuple(dims), directed, t)


# field prime per configuration, frozen from the sizing rule
SIGMA_TABLE = [
    ((9, 9), True, 1, 83),
    ((9, 9), True, 2, 11),
    ((9, 9), True, 3, 7),
    ((9, 9), True, 4, 5),
    ((5, 5, 5), True, 3, 7),
    ((5, 5, 5), True, 6, 7),
    ((4, 6), True, 2, 7),
    ((4, 6), True, 4, 5),
    ((4, 4), False, 1, 17),
    ((4, 4), False, 2, 5),
    ((4, 4, 4), False, 1, 67),
    ((4, 4, 4), False, 2, 11),
    ((4, 4, 4), False, 3, 5),
]


@pytest.mark.parametrize("dims,directed,t,sigma", SIGMA_TABLE)
def test_default_sigma_frozen(dims, directed, t, sigma):
    assert default_sigma(spec(dims, directed, t)).modulus == sigma


def test_sigma_covers_size_and_columns():
    for dims, directed, t, _ in SIGMA_TABLE:
        s = spec(dims, directed, t)
        p = default_sigma(s).modulus
        assert p**t >= s.size
        assert p > scheme_columns(s)


def test_make_scheme_kind_checks():
    with pytest.raises(ValueError):
        make_scheme(spec((4, 4), False, 2), "colord")
    with pytest.raises(ValueError):
        make_scheme(spec((4, 4), True, 2), "undir")
    with pytest.raises(ValueError):
        make_scheme(spec((4, 4), True, 2), "color2")  # needs t=4
    with pytest.raises(ValueError):
        make_scheme(spec((4, 6), True, 4), "color2")  # needs square
    with pytest.raises(ValueError):
        make_scheme(spec((4, 4), False, 2), "mod3-aux", origin_index=3)
    with pytest.raises(ValueError):
        make_scheme(spec((4, 4), True, 2), "rainbow")


def test_make_scheme_sigma_override():
    s = spec((2, 2), False, 2)
    assert make_scheme(s, "undir").sigma.modulus == 3
    assert make_scheme(s, "undir", sigma=5).sigma.modulus == 5
    with pytest.raises(ValueError):
        make_scheme(s, "undir", sigma=4)  # not prime
    with pytest.raises(ValueError):
        make_scheme(s, "undir", sigma=2)  # too few points
    with pytest.raises(ValueError):
        make_scheme(spec((9, 9), True, 2), "colord", sigma=7)  # 7^2 < 81


def test_palette_size_frozen():
    assert palette_size(make_scheme(spec((2, 2), True, 2), "colord")) == 80
    assert palette_size(make_scheme(spec((2, 2), False, 2), "undir", sigma=5)) == 360
    assert palette_size(make_scheme(spec((16, 16), True, 4), "color2")) == 16
    assert palette_size(make_scheme(spec((4, 4), False, 1), "mod3-aux")) == 3
    assert palette_size(make_scheme(spec((16, 16), True, 4), "colord")) == 320


def test_parity_group_roundtrip():
    assert parity_group((0, 2)) == 0
    assert parity_group((1, 2)) == 2
    assert parity_group((3, 1)) == 3
    for bits in itertools.product((0, 1), repeat=4):
        assert parity_bits(parity_group(bits), 4) == bits


def test_colord_frozen_values():
    params = make_scheme(spec((2, 2), True, 2), "colord")
    root = (1, 0)  # rank 2, coefficient row (0,2), even parities
    assert assign_color(Edge(root, 2), params) == 7
    assert assign_color(Edge(root, 4), params) == 17
    for j in (1, 2, 3, 4):
        assert assign_color(Edge((0, 0), j), params) == (j - 1) * 5


def test_colord_unpack_frozen():
    params = make_scheme(spec((2, 2), True, 2), "colord")
    part = color_unpack(7, params)
    assert (part.group, part.code, part.value) == (0, 2, 2)
    assert part.parities == (0, 0)
    part = color_unpack(0, params)
    assert (part.group, part.code, part.value) == (0, 1, 0)


def test_color2_frozen_values():
    params = make_scheme(spec((16, 16), True, 4), "color2")
    u = (7, 3)
    assert assign_color(Edge(u, 1), params) == 1  # x quotient
    assert assign_color(Edge(u, 3), params) == 7  # x remainder + r
    assert assign_color(Edge(u, 2), params) == 8  # y quotient + 2r
    assert assign_color(Edge(u, 4), params) == 15  # y remainder + 3r
    part = color_unpack(7, params)
    assert (part.code, part.value) == (3, 3)


def test_undir_frozen_values():
    params = make_scheme(spec((2, 2), False, 2), "undir", sigma=5)
    assert assign_color(Edge((0, 0), 1), params) == 240  # group 24
    c = assign_color(Edge((1, 0), 2), params)
    assert c == 167  # group 16, axis 2, array value 2
    part = color_unpack(c, params)
    assert part.group == 16
    assert part.code == 2
    assert part.value == 2
    assert part.parities == (0, 0)
    assert part.digits == (1, 1)


def test_mod3_frozen_values():
    s = spec((2, 2), False, 1)
    q0 = make_scheme(s, "mod3-aux", origin_index=0)
    q1 = make_scheme(s, "mod3-aux", origin_index=1)
    assert assign_color(Edge((0, 0), 1), q0) == 0
    assert assign_color(Edge((1, 0), 2), q0) == 1
    assert assign_color(Edge((1, 0), 2), q1) == 0
    s3 = spec((3, 3), False, 1)
    q0 = make_scheme(s3, "mod3-aux", origin_index=0)
    assert assign_color(Edge((1, 1), 1), q0) == 2


def test_assign_rejects_bad_edges():
    params = make_scheme(spec((3, 3), True, 2), "colord")
    with pytest.raises(ValueError):
        assign_color(Edge((2, 0), 1), params)  # neighbor out of bounds
    with pytest.raises(ValueError):
        assign_color(Edge((0, 3), 1), params)  # root out of bounds
    with pytest.raises(ValueError):
        assign_color(Edge((0, 0), 5), params)


def test_unpack_range_checked():
    params = make_scheme(spec((2, 2), True, 2), "colord")
    with pytest.raises(ValueError):
        color_unpack(80, params)
    with pytest.raises(ValueError):
        color_unpack(-1, params)


ROUNDTRIP_SCHEMES = [
    make_scheme(spec((3, 3), True, 2), "colord"),
    make_scheme(spec((2, 2, 2), True, 3), "colord"),
    make_scheme(spec((4, 4), True, 4), "color2"),
    make_scheme(spec((3, 3), False, 2), "undir"),
    make_scheme(spec((2, 2, 2), False, 2), "undir"),
]


@pytest.mark.parametrize("params", ROUNDTRIP_SCHEMES, ids=lambda p: p.kind)
def test_unpack_inverts_assign(params):
    "Every edge color unpacks to the parts that built it."
    s = params.lattice
    for edge in lattice_edges(s):
        c = assign_color(edge, params)
        assert 0 <= c < palette_size(params)
        part = color_unpack(c, params)
        assert part.code == edge.code
        if params.kind != "color2":
            from latticeobs.gfpoly import index_to_coeffs
            from latticeobs.lattice import rank

            coeffs = index_to_coeffs(rank(edge.root, s), s.t, params.sigma)
            assert part.parities == tuple(a & 1 for a in coeffs)
        if params.kind == "undir":
            assert part.digits == distance_digits(edge.root, s)


@pytest.mark.parametrize("params", ROUNDTRIP_SCHEMES, ids=lambda p: p.kind)
def test_no_node_repeats_an_incident_color(params):
    """At any node, all outgoing (directed) or incident (undirected)
    edges get distinct colors."""
    s = params.lattice
    at_node = {}
    for edge in lattice_edges(s):
        u, v = edge_endpoints(edge, s)
        if s.directed:
            # code <= d leaves the root; code > d leaves the far end
            tail = u if edge.code <= s.d else v
            at_node.setdefault(tail, []).append(assign_color(edge, params))
        else:
            c = assign_color(edge, params)
            at_node.setdefault(u, []).append(c)
            at_node.setdefault(v, []).append(c)
    for node, colors in at_node.items():
        assert len(set(colors)) == len(colors), node


def test_mod3_is_corner_distance():
    "Oracle: the color is the root's L1 distance to the corner, mod 3."
    s = spec((4, 4, 4), False, 1)
    corners = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)]
    for q, corner in enumerate(corners):
        params = make_scheme(s, "mod3-aux", origin_index=q)
        for edge in lattice_edges(s):
            dist = sum(abs(a - b) for a, b in zip(edge.root, corner))
            assert assign_color(edge, params) == dist % 3


def test_mod3_adjacent_roots_never_tie():
    "Edges rooted at adjacent nodes always get different colors."
    s = spec((3, 3), False, 1)
    params = make_scheme(s, "mod3-aux", origin_index=0)
    for edge in lattice_edges(s):
        u, v = edge_endpoints(edge, s)
        eu = next(e for e in lattice_edges(s) if e.root == u)
        ev = [e for e in lattice_edges(s) if e.root == v]
        if ev:  # the anti-origin roots nothing
            assert assign_color(eu, params) != assign_color(ev[0], params)


def test_distance_digits_match_aux_coloring():
    "Stored digit q >= 1 is the aux color shifted by one."
    s = spec((3, 4), False, 1)
    schemes = [make_scheme(s, "mod3-aux", origin_index=q) for q in range(3)]
    for edge in lattice_edges(s):
        digits = distance_digits(edge.root, s)
        assert digits[0] == assign_color(edge, schemes[0])
        for q in (1, 2):
            assert digits[q] == (assign_color(edge, schemes[q]) + 1) % 3


def _seeded_walk(s, rng, length):
    "A walk of `length` in-bounds steps picked uniformly at each node."
    if s.directed:
        menu = [(j % s.d, 1 if j < s.d else -1, j + 1) for j in range(2 * s.d)]
    else:
        menu = [(a, g, g * (a + 1)) for a in range(s.d) for g in (1, -1)]
    start = node = tuple(rng.randrange(n) for n in s.dims)
    steps = []
    for _ in range(length):
        axis, sign, code = rng.choice(
            [m for m in menu if 0 <= node[m[0]] + m[1] < s.dims[m[0]]]
        )
        node = node[:axis] + (node[axis] + sign,) + node[axis + 1 :]
        steps.append(code)
    return Walk(start, tuple(steps))


def test_color_walk_matches_per_edge_assignment():
    """color_walk carries the root's rank from step to step; every color
    must equal the validating per-edge assignment of the same edge."""
    params = make_scheme(spec((3, 3), True, 2), "colord")
    w = Walk((0, 0), (1, 2, 3))
    colors = color_walk(w, params)
    assert len(colors) == 3
    assert colors[0] == assign_color(Edge((0, 0), 1), params)
    rng = random.Random(20)
    cases = [
        (spec((5, 5, 5), True, 4), "colord", [Walk((4, 4, 0), (3, 3, 3, 3, 6, 5, 2, 4))]),
        (spec((4, 4, 4), False, 3), "undir", [Walk((3, 0, 3), (2, 2, 2, -3, -2, 3, -1))]),
        (spec((16, 16), True, 4), "color2", [Walk((15, 0), (2,) * 15 + (3, 4, 1))]),
    ]
    for s, kind, walks in cases:
        params = make_scheme(s, kind)
        walks += [_seeded_walk(s, rng, rng.randrange(1, 12)) for _ in range(200)]
        downs = tops = 0
        for w in walks:
            edges = walk_edges(w, s)
            assert color_walk(w, params) == tuple(assign_color(e, params) for e, _ in edges)
            downs += any(sign < 0 for _, sign in edges)
            tops += any(x == n - 1 for u in walk_nodes(w, s) for x, n in zip(u, s.dims))
        assert downs > 100 and tops > 20  # negative steps and the top boundary are covered
    params = make_scheme(spec((3, 3), True, 2), "colord")
    for bad in (Walk((3, 0), (3,)), Walk((0, 0), (1, 1, 1)), Walk((0, 0), (0,)), Walk((0, 0), (5,))):
        with pytest.raises(ValueError):
            color_walk(bad, params)


def test_coloring_lines_format():
    params = make_scheme(spec((4, 4), True, 4), "colord")
    lines = list(coloring_lines(params))
    # 2 directed edges per node per axis where room remains: 2*4*3*2
    assert len(lines) == 1 + 48
    assert lines[0] == "#dims=4x4 directed=1 t=4 sigma=5 scheme=colord"
    assert lines[1] == "0,0 1 0"
    for line in lines[1:]:
        coords, code, color = line.split()
        assert 1 <= int(code) <= 4
        assert 0 <= int(color) < palette_size(params)


def test_header_roundtrip():
    for params in ROUNDTRIP_SCHEMES:
        rebuilt = parse_header(format_header(params))
        assert rebuilt == params


def test_header_sigma_zero_for_field_free_schemes():
    params = make_scheme(spec((4, 4), True, 4), "color2")
    assert "sigma=0" in format_header(params)


def test_parse_header_rejects_malformed():
    with pytest.raises(ValueError):
        parse_header("dims=4x4 directed=1 t=2 sigma=5 scheme=colord")
    with pytest.raises(ValueError):
        parse_header("#dims=4x4 directed=1 scheme=colord")
    with pytest.raises(ValueError):
        parse_header("#dims=4x4 directed=1 t=2 sigma=6 scheme=colord")
    with pytest.raises(ValueError):
        parse_header("#dims=x4 directed=1 t=2 sigma=5 scheme=colord")
