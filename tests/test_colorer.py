"""Coloring schemes: assignment, packing, palette accounting, export."""

import hashlib
import inspect
import itertools
import random
import tracemalloc

import pytest

from latticeobs import lattice
from latticeobs.colorer import (
    SchemeParams,
    assign_color,
    color_unpack,
    color_walk,
    coloring_lines,
    default_sigma,
    format_header,
    make_scheme,
    oa_assign,
    palette_size,
    parity_group,
    parse_header,
)
from latticeobs.gfpoly import FieldPrime, base_digits, poly_eval
from latticeobs.lattice import Edge, LatticeSpec, Walk, edge_endpoints, rank, unrank, walk_nodes


def spec(dims, directed, t):
    return LatticeSpec(tuple(dims), directed, t)


def distance_digits(u, s):
    """Reference for the ternary digits an undir color stores for node u:
    digit 0 is the coordinate sum mod 3, digit q >= 1 is
    (sum + n_q - 2 u_q) mod 3; d - t + 2 digits in total."""
    total = sum(u)
    return (total % 3,) + tuple(
        (total + s.dims[q - 1] - 2 * u[q - 1]) % 3 for q in range(1, s.d - s.t + 2)
    )


def unpacked_digits(distance, s):
    "The base-3 digits of color_unpack's packed distance, digit 0 first."
    return tuple(distance // 3**q % 3 for q in range(s.d - s.t + 2))


def _edges(s):
    """Every edge of s in (root rank, code) order: each (node, code)
    that edge_endpoints accepts."""
    out = []
    for r in range(s.size):
        for c in range(1, s.codes + 1):
            edge = Edge(unrank(r, s), c)
            try:
                edge_endpoints(edge, s)
            except ValueError:
                continue
            out.append(edge)
    return out


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
        assert p > s.codes


def test_make_scheme_kind_checks():
    with pytest.raises(ValueError):
        make_scheme(spec((4, 4), False, 2), "colord")
    with pytest.raises(ValueError):
        make_scheme(spec((4, 4), True, 2), "undir")
    with pytest.raises(ValueError):
        make_scheme(spec((4, 4), True, 2), "color2")  # needs t=4
    # rectangular lattices take color2; r = ceil(sqrt(max n_j)) = 3
    assert palette_size(make_scheme(spec((4, 6), True, 4), "color2")) == 12
    with pytest.raises(ValueError, match="color2 needs a directed lattice with t=4"):
        make_scheme(spec((4, 4), False, 2), "color2")
    with pytest.raises(ValueError, match="color2 uses no field prime"):
        make_scheme(spec((4, 4), True, 4), "color2", sigma=5)
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


def test_make_scheme_refuses_sigma_2():
    """Decode tells coefficient differences apart by parity, which an
    even field cannot do, so no orthogonal-array scheme takes sigma 2."""
    with pytest.raises(ValueError, match="undir needs an odd sigma: parity recovery"):
        make_scheme(spec((2,), False, 1), "undir", sigma=2)
    with pytest.raises(ValueError):
        make_scheme(spec((2,), True, 1), "colord", sigma=2)
    assert make_scheme(spec((2,), False, 1), "undir", sigma=3).sigma.modulus == 3


# every refusal of a well-formed request: (spec, kind, sigma, message)
SCHEME_REFUSALS = [
    (((4, 4), True, 2), "rainbow", None, "unknown scheme kind 'rainbow'"),
    (((4, 4), False, 2), "color2", None, "color2 needs a directed lattice with t=4"),
    (((4, 4), True, 2), "color2", None, "color2 needs a directed lattice with t=4"),
    (((4, 4), True, 4), "color2", 5, "color2 uses no field prime"),
    (((4, 4), False, 2), "colord", None, "colord needs a directed lattice"),
    (((4, 4), True, 2), "undir", None, "undir needs an undirected lattice"),
    (((9, 9), True, 2), "colord", 7, "sigma 7 too small for this lattice"),
    (((2, 2), False, 2), "undir", 2, "sigma 2 too small for this lattice"),
    (((2,), False, 1), "undir", 2, "undir needs an odd sigma: parity recovery cannot work mod 2"),
]


@pytest.mark.parametrize("dims_directed_t,kind,sigma,message", SCHEME_REFUSALS)
def test_scheme_params_refuses_what_make_scheme_refuses(dims_directed_t, kind, sigma, message):
    """SchemeParams itself makes every refusal, with make_scheme's message."""
    s = spec(*dims_directed_t)
    for build in (
        lambda: SchemeParams(s, kind, None if sigma is None else FieldPrime(sigma)),
        lambda: make_scheme(s, kind, sigma),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("dims_directed_t,kind,sigma,message", [
    (((4, 4), True, 4), "color2", 4, "color2 uses no field prime"),
    (((4, 4), True, 2), "rainbow", 4, "unknown scheme kind 'rainbow'"),
    (((4, 4), False, 2), "colord", 9, "colord needs a directed lattice"),
    (((4, 4), False, 2), "undir", 4, "4 is not prime"),
])
def test_int_sigma_is_checked_after_the_kind(dims_directed_t, kind, sigma, message):
    """An int sigma is checked prime only after the kind's own checks, so
    a request wrong in both ways names the kind's fault first."""
    with pytest.raises(ValueError) as exc:
        make_scheme(spec(*dims_directed_t), kind, sigma)
    assert str(exc.value) == message


def test_scheme_params_takes_lattice_kind_sigma_and_derives_the_rest():
    assert list(inspect.signature(SchemeParams).parameters) == ["lattice", "kind", "sigma"]
    assert inspect.signature(SchemeParams).parameters["sigma"].default is None
    s = spec((5, 5), True, 2)
    with pytest.raises(TypeError):
        SchemeParams(s, "colord", FieldPrime(7), 4, 27)
    with pytest.raises(TypeError):
        SchemeParams(s, "colord", group_count=4)
    params = SchemeParams(s, "colord")
    assert params == make_scheme(s, "colord", 7)
    assert (params.sigma.modulus, params.group_count, params.group_size) == (7, 4, 28)


def test_palette_size_frozen():
    assert palette_size(make_scheme(spec((2, 2), True, 2), "colord")) == 80
    assert palette_size(make_scheme(spec((2, 2), False, 2), "undir", sigma=5)) == 360
    assert palette_size(make_scheme(spec((16, 16), True, 4), "color2")) == 16
    assert palette_size(make_scheme(spec((16, 16), True, 4), "colord")) == 320


def test_parity_group_roundtrip():
    assert parity_group((0, 2)) == 0
    assert parity_group((1, 2)) == 2
    assert parity_group((3, 1)) == 3
    for bits in itertools.product((0, 1), repeat=4):
        assert tuple(parity_group(bits) >> 3 - k & 1 for k in range(4)) == bits


def test_colord_frozen_values():
    params = make_scheme(spec((2, 2), True, 2), "colord")
    root = (1, 0)  # rank 2, coefficient row (0,2), even parities
    assert assign_color(Edge(root, 2), params) == 7
    assert assign_color(Edge(root, 4), params) == 17
    for j in (1, 2, 3, 4):
        assert assign_color(Edge((0, 0), j), params) == (j - 1) * 5


def test_colord_unpack_frozen():
    params = make_scheme(spec((2, 2), True, 2), "colord")
    code, value, parity, distance = color_unpack(7, params)
    assert (parity, code, value, distance) == (0, 2, 2, 0)
    assert parity == parity_group((0, 0))
    assert color_unpack(0, params) == (1, 0, 0, 0)


def test_color2_frozen_values():
    params = make_scheme(spec((16, 16), True, 4), "color2")
    u = (7, 3)
    assert assign_color(Edge(u, 1), params) == 1  # x quotient
    assert assign_color(Edge(u, 3), params) == 7  # x remainder + r
    assert assign_color(Edge(u, 2), params) == 8  # y quotient + 2r
    assert assign_color(Edge(u, 4), params) == 15  # y remainder + 3r
    assert color_unpack(7, params) == (3, 3, 0, 0)


COLOR2_SHAPES = [(2,), (7,), (4, 6), (3, 2, 2), (4, 4, 4), (2, 3, 2, 2)]


@pytest.mark.parametrize("dims", COLOR2_SHAPES, ids=str)
def test_color2_layout_follows_step_codes(dims):
    """Block 2 * axis + down holds one direction of one axis: the up
    edge stores the root coordinate's quotient by r, the down edge its
    remainder.  Every palette color unpacks to the code that layout
    names, and every edge color unpacks to the edge's own code."""
    s = spec(dims, True, 2 * len(dims))
    params = make_scheme(s, "color2")
    r = params.group_size
    assert r * r >= max(dims) > (r - 1) ** 2
    assert palette_size(params) == 2 * s.d * r
    for code, (axis, sign, _, _) in s.step_table.items():
        block = 2 * axis + (sign < 0)
        for value in range(r):
            assert color_unpack(block * r + value, params) == (code, value, 0, 0)
    for edge in _edges(s):
        axis, sign, _, _ = s.step_table[edge.code]
        quotient, remainder = divmod(edge.root[axis], r)
        c = assign_color(edge, params)
        assert c == (2 * axis + (sign < 0)) * r + (quotient if sign > 0 else remainder)
        assert color_unpack(c, params)[0] == edge.code


def test_undir_frozen_values():
    params = make_scheme(spec((2, 2), False, 2), "undir", sigma=5)
    assert assign_color(Edge((0, 0), 1), params) == 240  # group 24
    c = assign_color(Edge((1, 0), 2), params)
    assert c == 167  # group 16, axis 2, array value 2
    code, value, parity, distance = color_unpack(c, params)
    assert parity | distance << 2 == 16
    assert code == 2
    assert value == 2
    assert parity == parity_group((0, 0))
    assert distance == 1 + 3 * 1


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
    for edge in _edges(s):
        c = assign_color(edge, params)
        assert 0 <= c < palette_size(params)
        code, _, parity, distance = color_unpack(c, params)
        assert code == edge.code
        if params.kind != "color2":
            from latticeobs.gfpoly import base_digits
            from latticeobs.lattice import rank

            coeffs = base_digits(rank(edge.root, s), s.t, params.sigma)
            assert parity == parity_group(coeffs)
        if params.kind == "undir":
            assert unpacked_digits(distance, s) == distance_digits(edge.root, s)


@pytest.mark.parametrize("params", ROUNDTRIP_SCHEMES, ids=lambda p: p.kind)
def test_unpack_inverts_every_palette_color(params):
    "Every color of the palette, emitted or not, re-packs from its parts."
    t = params.lattice.t
    for c in range(palette_size(params)):
        code, value, parity, distance = color_unpack(c, params)
        if params.kind == "color2":
            # blocks hold x-quotient, x-remainder, y-quotient, y-remainder
            assert (parity, distance) == (0, 0)
            assert (1, 3, 2, 4).index(code) * params.group_size + value == c
            continue
        assert distance < 3 ** (params.lattice.d - t + 2 if params.kind == "undir" else 0)
        group = parity | distance << t
        m = params.sigma.modulus
        assert 0 <= value < m
        assert group * params.group_size + (code - 1) * m + value == c


@pytest.mark.parametrize("params", ROUNDTRIP_SCHEMES, ids=lambda p: p.kind)
def test_no_node_repeats_an_incident_color(params):
    """At any node, all outgoing (directed) or incident (undirected)
    edges get distinct colors."""
    s = params.lattice
    at_node = {}
    for edge in _edges(s):
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
    """Oracle: digit q of an undir t = 1 color is the root's L1 distance
    to corner q, mod 3, plus 1 when q >= 1.  Corner 0 is all-zeros;
    corner q >= 1 has coordinate q maxed and the rest zero."""
    for dims in ((4, 4, 4), (3, 5), (5,)):
        s = spec(dims, False, 1)
        params = make_scheme(s, "undir")
        corners = [(0,) * s.d]
        corners += [tuple(n - 1 if a == q else 0 for a, n in enumerate(dims)) for q in range(s.d)]
        for edge in _edges(s):
            digits = unpacked_digits(color_unpack(assign_color(edge, params), params)[3], s)
            assert len(digits) == len(corners)
            for q, corner in enumerate(corners):
                dist = sum(abs(a - b) for a, b in zip(edge.root, corner))
                assert digits[q] == (dist + (q >= 1)) % 3, (dims, edge, q)


def test_mod3_adjacent_roots_never_tie():
    "Edges rooted at adjacent nodes always get a different digit 0."
    s = spec((3, 3), False, 1)
    params = make_scheme(s, "undir")

    def digit0(edge):
        return color_unpack(assign_color(edge, params), params)[3] % 3

    for edge in _edges(s):
        u, v = edge_endpoints(edge, s)
        eu = next(e for e in _edges(s) if e.root == u)
        ev = [e for e in _edges(s) if e.root == v]
        if ev:  # the anti-origin roots nothing
            assert digit0(eu) != digit0(ev[0])


def test_distance_digits_match_aux_coloring():
    """Stored digit q >= 1 is the corner-q distance coloring (L1
    distance mod 3) shifted by one; digit 0 is corner 0's unshifted."""
    s = spec((3, 4), False, 1)
    params = make_scheme(s, "undir")
    corners = [(0, 0), (2, 0), (0, 3)]
    for edge in _edges(s):
        aux = [sum(abs(a - b) for a, b in zip(edge.root, c)) % 3 for c in corners]
        digits = distance_digits(edge.root, s)
        assert digits == unpacked_digits(color_unpack(assign_color(edge, params), params)[3], s)
        assert digits[0] == aux[0]
        for q in (1, 2):
            assert digits[q] == (aux[q] + 1) % 3


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
            # each reference edge comes from its endpoints' coordinates alone
            nodes = walk_nodes(w, s)
            hops = list(zip(nodes, w.steps, nodes[1:]))
            edges = [Edge(min(u, v), st if s.directed else abs(st)) for u, st, v in hops]
            assert color_walk(w, params) == tuple(assign_color(e, params) for e in edges)
            downs += any(v < u for u, _, v in hops)
            tops += any(x == n - 1 for u in nodes for x, n in zip(u, s.dims))
        assert downs > 100 and tops > 20  # negative steps and the top boundary are covered
    params = make_scheme(spec((3, 3), True, 2), "colord")
    for bad in (Walk((3, 0), (3,)), Walk((0, 0), (1, 1, 1)), Walk((0, 0), (0,)), Walk((0, 0), (5,))):
        with pytest.raises(ValueError):
            color_walk(bad, params)


def test_color_walk_errors():
    "Each refusal names its cause; a bad start is reported before any step."
    directed = make_scheme(spec((3, 3), True, 2), "colord")
    undirected = make_scheme(spec((3, 3), False, 2), "undir")
    cases = [
        (directed, Walk((0, 0), (1, 5)), r"bad step code 5 for this lattice"),
        (undirected, Walk((0, 0), (1, 3)), r"bad step code 3 for this lattice"),
        (undirected, Walk((1, 1), (0,)), r"bad step code 0 for this lattice"),
        (directed, Walk((3, 0), (9,)), r"start \(3, 0\) outside lattice \(3, 3\)"),
        (directed, Walk((0, 0, 0), (1,)), r"start \(0, 0, 0\) outside lattice"),
        (undirected, Walk((0, -1), ()), r"start \(0, -1\) outside lattice"),
        (directed, Walk((0, 0), (1, 1, 1)), r"step 1 leaves the lattice at \(2, 0\)"),
        (directed, Walk((1, 1), (4, 4)), r"step 4 leaves the lattice at \(1, 0\)"),
        (undirected, Walk((0, 2), (1, -2, 2, 2)), r"step 2 leaves the lattice at \(1, 2\)"),
    ]
    for params, w, message in cases:
        with pytest.raises(ValueError, match=message):
            color_walk(w, params)


@pytest.mark.parametrize("dims,directed,kind,w", [
    ((3, 3), True, "colord", Walk((1, 1), (1, 3, 2, 4))),
    ((3, 3), False, "undir", Walk((2, 0), (-1, 2, 2, -1))),
    ((4, 4), True, "color2", Walk((0, 3), (1, 4, 3, 2))),
])
def test_color_walk_bounds_checks_the_start_once(monkeypatch, dims, directed, kind, w):
    """walk_nodes checks the start; color_walk ranks it without a second check."""
    calls = []
    check = lattice.in_bounds
    monkeypatch.setattr(lattice, "in_bounds", lambda u, s: calls.append(u) or check(u, s))
    params = make_scheme(spec(dims, directed, 4 if kind == "color2" else 2), kind)
    color_walk(w, params)
    assert calls == [w.start]


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


def _export_schemes(rng):
    """Every kind on small shapes beyond the golden configs: fixed
    shapes with axes of length 2 plus seeded non-square ones, and every
    valid t."""
    shapes = [(2,), (5,), (2, 5), (4, 3), (2, 2, 2), (3, 2, 4)]
    shapes += [tuple(rng.randrange(2, 6) for _ in range(d)) for d in (1, 2, 2, 3, 3)]
    out = []
    for dims in shapes:
        d = len(dims)
        out += [make_scheme(spec(dims, True, t), "colord") for t in range(1, 2 * d + 1)]
        out += [make_scheme(spec(dims, False, t), "undir") for t in range(1, d + 1)]
    out += [make_scheme(spec((n, n), True, 4), "color2") for n in (2, 3, 5, 7)]
    out += [make_scheme(spec(dims, True, 2 * len(dims)), "color2") for dims in shapes]
    # t = 2 shapes whose rank counter carries inside a run of the last
    # axis, on a run's top root, and on a d = 1 lattice
    out += [make_scheme(spec(dims, True, 2), "colord") for dims in ((13,), (3, 14), (2, 6), (2, 12))]
    out += [make_scheme(spec(dims, False, 2), "undir") for dims in ((14, 3), (3, 14))]
    return out


def test_export_lines_match_assign_color():
    """Every exported line is the validating per-edge assignment of its
    edge, every edge appears once, in (root rank, code) order."""
    for params in _export_schemes(random.Random(44)):
        s = params.lattice
        lines = list(coloring_lines(params))
        assert lines[0] == format_header(params)
        per_axis = [(n - 1) * (s.size // n) for n in s.dims]
        assert len(lines) - 1 == sum(per_axis) * (2 if s.directed else 1), lines[0]
        keys = []
        for line in lines[1:]:
            coords, code, color = line.split(" ")
            edge = Edge(tuple(int(x) for x in coords.split(",")), int(code))
            assert int(color) == assign_color(edge, params), (lines[0], line)
            keys.append((rank(edge.root, s), edge.code))
        assert keys == sorted(set(keys)), lines[0]


@pytest.mark.parametrize("dims", [(2, 10**6), (10**6, 2), (10**9,) * 3])
@pytest.mark.parametrize("directed,kind", [(True, "colord"), (False, "undir")])
def test_export_streams_without_materializing_an_axis(dims, directed, kind):
    """The first 1,001 lines of a huge export take well under 1 MiB: the
    lattice is walked run by run, and no axis is ever built whole."""
    params = make_scheme(spec(dims, directed, 2), kind)
    tracemalloc.start()
    try:
        lines = list(itertools.islice(coloring_lines(params), 1001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lines) == 1001
    assert peak < 2**20, peak


# dims, directed, t, kind, sigma (None: the default): export configs
# whose rank counter carries.  A field prime far above the default makes
# carries rare or absent; 4x4x4, 5x5x5 and 12x12 cross sigma^(t-1), so
# carries run t - 1 digits deep; the undirected shapes store three to
# five ternary distance digits.
ODOMETER_CONFIGS = (
    ((6, 6, 6), True, 2, "colord", 101),
    ((4, 5), True, 2, "colord", 1_000_003),
    ((4, 4, 4), True, 3, "colord", 7),
    ((5, 5, 5), True, 3, "colord", 7),
    ((12, 12), True, 4, "colord", 5),
    ((5, 5, 5), False, 3, "undir", 5),
    ((6, 6, 6), False, 2, "undir", 97),
    ((4, 4, 4, 4), False, 2, "undir", None),
    ((3, 3, 3, 3), False, 1, "undir", 101),
    ((5, 4, 3), False, 1, "undir", None),
)

# deepest carry each export makes: the most digits one step rolls over
ODOMETER_CARRY_DEPTHS = {
    "colord 6x6x6 t=2 sigma=101": 1,
    "colord 4x5 t=2 sigma=1000003": 0,
    "colord 4x4x4 t=3 sigma=7": 2,
    "colord 5x5x5 t=3 sigma=7": 2,
    "colord 12x12 t=4 sigma=5": 3,
    "undir 5x5x5 t=3 sigma=5": 2,
    "undir 6x6x6 t=2 sigma=97": 1,
    "undir 4x4x4x4 t=2 sigma=default": 1,
    "undir 3x3x3x3 t=1 sigma=101": 0,
    "undir 5x4x3 t=1 sigma=default": 0,
}

# sha256 of coloring_lines, one "\n"-terminated line at a time
ODOMETER_DIGESTS = {
    "colord 6x6x6 t=2 sigma=101": "7227c30e006f82afafb503e6e02c6f934bf20bb80b27b46016393dda522fc43e",
    "colord 4x5 t=2 sigma=1000003": "c8c6f96c8730a93322ad37068b1e728a9b32a9741ace7b391743666b4074e266",
    "colord 4x4x4 t=3 sigma=7": "441a5ffa7d348451132f59e9c4cdf1b55efbde97a552a42205b3f1735c50fa40",
    "colord 5x5x5 t=3 sigma=7": "c46bed773c24e824da20da0d317f7664ce8fe146bf255bbc938170d8e84cca32",
    "colord 12x12 t=4 sigma=5": "7e5203d7eb5b85291ac92819b4271b840d9f46db597383f4b7bf72e0875bcf5b",
    "undir 5x5x5 t=3 sigma=5": "d7e7e3543c53c7333cdedb428fc68dd4e03fc69dd7350b1d616f05adca67db31",
    "undir 6x6x6 t=2 sigma=97": "ade6b37a8a382f4a473cb41648e686700e31ebe104deb8c6c57fbd999c03a15f",
    "undir 4x4x4x4 t=2 sigma=default": "2bf03a8dfc4492e74fb12f15b69c8322c16f210f7b616a62949e23cdd3df7ba5",
    "undir 3x3x3x3 t=1 sigma=101": "742abd86f645936b0ee405b2d420977d209e22a0a4cd87920044960903fd4af7",
    "undir 5x4x3 t=1 sigma=default": "e17014f09eeb78a8a508bee29c8ca065e44bdd2fc5d75dd89cc6c70cf8fe81d6",
}


def _odometer_label(dims, t, kind, sigma) -> str:
    return f"{kind} {'x'.join(map(str, dims))} t={t} sigma={sigma or 'default'}"


def _odometer_schemes():
    for dims, directed, t, kind, sigma in ODOMETER_CONFIGS:
        params = make_scheme(spec(dims, directed, t), kind, sigma=sigma)
        yield _odometer_label(dims, t, kind, sigma), params


def test_odometer_configs_carry():
    "Each configuration reaches the carry depth it is listed for."
    depths = {}
    for label, params in _odometer_schemes():
        m, last = params.sigma.modulus, params.lattice.size - 1
        depths[label] = max(k for k in range(params.lattice.t) if m**k <= last)
    assert depths == ODOMETER_CARRY_DEPTHS


def test_odometer_export_matches_assign_color():
    "Line by line, the export equals the validating per-edge assignment."
    for label, params in _odometer_schemes():
        edges = _edges(params.lattice)
        lines = list(coloring_lines(params))
        assert len(lines) == 1 + len(edges), label
        for line, edge in zip(lines[1:], edges):
            coords, code, color = line.split(" ")
            assert (tuple(int(x) for x in coords.split(",")), int(code)) == (edge.root, edge.code)
            assert int(color) == assign_color(edge, params), (label, line)


def test_odometer_export_golden():
    digests = {}
    for label, params in _odometer_schemes():
        h = hashlib.sha256()
        for line in coloring_lines(params):
            h.update(line.encode("utf-8") + b"\n")
        digests[label] = h.hexdigest()
    assert digests == ODOMETER_DIGESTS


def test_export_carries_recolor_nothing(monkeypatch):
    """A carry evaluates the row's entries and parities from its digits:
    export never calls oa_assign, and every line still equals the
    validating per-edge assignment."""
    import latticeobs.colorer as colorer

    calls = 0
    real = colorer.oa_assign

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(colorer, "oa_assign", counted)
    for params in (
        make_scheme(spec((9, 9, 9), False, 3), "undir"),
        make_scheme(spec((8, 8, 8), True, 3), "colord"),
    ):
        lines = list(coloring_lines(params))
        assert calls == 0, lines[0]
        edges = _edges(params.lattice)
        assert len(lines) == 1 + len(edges)
        for line, edge in zip(lines[1:], edges):
            assert line == f"{','.join(map(str, edge.root))} {edge.code} {assign_color(edge, params)}"


def test_header_roundtrip():
    "Header and parameters map one-to-one, for every kind and every t."
    for params in ROUNDTRIP_SCHEMES + _export_schemes(random.Random(44)):
        line = format_header(params)
        assert parse_header(line) == params
        assert format_header(parse_header(line)) == line


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
    with pytest.raises(ValueError, match="header sigma 0 does not match scheme colord"):
        parse_header("#dims=4x4 directed=1 t=2 sigma=0 scheme=colord")
    # a value holding "=" stays whole: each field splits at its first "=" only
    with pytest.raises(ValueError, match="unknown scheme kind 'col=ord'"):
        parse_header("#dims=4x4 directed=1 t=2 sigma=5 scheme=col=ord")
    # any line but the one format_header writes is refused
    for line in (
        "#dims=4x4 directed=2 t=2 sigma=5 scheme=colord",
        "#dims=4x4 directed=1 t=2 sigma=5 scheme=colord junk",
        "#dims=4x4 directed=1 t=2 sigma=5 scheme=colord t=2 extra=1",
    ):
        with pytest.raises(ValueError, match="non-canonical coloring header"):
            parse_header(line)


def _reference_oa_color(root, r, code, params):
    "oa_assign's color from the coefficient vector, digit by digit."
    s, p = params.lattice, params.sigma
    coeffs = base_digits(r, s.t, p)
    group = parity_group(coeffs)
    if not s.directed:
        group |= sum(d * 3**q for q, d in enumerate(distance_digits(root, s))) << s.t
    return group * params.group_size + (code - 1) * p.modulus + poly_eval(coeffs, code, p)


@pytest.mark.parametrize(
    "dims,directed,t",
    [((4, 4), True, 2), ((4, 4), True, 3), ((4, 4), True, 4), ((3, 3, 3), True, 6)]
    + [((4, 4, 4), False, t) for t in (1, 2, 3)],
)
def test_oa_assign_matches_reference_on_every_row(dims, directed, t):
    "The one-loop kernel against the reference, at every (rank, code)."
    s = spec(dims, directed, t)
    params = make_scheme(s, "colord" if directed else "undir")
    for r in range(s.size):
        root = unrank(r, s)
        for code in range(1, s.codes + 1):
            assert oa_assign(root, r, code, params) == _reference_oa_color(root, r, code, params)


@pytest.mark.parametrize("directed", [True, False])
def test_oa_assign_matches_reference_on_huge_lattice(directed):
    "500 seeded ranks on 10^27 nodes, where sigma is near 3.16e13."
    s = spec((10**9,) * 3, directed, 2)
    params = make_scheme(s, "colord" if directed else "undir")
    rng = random.Random(27)
    for _ in range(500):
        r = rng.randrange(s.size)
        root = unrank(r, s)
        code = rng.randrange(1, s.codes + 1)
        assert oa_assign(root, r, code, params) == _reference_oa_color(root, r, code, params)
