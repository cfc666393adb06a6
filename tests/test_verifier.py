"""Bounds, oracles, walk generation, and campaign drivers."""

import hashlib
import itertools
import random
import time
import tracemalloc

import pytest

from latticeobs.colorer import assign_color, make_scheme, color_walk, palette_size
from latticeobs.decoder import WalkObservation
from latticeobs.lattice import (
    Edge, LatticeSpec, Walk, apply_step, edge_endpoints, unrank, walk_dimension, walk_nodes,
)
from latticeobs.verifier import (
    MAX_SCAN_LEN,
    CampaignReport,
    ambiguity_scan,
    fault_inject,
    lb_walk_family,
    lower_bound_colors,
    random_walk,
    roundtrip_campaign,
)


def spec(dims, directed, t):
    return LatticeSpec(tuple(dims), directed, t)


def every_edge(s):
    """Every (node, code) of s in rank order that edge_endpoints accepts."""
    out = []
    for r in range(s.size):
        for c in range(1, s.codes + 1):
            try:
                out.append((edge_endpoints(Edge(unrank(r, s), c), s)[0], c))
            except ValueError:
                pass
    return out


def coordinate_edges(w, s):
    "The edges w crosses, each built from its two endpoints' coordinates."
    nodes = walk_nodes(w, s)
    return [
        Edge(min(u, v), st if s.directed else abs(st))
        for u, st, v in zip(nodes, w.steps, nodes[1:])
    ]


@pytest.mark.parametrize(
    "dims,t,expected",
    [
        ((4, 4), 4, 2),
        ((2,), 1, 1),
        ((16, 16), 4, 3),
        ((9, 9), 2, 5),
        ((4, 4), 2, 2),
        ((8, 8, 8), 2, 8),
    ],
)
def test_lower_bound_frozen(dims, t, expected):
    assert lower_bound_colors(spec(dims, True, t)) == expected


def _scanned_lower_bound(s):
    "Reference: count c up until c^t walks per node block cover the lattice."
    c = 1
    while c**s.t * 2**s.d < s.size:
        c += 1
    return c


def test_lower_bound_is_minimal():
    "The bound is the least c with c^t walks per node block."
    for dims, t in [((4, 4), 2), ((6, 4), 3), ((16, 16), 4)]:
        s = spec(dims, True, t)
        c = lower_bound_colors(s)
        assert c**t * 2**s.d >= s.size
        assert c == 1 or (c - 1) ** t * 2**s.d < s.size
    checked = 0
    for d in (1, 2, 3):
        for dims in itertools.product(range(2, 7), repeat=d):
            for directed in (True, False):
                for t in range(1, (2 * d if directed else d) + 1):
                    s = spec(dims, directed, t)
                    assert lower_bound_colors(s) == _scanned_lower_bound(s), (dims, t)
                    checked += 1
    assert checked == 1290


def test_lower_bound_on_huge_lattice_is_immediate():
    "10^27 nodes: a scan would take about 10^13 steps; the root is exact."
    s = spec((10**9,) * 3, False, 2)
    c = lower_bound_colors(s)
    assert c == 11180339887499  # ceil(sqrt(10^27 / 8))
    assert c**2 * 8 >= s.size > (c - 1) ** 2 * 8


def test_lb_walk_family_structure():
    s = spec((4, 4), True, 4)
    walks = lb_walk_family(s)
    assert len(walks) == 4  # one per 2^d block
    assert {w.start for w in walks} == {(0, 0), (0, 2), (2, 0), (2, 2)}
    for w in walks:
        assert w.steps == (1, 2, 3, 4)
        nodes = walk_nodes(w, s)
        assert nodes[-1] == w.start  # closes its cycle
        assert walk_dimension(w, s) == 4


def test_lb_walk_family_step_patterns():
    assert lb_walk_family(spec((2, 2, 2), True, 6))[0].steps == (1, 2, 3, 4, 5, 6)
    assert lb_walk_family(spec((4, 4), True, 3))[0].steps == (1, 2, 4)
    assert lb_walk_family(spec((4, 4), False, 2))[0].steps == (1, 2)
    assert len(lb_walk_family(spec((2, 2, 2), True, 6))) == 1


@pytest.mark.parametrize(
    "dims,directed,t", [((4, 4), True, 4), ((4, 6), True, 3), ((4, 4, 2), False, 2)]
)
def test_lb_walk_family_edge_disjoint(dims, directed, t):
    "No two family walks share an edge, so color sequences must differ."
    s = spec(dims, directed, t)
    walks = lb_walk_family(s)
    assert len(walks) == s.size // 2**s.d
    seen = set()
    for w in walks:
        for edge in coordinate_edges(w, s):
            assert edge not in seen
            seen.add(edge)


def test_lb_walk_family_needs_even_axes():
    with pytest.raises(ValueError):
        lb_walk_family(spec((3, 4), True, 2))


def test_ambiguity_scan_clean_scheme():
    params = make_scheme(spec((3, 3), True, 2), "colord")
    report = ambiguity_scan(params, max_len=4, t_min=2)
    assert report.ok
    assert report.collisions == ()
    assert report.scanned > 0
    assert report.max_len == 4


def test_ambiguity_scan_flags_constant_coloring():
    "Painting every edge the same color collides immediately."
    params = make_scheme(spec((3, 3), True, 2), "colord")
    report = ambiguity_scan(params, max_len=2, t_min=1, color_fn=lambda e: 0)
    assert not report.ok
    seq, ends = report.collisions[0]
    assert len(ends) > 1


def test_ambiguity_scan_budget():
    params = make_scheme(spec((3, 3), True, 2), "colord")
    with pytest.raises(ValueError):
        ambiguity_scan(params, max_len=4, t_min=2, budget=100)


@pytest.mark.parametrize(
    "max_len,t_min",
    [
        (0, 2),  # no step to take
        (0, 0),
        (3, 0),
        (3, 5),
        (6, 5),  # 3x3 directed has only 4 edge codes
        (1, 2),  # one step spans one code
        (-1, 1),
    ],
)
def test_ambiguity_scan_refuses_t_min_it_cannot_check(max_len, t_min):
    """t_min must be in [1, min(max_len, edge codes)]: above that no
    scanned walk is grouped, and the scan would pass having checked
    nothing."""
    params = make_scheme(spec((3, 3), True, 2), "colord")
    top = min(max_len, 4)
    message = rf"t_min={t_min} outside \[1, {top}\]: max_len={max_len}, 4 edge codes"
    with pytest.raises(ValueError, match=message):
        ambiguity_scan(params, max_len=max_len, t_min=t_min)


def test_ambiguity_scan_caps_walk_length():
    """The two-node path has exactly two walks of each length, so the cap
    itself is scanned in full; one step more is refused before any walk
    is built, even with a budget that would allow it."""
    params = make_scheme(spec((2,), True, 1), "colord")
    report = ambiguity_scan(params, max_len=MAX_SCAN_LEN, t_min=1)
    assert MAX_SCAN_LEN == 64
    assert report.scanned == 128
    assert report.ok
    message = r"max_len=65 above the scan cap of 64 steps"
    with pytest.raises(ValueError, match=message):
        ambiguity_scan(params, max_len=65, t_min=1, budget=10**9)


def _reference_scan(params, max_len, t_min, exclude_single_edge=False, color_fn=None):
    """(scanned, collisions) of ambiguity_scan, from a plain enumeration:
    every start, every step that apply_step takes, each edge built from
    its endpoints' coordinates and colored afresh, the dimension from
    walk_dimension."""
    spec = params.lattice
    if color_fn is None:
        color_fn = lambda e: assign_color(e, params)
    groups = {}
    scanned = 0

    def extend(start, node, steps, edges, colors):
        nonlocal scanned
        for s in spec.step_table:
            try:
                nxt = apply_step(node, s, spec)
            except ValueError:
                continue
            edge = Edge(min(node, nxt), s if spec.directed else abs(s))
            walk = Walk(start, steps + (s,))
            seq = colors + (color_fn(edge),)
            scanned += 1
            single = len(set(edges + (edge,))) < 2
            if walk_dimension(walk, spec) >= t_min and not (exclude_single_edge and single):
                groups.setdefault(seq, set()).add(nxt)
            if len(walk.steps) < max_len:
                extend(start, nxt, walk.steps, edges + (edge,), seq)

    for start in itertools.product(*map(range, spec.dims)):
        extend(start, start, (), (), ())
    collisions = tuple(
        sorted((seq, tuple(sorted(ends))) for seq, ends in groups.items() if len(ends) > 1)
    )
    return scanned, collisions


def _assert_scan_matches_reference(params, max_len, t_min, **kwargs):
    report = ambiguity_scan(params, max_len, t_min, **kwargs)
    scanned, collisions = _reference_scan(
        params, max_len, t_min, not params.lattice.directed, **kwargs
    )
    assert (report.scanned, report.collisions) == (scanned, collisions)
    assert report.ok == (collisions == ())
    return report


@pytest.mark.parametrize("dims", [(3, 3), (3, 4)])
@pytest.mark.parametrize("t_min", [1, 2, 3, 4])
def test_ambiguity_scan_matches_reference_directed(dims, t_min):
    params = make_scheme(spec(dims, True, 2), "colord")
    _assert_scan_matches_reference(params, 4, t_min)


@pytest.mark.parametrize("dims", [(3, 3), (2, 3, 2)])
@pytest.mark.parametrize("t_min", [1, 2])
def test_ambiguity_scan_matches_reference_undirected(dims, t_min):
    params = make_scheme(spec(dims, False, t_min), "undir")
    assert _assert_scan_matches_reference(params, 4, t_min).ok


@pytest.mark.parametrize("dims", [(3, 3), (2, 3, 2)])
def test_ambiguity_scan_skips_single_edge_walks_undirected(dims):
    """A walk that keeps to one undirected edge crosses the same color
    from either end, so it collides under any coloring: under the
    scheme's, and under a seeded one that gives every edge its own
    color.  A reference that groups those walks collides on both;
    ambiguity_scan never groups them and reports ok."""
    params = make_scheme(spec(dims, False, 1), "undir")
    edges = every_edge(params.lattice)
    random.Random(5).shuffle(edges)
    distinct = dict(zip(edges, range(len(edges))))
    for color_fn in (None, lambda e: distinct[tuple(e.root), e.code]):
        scanned, collisions = _reference_scan(params, 4, 1, False, color_fn=color_fn)
        assert collisions
        report = ambiguity_scan(params, 4, 1, color_fn=color_fn)
        assert report.ok and report.scanned == scanned


@pytest.mark.parametrize("directed,kind", [(True, "colord"), (False, "undir")])
def test_ambiguity_scan_matches_reference_on_broken_coloring(directed, kind):
    "A three-color coloring must collide, and in the same places."
    params = make_scheme(spec((3, 3), directed, 2), kind)
    report = _assert_scan_matches_reference(
        params, 3, 1, color_fn=lambda e: (e.code + e.root[0]) % 3
    )
    assert not report.ok


@pytest.mark.parametrize("t_min", [1, 2, 3])
def test_ambiguity_scan_matches_reference_color2(t_min):
    params = make_scheme(spec((4, 4), True, 4), "color2")
    _assert_scan_matches_reference(params, 3, t_min)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2)])
def test_ambiguity_scan_matches_reference_color2_3d(dims):
    "Every full-dimensional walk of up to 6 steps ends where its colors say."
    params = make_scheme(spec(dims, True, 6), "color2")
    assert _assert_scan_matches_reference(params, 6, 6).ok


@pytest.mark.parametrize("origin", [0, 1])
def test_ambiguity_scan_matches_reference_on_corner_distance_coloring(origin):
    """A bare 3-coloring: each edge's root's L1 distance to a corner,
    mod 3 (corner 0 is all-zeros, corner 1 has coordinate 1 maxed)."""
    params = make_scheme(spec((3, 3), False, 1), "undir")
    corner = (0, 0) if origin == 0 else (2, 0)
    color_fn = lambda e: sum(abs(a - b) for a, b in zip(e.root, corner)) % 3
    _assert_scan_matches_reference(params, 3, 1, color_fn=color_fn)


def test_ambiguity_scan_budget_is_exact():
    """The budget is counted a node's successors at a time, yet a scan
    of exactly budget walks passes and one walk more is refused."""
    params = make_scheme(spec((4, 4), True, 2), "colord")
    assert ambiguity_scan(params, max_len=3, t_min=2, budget=688).scanned == 688
    with pytest.raises(ValueError, match=r"^scan exceeded budget of 687 walks$"):
        ambiguity_scan(params, max_len=3, t_min=2, budget=687)


@pytest.mark.parametrize("max_len,walks", [(1, 34), (2, 136), (3, 444), (4, 1378)])
def test_ambiguity_scan_budget_is_exact_at_every_depth(max_len, walks):
    """The last step is counted with its parent's expansion, the steps
    before it one call each; either way a budget of exactly the walk
    count passes and one less is refused."""
    params = make_scheme(spec((3, 4), True, 2), "colord")
    assert ambiguity_scan(params, max_len, 1, budget=walks).scanned == walks
    with pytest.raises(ValueError, match=rf"^scan exceeded budget of {walks - 1} walks$"):
        ambiguity_scan(params, max_len, 1, budget=walks - 1)


def _seeded_coloring(s, seed, palette):
    "A color_fn drawing each edge's color from palette, seeded per edge."
    rng = random.Random(seed)
    table = {edge: rng.choice(palette) for edge in every_edge(s)}
    return lambda e: table[tuple(e.root), e.code]


@pytest.mark.parametrize(
    "dims,directed,kind",
    [((3, 3), True, "colord"), ((3, 4), True, "colord"), ((3, 3), False, "undir")],
    ids=["colord3x3", "colord3x4", "undir3x3"],
)
@pytest.mark.parametrize(
    "palette",
    [(0, 1, 2), (-7, 2**64 + 1, -(2**80), 3)],
    ids=["small", "wide"],
)
def test_ambiguity_scan_matches_reference_on_seeded_colorings(dims, directed, kind, palette):
    """Random colorings over a few colors collide in many places; the
    scan's coded sequences decode to the same collisions as the plain
    enumeration.  Colors that are negative or wider than 64 bits are
    told apart by their dense ids, never by their values."""
    params = make_scheme(spec(dims, directed, 2), kind)
    t_max = params.lattice.codes
    for seed in range(4):
        color_fn = _seeded_coloring(params.lattice, seed, palette)
        max_len = 3 + seed % 2
        t_min = 1 + seed % min(t_max, 3)
        report = _assert_scan_matches_reference(params, max_len, t_min, color_fn=color_fn)
        assert not report.ok
        assert {c for seq, _ in report.collisions for c in seq} <= set(palette)


def test_ambiguity_scan_decodes_long_sequences():
    """The two-node path at the scan cap: every sequence of one color,
    64 digits long at most, reaches both nodes and decodes back whole."""
    params = make_scheme(spec((2,), True, 1), "colord")
    report = ambiguity_scan(params, max_len=64, t_min=1, color_fn=lambda e: 0)
    assert report.scanned == 128
    assert report.collisions == tuple(((0,) * n, ((0,), (1,))) for n in range(1, 65))


def test_ambiguity_scan_memory_guard():
    """Sequences are keyed by one int each, not a tuple of colors: the
    77,200-walk scan of colord 4x4 at max_len=7 peaks at about 5.2 MiB
    traced (9.3 MiB with tuple keys)."""
    params = make_scheme(spec((4, 4), True, 2), "colord")
    tracemalloc.start()
    try:
        report = ambiguity_scan(params, max_len=7, t_min=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.scanned == 77_200
    assert peak <= 7 * 2**20


def test_ambiguity_scan_never_calls_assign_color(monkeypatch):
    """The scan's own edges fit by construction, so it colors them with
    the scheme's unchecked assigner, not the validating assign_color.  A
    given color_fn still receives each lattice edge once, as an Edge."""
    params = make_scheme(spec((3, 4), True, 2), "colord")
    broken = lambda e: (e.code + e.root[0]) % 3
    expected = _reference_scan(params, 3, 2)
    expected_broken = _reference_scan(params, 3, 1, color_fn=broken)

    def refuse(*_):
        raise AssertionError("assign_color called")

    monkeypatch.setattr("latticeobs.colorer.assign_color", refuse)
    monkeypatch.setattr("latticeobs.verifier.assign_color", refuse)
    report = ambiguity_scan(params, 3, 2)
    assert (report.scanned, report.collisions) == expected
    seen = []

    def record(e):
        seen.append(e)
        return broken(e)

    report = ambiguity_scan(params, 3, 1, color_fn=record)
    assert (report.scanned, report.collisions) == expected_broken
    assert all(isinstance(e, Edge) for e in seen)
    assert sorted((tuple(e.root), e.code) for e in seen) == every_edge(params.lattice)


def test_ambiguity_scan_budget_on_huge_lattice_is_immediate():
    "10^27 nodes: successors are built per node reached, so a small budget refuses at once."
    params = make_scheme(spec((10**9,) * 3, True, 2), "colord")
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="budget of 100 walks"):
        ambiguity_scan(params, max_len=4, t_min=2, budget=100)
    assert time.perf_counter() - t0 < 1


# dims, directed, t, kind, min distinct edges -> sha256 of (start, steps)
# over seeds 0..199, walks of t + 4 steps
RANDOM_WALK_DIGESTS = {
    ((5, 5, 5), True, 4, "colord", 1):
        "0a90bb0de005d3abeedfc93fb45419da6bf716057c699a9107ed1956ea7bac7a",
    ((4, 6), True, 3, "colord", 1):
        "360e195c8e042cacb22a52ca27a354762946d0cfaa7e3963053712da35dc1196",
    ((4, 4, 4), False, 3, "undir", 2):
        "5d37b79933fe70c0b60c8d96a83359ffc60df4fb8f9790ff450590c6a672aa3c",
    ((4, 4), False, 1, "undir", 1):
        "c771597d4431d5b28e1600f8d8f430ea9f4059a51e099c26a66c4aaeb28e4060",
    # one axis with two edges: min_distinct_edges rejects the oscillations
    ((3, 3), False, 1, "undir", 2):
        "22ec36dff26e5ab2366810af5d3584c3a1cc96f45125abd86e8f2467456d1d5f",
}


@pytest.mark.parametrize("config", list(RANDOM_WALK_DIGESTS), ids=str)
def test_random_walk_output_pinned(config):
    "Seeded walks feed campaign lines() and golden digests; they must not move."
    dims, directed, t, kind, min_edges = config
    params = make_scheme(spec(dims, directed, t), kind)
    h = hashlib.sha256()
    for seed in range(200):
        w = random_walk(params, t, t + 4, seed, min_edges)
        assert len(set(coordinate_edges(w, params.lattice))) >= min_edges
        h.update(repr((w.start, w.steps)).encode() + b"\n")
    assert h.hexdigest() == RANDOM_WALK_DIGESTS[config]


def test_random_walk_deterministic():
    params = make_scheme(spec((5, 5), True, 2), "colord")
    a = random_walk(params, t=2, length=6, seed=42)
    b = random_walk(params, t=2, length=6, seed=42)
    c = random_walk(params, t=2, length=6, seed=43)
    assert a == b
    assert a != c  # overwhelmingly; pinned by the frozen seed pair
    assert len(a.steps) == 6
    assert walk_dimension(a, params.lattice) == 2


def test_random_walk_undirected_spans_t_axes():
    params = make_scheme(spec((4, 4, 4), False, 2), "undir")
    w = random_walk(params, t=2, length=7, seed=7, min_distinct_edges=2)
    assert walk_dimension(w, params.lattice) == 2
    assert len(set(coordinate_edges(w, params.lattice))) >= 2


def test_random_walk_validation():
    params = make_scheme(spec((4, 4), True, 2), "colord")
    with pytest.raises(ValueError):
        random_walk(params, t=2, length=1, seed=0)  # length < t
    with pytest.raises(ValueError):
        random_walk(params, t=5, length=5, seed=0)  # no such orientation count
    tiny = make_scheme(spec((2, 2), True, 1), "colord")
    # one orientation cannot take 3 steps on an axis of length 2
    with pytest.raises(ValueError, match="^no 1-dimensional walk of length 3 moves one way"):
        random_walk(tiny, t=1, length=3, seed=0)


@pytest.mark.parametrize(
    "dims,directed,t,length,min_edges,reason",
    [
        ((4, 4), True, 2, 3, 4, "crosses 4 distinct edges"),
        ((5, 5), False, 1, 1, None, "crosses 2 distinct edges"),
        ((2,), False, 1, 5, None, "crosses 2 of an axis line's 1 edges"),
        ((3, 3), False, 1, 5, 3, "crosses 3 of an axis line's 2 edges"),
        ((3, 3), True, 1, 5, None, "moves one way along an axis line of 2 edges"),
    ],
    ids=["too-few-steps", "undirected-default", "one-edge-line", "short-line", "directed-line"],
)
def test_random_walk_refuses_what_arithmetic_rules_out(
    dims, directed, t, length, min_edges, reason
):
    """More distinct edges than steps, or a t = 1 walk that outgrows the
    longest axis line, is refused with its reason before any draw."""
    params = make_scheme(spec(dims, directed, t), "colord" if directed else "undir")
    with pytest.raises(ValueError, match=f"^no {t}-dimensional walk of length {length} {reason}$"):
        random_walk(params, t, length, 0, min_edges)


def test_random_walk_gives_up_after_max_tries():
    """A request arithmetic does not settle: two axes of 2x2 hold 4 edges,
    but a 2-axis walk of 6 steps never crosses 5 distinct ones."""
    params = make_scheme(spec((2, 2), False, 2), "undir")
    with pytest.raises(ValueError, match=r"^no 2-dimensional walk of length 6 in 10000 tries$"):
        random_walk(params, 2, 6, 0, 5)


def test_random_walk_default_follows_the_lattice():
    """min_distinct_edges defaults to 2 on undirected lattices, so a
    correct scheme places every walk, and to 1 on directed ones."""
    undirected = make_scheme(spec((5, 5), False, 1), "undir")
    report = roundtrip_campaign(undirected, 1, 200, 5, 0)
    assert report.lines().endswith("ok=200/200")
    directed = make_scheme(spec((4, 6), True, 3), "colord")
    for seed in range(50):
        assert random_walk(undirected, 1, 5, seed) == random_walk(undirected, 1, 5, seed, 2)
        assert random_walk(directed, 3, 7, seed) == random_walk(directed, 3, 7, seed, 1)
        assert random_walk(directed, 1, 3, seed) == random_walk(directed, 1, 3, seed, 1)


def test_fault_inject():
    params = make_scheme(spec((3, 3), True, 2), "colord")
    obs = WalkObservation(color_walk(Walk((0, 0), (1, 2)), params), params)
    hit = fault_inject(obs, 1, 0)
    assert hit.colors[1] == 0
    assert hit.colors[0] == obs.colors[0]
    assert obs.colors[1] != 0  # the original is untouched
    same = fault_inject(obs, 0, obs.colors[0])
    assert same.colors == obs.colors
    with pytest.raises(ValueError):
        fault_inject(obs, 2, 0)
    with pytest.raises(ValueError):
        fault_inject(obs, -1, 0)


def test_roundtrip_campaign_all_ok():
    params = make_scheme(spec((5, 5), True, 2), "colord")
    report = roundtrip_campaign(params, t=2, n_walks=50, length=6, seed=11)
    assert (report.ok, report.total) == (50, 50)
    assert report.failures == ()
    assert report.lines().endswith("ok=50/50")
    assert "scheme=colord" in report.lines()
    assert "dims=5x5" in report.lines()


@pytest.mark.parametrize("n_walks", [0, -1])
def test_roundtrip_campaign_needs_a_walk(n_walks):
    params = make_scheme(spec((3, 3), True, 2), "colord")
    with pytest.raises(ValueError, match=f"n_walks={n_walks}: a campaign needs at least one walk"):
        roundtrip_campaign(params, t=2, n_walks=n_walks, length=6, seed=0)


def test_roundtrip_campaign_undirected():
    params = make_scheme(spec((4, 4), False, 2), "undir")
    report = roundtrip_campaign(
        params, t=2, n_walks=30, length=6, seed=3, min_distinct_edges=2
    )
    assert (report.ok, report.total) == (30, 30)


@pytest.mark.parametrize(
    "dims,directed,t,kind,sigma",
    [
        ((10**9,) * 2, True, 2, "colord", 10**9 + 7),
        ((10**30,) * 2, True, 2, "colord", 10**30 + 57),
        ((10**150,) * 2, True, 2, "colord", 10**150 + 67),
        ((10**10,) * 3, False, 2, "undir", 10**15 + 37),
        ((10**9,) * 2, True, 4, "color2", None),
    ],
    ids=["colord-1e18", "colord-1e60", "colord-1e300", "undir-1e30", "color2-1e18"],
)
def test_roundtrip_campaign_on_huge_lattices(dims, directed, t, kind, sigma):
    "10^18 to 10^300 nodes: sized in milliseconds, every walk decoded exactly."
    params = make_scheme(spec(dims, directed, t), kind)
    assert (params.sigma.modulus if params.sigma else None) == sigma
    report = roundtrip_campaign(
        params, t=t, n_walks=40, length=t + 4, seed=17, min_distinct_edges=2
    )
    assert (report.ok, report.total) == (40, 40)


@pytest.mark.parametrize(
    "dims,palette",
    [
        ((4, 6), 12),
        ((4, 4, 4), 12),
        ((5, 3, 4), 18),
        ((3, 3, 3, 3), 16),
        ((7,), 6),
        ((10**9,) * 3, 189_738),
    ],
    ids=str,
)
def test_color2_roundtrip_at_full_dimension(dims, palette):
    "color2 on any directed lattice at t = 2d: palette 2d * ceil(sqrt(max n_j))."
    t = 2 * len(dims)
    params = make_scheme(spec(dims, True, t), "color2")
    assert palette_size(params) == palette
    report = roundtrip_campaign(params, t=t, n_walks=300, length=t + 4, seed=5)
    assert (report.ok, report.total) == (300, 300)


def test_campaign_lines_are_reproducible():
    params = make_scheme(spec((4, 4), False, 2), "undir")
    runs = [
        roundtrip_campaign(params, t=2, n_walks=20, length=5, seed=9,
                           min_distinct_edges=2).lines()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_campaign_failure_lines():
    report = CampaignReport(
        "roundtrip scheme=x", 2, 1, ((0, (0, 0), (1, 2), "invalid"),)
    )
    lines = report.lines().splitlines()
    assert lines[0] == "roundtrip scheme=x"
    assert lines[1] == "fail walk=0 start=(0, 0) steps=(1, 2) status=invalid"
    assert lines[2] == "ok=1/2"
    # a real campaign: walks of dimension 1 under a t=2 scheme cannot decode
    params = make_scheme(spec((5, 5), True, 2), "colord")
    report = roundtrip_campaign(params, t=1, n_walks=3, length=3, seed=0)
    assert (report.ok, report.total) == (0, 3)
    assert [f[0] for f in report.failures] == [0, 1, 2]
    lines = report.lines().splitlines()
    assert lines[0] == "roundtrip scheme=colord dims=5x5 t=1 walks=3 length=3 seed=0"
    assert lines[1:] == [
        "fail walk=0 start=(4, 3) steps=(3, 3, 3) status=invalid",
        "fail walk=1 start=(4, 0) steps=(2, 2, 2) status=invalid",
        "fail walk=2 start=(0, 0) steps=(1, 1, 1) status=invalid",
        "ok=0/3",
    ]


def test_lower_bound_never_exceeds_palette():
    "Sanity: the lower bound stays below every constructive palette."
    for dims, directed, t, kind in [
        ((9, 9), True, 2, "colord"),
        ((16, 16), True, 4, "color2"),
        ((4, 4), False, 2, "undir"),
    ]:
        s = spec(dims, directed, t)
        assert lower_bound_colors(s) <= palette_size(make_scheme(s, kind))
