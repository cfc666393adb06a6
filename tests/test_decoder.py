"""Decoding observations back to exact lattice positions."""

import ast
import itertools
import math
import random
from pathlib import Path

import pytest

from latticeobs import decoder, gfpoly
from latticeobs.colorer import (
    assign_color,
    color_unpack,
    color_walk,
    make_scheme,
    palette_size,
    parity_group,
)
from latticeobs.decoder import (
    AMBIGUOUS,
    INVALID,
    OK,
    AmbiguousObservation,
    ObservationError,
    WalkObservation,
    decode,
    recover_coef_diffs,
    recover_signs,
)
from latticeobs.gfpoly import FieldPrime, base_digits, poly_eval
from latticeobs.lattice import Edge, LatticeSpec, Walk, trace_steps, walk_dimension, walk_nodes
from latticeobs.oarray import OASpec
from latticeobs.verifier import fault_inject, random_walk

P5 = FieldPrime(5)


def spec(dims, directed, t):
    return LatticeSpec(tuple(dims), directed, t)


def observe(w, params):
    return WalkObservation(color_walk(w, params), params)


def all_walks(s, max_len):
    "Every in-bounds walk of 1..max_len steps, with its node sequence."
    if s.directed:
        menu = list(range(1, 2 * s.d + 1))
    else:
        menu = [st for a in range(1, s.d + 1) for st in (a, -a)]
    for start in itertools.product(*(range(n) for n in s.dims)):
        for ln in range(1, max_len + 1):
            for steps in itertools.product(menu, repeat=ln):
                w = Walk(start, steps)
                try:
                    nodes = walk_nodes(w, s)
                except ValueError:
                    continue
                yield w, nodes


def distinct_edges(w, s):
    "Distinct edges w crosses, each built from its endpoints' coordinates."
    nodes = walk_nodes(w, s)
    hops = zip(nodes, w.steps, nodes[1:])
    return len({Edge(min(u, v), st if s.directed else abs(st)) for u, st, v in hops})


def test_observation_rejects_empty():
    params = make_scheme(spec((3, 3), True, 2), "colord")
    with pytest.raises(ValueError):
        WalkObservation((), params)


def test_recover_coef_diffs_frozen():
    # parities packed as parity_group packs them: 0b10 is (1, 0)
    assert recover_coef_diffs(1, 0b11, 0b10, 2, P5) == (0, 1)
    assert recover_coef_diffs(1, 0b10, 0b00, 2, P5) == (1, -4)
    assert recover_coef_diffs(0, 0b11, 0b11, 2, P5) == (0, 0)
    assert recover_coef_diffs(24, 0b00, 0b00, 2, P5) == (4, 4)
    # digits reconstruct the gap with the demanded parities
    deltas = recover_coef_diffs(16, 0b10, 0b01, 2, P5)
    assert deltas == (3, 1)
    assert deltas[0] * 5 + deltas[1] == 16


def test_recover_coef_diffs_validation():
    with pytest.raises(ObservationError, match="^rank gap must be non-negative$"):
        recover_coef_diffs(-1, 0b00, 0b00, 2, P5)
    with pytest.raises(ObservationError, match="^rank gap digit borrows past the modulus$"):
        # an odd digit cannot absorb a zero remainder at the bottom
        recover_coef_diffs(0, 0b01, 0b00, 2, P5)
    with pytest.raises(ObservationError, match="^rank gap left over after t digits$"):
        # leftover gap after all digits are spent
        recover_coef_diffs(24, 0b10, 0b00, 2, P5)


@pytest.mark.parametrize("t,modulus", [(1, 5), (2, 5), (3, 5), (2, 7)])
def test_recover_coef_diffs_exhaustive(t, modulus):
    "Matches direct coefficient subtraction for every ordered pair."
    p = FieldPrime(modulus)
    rows = modulus**t
    table = [base_digits(i, t, p) for i in range(rows)]
    parities = [parity_group(c) for c in table]
    for hi in range(rows):
        for lo in range(hi + 1):
            want = tuple(a - b for a, b in zip(table[hi], table[lo]))
            got = recover_coef_diffs(hi - lo, parities[hi], parities[lo], t, p)
            assert got == want


def test_array_entry_diff_frozen():
    assert poly_eval((1, -4), 2, P5) == 3
    assert poly_eval((0, 0), 3, P5) == 0
    for j in (1, 2, 3, 4):
        assert poly_eval((0, 1), j, P5) == 1


def test_array_entry_diff_matches_entry_subtraction():
    oa = OASpec(P5, 2, 4)
    table = [base_digits(i, 2, P5) for i in range(25)]
    for hi in range(25):
        for lo in range(hi + 1):
            deltas = tuple(a - b for a, b in zip(table[hi], table[lo]))
            for j in range(1, 5):
                want = (
                    poly_eval(base_digits(hi, oa.t, oa.p), j, oa.p)
                    - poly_eval(base_digits(lo, oa.t, oa.p), j, oa.p)
                ) % 5
                assert poly_eval(deltas, j, P5) == want


def test_decode_single_directed_edge():
    # sigma > node count, so one column pins the row
    params = make_scheme(spec((2, 2), True, 1), "colord")
    obs = WalkObservation((assign_color(Edge((1, 0), 2), params),), params)
    report = decode(obs)
    assert report.status == OK
    assert report.root == (1, 0)
    assert report.root_index == 0
    assert report.current == (1, 1)
    assert report.embedding == ((1, 0), (1, 1))


def test_decode_directed_exact_on_every_walk():
    """Exhaustive: every 2-dimensional walk of <= 4 steps decodes to
    itself; lower-dimensional walks come back invalid."""
    s = spec((3, 3), True, 2)
    params = make_scheme(s, "colord")
    decoded = 0
    for w, nodes in all_walks(s, 4):
        report = decode(observe(w, params))
        if walk_dimension(w, s) >= 2:
            assert report.status == OK
            assert report.embedding == tuple(nodes)
            assert report.current == nodes[-1]
            assert report.root == min(nodes)
            assert report.root_index == nodes.index(min(nodes))
            decoded += 1
        else:
            assert report.status == INVALID
    assert decoded == 792


def test_decode_undirected_taxonomy_exhaustive():
    """Exhaustive over <= 4 steps on a 3x3 lattice: two distinct edges
    and full dimension decode exactly; one-edge oscillations are
    ambiguous; the rest never decode to a wrong position."""
    s = spec((3, 3), False, 2)
    params = make_scheme(s, "undir")
    counts = {"ok": 0, "single": 0, "lowdim": 0}
    for w, nodes in all_walks(s, 4):
        report = decode(observe(w, params))
        if distinct_edges(w, s) < 2:
            assert report.status == AMBIGUOUS
            counts["single"] += 1
        elif walk_dimension(w, s) >= 2:
            assert report.status == OK
            assert report.embedding == tuple(nodes)
            assert report.current == nodes[-1]
            counts["ok"] += 1
        else:
            assert report.status in (INVALID, AMBIGUOUS)
            counts["lowdim"] += 1
    assert counts == {"ok": 648, "single": 96, "lowdim": 84}


def test_decode_undirected_l_walk():
    s = spec((4, 4), False, 2)
    params = make_scheme(s, "undir")
    report = decode(observe(Walk((1, 1), (1, 2)), params))
    assert report.status == OK
    assert report.current == (2, 2)
    assert report.root == (1, 1)


def test_recover_signs_frozen():
    s = spec((4, 4), False, 2)
    params = make_scheme(s, "undir")
    assert recover_signs(observe(Walk((0, 0), (1, 1)), params)) == [1, 1]
    obs = observe(Walk((0, 0), (1, 2, -2, -1)), params)
    assert recover_signs(obs) == [1, 1, -1, -1]
    colord = make_scheme(spec((4, 4), True, 2), "colord")
    with pytest.raises(ValueError, match="sign recovery reads undir scheme digits"):
        recover_signs(observe(Walk((0, 0), (1, 2)), colord))


def test_recover_signs_oscillation_is_ambiguous():
    s = spec((4, 4), False, 2)
    params = make_scheme(s, "undir")
    obs = observe(Walk((2, 1), (1, -1, 1)), params)
    with pytest.raises(AmbiguousObservation):
        recover_signs(obs)
    assert decode(obs).status == AMBIGUOUS


@pytest.mark.parametrize("t", [1, 2])
def test_recover_signs_exhaustive(t):
    """Ground-truth signs come back for every two-edge walk of full
    dimension, and some digit stream always alternates."""
    s = spec((3, 3), False, t)
    params = make_scheme(s, "undir")
    checked = 0
    for w, nodes in all_walks(s, 4):
        if walk_dimension(w, s) != t or distinct_edges(w, s) < 2:
            continue
        signs = recover_signs(observe(w, params))
        assert signs == [1 if st > 0 else -1 for st in w.steps]
        checked += 1
    assert checked == {1: 84, 2: 648}[t]


def test_alternation_signs_matches_brute_force():
    """Every digit stream up to length 6 against every +-1 sign vector:
    adjacent edges of opposite sign keep the digit, two rising edges
    add 1 and two falling ones 2 (mod 3).  No consistent vector means
    a raise, two (a vector and its negation) mean None, one means it."""
    for n in range(1, 7):
        vectors = list(itertools.product((1, -1), repeat=n))
        for stream in itertools.product(range(3), repeat=n):
            fits = [
                list(v)
                for v in vectors
                if all(
                    (b - a) % 3 == (0 if x != y else 1 if x > 0 else 2)
                    for a, b, x, y in zip(stream, stream[1:], v, v[1:])
                )
            ]
            if not fits:
                with pytest.raises(ObservationError, match="distance digits fit no walk"):
                    decoder._alternation_signs(stream)
            else:
                assert len(fits) <= 2, stream
                want = None if len(fits) == 2 else fits[0]
                assert decoder._alternation_signs(stream) == want, stream


def test_decode2d_square_cycle():
    s = spec((16, 16), True, 4)
    params = make_scheme(s, "color2")
    report = decode(observe(Walk((5, 5), (1, 2, 3, 4)), params))
    assert report.status == OK
    assert report.current == (5, 5)
    assert report.root == (5, 5)
    assert report.root_index == 0
    assert report.embedding == ((5, 5), (6, 5), (6, 6), (5, 6), (5, 5))


def test_decode2d_needs_all_four_orientations():
    s = spec((16, 16), True, 4)
    params = make_scheme(s, "color2")
    report = decode(observe(Walk((5, 5), (1, 2, 3)), params))
    assert report.status == INVALID


def test_decode2d_inconsistent_colors_rejected():
    "A remainder fault that pushes the paired x to 15 cannot place."
    s = spec((16, 16), True, 4)
    params = make_scheme(s, "color2")
    obs = observe(Walk((13, 5), (1, 2, 3, 4)), params)
    assert obs.colors[2] == 5  # x remainder 1, block base 4
    faulted = fault_inject(obs, 2, 7)  # remainder 3 pairs to x = 15
    assert decode(faulted).status == INVALID


def test_decode2d_exact_on_more_walks():
    s = spec((16, 16), True, 4)
    params = make_scheme(s, "color2")
    for start, steps in [
        ((7, 3), (1, 2, 3, 4, 2)),
        ((0, 0), (1, 1, 2, 3, 4)),
        ((14, 14), (2, 1, 4, 3)),
    ]:
        w = Walk(start, steps)
        nodes = walk_nodes(w, s)
        report = decode(observe(w, params))
        assert report.status == OK
        assert report.embedding == tuple(nodes)
        assert report.current == nodes[-1]


def test_decode_verifies_in_one_pass(monkeypatch):
    """decode recolors the placed walk once, with color_walk, and builds
    the embedding from the trace: with walk_nodes made to raise, clean
    and corrupted observations get the same reports."""
    rng = random.Random(31)
    observations = []
    for s, kind in [
        (spec((5, 5, 5), True, 3), "colord"),
        (spec((4, 4, 4), False, 2), "undir"),
        (spec((16, 16), True, 4), "color2"),
    ]:
        params = make_scheme(s, kind)
        for seed in range(40):
            obs = observe(random_walk(params, s.t, s.t + 4, seed, 2), params)
            pos = rng.randrange(len(obs.colors))
            observations += [obs, fault_inject(obs, pos, rng.randrange(palette_size(params)))]
    expected = [decode(obs) for obs in observations]

    def refuse(*args):
        raise AssertionError("decode walked the placed walk a second time")

    monkeypatch.setattr("latticeobs.decoder.walk_nodes", refuse)
    assert [decode(obs) for obs in observations] == expected
    statuses = [r.status for r in expected]
    assert statuses[::2] == [OK] * 120
    assert statuses[1::2].count(INVALID) > 100


def test_decode_unpacks_each_color_once(monkeypatch):
    """decode unpacks an n-color observation with exactly n calls to
    decoder.color_unpack, and recover_signs called alone unpacks the
    colors itself and returns the walk's own signs."""
    rng = random.Random(37)
    walks = []
    for s, kind in [
        (spec((5, 5, 5), True, 3), "colord"),
        (spec((4, 4, 4), False, 2), "undir"),
        (spec((16, 16), True, 4), "color2"),
    ]:
        params = make_scheme(s, kind)
        for seed in range(20):
            walks.append((random_walk(params, s.t, s.t + 4, seed, 2), params))
    real = color_unpack
    calls = []

    def counted(c, params):
        calls.append(c)
        return real(c, params)

    monkeypatch.setattr("latticeobs.decoder.color_unpack", counted)
    for w, params in walks:
        obs = observe(w, params)
        calls.clear()
        assert decode(obs).status == OK
        assert calls == list(obs.colors)
        pos = rng.randrange(len(obs.colors))
        faulted = fault_inject(obs, pos, rng.randrange(palette_size(params)))
        calls.clear()
        decode(faulted)
        assert calls == list(faulted.colors)
        if params.kind == "undir":
            calls.clear()
            assert recover_signs(obs) == [1 if st > 0 else -1 for st in w.steps]
            assert calls == list(obs.colors)


def test_out_of_palette_color_is_invalid():
    s = spec((3, 3), True, 2)
    params = make_scheme(s, "colord")
    obs = observe(Walk((0, 0), (1, 2)), params)
    faulted = fault_inject(obs, 1, palette_size(params))
    assert decode(faulted).status == INVALID


def test_orientation_fault_that_cannot_fit_is_invalid():
    "Faulting a color so the trace spans more than the lattice allows."
    s = spec((3, 2), True, 2)
    params = make_scheme(s, "colord")
    obs = observe(Walk((0, 0), (1, 2)), params)
    # replace the axis-1 color with an axis-2 color: traced steps (2, 2)
    # then span 2 on an axis of length 2, which fits nowhere
    faulted = fault_inject(obs, 0, assign_color(Edge((0, 0), 2), params))
    assert decode(faulted).status == INVALID
    # the minimum places inside, but the traced walk leaves the lattice
    # at a middle step and comes back: (1,0) (2,0) (2,1) (3,1) (2,1) (1,1)
    s = spec((3, 3), True, 2)
    params = make_scheme(s, "colord")
    steps = (1, 2, 1, 3, 3)
    with pytest.raises(ValueError):
        walk_nodes(Walk((1, 0), steps), s)
    colors = observe(Walk((1, 0), (1, 2)), params).colors + (
        assign_color(Edge((1, 1), 1), params),
        assign_color(Edge((1, 1), 3), params),
        assign_color(Edge((0, 1), 3), params),
    )
    assert [color_unpack(c, params)[0] for c in colors] == list(steps)
    assert decode(WalkObservation(colors, params)).status == INVALID


def test_identity_fault_changes_nothing():
    s = spec((3, 3), True, 2)
    params = make_scheme(s, "colord")
    obs = observe(Walk((1, 0), (2, 1, 4)), params)
    same = fault_inject(obs, 1, obs.colors[1])
    assert decode(same) == decode(obs)


def test_faults_never_impersonate_the_original():
    """Exhaustive single-position faults: decoding may fail or land on
    a different walk, but never returns the original embedding."""
    s = spec((3, 3), True, 2)
    params = make_scheme(s, "colord")
    w = Walk((0, 0), (1, 2))
    obs = observe(w, params)
    original = decode(obs)
    assert original.status == OK
    for c in range(palette_size(params)):
        if c == obs.colors[0]:
            continue
        report = decode(fault_inject(obs, 0, c))
        if report.status == OK:
            assert report.embedding != original.embedding
        else:
            assert report.status == INVALID


def test_parity_mismatch_at_solved_root_is_invalid(monkeypatch):
    """A single substitution can leave the t columns consistent with a
    row inside the lattice whose parities differ from the anchor's: the
    parities of the edge at the walk's minimum.  The test finds those
    cases itself, from the solved row a spy on the row solve records,
    and each must be invalid: verify recolors the anchor edge from that
    same row, so the mismatch fails the recolor."""
    solved = []
    solve = decoder.oa_row_from_projection

    def spy_solve(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(decoder, "oa_row_from_projection", spy_solve)
    params = make_scheme(spec((5, 5), True, 2), "colord")
    s, t, p = params.lattice, params.lattice.t, params.sigma
    hits = 0
    for seed in range(3):
        obs = observe(random_walk(params, 2, 4, seed), params)
        for pos in range(len(obs.colors)):
            for c in range(palette_size(params)):
                solved.clear()
                faulted = fault_inject(obs, pos, c)
                report = decode(faulted)
                if not solved or solved[0] >= s.size:
                    continue
                parts = [color_unpack(color, params) for color in faulted.colors]
                _, _, root_idx = trace_steps([part[0] for part in parts], s)
                anchor = parts[root_idx - 1 if root_idx else 0][2]
                if parity_group(base_digits(solved[0], t, p)) != anchor:
                    assert report.status == INVALID
                    hits += 1
    assert hits


def test_lagrange_basis_built_once_per_column_subset():
    """200 decodes of one scheme build the interpolation basis at most
    once per t-subset of its edge codes."""
    params = make_scheme(spec((5, 5, 5), True, 3), "colord")
    gfpoly._lagrange_basis.cache_clear()
    for seed in range(200):
        assert decode(observe(random_walk(params, 3, 7, seed), params)).status == OK
    info = gfpoly._lagrange_basis.cache_info()
    assert info.hits + info.misses == 200  # one row solve per decode
    assert info.misses <= math.comb(params.lattice.codes, 3)


def _steps_of(nodes, s):
    """Step codes of a node sequence, read off coordinate differences:
    each consecutive pair must differ by one on exactly one axis."""
    steps = []
    for u, v in zip(nodes, nodes[1:]):
        moved = [(j, b - a) for j, (a, b) in enumerate(zip(u, v)) if a != b]
        assert len(moved) == 1 and abs(moved[0][1]) == 1, (u, v)
        (j, sign), = moved
        if s.directed:
            steps.append(j + 1 if sign > 0 else s.d + j + 1)
        else:
            steps.append(sign * (j + 1))
    return tuple(steps)


def _recolor(nodes, params):
    "Each edge's color by assign_color on its lower end and code."
    s = params.lattice
    return tuple(
        assign_color(Edge(min(u, v), abs(step)), params)
        for step, u, v in zip(_steps_of(nodes, s), nodes, nodes[1:])
    )


@pytest.mark.parametrize(
    "dims,directed,t,kind",
    [((4, 4), True, 2, "colord"), ((4, 4), False, 2, "undir"), ((4, 4), True, 4, "color2")],
    ids=["colord", "undir", "color2"],
)
def test_ok_is_never_a_guess_under_corruption(dims, directed, t, kind):
    """Every palette color at every position of 10 seeded walks: an ok
    report's embedding, rebuilt into steps by coordinate differences,
    recolors exactly to the observation it came from, and each clean
    observation decodes to its own walk.  The recolor is the decoder's
    one placement check, so no ok can rest on any earlier stage."""
    params = make_scheme(spec(dims, directed, t), kind)
    oks = 0
    for seed in range(10):
        w = random_walk(params, t, t + 4, seed)
        obs = observe(w, params)
        clean = decode(obs)
        assert clean.status == OK
        assert (clean.embedding[0], _steps_of(clean.embedding, params.lattice)) == (w.start, w.steps)
        for pos in range(len(obs.colors)):
            for c in range(palette_size(params)):
                faulted = fault_inject(obs, pos, c)
                report = decode(faulted)
                if report.status != OK:
                    continue
                nodes = report.embedding
                assert _recolor(nodes, params) == faulted.colors
                assert report.root == min(nodes) == nodes[report.root_index]
                assert report.current == nodes[-1]
                oks += 1
    assert oks > 10 * (t + 4)  # more than the identity substitutions


def test_every_refusal_message_is_distinct():
    """Each literal message decoder.py gives ObservationError or
    AmbiguousObservation names one raise site, so a refusal's text says
    where it came from."""
    tree = ast.parse(Path(decoder.__file__).read_text(encoding="utf-8"))
    messages = [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("ObservationError", "AmbiguousObservation")
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]
    assert len(messages) >= 8
    assert len(set(messages)) == len(messages), sorted(messages)
