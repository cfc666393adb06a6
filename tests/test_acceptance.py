"""Acceptance gate: one test per published guarantee, desk scale.

Each test prints a single `acceptance <n> <name>: PASS|FAIL` line with
its key numbers, then asserts.  Tolerances are zero throughout: round
trips must be exact, oracles must agree on every case, and the stated
wall-clock budgets are enforced.
"""

import itertools
import random
import time
from functools import lru_cache

from latticeobs.colorer import color_walk, make_scheme, palette_size
from latticeobs.decoder import AMBIGUOUS, WalkObservation, decode, recover_signs
from latticeobs.decoder import recover_coef_diffs
from latticeobs.gfpoly import FieldPrime, base_digits, ceil_nth_root, poly_eval
from latticeobs.lattice import (
    LatticeSpec,
    Walk,
    apply_step,
    walk_dimension,
    walk_nodes,
)
from latticeobs.oarray import OASpec, oa_validate
from latticeobs.verifier import (
    ambiguity_scan,
    lb_walk_family,
    lower_bound_colors,
    roundtrip_campaign,
)

# (dims, t) per directed configuration; seeds derive from list position
DIRECTED_CONFIGS = (
    [((9, 9), t) for t in (1, 2, 3, 4)]
    + [((5, 5, 5), t) for t in (1, 2, 3, 4, 5, 6)]
    + [((4, 6), t) for t in (1, 2, 3, 4)]
)
UNDIRECTED_CONFIGS = [((4, 4), 1), ((4, 4), 2)] + [
    ((4, 4, 4), t) for t in (1, 2, 3)
]
WALKS_PER_CONFIG = 1000
OSCILLATIONS_PER_CONFIG = 20


def _line(num, name, ok, detail):
    print(f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _length_for(dims, t):
    # one fixed policy so seeds stay meaningful across runs
    if t == 1:
        return max(1, min(min(dims) - 1, 5))
    return t + 4


@lru_cache(maxsize=None)
def _directed_reports():
    out = []
    for idx, (dims, t) in enumerate(DIRECTED_CONFIGS):
        spec = LatticeSpec(dims, True, t)
        params = make_scheme(spec, "colord")
        report = roundtrip_campaign(
            params, t, WALKS_PER_CONFIG, _length_for(dims, t), seed=1000 * (idx + 1)
        )
        out.append(report)
    return tuple(out)


@lru_cache(maxsize=None)
def _color2_report():
    spec = LatticeSpec((16, 16), True, 4)
    params = make_scheme(spec, "color2")
    return roundtrip_campaign(params, 4, WALKS_PER_CONFIG, 8, seed=31000)


def _oscillation_summary(dims, t, seed):
    "Seeded single-edge back-and-forth walks; counts ambiguous decodes."
    spec = LatticeSpec(dims, False, t)
    params = make_scheme(spec, "undir")
    rng = random.Random(seed)
    ambiguous = 0
    for _ in range(OSCILLATIONS_PER_CONFIG):
        axis = rng.randrange(spec.d) + 1
        node = list(rng.randrange(n) for n in dims)
        if node[axis - 1] + 1 >= dims[axis - 1]:
            node[axis - 1] -= 1
        length = rng.randint(1, 6)
        steps = tuple(axis if i % 2 == 0 else -axis for i in range(length))
        w = Walk(tuple(node), steps)
        obs = WalkObservation(color_walk(w, params), params)
        if decode(obs).status == AMBIGUOUS:
            ambiguous += 1
    dims_txt = "x".join(map(str, dims))
    return (
        f"oscillations dims={dims_txt} t={t} seed={seed} "
        f"ambiguous={ambiguous}/{OSCILLATIONS_PER_CONFIG}"
    )


@lru_cache(maxsize=None)
def _undirected_reports():
    campaigns = []
    oscillations = []
    for idx, (dims, t) in enumerate(UNDIRECTED_CONFIGS):
        spec = LatticeSpec(dims, False, t)
        params = make_scheme(spec, "undir")
        campaigns.append(
            roundtrip_campaign(
                params,
                t,
                WALKS_PER_CONFIG,
                _length_for(dims, t),
                seed=21000 * (idx + 1),
                min_distinct_edges=2,
            )
        )
        oscillations.append(_oscillation_summary(dims, t, seed=777 + idx))
    return tuple(campaigns), tuple(oscillations)


def test_criterion_1_orthogonal_array_validity():
    t0 = time.perf_counter()
    results = []
    for modulus, t, cols in [(3, 2, 2), (5, 2, 4), (7, 3, 3), (7, 2, 6)]:
        ok, violation = oa_validate(OASpec(FieldPrime(modulus), t, cols))
        results.append((ok, violation))
    elapsed = time.perf_counter() - t0
    clean = all(ok and v is None for ok, v in results)
    passed = clean and elapsed < 10
    _line(1, "orthogonal-array validity", passed,
          f"4 parameter sets, violations=0, {elapsed:.2f}s")
    assert clean
    assert elapsed < 10


def test_criterion_2_directed_roundtrip():
    t0 = time.perf_counter()
    reports = _directed_reports()
    elapsed = time.perf_counter() - t0
    total_ok = sum(r.ok for r in reports)
    total = sum(r.total for r in reports)
    passed = total_ok == total == len(DIRECTED_CONFIGS) * WALKS_PER_CONFIG
    passed = passed and elapsed < 60
    _line(2, "directed round-trip", passed,
          f"{len(reports)} configs, ok={total_ok}/{total}, {elapsed:.2f}s")
    for r in reports:
        assert r.failures == (), r.lines()
    assert total_ok == total
    assert elapsed < 60


def test_criterion_3_two_dimensional_scheme():
    report = _color2_report()
    spec = LatticeSpec((16, 16), True, 4)
    palette = palette_size(make_scheme(spec, "color2"))
    passed = report.ok == report.total == WALKS_PER_CONFIG and palette <= 16
    _line(3, "square-lattice scheme", passed,
          f"ok={report.ok}/{report.total}, palette={palette}")
    assert report.failures == (), report.lines()
    assert palette <= 16


def test_criterion_4_undirected_roundtrip_and_oscillations():
    campaigns, oscillations = _undirected_reports()
    total_ok = sum(r.ok for r in campaigns)
    total = sum(r.total for r in campaigns)
    amb = sum(int(line.split("=")[-1].split("/")[0]) for line in oscillations)
    amb_total = len(oscillations) * OSCILLATIONS_PER_CONFIG
    passed = total_ok == total and amb == amb_total == 100
    _line(4, "undirected round-trip", passed,
          f"ok={total_ok}/{total}, oscillations ambiguous={amb}/{amb_total}")
    for r in campaigns:
        assert r.failures == (), r.lines()
    assert amb == amb_total == 100


def test_criterion_5_digit_recovery_oracle():
    """recover_coef_diffs, and poly_eval of its differences, against direct
    subtraction: exhaustive for t=2 and t=3 over sigma=5, plus one
    million seeded t=3 samples."""
    t0 = time.perf_counter()
    p = FieldPrime(5)
    checked = 0

    def check_pair(a, b, t, table, parities, cols):
        nonlocal checked
        hi, lo = (a, b) if a >= b else (b, a)
        want = tuple(x - y for x, y in zip(table[hi], table[lo]))
        got = recover_coef_diffs(hi - lo, parities[hi], parities[lo], t, p)
        assert got == want, (hi, lo)
        j = 1 + checked % cols
        expect = (
            poly_vals[t][hi][j - 1] - poly_vals[t][lo][j - 1]
        ) % 5
        assert poly_eval(got, j, p) == expect, (hi, lo, j)
        checked += 1

    poly_vals = {}
    tables = {}
    parities = {}
    for t, cols in ((2, 4), (3, 4)):
        spec = OASpec(p, t, cols)
        tables[t] = [base_digits(i, t, p) for i in range(spec.rows)]
        parities[t] = [tuple(a & 1 for a in c) for c in tables[t]]
        poly_vals[t] = [
            [poly_eval(base_digits(i, spec.t, spec.p), j, spec.p) for j in range(1, cols + 1)]
            for i in range(spec.rows)
        ]

    for a in range(25):
        for b in range(25):
            check_pair(a, b, 2, tables[2], parities[2], 4)
    for a in range(125):
        for b in range(125):
            check_pair(a, b, 3, tables[3], parities[3], 4)
    exhaustive = checked

    rng = random.Random(5150)
    for _ in range(1_000_000):
        a = rng.randrange(125)
        b = rng.randrange(125)
        check_pair(a, b, 3, tables[3], parities[3], 4)

    elapsed = time.perf_counter() - t0
    passed = checked == exhaustive + 1_000_000 and elapsed < 60
    _line(5, "digit-recovery oracle", passed,
          f"pairs={checked} (exhaustive={exhaustive}), mismatches=0, {elapsed:.2f}s")
    assert checked == 625 + 15_625 + 1_000_000
    assert elapsed < 60


def _undirected_walks(spec, max_len):
    "DFS enumeration of every in-bounds walk of 1..max_len steps."
    menu = [s for a in range(1, spec.d + 1) for s in (a, -a)]

    def extend(node, steps):
        for s in menu:
            try:
                nxt = apply_step(node, s, spec)
            except ValueError:
                continue
            steps.append(s)
            yield tuple(steps)
            if len(steps) < max_len:
                yield from extend(nxt, steps)
            steps.pop()

    for start in itertools.product(*(range(n) for n in spec.dims)):
        for steps in extend(start, []):
            yield Walk(start, steps)


def test_criterion_6_sign_recovery_exhaustive():
    """All undirected walks of <= 6 steps with two distinct edges:
    recovered signs match ground truth and some digit stream moves."""
    t0 = time.perf_counter()
    checked = 0
    for dims in ((4, 4), (3, 3, 3)):
        base = LatticeSpec(dims, False, 1)
        schemes = {
            t: make_scheme(LatticeSpec(dims, False, t), "undir")
            for t in range(1, base.d + 1)
        }
        for w in _undirected_walks(base, 6):
            edges = {(min(u, v), abs(s)) for (u, v), s in zip(itertools.pairwise(walk_nodes(w, base)), w.steps)}
            if len(edges) < 2:
                continue
            tw = walk_dimension(w, base)
            params = schemes[tw]
            obs = WalkObservation(color_walk(w, params), params)
            # raises AmbiguousObservation if every stream is constant
            signs = recover_signs(obs)
            assert signs == [1 if s > 0 else -1 for s in w.steps], w
            checked += 1
    elapsed = time.perf_counter() - t0
    passed = checked > 0 and elapsed < 120
    _line(6, "sign recovery", passed,
          f"walks={checked}, mismatches=0, monochromatic=0, {elapsed:.2f}s")
    assert checked == 211_786  # exhaustive count over both lattices
    assert elapsed < 120


def test_criterion_7_exhaustive_ambiguity_scan():
    t0 = time.perf_counter()
    spec = LatticeSpec((4, 4), True, 2)
    params = make_scheme(spec, "colord")
    report = ambiguity_scan(params, max_len=8, t_min=2)
    control = ambiguity_scan(params, max_len=3, t_min=2, color_fn=lambda e: 0)
    elapsed = time.perf_counter() - t0
    passed = report.ok and not control.ok and elapsed < 120
    _line(7, "ambiguity scan", passed,
          f"scanned={report.scanned}, collisions={len(report.collisions)}, "
          f"control collisions={len(control.collisions)}, {elapsed:.2f}s")
    assert report.ok
    assert not control.ok
    assert elapsed < 120


def test_criterion_8_bounds_coherence():
    t0 = time.perf_counter()
    configs = [
        (dims, True, t, "colord") for dims, t in DIRECTED_CONFIGS
    ] + [
        (dims, False, t, "undir") for dims, t in UNDIRECTED_CONFIGS
    ] + [((16, 16), True, 4, "color2")]
    for dims, directed, t, kind in configs:
        spec = LatticeSpec(dims, directed, t)
        params = make_scheme(spec, kind)
        palette = palette_size(params)
        assert lower_bound_colors(spec) <= palette, (dims, t, kind)
        if params.sigma is not None:
            sig = params.sigma.modulus
            cap = ceil_nth_root(spec.size, t)
            assert sig < 2 * max(cap, 2 * spec.d) + 2, (dims, t, kind)
            if kind == "colord":
                assert palette == 2 ** (t + 1) * spec.d * sig, (dims, t)

    distinct_checked = 0
    for n in (4, 6):
        for d in (2, 3):
            for t in range(1, 2 * d + 1):
                spec = LatticeSpec((n,) * d, True, t)
                params = make_scheme(spec, "colord")
                seqs = [color_walk(w, params) for w in lb_walk_family(spec)]
                assert len(set(seqs)) == len(seqs), (n, d, t)
                distinct_checked += len(seqs)
    elapsed = time.perf_counter() - t0
    passed = elapsed < 10
    _line(8, "bounds coherence", passed,
          f"{len(configs)} configs bounded, {distinct_checked} family walks "
          f"distinct, {elapsed:.2f}s")
    assert elapsed < 10


def test_criterion_9_determinism():
    "Re-running criteria 2-4 with the same seeds reproduces every byte."
    first = (
        [r.lines() for r in _directed_reports()]
        + [_color2_report().lines()]
        + [r.lines() for r in _undirected_reports()[0]]
        + list(_undirected_reports()[1])
    )
    _directed_reports.cache_clear()
    _color2_report.cache_clear()
    _undirected_reports.cache_clear()
    second = (
        [r.lines() for r in _directed_reports()]
        + [_color2_report().lines()]
        + [r.lines() for r in _undirected_reports()[0]]
        + list(_undirected_reports()[1])
    )
    identical = first == second
    _line(9, "determinism", identical,
          f"{len(first)} reports compared, identical={identical}")
    assert identical
