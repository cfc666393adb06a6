"""Golden outputs: exact bytes of coloring files and decode reports.

The digests pin what refactors must not change: every coloring file of
the acceptance and benchmark configurations, and the report of every
decode in a seeded single-substitution sweep (clean, corrupted,
out-of-palette and single-edge oscillation observations).  A failure
here means output changed, not that a tolerance was missed.
"""

import hashlib
import random
from collections import Counter

from latticeobs.colorer import SchemeParams, color_walk, coloring_lines, make_scheme, palette_size
from latticeobs.decoder import WalkObservation, decode
from latticeobs.gfpoly import FieldPrime
from latticeobs.lattice import LatticeSpec, Walk
from latticeobs.verifier import fault_inject, random_walk

# dims, directed, t, kind: the acceptance criteria's configurations plus
# the benchmark's locate and export configurations
COLORING_CONFIGS = (
    [((9, 9), True, t, "colord") for t in (1, 2, 3, 4)]
    + [((5, 5, 5), True, t, "colord") for t in (1, 2, 3, 4, 5, 6)]
    + [((4, 6), True, t, "colord") for t in (1, 2, 3, 4)]
    + [((8, 8, 8), True, 3, "colord")]
    + [((4, 4), False, t, "undir") for t in (1, 2)]
    + [((4, 4, 4), False, t, "undir") for t in (1, 2, 3)]
    + [((9, 9, 9), False, 3, "undir")]
    + [((16, 16), True, 4, "color2")]
)

COLORING_DIGESTS = {
    "colord 9x9 t=1": "614e916ea43940a27751b72a5e6c9df0b67bd08b3f6c5874b85cadc9744e40ff",
    "colord 9x9 t=2": "6c7afc19a37c510c442757208bd472221692188fed52bdb5d8171fcecc928828",
    "colord 9x9 t=3": "c92d503f00af8d1e6310b131d8e903b7af27831cf0bcb7adcb33d0ac537486e7",
    "colord 9x9 t=4": "b5005532cb91ae7ee9d76d65c7aa52033bcec44bb802cc67aaa9bd90e807fea0",
    "colord 5x5x5 t=1": "a3eb094a54f056e96d9c1cdf16620c5035a8c5d783f88f2b67636ce02e3cf417",
    "colord 5x5x5 t=2": "74f7ffecfca617b4e412e630e0ee0e7225847511e00ff7ea6d4a9591bfc51248",
    "colord 5x5x5 t=3": "c46bed773c24e824da20da0d317f7664ce8fe146bf255bbc938170d8e84cca32",
    "colord 5x5x5 t=4": "49a25d79a08e9e040346615a3b96d6fa19fccd845724da716df8b30eb632d7af",
    "colord 5x5x5 t=5": "d39e30054dac3f2572935d9e18e15128119d9e3f1b74885ebcbbb81809d96493",
    "colord 5x5x5 t=6": "3d9f9ca97cf91a1d6903127721f20cf3bd78fda36a8df6c5c92aa25b4c07dc6e",
    "colord 4x6 t=1": "efd18cc4df29f2e09bd1f51ec99fc7c5fd2c7796427e3cfb9198b2310fe178b7",
    "colord 4x6 t=2": "e1c1d1ec848cb9e68ea6395b0f27d1ff67b677a0db57e7360640296212e0b350",
    "colord 4x6 t=3": "6e63dad8dbfae00887f9002334a6aba8fd98c9834c7df9e3a2863496072f738c",
    "colord 4x6 t=4": "43e92eb853759f303c9dbaec4d945efafec273eb36749eef076636a99cd10c51",
    "colord 8x8x8 t=3": "e1280150502bfbd230afe4fab0056113662cbe61e55c0e58743edfb6b8cc79a5",
    "undir 4x4 t=1": "41da0f396e4b4e5b9dd94213fce7cc32bb5d09013c758e9acd449938ffdf0766",
    "undir 4x4 t=2": "9c58d448597e56f23b511d75de04ac31893bad6340bb2738c6e70cd84159ddd5",
    "undir 4x4x4 t=1": "0b5cf0a296f09d2b25a6fb99398272b3ee4e2e04d294810a56fd505e5a10664e",
    "undir 4x4x4 t=2": "cb252fc4cac266f5db0f6511a16e1d488d774f126503da8682efa2e034c2f4c3",
    "undir 4x4x4 t=3": "dab0c7158d74f15cb4e6a6385494931f8090f51c69ee925859fccfc2c7e80b75",
    "undir 9x9x9 t=3": "5f6b7d734f84f77668267c3e9f17864befb791ec7cc00b4cd422c4d6bf5e5491",
    "color2 16x16 t=4": "ab686a372e2dc1c3bc82b895c61e1c8863d58592905e33606879944f866415fe",
}

# dims, directed, t, kind, min distinct edges
SWEEP_CONFIGS = (
    ((5, 5, 5), True, 4, "colord", 1),
    ((4, 6), True, 3, "colord", 1),
    ((4, 4, 4), False, 3, "undir", 2),
    ((4, 4), False, 1, "undir", 1),
    ((16, 16), True, 4, "color2", 1),
)
SWEEP_WALKS = 30
SWEEP_SEED = 20260

SWEEP_DIGEST = "b801f80170aa226c8e32c2230f2dd736bd3feb5dca61226e021c5aea0100c2a5"
SWEEP_STATUSES = {"ok": 247, "invalid": 3452, "ambiguous": 525}


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def coloring_digests() -> dict:
    out = {}
    for dims, directed, t, kind in COLORING_CONFIGS:
        params = make_scheme(LatticeSpec(dims, directed, t), kind)
        out[f"{kind} {'x'.join(map(str, dims))} t={t}"] = _digest(coloring_lines(params))
    return out


def _oscillation(params, rng) -> Walk:
    "A back-and-forth walk over one undirected edge."
    spec = params.lattice
    axis = rng.randrange(spec.d) + 1
    node = [rng.randrange(n) for n in spec.dims]
    node[axis - 1] = min(node[axis - 1], spec.dims[axis - 1] - 2)
    length = rng.randint(1, 6)
    return Walk(tuple(node), tuple(axis if i % 2 == 0 else -axis for i in range(length)))


def sweep_observations():
    """Seeded observations: each walk clean, then every position with
    its color's neighbours and a random color substituted, and one
    position pushed outside the palette."""
    rng = random.Random(SWEEP_SEED)
    for dims, directed, t, kind, min_edges in SWEEP_CONFIGS:
        params = make_scheme(LatticeSpec(dims, directed, t), kind)
        palette = palette_size(params)
        walks = [
            random_walk(params, t, t + 4, rng.randrange(2**32), min_edges)
            for _ in range(SWEEP_WALKS)
        ]
        if not directed:
            walks += [_oscillation(params, rng) for _ in range(SWEEP_WALKS)]
        for w in walks:
            obs = WalkObservation(color_walk(w, params), params)
            yield obs
            for pos, c in enumerate(obs.colors):
                for new in ((c + 1) % palette, (c - 1) % palette, rng.randrange(palette)):
                    yield fault_inject(obs, pos, new)
            pos = rng.randrange(len(obs.colors))
            yield fault_inject(obs, pos, palette + rng.randrange(3))


def sweep_reports() -> tuple[str, dict]:
    reports = [decode(obs) for obs in sweep_observations()]
    statuses = Counter(r.status for r in reports)
    return _digest(repr(r) for r in reports), dict(statuses)


def test_coloring_files_golden():
    assert coloring_digests() == COLORING_DIGESTS


def test_decode_reports_golden():
    digest, statuses = sweep_reports()
    assert statuses == SWEEP_STATUSES
    assert set(statuses) == {"ok", "invalid", "ambiguous"}
    assert digest == SWEEP_DIGEST


def test_scheme_params_builds_every_golden_scheme():
    """Each golden scheme built by SchemeParams directly equals the one
    make_scheme builds, with the default sigma and with that sigma given."""
    configs = list(COLORING_CONFIGS) + [c[:4] for c in SWEEP_CONFIGS]
    for dims, directed, t, kind in configs:
        spec = LatticeSpec(dims, directed, t)
        default = make_scheme(spec, kind)
        s = default.sigma.modulus if default.sigma else None
        for sigma in (None, s):
            want = make_scheme(spec, kind, sigma)
            got = SchemeParams(spec, kind, None if sigma is None else FieldPrime(sigma))
            assert got == want == default
            assert repr(got) == repr(want)
