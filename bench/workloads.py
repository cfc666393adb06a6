"""The benchmark's workloads: seeded inputs, one pass of calls, and checks.

Every workload is a closed loop with one caller: each call starts after
the previous one returns.  `prepare` generates the inputs from the seed
before anything is timed; the timed loop then repeats the same pass of
calls.  Every call looks its function up on the library module at call
time, so the traced run's wrappers see it.
"""

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from latticeobs import cli, colorer, decoder, oarray, verifier

import oracle

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")  # files the benchmark writes


@dataclass
class Item:
    """One timed call: `units` of work, judged by `check(result)`."""

    label: str
    op: Callable[[], object]
    units: int
    check: Callable[[object], bool]
    corrupted: bool = False


class Workload:
    setup_repeats = 9

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def plan(self) -> list:
        """Set-up steps, as schemes.build reads them."""
        raise NotImplementedError

    def prepare(self, built: list, rng: random.Random) -> list[Item]:
        """One pass of calls, generated from the seeded rng."""
        raise NotImplementedError


def _scheme_plan(configs) -> list:
    return [["scheme", list(dims), directed, t, kind] for dims, directed, t, kind, *_ in configs]


def _observation(params, t: int, min_edges: int, rng):
    walk = verifier.random_walk(params, t, t + 4, rng.randrange(2**32), min_edges)
    return walk, decoder.WalkObservation(colorer.color_walk(walk, params), params)


def _decode_item(walk, obs, corrupted: bool) -> Item:
    nodes = oracle.truth_nodes(walk, obs.params.lattice.directed)
    return Item(
        f"decode {obs.params.kind} colors={obs.colors} corrupted={corrupted}",
        lambda: decoder.decode(obs),
        1,
        lambda report: oracle.check_decode(report, nodes, obs.colors, obs.params, corrupted),
        corrupted,
    )


class Locate(Workload):
    """Decode pre-generated observations of a desk-size scheme mix; one
    in ten has one seeded color substituted."""

    # dims, directed, t, kind, min distinct edges
    CONFIGS = (
        ((9, 9), True, 2, "colord", 1),
        ((5, 5, 5), True, 4, "colord", 1),
        ((4, 4, 4), False, 3, "undir", 2),
        ((16, 16), True, 4, "color2", 1),
    )

    def plan(self):
        return _scheme_plan(self.CONFIGS)

    def prepare(self, built, rng):
        per_scheme = 5 if self.smoke else 300
        cases = [
            (params, *_observation(params, t, min_edges, rng))
            for params, (_, _, t, _, min_edges) in zip(built, self.CONFIGS)
            for _ in range(per_scheme)
        ]
        items = []
        for i, (params, walk, obs) in enumerate(cases):
            corrupted = i % 10 == 9
            if corrupted:
                pos = rng.randrange(len(obs.colors))
                new = rng.randrange(colorer.palette_size(params) - 1)
                obs = verifier.fault_inject(obs, pos, new + (new >= obs.colors[pos]))
            items.append(_decode_item(walk, obs, corrupted))
        rng.shuffle(items)
        return items


class Huge(Workload):
    """Decode clean observations on a 10^27-node lattice, where the field
    prime is near 3.16e13 and ranks are big integers."""

    setup_repeats = 5

    @property
    def configs(self):
        dims = (10**4 if self.smoke else 10**9,) * 3
        return ((dims, True, 2, "colord", 1), (dims, False, 2, "undir", 2))

    def plan(self):
        return _scheme_plan(self.configs)

    def prepare(self, built, rng):
        per_scheme = 5 if self.smoke else 200
        items = [
            _decode_item(*_observation(params, t, min_edges, rng), False)
            for params, (_, _, t, _, min_edges) in zip(built, self.configs)
            for _ in range(per_scheme)
        ]
        rng.shuffle(items)
        return items


class Roundtrip(Workload):
    """Seeded round trips, one walk per call: generate, color, decode and
    compare, as `verify roundtrip` does."""

    CONFIGS = (
        ((5, 5, 5), True, 4, "colord", 1),
        ((4, 4, 4), False, 3, "undir", 2),
    )

    def plan(self):
        return _scheme_plan(self.CONFIGS)

    def prepare(self, built, rng):
        per_scheme = 3 if self.smoke else 400
        items = []
        for params, (_, _, t, kind, min_edges) in zip(built, self.CONFIGS):
            for _ in range(per_scheme):
                seed = rng.randrange(2**32)
                items.append(Item(
                    f"roundtrip {kind} seed={seed}",
                    lambda params=params, t=t, seed=seed, min_edges=min_edges:
                        verifier.roundtrip_campaign(params, t, 1, t + 4, seed, min_edges),
                    1,
                    lambda report: report.total == 1 and report.ok == 1,
                ))
        rng.shuffle(items)
        return items


class Scan(Workload):
    """Exhaustive ambiguity scan of every short walk on colord 4x4, t=2."""

    @property
    def config(self):
        return ((3, 3), 3) if self.smoke else ((4, 4), 3)

    def plan(self):
        dims, _ = self.config
        return [["scheme", list(dims), True, 2, "colord"]]

    def prepare(self, built, rng):
        (params,) = built
        dims, max_len = self.config
        walks = oracle.walk_count(dims, max_len)
        return [Item(
            f"scan dims={dims} max_len={max_len}",
            lambda: verifier.ambiguity_scan(params, max_len, 2),
            walks,
            lambda report: report.ok and report.scanned == walks,
        )]


class OrthogonalArray(Workload):
    """Exhaustive projection check of the polynomial orthogonal array."""

    def plan(self):
        return [["oa", 5, 2, 3]] if self.smoke else [["oa", 7, 3, 6]]

    def prepare(self, built, rng):
        (spec,) = built
        return [Item(
            f"oa_validate sigma={spec.p.modulus} t={spec.t} cols={spec.cols}",
            lambda: oarray.oa_validate(spec),
            spec.rows * math.comb(spec.cols, spec.t),
            lambda result: result == (True, None),
        )]


class Export(Workload):
    """Full-lattice coloring files written by the in-process CLI."""

    @property
    def configs(self):
        if self.smoke:
            return (((3, 3, 3), True, 3, "colord"), ((3, 3, 3), False, 3, "undir"))
        return (((8, 8, 8), True, 3, "colord"), ((9, 9, 9), False, 3, "undir"))

    def plan(self):
        return _scheme_plan(self.configs)

    def prepare(self, built, rng):
        sample = 10**6 if self.smoke else 64  # lines checked per file; smoke checks all
        items = []
        for params, (dims, directed, t, kind) in zip(built, self.configs):
            path = os.path.join(OUT, f"export-{kind}.txt")
            argv = ["color", "--dims", "x".join(map(str, dims)), "--t", str(t),
                    "--scheme", kind, "--out", path] + (["--directed"] if directed else [])
            sample_rng = random.Random(rng.randrange(2**32))
            items.append(Item(
                f"export {' '.join(argv)}",
                lambda argv=argv: cli.main(argv),
                oracle.edge_count(dims, directed),
                lambda code, path=path, params=params, sample_rng=sample_rng:
                    code == 0 and not oracle.check_export(path, params, sample_rng, sample),
            ))
        return items


WORKLOADS = {
    "locate": Locate,
    "roundtrip": Roundtrip,
    "scan": Scan,
    "oa": OrthogonalArray,
    "export": Export,
    "huge": Huge,
}
