"""The benchmark's own tests: the correctness oracle must catch a broken
answer, and every workload's smoke run must emit exactly the metric
names BENCHMARK.json declares.

    python3 -m pytest bench
"""

import json
import os
import random
import subprocess
import sys

import pytest

import run

run.load_library()

import oracle  # noqa: E402
import schemes  # noqa: E402
import workloads  # noqa: E402
from latticeobs import cli, colorer, decoder, lattice  # noqa: E402
from latticeobs.verifier import ambiguity_scan, random_walk  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def fail_ratio(items) -> float:
    tally = run.Tally()
    run.run_phase(items, 0, tally)
    return tally.failed / tally.attempted


def smoke_items(workload, seed):
    workload = workload(True)
    os.makedirs(workloads.OUT, exist_ok=True)
    return workload.prepare(schemes.build(workload.plan()), random.Random(seed))


def test_clean_locate_pass_has_no_failures():
    assert fail_ratio(smoke_items(workloads.Locate, 3)) == 0


def test_tampered_expected_answer_raises_fail_ratio():
    params = colorer.make_scheme(lattice.LatticeSpec((5, 5, 5), True, 4), "colord")
    walk = random_walk(params, 4, 8, 11)
    obs = decoder.WalkObservation(colorer.color_walk(walk, params), params)
    nodes = oracle.truth_nodes(walk, True)
    wrong = nodes[:-1] + [tuple(x + 1 for x in nodes[-1])]
    items = [
        workloads.Item("right", lambda: decoder.decode(obs), 1,
                       lambda r: oracle.check_decode(r, nodes, obs.colors, params, False)),
        workloads.Item("tampered", lambda: decoder.decode(obs), 1,
                       lambda r: oracle.check_decode(r, wrong, obs.colors, params, False)),
    ]
    assert fail_ratio(items) == 0.5


def test_corrupted_ok_must_reproduce_the_observation():
    params = colorer.make_scheme(lattice.LatticeSpec((9, 9), True, 2), "colord")
    walk = random_walk(params, 2, 6, 5)
    colors = colorer.color_walk(walk, params)
    report = decoder.decode(decoder.WalkObservation(colors, params))
    nodes = oracle.truth_nodes(walk, True)
    assert oracle.check_decode(report, nodes, colors, params, corrupted=True)
    changed = (colors[0] + 1,) + colors[1:]
    assert not oracle.check_decode(report, nodes, changed, params, corrupted=True)
    refused = decoder.DecodeReport(decoder.INVALID)
    assert oracle.check_decode(refused, nodes, changed, params, corrupted=True)


def _export_items(tamper):
    items = smoke_items(workloads.Export, 1)
    for item in items:
        path = item.label.split("--out ")[1].split()[0]
        item.op = lambda op=item.op, path=path: (op(), tamper(path))[0]
    return items


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)))


def _bump_color(lines):
    coords, code, color = lines[5].split(" ")
    lines[5] = f"{coords} {code} {int(color) + 1}"
    return lines


@pytest.mark.parametrize(
    "edit, broken",
    [
        (lambda lines: lines, False),
        (_bump_color, True),
        (lambda lines: lines[:-2] + [""], True),
        (lambda lines: [lines[0].replace("t=3", "t=2")] + lines[1:], True),
    ],
    ids=["untouched", "altered-line", "dropped-line", "altered-header"],
)
def test_export_oracle(edit, broken):
    ratio = fail_ratio(_export_items(lambda path: _rewrite(path, edit)))
    assert (ratio > 0) == broken


def test_every_altered_line_is_caught_with_a_full_sample():
    params = colorer.make_scheme(lattice.LatticeSpec((3, 3, 3), True, 3), "colord")
    path = os.path.join(workloads.OUT, "oracle-full.txt")
    os.makedirs(workloads.OUT, exist_ok=True)
    assert cli.main(["color", "--dims", "3x3x3", "--directed", "--t", "3", "--out", path]) == 0
    assert oracle.check_export(path, params, random.Random(0), 10**6) == []
    _rewrite(path, _bump_color)
    reasons = oracle.check_export(path, params, random.Random(0), 10**6)
    assert len(reasons) == 1 and reasons[0].startswith("line 6 ")


def test_walk_count_matches_enumeration():
    params = colorer.make_scheme(lattice.LatticeSpec((3, 4), True, 2), "colord")
    assert ambiguity_scan(params, 4, 2).scanned == oracle.walk_count((3, 4), 4)
    assert oracle.edge_count((3, 4), True) == 2 * (2 * 4 + 3 * 3)


def test_readme_maps_every_layer_metric():
    with open(os.path.join(run.BENCH_DIR, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    assert [m["name"] for m in BENCHMARK["per_layer"] if f"`{m['name']}`" not in readme] == []


def _smoke(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_emits_declared_metrics(workload):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        names = {seed: set(_smoke(workload, seed, trace)["metrics"]) for seed in (1, 2)}
        assert names[1] == names[2] == {m["name"] for m in declared}
        result = _smoke(workload, 1, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
