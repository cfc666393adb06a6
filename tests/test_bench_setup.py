"""The benchmark's set-up must build: every workload's plan, smoke and
full, goes through bench/schemes.py and yields one object per step.

The benchmark times set-up in a fresh interpreter before anything else
runs, so a constructor change that breaks a plan should fail here first.
"""

import importlib.util
import pathlib
import sys

import pytest

from latticeobs.colorer import SchemeParams, make_scheme
from latticeobs.lattice import LatticeSpec

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load(name: str):
    """bench/<name>.py as a module; bench/ is on sys.path only while it
    loads, for the sibling modules it imports."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


workloads, schemes = load("workloads"), load("schemes")
PLANS = [
    pytest.param(name, smoke, id=f"{name}-{'smoke' if smoke else 'full'}")
    for name in workloads.WORKLOADS
    for smoke in (True, False)
]


@pytest.mark.parametrize("name,smoke", PLANS)
def test_every_plan_builds_one_object_per_step(name, smoke):
    plan = workloads.WORKLOADS[name](smoke).plan()
    assert plan
    built = schemes.build(plan)
    assert len(built) == len(plan)
    for (step, *args), obj in zip(plan, built):
        if step == "scheme":
            dims, directed, t, kind = args
            spec = LatticeSpec(tuple(dims), directed, t)
            direct = SchemeParams(spec, kind)
            assert obj == direct == make_scheme(spec, kind)
            assert repr(obj) == repr(direct)
