"""Build the schemes a workload uses from its set-up plan.

A plan is a JSON list of steps, so the same plan can be timed in a fresh
interpreter (``setup_s``) and built in the benchmark's own process:

    ["scheme", dims, directed, t, kind]   -> colorer.make_scheme(...)
    ["oa", sigma, t, cols]                -> oarray.OASpec(FieldPrime(sigma), t, cols)
"""

from latticeobs import colorer, gfpoly, lattice, oarray


def build(plan) -> list:
    built = []
    for step, *args in plan:
        if step == "scheme":
            dims, directed, t, kind = args
            spec = lattice.LatticeSpec(tuple(dims), directed, t)
            built.append(colorer.make_scheme(spec, kind))
        elif step == "oa":
            sigma, t, cols = args
            built.append(oarray.OASpec(gfpoly.FieldPrime(sigma), t, cols))
        else:
            raise ValueError(f"unknown set-up step {step!r}")
    return built
