"""Per-layer metrics: where the traced run wraps each latticeobs module,
and how the recorded spans and counts become the reported numbers.

Each wrapper sits on the module attribute the caller looks up, so
``decoder.color_walk`` is timed as the decoder calls it and
``verifier.apply_step`` as the verifier does.  Counts cover one set-up
plus the first traced pass and repeat exactly for a seed; times (``us``)
are one set-up plus the mean of the traced passes.  The README maps each
metric to the end-to-end metric it should move.
"""

import math
import os

from latticeobs import cli, colorer, decoder, gfpoly, lattice, oarray, verifier


def _status(tracer, args, report):
    tracer.extra["decoder.status." + report.status] += 1


def _steps(tracer, args, walk):
    tracer.extra["verifier.random_walk.steps"] += len(walk.steps)


def _scanned(tracer, args, report):
    tracer.extra["verifier.scan.walks"] += report.scanned


def _projections(tracer, args, result):
    spec = args[0]
    tracer.extra["oarray.validate.projections"] += spec.rows * math.comb(spec.cols, spec.t)


def _bytes(tracer, args, code):
    tracer.extra["cli.color.bytes"] += os.path.getsize(args[0].out)


def instrument(tracer) -> None:
    """Register every wrapper; tracer.enable() installs them."""
    for module in (decoder, verifier):
        tracer.span(module, "decode", "decoder.decode", _status)
    tracer.span(decoder, "color_unpack", "decoder.unpack")
    tracer.span(decoder, "recover_signs", "decoder.signs")
    tracer.span(decoder, "trace_steps", "decoder.trace")
    tracer.span(decoder, "color_walk", "decoder.verify")
    tracer.span(decoder, "walk_nodes", "decoder.verify")
    tracer.span(decoder, "oa_row_from_projection", "oarray.solve")
    tracer.span(oarray, "oa_validate", "oarray.validate", _projections)
    tracer.span(oarray, "interpolate_coeffs", "gfpoly.interpolate")
    tracer.span(gfpoly, "is_prime", "gfpoly.is_prime")
    tracer.span(colorer, "ceil_nth_root", "gfpoly.ceil_nth_root")
    for module in (colorer, cli):
        tracer.span(module, "make_scheme", "colorer.make_scheme")
    for module in (colorer, verifier):
        tracer.span(module, "assign_color", "colorer.assign")
    tracer.count(colorer, "rank", "lattice.rank")
    for module in (colorer, decoder, verifier):
        tracer.count(module, "unrank", "lattice.unrank")
    tracer.count(lattice, "apply_step", "lattice.apply_step")
    tracer.count(verifier, "apply_step", "verifier.apply_step")
    tracer.count(lattice, "in_bounds", "lattice.in_bounds")
    tracer.count(verifier, "walk_dimension", "lattice.walk_dimension")
    tracer.span(verifier, "random_walk", "verifier.random_walk", _steps)
    tracer.span(verifier, "ambiguity_scan", "verifier.scan", _scanned)
    tracer.span(verifier, "roundtrip_campaign", "verifier.roundtrip")
    tracer.span(cli, "cmd_color", "cli.color", _bytes)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(setup, first, end, passes: int, overhead_ratio: float) -> dict:
    """Metric name -> value, from snapshots taken after the traced set-up,
    after the first traced pass and at the end of `passes` passes."""

    def us(name, kind="time_ns"):
        before = getattr(setup, kind)[name]
        return (before + (getattr(end, kind)[name] - before) / passes) / 1000

    calls = first.calls
    extra = first.extra
    walk = "verifier.random_walk"
    return {
        "decoder.decode.calls": calls["decoder.decode"],
        "decoder.decode.self_us": us("decoder.decode", "self_ns"),
        "decoder.unpack.us": us("decoder.unpack"),
        "decoder.signs.us": us("decoder.signs"),
        "decoder.trace.us": us("decoder.trace"),
        "decoder.verify.us": us("decoder.verify"),
        "decoder.status.ok": extra["decoder.status.ok"],
        "decoder.status.invalid": extra["decoder.status.invalid"],
        "decoder.status.ambiguous": extra["decoder.status.ambiguous"],
        "decoder.corrupt_ok": extra["decoder.corrupt_ok"],
        "oarray.solve.calls": calls["oarray.solve"],
        "oarray.solve.us": us("oarray.solve"),
        "oarray.validate.projections": extra["oarray.validate.projections"],
        "oarray.validate.us": us("oarray.validate"),
        "gfpoly.interpolate.us": us("gfpoly.interpolate"),
        "gfpoly.is_prime.calls": calls["gfpoly.is_prime"],
        "gfpoly.is_prime.us": us("gfpoly.is_prime"),
        "gfpoly.ceil_nth_root.us": us("gfpoly.ceil_nth_root"),
        "colorer.make_scheme.us": us("colorer.make_scheme"),
        "colorer.assign.calls": calls["colorer.assign"],
        "colorer.assign.us": us("colorer.assign"),
        "colorer.unpack.calls": calls["decoder.unpack"],
        "lattice.rank.calls": calls["lattice.rank"],
        "lattice.unrank.calls": calls["lattice.unrank"],
        "lattice.apply_step.calls": calls["lattice.apply_step"] + calls["verifier.apply_step"],
        "lattice.in_bounds.calls": calls["lattice.in_bounds"],
        "verifier.random_walk.calls": calls[walk],
        "verifier.random_walk.us": us(walk),
        "verifier.random_walk.useful_ratio": _ratio(
            extra["verifier.random_walk.steps"],
            first.nested_calls["verifier.apply_step", walk],
        ),
        "verifier.random_walk.accept_ratio": _ratio(
            calls[walk], first.nested_calls["lattice.walk_dimension", walk]
        ),
        "verifier.scan.walks": extra["verifier.scan.walks"],
        "verifier.scan.color_miss_ratio": _ratio(
            first.nested_calls["colorer.assign", "verifier.scan"],
            extra["verifier.scan.walks"],
        ),
        "verifier.roundtrip.decode_share": _ratio(
            end.nested_ns["decoder.decode", "verifier.roundtrip"],
            end.time_ns["verifier.roundtrip"],
        ),
        "cli.color.us": us("cli.color"),
        "cli.color.bytes": extra["cli.color.bytes"],
        "trace.overhead_ratio": overhead_ratio,
    }
