"""Command-line front end.

    latticeobs color  --dims 4x4 --directed --t 4 --scheme colord --out c.txt
    latticeobs decode --coloring c.txt --colors 41,46,74,59,41,46
    latticeobs verify roundtrip --dims 5x5 --directed --t 4 --walks 1000 --seed 7
    latticeobs verify scan --dims 4x4 --directed --t 2 --max-len 8
    latticeobs verify oa --sigma 5 --t 2 --cols 4
    latticeobs verify bound --dims 16x16 --t 4

Exit codes: 0 success, 1 I/O or verification failure, 2 invalid
parameters, 3 ambiguous observation, 4 invalid observation.
"""

import argparse
import contextlib
import functools
import os
import sys
import tempfile
from itertools import islice

from .colorer import (
    KINDS,
    coloring_lines,
    make_scheme,
    palette_size,
    parse_header,
)
from .decoder import AMBIGUOUS, OK, WalkObservation, decode
from .gfpoly import FieldPrime
from .lattice import LatticeSpec
from .oarray import OASpec, oa_validate
from .verifier import MAX_SCAN_LEN, ambiguity_scan, lower_bound_colors, roundtrip_campaign

DIRECTED_KINDS = ("colord", "color2")


def _parse_dims(args) -> tuple[int, ...]:
    if args.dims and (args.n or args.d):
        raise ValueError("give either --dims or --n/--d, not both")
    if args.dims:
        try:
            return tuple(int(part) for part in args.dims.split("x"))
        except ValueError:
            raise ValueError(f"bad --dims {args.dims!r}; expected like 4x6x5") from None
    if args.n and args.d:
        return (args.n,) * args.d
    raise ValueError("lattice shape required: --dims n1xn2x... or --n N --d D")


def _make_params(args):
    dims = _parse_dims(args)
    kind = args.scheme
    directed = args.directed or kind in DIRECTED_KINDS
    if kind is None:
        kind = "colord" if directed else "undir"
    spec = LatticeSpec(dims, directed, args.t)
    return make_scheme(spec, kind, origin_index=args.origin_index, sigma=args.sigma)


def _default_length(spec: LatticeSpec) -> int:
    if spec.t == 1:
        return min(min(spec.dims) - 1, 5)
    return spec.t + 4


def _newline_chunks(lines):
    """The lines, each ended by a newline, joined 1024 at a time, so a
    long stream is written in bounded pieces and never held whole."""
    lines = iter(lines)
    while chunk := list(islice(lines, 1024)):
        chunk.append("")
        yield "\n".join(chunk)


def _write_atomic(path: str, lines) -> None:
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".latticeobs-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_newline_chunks(lines))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def cmd_color(args) -> int:
    params = _make_params(args)
    _write_atomic(args.out, coloring_lines(params))
    sig = params.sigma.modulus if params.sigma else 0
    print(
        f"sigma={sig} palette={palette_size(params)} "
        f"lower_bound={lower_bound_colors(params.lattice)}"
    )
    return 0


def cmd_decode(args) -> int:
    with open(args.coloring, encoding="utf-8") as fh:
        params = parse_header(fh.readline().rstrip("\n"))
    try:
        colors = tuple(int(c) for c in args.colors.split(","))
    except ValueError:
        raise ValueError(f"bad --colors {args.colors!r}; expected like 7,12,3") from None
    report = decode(WalkObservation(colors, params))
    fmt = lambda c: ",".join(map(str, c)) if c else "-"
    print(f"status={report.status} root={fmt(report.root)} current={fmt(report.current)}")
    if report.status == OK:
        return 0
    return 3 if report.status == AMBIGUOUS else 4


def cmd_verify_roundtrip(args) -> int:
    params = _make_params(args)
    length = args.length or _default_length(params.lattice)
    report = roundtrip_campaign(
        params,
        params.lattice.t,
        args.walks,
        length,
        args.seed,
        min_distinct_edges=args.min_distinct_edges,
    )
    print(report.lines())
    return 0 if report.ok == report.total else 1


def cmd_verify_scan(args) -> int:
    params = _make_params(args)
    t_min = args.t_min or params.lattice.t
    report = ambiguity_scan(
        params,
        args.max_len,
        t_min,
        budget=args.budget,
        exclude_single_edge=args.exclude_single_edge,
    )
    verdict = "ok" if report.ok else "collisions"
    print(f"scanned={report.scanned} collisions={len(report.collisions)} verdict={verdict}")
    return 0 if report.ok else 1


def cmd_verify_oa(args) -> int:
    spec = OASpec(FieldPrime(args.sigma), args.t, args.cols)
    ok, violation = oa_validate(spec, budget=args.budget)
    if ok:
        print("valid")
        return 0
    columns, row_a, row_b = violation
    print(f"invalid columns={','.join(map(str, columns))} rows={row_a},{row_b}")
    return 1


def cmd_verify_bound(args) -> int:
    # bound compares the color-count lower bound against a scheme's
    # palette; without --scheme it reports the general directed scheme
    if args.scheme is None and not args.directed:
        args.scheme = "colord"
    params = _make_params(args)
    lower = lower_bound_colors(params.lattice)
    palette = palette_size(params)
    print(f"lower={lower} palette={palette}")
    return 0 if lower <= palette else 1


def _add_lattice_args(p: argparse.ArgumentParser):
    p.add_argument("--dims", help="axis lengths, like 4x6x5")
    p.add_argument("--n", type=int, help="axis length of a cubic lattice (with --d)")
    p.add_argument("--d", type=int, help="dimension count for --n")
    p.add_argument("--directed", action="store_true", help="directed edges")
    p.add_argument("--t", type=int, required=True, help="target walk dimension")
    p.add_argument("--scheme", choices=KINDS, help="coloring scheme")
    p.add_argument("--sigma", type=int, help="field prime override")
    p.add_argument("--origin-index", dest="origin_index", type=int, default=0,
                   help="reference corner for mod3-aux")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process.  Each subcommand names
    its handler, and main looks the name up at call time, so a handler
    replaced on this module still takes effect after the tree is built."""
    parser = argparse.ArgumentParser(
        prog="latticeobs",
        description="Color lattice graphs so walks can be located from colors alone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_color = sub.add_parser("color", help="write a full edge coloring to a file")
    _add_lattice_args(p_color)
    p_color.add_argument("--out", required=True, help="output path (atomic write)")
    p_color.set_defaults(func="cmd_color")

    p_decode = sub.add_parser("decode", help="locate a walk from its colors")
    p_decode.add_argument("--coloring", required=True, help="coloring file from `color`")
    p_decode.add_argument("--colors", required=True, help="comma-separated color ids")
    p_decode.set_defaults(func="cmd_decode")

    p_verify = sub.add_parser("verify", help="verification campaigns")
    vsub = p_verify.add_subparsers(dest="mode", required=True)

    p_rt = vsub.add_parser("roundtrip", help="seeded encode/decode round trips")
    _add_lattice_args(p_rt)
    p_rt.add_argument("--walks", type=int, default=1000)
    p_rt.add_argument("--seed", type=int, default=0)
    p_rt.add_argument("--length", type=int, default=0, help="walk length (default t+4)")
    p_rt.add_argument("--min-distinct-edges", dest="min_distinct_edges", type=int, default=1)
    p_rt.set_defaults(func="cmd_verify_roundtrip")

    p_scan = vsub.add_parser("scan", help="exhaustive collision scan")
    _add_lattice_args(p_scan)
    p_scan.add_argument("--max-len", dest="max_len", type=int, required=True,
                        help=f"longest walk to scan, at most {MAX_SCAN_LEN} (more exits 2)")
    p_scan.add_argument("--t-min", dest="t_min", type=int, default=0,
                        help="minimum walk dimension to group (default: t)")
    p_scan.add_argument("--budget", type=int, default=5_000_000)
    p_scan.add_argument("--exclude-single-edge", dest="exclude_single_edge",
                        action="store_true",
                        help="skip walks that re-cross a single edge")
    p_scan.set_defaults(func="cmd_verify_scan")

    p_oa = vsub.add_parser("oa", help="orthogonal-array projection check")
    p_oa.add_argument("--sigma", type=int, required=True)
    p_oa.add_argument("--t", type=int, required=True)
    p_oa.add_argument("--cols", type=int, required=True)
    p_oa.add_argument("--budget", type=int, default=10_000_000)
    p_oa.set_defaults(func="cmd_verify_oa")

    p_bound = vsub.add_parser("bound", help="lower bound vs palette size")
    _add_lattice_args(p_bound)
    p_bound.set_defaults(func="cmd_verify_bound")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
