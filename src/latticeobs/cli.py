"""Command-line front end.

    latticeobs color  --dims 4x4 --directed --t 4 --scheme colord --out c.txt
    latticeobs decode --coloring c.txt --colors 41,46,74,59,41,46
    latticeobs verify roundtrip --dims 5x5 --directed --t 4 --walks 1000 --seed 7
    latticeobs verify scan --dims 4x4 --directed --t 2 --max-len 8
    latticeobs verify oa --sigma 5 --t 2 --cols 4
    latticeobs verify bound --dims 16x16 --t 4

Exit codes: 0 success, 1 I/O or verification failure, 2 invalid
parameters (any ValueError), 3 ambiguous observation, 4 invalid
observation.  `color` refuses a lattice of more than 2^63 nodes with
exit 2 before it creates a file: its export would have at least N/2
lines of at least 6 bytes, more than a 64-bit file offset can address.
"""

import argparse
import contextlib
import functools
import os
import sys
from itertools import chain, islice, zip_longest

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


def _parse_dims(args) -> tuple[int, ...]:
    if not args.dims:
        raise ValueError("lattice shape required: --dims n1xn2x...")
    try:
        return tuple(int(part) for part in args.dims.split("x"))
    except ValueError:
        raise ValueError(f"bad --dims {args.dims!r}; expected like 4x6x5") from None


def _make_params(args):
    directed = args.directed or KINDS.get(args.scheme, False)
    kind = args.scheme or ("colord" if directed else "undir")
    spec = LatticeSpec(_parse_dims(args), directed, args.t)
    return make_scheme(spec, kind, sigma=args.sigma)


def _default_length(spec: LatticeSpec) -> int:
    if spec.directed and spec.t == 1:
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
    """Write the lines to a temp file beside the file path resolves to
    (through any symlink), then rename it over that file.  An empty path,
    one ending in a separator, or one naming anything but a regular file
    is refused before anything is written; an OSError names path, never the temp file."""
    target = os.path.realpath(path)
    try:
        if not path:
            raise FileNotFoundError("No such file or directory")
        if not os.path.basename(path) or os.path.isdir(target):
            raise IsADirectoryError("Is a directory")
        if os.path.lexists(target) and not os.path.isfile(target):
            raise OSError("not a regular file")
        tmp = os.path.join(os.path.dirname(target), f".latticeobs-{os.urandom(8).hex()}")
        # "x" never takes an existing name; the mode is 0o666 less the umask, as open() gives
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.writelines(_newline_chunks(lines))
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def cmd_color(args) -> int:
    params = _make_params(args)
    if params.lattice.size > 1 << 63:
        raise ValueError("lattice has more than 2^63 nodes, too many to export: a coloring of N "
                         "nodes has at least N/2 lines of at least 6 bytes, more than a 64-bit "
                         "file offset can address")
    _write_atomic(args.out, coloring_lines(params))
    sig = params.sigma.modulus if params.sigma else 0
    print(
        f"sigma={sig} palette={palette_size(params)} "
        f"lower_bound={lower_bound_colors(params.lattice)}"
    )
    return 0


def _as_read(line) -> str:
    """A coloring-file line as decode's byte check names it."""
    if line is None:
        return "end of file"
    text = line.removesuffix("\n")
    return repr(text) if text != line else f"{text!r} with no newline"


def cmd_decode(args) -> int:
    # newline="\n", as `color` writes, and bytes that are not UTF-8 kept as
    # surrogates: a CR, a missing last newline or a bad byte is read as it is
    with open(args.coloring, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        head = fh.readline()
        # a CRLF header still parses, so the byte check names its line end
        params = parse_header(head.removesuffix("\n").removesuffix("\r"))
        try:
            colors = tuple(int(c) for c in args.colors.split(","))
        except ValueError:
            raise ValueError(f"bad --colors {args.colors!r}; expected like 7,12,3") from None
        # the file must be, byte for byte, the export `color` writes for its header
        lines = (line + "\n" for line in coloring_lines(params))
        for n, pair in enumerate(zip_longest(chain((head,), fh), lines), start=1):
            if pair[0] != pair[1]:
                found, expected = map(_as_read, pair)
                print(f"error: {args.coloring} line {n}: expected {expected}, found {found}",
                      file=sys.stderr)
                return 1
    report = decode(WalkObservation(colors, params))
    fmt = lambda c: ",".join(map(str, c)) if c else "-"
    print(f"status={report.status} root={fmt(report.root)} current={fmt(report.current)}")
    if report.status == OK:
        return 0
    return 3 if report.status == AMBIGUOUS else 4


def cmd_verify_roundtrip(args) -> int:
    params = _make_params(args)
    spec = params.lattice
    length = _default_length(spec) if args.length is None else args.length
    report = roundtrip_campaign(params, spec.t, args.walks, length, args.seed)
    print(report.lines())
    return 0 if report.ok == report.total else 1


def cmd_verify_scan(args) -> int:
    params = _make_params(args)
    t_min = params.lattice.t if args.t_min is None else args.t_min
    report = ambiguity_scan(params, args.max_len, t_min, budget=args.budget)
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
    params = _make_params(args)
    lower = lower_bound_colors(params.lattice)
    palette = palette_size(params)
    print(f"lower={lower} palette={palette}")
    return 0 if lower <= palette else 1


def _add_lattice_args(p: argparse.ArgumentParser):
    p.add_argument("--dims", help="axis lengths, like 4x6x5")
    p.add_argument("--directed", action="store_true", help="directed edges")
    p.add_argument("--t", type=int, required=True, help="target walk dimension")
    p.add_argument("--scheme", choices=KINDS, help="coloring scheme")
    p.add_argument("--sigma", type=int, help="field prime override")


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
    p_rt.add_argument("--length", type=int,
                      help="walk length (default t+4; directed t=1: min(min(dims) - 1, 5)); "
                           "undirected walks cross at least two edges")
    p_rt.set_defaults(func="cmd_verify_roundtrip")

    p_scan = vsub.add_parser(
        "scan", help="exhaustive collision scan (undirected: walks on one edge not grouped)"
    )
    _add_lattice_args(p_scan)
    p_scan.add_argument("--max-len", dest="max_len", type=int, required=True,
                        help=f"longest walk to scan, at most {MAX_SCAN_LEN} (more exits 2)")
    p_scan.add_argument("--t-min", dest="t_min", type=int,
                        help="minimum walk dimension to group (default: t)")
    p_scan.add_argument("--budget", type=int, default=5_000_000)
    p_scan.set_defaults(func="cmd_verify_scan")

    p_oa = vsub.add_parser("oa", help="orthogonal-array projection check")
    p_oa.add_argument("--sigma", type=int, required=True)
    p_oa.add_argument("--t", type=int, required=True)
    p_oa.add_argument("--cols", type=int, required=True)
    p_oa.add_argument("--budget", type=int, default=10_000_000)
    p_oa.set_defaults(func="cmd_verify_oa")

    p_bound = vsub.add_parser("bound", help="lower bound vs palette size")
    _add_lattice_args(p_bound)
    # without --scheme, bound reports the general directed scheme
    p_bound.set_defaults(func="cmd_verify_bound", scheme="colord")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
