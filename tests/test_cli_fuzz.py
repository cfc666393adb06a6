"""Seeded fuzz of the command line, in process: every argv drawn from a
small grammar near each option's boundaries exits 0-4, never raises,
finishes under a cap, and prints the same stdout when it repeats."""

import random
import signal
import time

from latticeobs.cli import main

BIG = str(10**400)
# shared by every option: zero, +-1, huge, empty, junk, a negative shape
EDGE = ["0", "1", "-1", BIG, "", "x", "-4x4"]
# 10^400 walks, or walks of 10^400 steps, are real requests that never end
SMALL_EDGE = [value for value in EDGE if value != BIG]
DIMS = ["2", "5", "3x3", "5x5", "2x3", "2x2x2", "3x4x5", "4x4x4", BIG, f"3x{BIG}",
        "1x3", "3x0", "4x4x"]
# valid desk cases stay in milliseconds (axes <= 5, --max-len <= 4, --walks <= 3);
# a 10^400-node lattice is refused, sized or sampled in under 0.2 s
T = ["1", "2", "3", "4", "5", "7"]  # 2d + 1 is just past a directed lattice's codes
SIGMA = ["2", "3", "5", "7", "9", "11"]
LENGTH = ["2", "3", "4", "5", "6"]  # just past a 5-long axis line, and t + 4
MAX_LEN = ["2", "3", "4", "65"]  # one past the scan cap of 64
OA_T = ["2", "3", "4"]
COLS = ["2", "3", "4", "5", "6", "7"]  # a column count reaching the modulus is refused
WALKS = ["2", "3"]
CASES = 2000
CAP_S = 1.0


class CaseTimeout(Exception):
    pass


def _exports(tmp_path):
    """A 3x3 export and broken copies of it, by file name."""
    assert main(["color", "--dims", "3x3", "--t", "2", "--out", str(tmp_path / "good.txt")]) == 0
    good = (tmp_path / "good.txt").read_bytes()
    head, body = good.split(b"\n", 1)
    copies = {
        "trunc.txt": good[: len(good) // 2],
        "crlf.txt": good.replace(b"\n", b"\r\n"),
        "forged.txt": b"#dims=3x3 directed=1 t=2 sigma=5 scheme=colord\n" + body,
        "forged-sigma.txt": head.replace(b"sigma=", b"sigma=1") + b"\n" + body,
        "bad-body.txt": head + b"\n" + body.replace(b"0", b"\xff", 1),
        "bad-head.txt": head.replace(b"dims", b"d\xffms") + b"\n" + body,
        "empty.txt": b"",
    }
    for name, data in copies.items():
        (tmp_path / name).write_bytes(data)
    return ["good.txt", *copies, "missing.txt", "."]


def _pick(rng, values, edge=0.12, edges=EDGE):
    return rng.choice(edges) if rng.random() < edge else rng.choice(values)


def _lattice(rng):
    argv = ["--dims", _pick(rng, DIMS, 0.1), "--t", _pick(rng, T)]
    if rng.random() < 0.5:
        argv.append("--directed")
    if rng.random() < 0.4:
        argv += ["--scheme", rng.choice(["colord", "undir", "color2"]) if rng.random() < 0.9 else "x"]
    if rng.random() < 0.2:
        argv += ["--sigma", _pick(rng, SIGMA)]
    return argv


def _argv(rng, files, colors):
    command = rng.choice(["color", "decode", "roundtrip", "scan", "oa", "bound", "junk"])
    if command == "color":
        argv = ["color", *_lattice(rng), "--out", rng.choice(["out/c.txt", "", ".", "new/", "out/"])]
    elif command == "decode":
        argv = ["decode", "--coloring", rng.choice(files), "--colors",
                rng.choice(colors) if rng.random() < 0.7 else rng.choice(EDGE)]
    elif command == "roundtrip":
        argv = ["verify", "roundtrip", *_lattice(rng), "--walks", _pick(rng, WALKS, edges=SMALL_EDGE),
                "--seed", rng.choice(["0", "7", "-1", BIG])]
        if rng.random() < 0.5:
            argv += ["--length", _pick(rng, LENGTH, edges=SMALL_EDGE)]
    elif command == "scan":
        argv = ["verify", "scan", *_lattice(rng), "--max-len", _pick(rng, MAX_LEN)]
        if rng.random() < 0.3:
            argv += ["--t-min", _pick(rng, T)]
        if rng.random() < 0.3:
            argv += ["--budget", _pick(rng, ["100", "1000"])]
    elif command == "oa":
        argv = ["verify", "oa", "--sigma", _pick(rng, SIGMA), "--t", _pick(rng, OA_T),
                "--cols", _pick(rng, COLS)]
    elif command == "bound":
        argv = ["verify", "bound", *_lattice(rng)]
    else:
        argv = rng.choice([[], ["x"], ["-4x4"], ["verify"], ["verify", "x"], ["--help"]])
    # now and then drop a token or add an unknown option
    if argv and rng.random() < 0.05:
        del argv[rng.randrange(len(argv))]
    if rng.random() < 0.03:
        argv.append("--bogus")
    return argv


def _timeout(signum, frame):
    raise CaseTimeout


def test_cli_fuzz(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    files = _exports(tmp_path)
    # colors of real 3x3 undir walks, a corrupted copy, and malformed lists
    colors = ["0,298", "84,269,141,89", "141,89,84", "84,269,141,90", "84,84", "1,,2",
              "0, 298", "0," + BIG]
    rng = random.Random(2024)
    seen = {}
    codes = set()
    failures = []
    previous = signal.signal(signal.SIGALRM, _timeout)
    begin = time.perf_counter()
    try:
        for _ in range(CASES):
            argv = _argv(rng, files, colors)
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except CaseTimeout:
                failures.append(("over the cap", argv))
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out = capsys.readouterr().out
            codes.add(code)
            key = tuple(argv)
            if seen.setdefault(key, (code, out)) != (code, out):
                failures.append(("differs on repeat", argv))
    finally:
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - begin
    assert not failures, [(why, [a[:12] for a in argv]) for why, argv in failures[:5]]
    assert codes == {0, 1, 2, 3, 4}, codes
    assert CASES - len(seen) > 100  # repeats were compared
    assert elapsed < 10
