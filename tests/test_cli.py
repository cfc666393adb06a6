"""Command-line interface: outputs, files, exit codes."""

import argparse
import os
import stat
import subprocess
import sys
import time

import pytest

import latticeobs
from latticeobs import cli, colorer, decoder, oarray
from latticeobs.cli import main
from latticeobs.colorer import coloring_lines, make_scheme
from latticeobs.lattice import LatticeSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_color_writes_file_and_summary(tmp_path, capsys):
    out = tmp_path / "c.txt"
    code, stdout, _ = run(
        capsys, "color", "--dims", "4x4", "--directed", "--t", "4",
        "--scheme", "colord", "--out", str(out),
    )
    assert code == 0
    assert stdout.strip() == "sigma=5 palette=320 lower_bound=2"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 49
    assert lines[0] == "#dims=4x4 directed=1 t=4 sigma=5 scheme=colord"
    assert lines[1] == "0,0 1 0"
    # no stray temp files from the atomic write
    assert list(tmp_path.iterdir()) == [out]


def test_color_file_is_every_line_newline_terminated(tmp_path, capsys):
    """The file is coloring_lines, each line ended by a newline, also
    across the writer's 1024-line chunks (5,401 lines here)."""
    out = tmp_path / "c.txt"
    assert main(["color", "--dims", "10x10x10", "--directed", "--t", "3",
                 "--scheme", "colord", "--out", str(out)]) == 0
    params = make_scheme(LatticeSpec((10, 10, 10), True, 3), "colord")
    want = "".join(line + "\n" for line in coloring_lines(params))
    assert want.count("\n") == 5401
    assert out.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("error,exit_code", [(ValueError, 2), (OSError, 1)])
def test_failed_color_leaves_target_untouched(tmp_path, capsys, monkeypatch, error, exit_code):
    """A line source that raises partway through leaves an existing
    target byte-for-byte as it was, and no temp file behind."""
    out = tmp_path / "c.txt"
    assert main(["color", "--dims", "4x4", "--directed", "--t", "2",
                 "--scheme", "colord", "--out", str(out)]) == 0
    before = out.read_bytes()
    real_lines = cli.coloring_lines

    def broken_lines(params):
        for k, line in enumerate(real_lines(params)):
            if k == 20:
                raise error("line source failed")
            yield line

    monkeypatch.setattr(cli, "coloring_lines", broken_lines)
    code, _, err = run(
        capsys, "color", "--dims", "5x5", "--directed", "--t", "2",
        "--scheme", "colord", "--out", str(out),
    )
    assert code == exit_code
    assert "line source failed" in err
    assert out.read_bytes() == before
    assert list(tmp_path.iterdir()) == [out]


def test_interrupted_write_removes_temp_file(tmp_path):
    "An interrupt mid-stream also leaves the target and the directory as they were."
    out = tmp_path / "c.txt"
    out.write_bytes(b"old\n")

    def lines():
        yield "new"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        cli._write_atomic(str(out), lines())
    assert out.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_color_file_mode_follows_umask(tmp_path, capsys, umask, mode):
    "The coloring file is 0o666 less the umask, as for any file open() creates."
    out = tmp_path / "c.txt"
    old = os.umask(umask)
    try:
        code = main(["color", "--dims", "3x3", "--t", "2", "--out", str(out)])
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_color_never_takes_over_an_existing_temp_name(tmp_path, capsys, monkeypatch):
    "A temp name that already exists is refused (exit 1), and that file is left alone."
    taken = tmp_path / f".latticeobs-{bytes(8).hex()}"
    taken.write_bytes(b"someone else's\n")
    monkeypatch.setattr(os, "urandom", bytes)
    out = tmp_path / "c.txt"
    code, _, err = run(capsys, "color", "--dims", "3x3", "--t", "2", "--out", str(out))
    assert code == 1
    assert "File exists" in err
    assert taken.read_bytes() == b"someone else's\n"
    assert list(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("out", [".", "new/", "missing/x.txt"])
def test_color_out_errors_name_the_given_path(tmp_path, capsys, monkeypatch, out):
    """A directory --out, or one ending in a separator, is refused before
    anything is written, and an I/O error names the --out given, never
    the temp file; exit 1."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, stdout, err = run(capsys, "color", "--dims", "3x3", "--t", "2", "--out", out)
    assert code == 1
    assert stdout == ""
    assert f"--out {out}:" in err
    assert ".latticeobs-" not in err
    assert list(tmp_path.iterdir()) == [work]
    assert not list(work.iterdir())


@pytest.mark.parametrize("link", [False, True], ids=["fifo", "symlink-to-fifo"])
def test_color_refuses_an_out_that_is_not_a_regular_file(tmp_path, capsys, monkeypatch, link):
    """A FIFO --out, or a symlink to one, is refused with exit 1 before any
    temp file exists; the message names the --out given, and the FIFO and
    the link are left as they were."""
    monkeypatch.chdir(tmp_path)
    os.mkfifo("fifo")
    out = "fifo"
    if link:
        os.symlink("fifo", "link")
        out = "link"
    code, stdout, err = run(capsys, "color", "--dims", "3x3", "--t", "2", "--out", out)
    assert (code, stdout) == (1, "")
    assert err == f"error: cannot write --out {out}: not a regular file\n"
    assert stat.S_ISFIFO(os.stat("fifo").st_mode)
    assert os.path.islink("link") == link
    assert sorted(os.listdir()) == sorted(["fifo", "link"][: 1 + link])


def test_color_writes_through_a_symlink_to_a_regular_file(tmp_path, capsys):
    "A symlink --out to a regular file gets the export there, and stays a symlink."
    target, link = tmp_path / "c.txt", tmp_path / "link"
    target.write_bytes(b"old\n")
    link.symlink_to(target.name)
    assert main(["color", "--dims", "3x3", "--t", "2", "--out", str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink() and os.readlink(link) == target.name
    params = make_scheme(LatticeSpec((3, 3), False, 2), "undir")
    assert target.read_text(encoding="utf-8") == "".join(
        line + "\n" for line in coloring_lines(params)
    )
    assert sorted(tmp_path.iterdir()) == [target, link]


def test_color_output_is_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert main(["color", "--dims", "3x3", "--t", "2", "--scheme",
                     "undir", "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_color_scheme_implies_directedness(tmp_path, capsys):
    "colord without --directed still builds a directed lattice."
    out = tmp_path / "c.txt"
    code, stdout, _ = run(
        capsys, "color", "--dims", "4x4", "--t", "2", "--scheme", "colord",
        "--out", str(out),
    )
    assert code == 0
    assert "directed=1" in out.read_text(encoding="utf-8").splitlines()[0]


def make_coloring(tmp_path, *argv):
    path = tmp_path / "coloring.txt"
    assert main(["color", *argv, "--out", str(path)]) == 0
    return path


def test_decode_ok(tmp_path, capsys):
    coloring = make_coloring(
        tmp_path, "--dims", "4x4", "--directed", "--t", "2", "--scheme", "colord"
    )
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, "decode", "--coloring", str(coloring), "--colors", "0,9"
    )
    assert code == 0
    assert stdout.strip() == "status=ok root=0,0 current=1,1"


def test_color2_on_a_cube_writes_and_decodes(tmp_path, capsys):
    "color2 takes any directed lattice at t = 2d, here 4x4x4 at t = 6."
    coloring = make_coloring(
        tmp_path, "--dims", "4x4x4", "--directed", "--t", "6", "--scheme", "color2"
    )
    lines = coloring.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "#dims=4x4x4 directed=1 t=6 sigma=0 scheme=color2"
    assert len(lines) - 1 == 288
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, "decode", "--coloring", str(coloring), "--colors", "0,5,8,3,6,10,0"
    )
    assert code == 0
    assert stdout.strip() == "status=ok root=1,2,0 current=2,2,0"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda lines: lines[:1] + ["garbage"], "line 2: expected '0,0 1 0', found 'garbage'"),
        (  # line 5's color changed from 15 to 0
            lambda lines: lines[:4] + ["0,0 4 0"] + lines[5:],
            "line 5: expected '0,0 4 15', found '0,0 4 0'",
        ),
        (lambda lines: lines[:20], "line 21: expected '1,1 2 47', found end of file"),
        (lambda lines: lines + ["0,0 1 0"], "line 50: expected end of file, found '0,0 1 0'"),
    ],
    ids=["garbage", "edited", "truncated", "extra"],
)
def test_decode_refuses_a_body_that_is_not_the_export(tmp_path, capsys, edit, message):
    """decode regenerates the export its header names and compares the
    body line by line: the first line that differs, is missing or is
    extra exits 1 and is named, before any decode.  Each of these files
    decodes README's colors to status=ok when the body goes unread."""
    coloring = make_coloring(
        tmp_path, "--dims", "4x4", "--directed", "--t", "4", "--scheme", "colord"
    )
    lines = coloring.read_text(encoding="utf-8").splitlines()
    argv = ["decode", "--coloring", str(coloring), "--colors", "41,46,74,59,41,46"]
    capsys.readouterr()
    assert run(capsys, *argv) == (0, "status=ok root=1,1 current=2,2\n", "")
    coloring.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err == f"error: {coloring} {message}\n"


@pytest.mark.parametrize(
    "edit,message",
    [
        (  # sed 's/$/\r/'
            lambda data: data.replace(b"\n", b"\r\n"),
            "line 1: expected '#dims=4x4 directed=1 t=4 sigma=5 scheme=colord', "
            "found '#dims=4x4 directed=1 t=4 sigma=5 scheme=colord\\r'",
        ),
        (  # head -c -1
            lambda data: data[:-1],
            "line 49: expected '3,2 4 17', found '3,2 4 17' with no newline",
        ),
    ],
    ids=["crlf", "no-final-newline"],
)
def test_decode_compares_the_file_byte_for_byte(tmp_path, capsys, edit, message):
    """Line ends count: a CRLF copy of an export, or one without its last
    newline, exits 1 naming the first line that differs, though its text
    lines are the export's."""
    coloring = make_coloring(
        tmp_path, "--dims", "4x4", "--directed", "--t", "4", "--scheme", "colord"
    )
    argv = ["decode", "--coloring", str(coloring), "--colors", "41,46,74,59,41,46"]
    coloring.write_bytes(edit(coloring.read_bytes()))
    assert coloring.read_text(encoding="utf-8").splitlines() == list(
        coloring_lines(make_scheme(LatticeSpec((4, 4), True, 4), "colord"))
    )
    capsys.readouterr()
    assert run(capsys, *argv) == (1, "", f"error: {coloring} {message}\n")


def test_decode_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    """A 0xff byte in the body is a mismatch like any other: exit 1,
    naming its line, with the byte shown as the surrogate it reads as."""
    coloring = make_coloring(
        tmp_path, "--dims", "4x4", "--directed", "--t", "4", "--scheme", "colord"
    )
    lines = coloring.read_bytes().split(b"\n")
    assert lines[3] == b"0,0 3 10"
    lines[3] = b"0,\xff 3 10"
    coloring.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    code, stdout, err = run(
        capsys, "decode", "--coloring", str(coloring), "--colors", "41,46,74,59,41,46"
    )
    assert (code, stdout) == (1, "")
    assert err == f"error: {coloring} line 4: expected '0,0 3 10', found '0,\\udcff 3 10'\n"


def test_decode_header_that_is_not_utf8_exits_2(tmp_path, capsys):
    "A 0xff byte in the header is still refused by parse_header, exit 2."
    coloring = make_coloring(
        tmp_path, "--dims", "4x4", "--directed", "--t", "4", "--scheme", "colord"
    )
    coloring.write_bytes(coloring.read_bytes().replace(b"colord", b"color\xff", 1))
    capsys.readouterr()
    code, stdout, err = run(capsys, "decode", "--coloring", str(coloring), "--colors", "0")
    assert (code, stdout, err) == (2, "", "error: unknown scheme kind 'color\\udcff'\n")


def test_decode_ambiguous_exits_3(tmp_path, capsys):
    coloring = make_coloring(
        tmp_path, "--dims", "4x4", "--t", "2", "--scheme", "undir"
    )
    capsys.readouterr()
    # both colors name the same edge: a back-and-forth observation
    code, stdout, _ = run(
        capsys, "decode", "--coloring", str(coloring), "--colors", "20,20"
    )
    assert code == 3
    assert stdout.strip() == "status=ambiguous root=- current=-"


def test_decode_invalid_exits_4(tmp_path, capsys):
    coloring = make_coloring(
        tmp_path, "--dims", "4x4", "--directed", "--t", "2", "--scheme", "colord"
    )
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, "decode", "--coloring", str(coloring), "--colors", "0,9999"
    )
    assert code == 4
    assert stdout.startswith("status=invalid")


def test_decode_missing_file_exits_1(capsys):
    code, _, err = run(
        capsys, "decode", "--coloring", "/nonexistent/c.txt", "--colors", "0"
    )
    assert code == 1
    assert "error:" in err


def test_decode_bad_colors_exits_2(tmp_path, capsys):
    coloring = make_coloring(
        tmp_path, "--dims", "4x4", "--directed", "--t", "2", "--scheme", "colord"
    )
    capsys.readouterr()
    code, _, err = run(
        capsys, "decode", "--coloring", str(coloring), "--colors", "0,x"
    )
    assert code == 2
    assert "error:" in err


def test_decode_aux_coloring_exits_2(tmp_path, capsys):
    """A header naming a kind that no longer exists, or one that is not
    exactly what `color` writes, is a parameter error."""
    cases = [
        ("#dims=4x4 directed=0 t=1 sigma=0 scheme=mod3-aux", "unknown scheme kind 'mod3-aux'"),
        ("#dims=4x4 directed=1 t=2 sigma=5 scheme=colord junk", "non-canonical coloring header"),
    ]
    coloring = tmp_path / "coloring.txt"
    for header, message in cases:
        coloring.write_text(header + "\n0,0 1 0\n", encoding="utf-8")
        code, _, err = run(
            capsys, "decode", "--coloring", str(coloring), "--colors", "0,1"
        )
        assert code == 2
        assert message in err


def test_sigma_2_is_refused_by_color_and_decode(tmp_path, capsys):
    """Parity recovery needs an odd field prime: `color` refuses sigma 2
    before writing, and a coloring file whose header names it is a
    parameter error to `decode`, not an escaping exception."""
    out = tmp_path / "f.txt"
    code, _, err = run(capsys, "color", "--dims", "2", "--t", "1", "--sigma", "2", "--out", str(out))
    assert code == 2
    assert "parity recovery" in err
    assert not out.exists()
    out.write_text("#dims=2 directed=0 t=1 sigma=2 scheme=undir\n0 1 35\n", encoding="utf-8")
    code, _, err = run(capsys, "decode", "--coloring", str(out), "--colors", "35,31")
    assert code == 2
    assert "parity recovery" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("color", "--dims", "3x3", "--t", "5", "--scheme", "undir", "--out", "x"),
        ("color", "--dims", "4x4x", "--t", "2", "--out", "x"),
        ("color", "--dims", "4a4", "--t", "2", "--out", "x"),
        ("color", "--t", "2", "--out", "x"),
        ("color", "--dims", "4x4", "--t", "2", "--scheme", "color2", "--out", "x"),
        ("verify", "bound", "--dims", "4x4", "--t", "2", "--sigma", "4"),
        ("color", "--dims", "1" + "0" * 330 + "x2", "--t", "1", "--directed", "--out", "x.txt"),
        ("verify", "scan", "--dims", "3x3", "--directed", "--t", "2", "--max-len", "3", "--t-min", "5"),
        ("verify", "scan", "--dims", "3x3", "--directed", "--t", "2", "--max-len", "0"),
        ("verify", "roundtrip", "--dims", "3x3", "--directed", "--t", "2", "--walks", "-1"),
        ("verify", "roundtrip", "--dims", "3x3", "--directed", "--t", "2", "--walks", "0"),
        ("verify", "scan", "--dims", "3x3", "--directed", "--t", "2", "--max-len", "5000"),
        ("verify", "scan", "--dims", "2", "--t", "1", "--max-len", "2000", "--budget", "100000"),
        ("color", "--dims", "4x1", "--t", "2", "--out", "x"),
        ("color", "--dims", "0x0", "--t", "2", "--out", "x"),
        ("color", "--dims", "5x-1", "--t", "2", "--out", "x"),
        ("verify", "roundtrip", "--dims", "3x3", "--directed", "--t", "2", "--walks", "2", "--length", "0"),
        ("verify", "scan", "--dims", "3x3", "--directed", "--t", "2", "--max-len", "3", "--t-min", "0"),
    ],
)
def test_parameter_errors_exit_2(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_unknown_flag_is_argparse_error(tmp_path):
    "Retired flags among them: --origin-index, --n/--d, --exclude-single-edge, --min-distinct-edges."
    out = str(tmp_path / "c.txt")
    color = ["color", "--t", "2", "--out", out]
    for argv in (
        [*color, "--dims", "4x4", "--frobnicate"],
        [*color, "--dims", "4x4", "--origin-index", "3"],
        [*color, "--dims", "4x4", "--scheme", "mod3-aux"],
        [*color, "--n", "4", "--d", "2"],
        ["verify", "scan", "--dims", "3x3", "--t", "1", "--max-len", "2", "--exclude-single-edge"],
        ["verify", "roundtrip", "--dims", "3x3", "--t", "1", "--min-distinct-edges", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_every_kind_colors_decodes_and_is_a_cli_choice():
    """colorer.KINDS, the color assigners, the decoder's locators and
    every --scheme choice name the same kinds, so no kind colors what
    it cannot decode."""
    assert len(set(colorer.KINDS)) == len(colorer.KINDS)
    assert set(colorer._ASSIGNERS) == set(colorer.KINDS)
    assert set(decoder._LOCATORS) == set(colorer.KINDS)
    choices, pending = [], [cli.build_parser()]
    while pending:
        for action in pending.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                pending += action.choices.values()
            elif "--scheme" in action.option_strings:
                choices.append(tuple(action.choices))
    assert choices == [tuple(colorer.KINDS)] * 4  # color, roundtrip, scan, bound


def test_verify_roundtrip_ok(capsys):
    code, stdout, _ = run(
        capsys, "verify", "roundtrip", "--dims", "5x5", "--directed",
        "--t", "2", "--walks", "10", "--seed", "1",
    )
    assert code == 0
    assert stdout.strip().endswith("ok=10/10")


def test_verify_roundtrip_t1_default_length(capsys):
    "At directed t = 1 the default walk length is min(shortest axis - 1, 5)."
    code, stdout, _ = run(
        capsys, "verify", "roundtrip", "--dims", "3x5", "--directed",
        "--t", "1", "--walks", "20",
    )
    assert code == 0
    assert stdout.splitlines() == [
        "roundtrip scheme=colord dims=3x5 t=1 walks=20 length=2 seed=0",
        "ok=20/20",
    ]


def test_verify_roundtrip_undirected_default_scheme(capsys):
    code, stdout, _ = run(
        capsys, "verify", "roundtrip", "--dims", "4x4", "--t", "2",
        "--walks", "10", "--seed", "2",
    )
    assert code == 0
    assert "scheme=undir" in stdout
    assert stdout.strip().endswith("ok=10/10")


def test_verify_roundtrip_undirected_t1_walks_cross_two_edges(capsys):
    """Undirected t = 1 walks take t + 4 steps over at least two edges,
    so the short axis of 2x5, which has one edge, is never drawn; a
    lattice with one edge has no such walk."""
    code, stdout, _ = run(capsys, "verify", "roundtrip", "--dims", "2x5", "--t", "1")
    assert code == 0
    assert stdout.splitlines() == [
        "roundtrip scheme=undir dims=2x5 t=1 walks=1000 length=5 seed=0",
        "ok=1000/1000",
    ]
    code, _, err = run(capsys, "verify", "roundtrip", "--dims", "2", "--t", "1")
    assert code == 2
    assert "no 1-dimensional walk" in err


def test_verify_scan_clean(capsys):
    code, stdout, _ = run(
        capsys, "verify", "scan", "--dims", "3x3", "--directed", "--t", "2",
        "--max-len", "4",
    )
    assert code == 0
    assert "verdict=ok" in stdout


def test_verify_scan_below_t_collides(capsys):
    "colord at t = 2 does not place every 1-dimensional walk."
    code, stdout, _ = run(
        capsys, "verify", "scan", "--dims", "4x4", "--directed", "--t", "2",
        "--max-len", "4", "--t-min", "1",
    )
    assert code == 1
    assert stdout == "scanned=2264 collisions=9 verdict=collisions\n"


def test_verify_oa(capsys):
    code, stdout, _ = run(
        capsys, "verify", "oa", "--sigma", "5", "--t", "2", "--cols", "4"
    )
    assert code == 0
    assert stdout.strip() == "valid"


def test_verify_oa_rejects_wide_array(capsys):
    code, _, err = run(
        capsys, "verify", "oa", "--sigma", "5", "--t", "2", "--cols", "5"
    )
    assert code == 2


def test_verify_oa_reports_collision(capsys, monkeypatch):
    "A constant array collides on rows 0 and 1 of the only subset."
    monkeypatch.setattr(oarray, "poly_column", lambda x, t, p: [0] * p.modulus**t)
    code, stdout, _ = run(
        capsys, "verify", "oa", "--sigma", "3", "--t", "2", "--cols", "2"
    )
    assert code == 1
    assert stdout.strip() == "invalid columns=1,2 rows=0,1"


def test_verify_oa_refuses_over_budget_at_once(capsys):
    "C(50, 40) is about 1.0e10 column subsets; none may be built."
    start = time.perf_counter()
    code, _, err = run(
        capsys, "verify", "oa", "--sigma", "1000000007", "--t", "40", "--cols", "50"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "validation needs " in err
    assert "budget is 10000000" in err


def test_verify_oa_refuses_huge_t_by_bit_length(capsys):
    """sigma^t for t = 3*10^6 has about 9*10^7 bits: it is never computed,
    and the refusal names the budget, not an int-to-string limit."""
    start = time.perf_counter()
    code, _, err = run(
        capsys, "verify", "oa", "--sigma", "1000000007",
        "--t", "3000000", "--cols", "3000000",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "validation needs " in err
    assert "budget is 10000000" in err
    assert "integer string conversion" not in err


def test_verify_bound_matches_documented_example(capsys):
    code, stdout, _ = run(capsys, "verify", "bound", "--dims", "16x16", "--t", "4")
    assert code == 0
    assert stdout.strip() == "lower=3 palette=320"


def test_verify_bound_color2_on_a_cube(capsys):
    "Full-dimensional walks on 9x9x9: 2d * ceil(sqrt(9)) = 18 colors."
    code, stdout, _ = run(
        capsys, "verify", "bound", "--dims", "9x9x9", "--t", "6", "--scheme", "color2"
    )
    assert code == 0
    assert stdout.strip() == "lower=3 palette=18"


def test_verify_bound_undirected(capsys):
    code, stdout, _ = run(
        capsys, "verify", "bound", "--dims", "4x4", "--t", "2", "--scheme", "undir"
    )
    assert code == 0
    assert stdout.strip() == "lower=2 palette=360"


def test_composite_sigma_near_10_to_30_exits_2_at_once(capsys):
    "A semiprime with two 16-digit factors: trial division would not finish."
    semiprime = (10**15 + 37) * (10**15 + 91)
    t0 = time.perf_counter()
    code, _, err = run(
        capsys, "verify", "bound", "--dims", "4x4", "--t", "2", "--sigma", str(semiprime)
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert f"error: {semiprime} is not prime" in err


def test_verify_bound_accepts_prime_sigma_above_deterministic_bound(capsys):
    sigma = 2**89 - 1
    code, stdout, _ = run(
        capsys, "verify", "bound", "--dims", "4x4", "--t", "2", "--sigma", str(sigma)
    )
    assert code == 0
    assert stdout.strip() == f"lower=2 palette={2**2 * 2 * 2 * sigma}"


def test_verify_bound_on_10_to_36_nodes(capsys):
    "sigma = 10^18 + 3, the first prime above the square root of 10^36."
    t0 = time.perf_counter()
    code, stdout, _ = run(
        capsys, "verify", "bound", "--dims", "x".join(["1" + "0" * 12] * 3), "--t", "2"
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    lower = 353553390593273763  # ceil(sqrt(10^36 / 8))
    assert lower**2 * 8 >= 10**36 > (lower - 1) ** 2 * 8
    assert stdout.strip() == f"lower={lower} palette={4 * 6 * (10**18 + 3)}"


def test_verify_bound_on_10_to_400_nodes(capsys):
    "Past any float: sigma = 10^200 + 357, the first prime above 10^200."
    t0 = time.perf_counter()
    code, stdout, _ = run(
        capsys, "verify", "bound", "--dims", "x".join(["1" + "0" * 200] * 2), "--t", "2"
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    # lower = ceil(sqrt(10^400 / 2^2)); palette = 2^2 parity groups * 4 codes * sigma
    assert stdout.strip() == f"lower={5 * 10**199} palette={16 * (10**200 + 357)}"


def test_color_refuses_more_than_2_to_63_nodes(tmp_path, capsys):
    """2^63 + 2^32 nodes: the export would pass a 64-bit file offset, so
    it is refused at once, and no file is created."""
    out = tmp_path / "big.txt"
    t0 = time.perf_counter()
    code, stdout, err = run(
        capsys, "color", "--dims", "4294967296x2147483649", "--t", "2", "--out", str(out)
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert stdout == ""
    assert "error: lattice has more than 2^63 nodes, too many to export" in err
    assert list(tmp_path.iterdir()) == []


def test_entry_raises_system_exit(monkeypatch, capsys):
    from latticeobs.cli import entry

    monkeypatch.setattr(
        sys, "argv", ["latticeobs", "verify", "bound", "--dims", "4x4", "--t", "2"]
    )
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    capsys.readouterr()


@pytest.mark.parametrize("module", ["latticeobs", "latticeobs.cli"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "scan", "--dims", "3x3", "--directed", "--t", "2", "--max-len", "5000"),
        ("verify", "bound", "--dims", "16x16", "--t", "4"),
    ],
)
def test_python_dash_m_matches_main(module, argv, capsys):
    "`python -m latticeobs` and `python -m latticeobs.cli` run main."
    src = os.path.dirname(os.path.dirname(os.path.abspath(latticeobs.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    if argv[1] == "scan":
        assert proc.returncode == 2
        assert "above the scan cap of 64 steps" in proc.stderr
    else:
        assert (proc.returncode, proc.stdout) == (0, "lower=3 palette=320\n")


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Every CLI call starts a fresh interpreter, so its import cost is
    paid per call: `import latticeobs.cli` in a clean interpreter (no
    site) loads argparse, which the CLI needs, but none of dataclasses,
    inspect or typing, which cost more than the rest of its import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(latticeobs.__file__)))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import latticeobs.cli; "
        "print(*(m for m in ('argparse', 'dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "argparse\n", "")
