"""Command-line interface: outputs, files, exit codes."""

import os
import subprocess
import sys
import time

import pytest

import latticeobs
from latticeobs import cli, oarray
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


def test_color_cubic_shorthand(tmp_path, capsys):
    out = tmp_path / "c.txt"
    code, stdout, _ = run(
        capsys, "color", "--n", "4", "--d", "2", "--directed", "--t", "4",
        "--scheme", "colord", "--out", str(out),
    )
    assert code == 0
    assert "#dims=4x4 " in out.read_text(encoding="utf-8").splitlines()[0]


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
    coloring = make_coloring(
        tmp_path, "--dims", "4x4", "--t", "1", "--scheme", "mod3-aux"
    )
    capsys.readouterr()
    code, _, err = run(
        capsys, "decode", "--coloring", str(coloring), "--colors", "0,1"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("color", "--dims", "3x3", "--t", "5", "--scheme", "undir", "--out", "x"),
        ("color", "--dims", "4x4", "--n", "4", "--d", "2", "--t", "2", "--out", "x"),
        ("color", "--dims", "4a4", "--t", "2", "--out", "x"),
        ("color", "--t", "2", "--out", "x"),
        ("color", "--dims", "4x4", "--t", "2", "--scheme", "color2", "--out", "x"),
        ("verify", "bound", "--dims", "4x4", "--t", "2", "--sigma", "4"),
        ("color", "--dims", "1" + "0" * 330 + "x2", "--t", "1", "--directed", "--out", "x.txt"),
        ("verify", "scan", "--dims", "3x3", "--directed", "--t", "2", "--max-len", "3", "--t-min", "5"),
        ("verify", "scan", "--dims", "3x3", "--directed", "--t", "2", "--max-len", "0"),
        ("verify", "roundtrip", "--dims", "3x3", "--directed", "--t", "2", "--walks", "-1"),
        ("verify", "roundtrip", "--dims", "3x3", "--directed", "--t", "2", "--walks", "0"),
        ("color", "--dims", "4x4", "--directed", "--t", "2", "--origin-index", "3", "--out", "x"),
        ("verify", "scan", "--dims", "3x3", "--directed", "--t", "2", "--max-len", "5000"),
        ("verify", "scan", "--dims", "2", "--t", "1", "--max-len", "2000", "--budget", "100000"),
    ],
)
def test_parameter_errors_exit_2(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_unknown_flag_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["color", "--dims", "4x4", "--t", "2", "--frobnicate"])
    assert exc.value.code == 2


def test_verify_roundtrip_ok(capsys):
    code, stdout, _ = run(
        capsys, "verify", "roundtrip", "--dims", "5x5", "--directed",
        "--t", "2", "--walks", "10", "--seed", "1",
    )
    assert code == 0
    assert stdout.strip().endswith("ok=10/10")


def test_verify_roundtrip_t1_default_length(capsys):
    "At t = 1 the default walk length is min(shortest axis - 1, 5)."
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
        "--walks", "10", "--seed", "2", "--min-distinct-edges", "2",
    )
    assert code == 0
    assert "scheme=undir" in stdout
    assert stdout.strip().endswith("ok=10/10")


def test_verify_scan_clean(capsys):
    code, stdout, _ = run(
        capsys, "verify", "scan", "--dims", "3x3", "--directed", "--t", "2",
        "--max-len", "4",
    )
    assert code == 0
    assert "verdict=ok" in stdout


def test_verify_scan_oscillations_collide(capsys):
    code, stdout, _ = run(
        capsys, "verify", "scan", "--dims", "3x3", "--t", "1", "--max-len", "2"
    )
    assert code == 1
    assert "verdict=collisions" in stdout
    code, stdout, _ = run(
        capsys, "verify", "scan", "--dims", "3x3", "--t", "1", "--max-len", "2",
        "--exclude-single-edge",
    )
    assert code == 0
    assert "verdict=ok" in stdout


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
    monkeypatch.setattr(oarray, "poly_eval", lambda c, x, p: 0)
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
