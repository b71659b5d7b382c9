"""Command-line contract: output strings, JSON determinism, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ajcable.cli as cli
import ajcable.degrees as degrees
import ajcable.jones as jones
import ajcable.minimality as minimality
from ajcable.algebra import IntLaurent2
from ajcable.cli import IN_BAND_WARNING, main

GOLDEN_TORUS = "t^-2 + t^-6 + t^-10 - t^-18"
GOLDEN_CABLE = (
    "t^-30 + t^-34 + t^-38 + t^-42 + t^-46"
    " - t^-58 - t^-62 - t^-66 + t^-74 - t^-78"
)


# --- jones ----------------------------------------------------------------

def test_jones_torus_golden(capsys):
    assert main(["jones", "torus", "-p", "3", "-q", "2", "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert out == GOLDEN_TORUS + "\n"


def test_jones_console_script_golden():
    """The ``ajcable`` console script declared in pyproject.toml, run as its
    own process through the wrapper installers generate, prints the golden
    value and exits 0.  No install is needed: the child imports the package
    these tests import."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ajcable"]
    module, _, attr = target.partition(":")
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "jones", "torus", "-p", "3", "-q", "2", "-n", "2"],
        capture_output=True,
        text=True,
        env=env,
        cwd=src,  # `-c` puts the working directory first on sys.path
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_TORUS + "\n"


def test_jones_cable_golden(capsys):
    rc = main(["jones", "cable", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "-n", "2"])
    assert rc == 0
    assert capsys.readouterr().out == GOLDEN_CABLE + "\n"


def test_jones_torus_rejects_cable_args(capsys):
    rc = main(["jones", "torus", "-p", "3", "-q", "2", "-r", "13", "-n", "2"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_jones_cable_needs_rs(capsys):
    rc = main(["jones", "cable", "-p", "3", "-q", "2", "-n", "2"])
    assert rc == 1
    assert "-r and -s" in capsys.readouterr().err


def test_jones_bad_torus_params(capsys):
    rc = main(["jones", "torus", "-p", "4", "-q", "2", "-n", "2"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["jones", "cable", "-n", "2"],
    ["apoly"],
    ["annihilator"],
    ["verify"],
    ["degrees"],
    ["minimality"],
])
def test_bad_cable_params_exit_1(command, capsys):
    """gcd(r, s) = 2: every cable subcommand reports it and returns 1."""
    assert main(command + ["-p", "3", "-q", "2", "-r", "2", "-s", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ajcable: error: invalid cabling parameters (r=2, s=4): "
                            "need s >= 2, gcd(r, s) = 1\n")


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type int64"),
     "ajcable: error: out of memory: Unable to allocate 7.28 TiB for an array with shape "
     "(1000000000000,) and data type int64\n"),
    (MemoryError(), "ajcable: error: out of memory\n"),
], ids=["numpy message", "no message"])
def test_out_of_memory_exits_1(error, message, monkeypatch, capsys):
    """A value too large to allocate is reported, not raised as a traceback.
    The command is patched to raise: no test allocates that much."""
    def allocate(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "jones", allocate)
    assert main(["jones", "torus", "-p", "3", "-q", "2", "-n", "1000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


HUGE = "99999999999999999999"


P61, P62 = str(2**61 + 1), str(2**62 + 1)


@pytest.mark.parametrize("argv, what", [
    (["jones", "torus", "-p", "3", "-q", "2", "-n", HUGE], f"(3, 2)-cabling sum at colour {HUGE}"),
    (["degrees", "-p", "3", "-q", "2", "--nmax", HUGE], f"(3, 2)-cabling sum at colour {HUGE}"),
    (["verify", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "--nmax", HUGE],
     "(13, 2)-cabling sum at colour 100000000000000000002"),
    # an int64 overflow in the companion factor at M^(s^2), in f_poly(r, s),
    # and a factor within int64 whose dense array would not fit in memory
    (["apoly", "-p", P61, "-q", "2", "-r", "1", "-s", "2"], f"A-polynomial of the ({P61}, 2, 1, 2) cable"),
    (["apoly", "-p", "3", "-q", "2", "-r", P62, "-s", "2"], f"A-polynomial of the (3, 2, {P62}, 2) cable"),
    (["apoly", "-p", "3", "-q", "2", "-r", P61, "-s", "2"], f"A-polynomial of the (3, 2, {P61}, 2) cable"),
], ids=["jones", "degrees", "verify", "apoly-companion", "apoly-cabling", "apoly-memory"])
def test_colour_beyond_int64_exits_1(argv, what, capsys):
    """A colour or a parameter whose exponents would overflow int64 is
    refused before any array of its window or polynomial is built."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ajcable: error: the {what} has exponents beyond 2^62\n"


def test_minimality_box_beyond_physical_memory_exits_1(monkeypatch, capsys):
    """A box whose evaluation matrix cannot fit in memory is refused before
    its unknowns are listed; ``_columns`` raises, so a broken guard cannot
    allocate anything."""
    def no_columns(*_args):
        raise AssertionError("columns built before the memory guard")

    monkeypatch.setattr(minimality, "_columns", no_columns)
    rc = main(["minimality", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "--mspan", "3000000000"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ajcable: error: out of memory: the evaluation matrix of 378000000063 unknowns "
                            "needs at least 1143072000526176000055944 bytes, more than physical memory\n")


# --- usage errors ------------------------------------------------------------

def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["jones", "torus", "-p", "3", "-n", "2"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "--nmax", "0"], "at least 1, got 0"),
    (["verify", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "--nmax", "-3"], "at least 1, got -3"),
    (["grid", "--nmax", "0"], "at least 1, got 0"),
    (["degrees", "-p", "3", "-q", "2", "--nmax", "1"], "at least 2, got 1"),
])
def test_empty_colour_window_exits_1(argv, message, capsys):
    """No command may pass after checking no colours."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --nmax: must be {message}" in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--tspan", "-3"], "box half-widths must be non-negative, got t_span=-3, m_span=2"),
    (["--mspan", "-1"], "box half-widths must be non-negative, got t_span=10, m_span=-1"),
    (["--ldeg", "0"], "L-degree must be at least 1, got 0"),
    (["--ldeg", "1", "--tspan", "100000", "--mspan", "100000"],
     "33618628 equations for 80000800002 unknowns (need at least twice as many)"),
])
def test_minimality_bad_bounds_exit_1(flags, message, capsys):
    rc = main(["minimality", "-p", "3", "-q", "2", "-r", "13", "-s", "2"] + flags)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ajcable: error: {message}\n"


# --- apoly / annihilator -------------------------------------------------------

def test_apoly_text(capsys):
    rc = main(["apoly", "-p", "5", "-q", "3", "-r", "-1", "-s", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("factor: ") == 3
    assert "expanded: " in out


def test_annihilator_with_minus1_view(capsys):
    rc = main(
        ["annihilator", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "--eval-t-neg1"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "case=S_EQ_2  L-degree=3" in captured.out
    assert "at t=-1: " in captured.out
    assert captured.err == ""  # r = 13 is out of band: no warning


# --- verify -----------------------------------------------------------------

def test_verify_pass_exit_0(capsys):
    rc = main(["verify", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "--nmax", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")
    for stage in ("identities", "annihilation", "aj_compare", "determinant", "degrees"):
        assert stage in out


def test_verify_json_round_trip_byte_identical(capsys):
    rc = main(
        [
            "verify",
            "-p", "3", "-q", "2", "-r", "13", "-s", "2",
            "--nmax", "4",
            "--format", "json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert obj["meta"]["command"] == "verify"
    assert obj["meta"]["tool"] == "ajcable"
    assert "generated_at" in obj["meta"]
    (record,) = obj["results"]
    assert record["pass"] is True
    assert record["case_tag"] == "S_EQ_2"
    assert "generated_at" not in record  # timestamps live only in meta


def test_verify_failure_exits_2(monkeypatch, capsys):
    failing = {
        "params": {"p": 3, "q": 2, "r": 13, "s": 2},
        "case_tag": "S_EQ_2",
        "L_degree": 3,
        "annihilates": False,
        "n_checked": [1, 4],
        "b_at_minus1": "0",
        "aj_match": False,
        "determinant_ok": False,
        "theorem_applies": True,
        "identities_pass": False,
        "identities": [],
        "pass": False,
    }
    monkeypatch.setattr(cli, "verify_tuple", lambda params, nmax, numerators: dict(failing))
    monkeypatch.setattr(cli, "audit_degrees", lambda *args: [])
    rc = main(["verify", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "--nmax", "4"])
    assert rc == 2
    assert capsys.readouterr().out.strip().endswith("FAIL")


def test_verify_identity_sum_not_divisible_exits_2(monkeypatch, capsys):
    """An identity whose sum is not divisible by t^2 - t^-2 fails the tuple
    with a report, not a traceback: a theorem-applicable tuple exits 2, an
    in-band one (gated on annihilation only) exits 0 with the failure shown."""
    real = jones.peel

    def perturbed(*args):
        c, total = real(*args)
        return c, total + IntLaurent2.monomial(1, 0, 0)

    monkeypatch.setattr(jones, "peel", perturbed)
    rc = main(["verify", "-p", "3", "-q", "2", "-r", "-1", "-s", "3", "--nmax", "4", "--format", "json"])
    assert rc == 2
    (record,) = json.loads(capsys.readouterr().out)["results"]
    assert record["annihilates"] and not record["identities_pass"]
    failing = {rep["id"]: rep["failures"][0]["residue"] for rep in record["identities"] if not rep["pass"]}
    assert failing == dict.fromkeys(("PEEL_S", "Q2_PEEL_S"), "the sum of the terms is not divisible by t^2 - t^-2")
    assert main(["verify", "-p", "3", "-q", "2", "-r", "13", "-s", "3", "--nmax", "4"]) == 0
    assert "identities    FAIL" in capsys.readouterr().out


def test_verify_audits_degrees_at_every_colour(monkeypatch, capsys):
    """A degree prediction off at colour 14 fails ``verify --nmax 16``."""
    real = degrees.predicted_cable_degrees

    def off_at_14(params, n):
        pred = real(params, n)
        return replace(pred, lowest=pred.lowest + 1) if n == 14 else pred

    monkeypatch.setattr(degrees, "predicted_cable_degrees", off_at_14)
    rc = main(["verify", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "--nmax", "16", "--format", "json"])
    assert rc == 2
    (record,) = json.loads(capsys.readouterr().out)["results"]
    assert [(row["n"], row["side"]) for row in record["degree_mismatches"]] == [(14, "lowest")]


def test_verify_in_band_warning_and_exit_policy(capsys):
    # 0 < r=5 < pqs=12: warning on stderr, exit gates on annihilation only
    rc = main(["verify", "-p", "3", "-q", "2", "-r", "5", "-s", "2", "--nmax", "3"])
    captured = capsys.readouterr()
    assert f"(3,2,5,2): {IN_BAND_WARNING}" in captured.err
    assert rc == 0
    assert "theorem_applies=False" in captured.out


# --- degrees ------------------------------------------------------------------

def test_degrees_torus(capsys):
    rc = main(["degrees", "-p", "3", "-q", "2", "--nmax", "6"])
    assert rc == 0
    assert "all match" in capsys.readouterr().out


def test_degrees_cable(capsys):
    rc = main(["degrees", "-p", "3", "-q", "2", "-r", "13", "-s", "2", "--nmax", "6"])
    assert rc == 0
    assert "all match" in capsys.readouterr().out


def test_degrees_half_cable_args_rejected(capsys):
    rc = main(["degrees", "-p", "3", "-q", "2", "-r", "13", "--nmax", "6"])
    assert rc == 1
    assert "both -r and -s" in capsys.readouterr().err


# --- minimality ----------------------------------------------------------------

def test_minimality_default_none_found(capsys):
    rc = main(["minimality", "-p", "3", "-q", "2", "-r", "13", "-s", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: no annihilator within bounds" in out
    assert "searched L-degree 2" in out


def test_minimality_in_band_warning(capsys):
    rc = main(["minimality", "-p", "3", "-q", "2", "-r", "5", "-s", "2"])
    captured = capsys.readouterr()
    assert IN_BAND_WARNING in captured.err
    assert rc == 0


# --- grid ------------------------------------------------------------------------

GRID_BODY = """\
# two-tuple smoke grid
3 2 13 2   # s = 2 regime
-5 3 -7 3
"""


def test_grid_run(tmp_path, monkeypatch, capsys):
    path = tmp_path / "grid.txt"
    path.write_text(GRID_BODY)
    monkeypatch.setenv("AJCABLE_THREADS", "2")
    rc = main(["grid", str(path), "--nmax", "3"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("(3,2,13,2)")  # input order preserved
    assert out[1].startswith("(-5,3,-7,3)")
    assert out[-1] == "2/2 tuples passed"


def test_grid_json_meta(tmp_path, monkeypatch, capsys):
    path = tmp_path / "grid.txt"
    path.write_text(GRID_BODY)
    monkeypatch.setenv("AJCABLE_THREADS", "2")
    rc = main(["grid", str(path), "--nmax", "3", "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert obj["meta"]["workers"] == 2
    assert obj["meta"]["tuples"] == 2
    assert obj["meta"]["source"] == str(path)
    assert [r["params"] for r in obj["results"]] == [
        {"p": 3, "q": 2, "r": 13, "s": 2},
        {"p": -5, "q": 3, "r": -7, "s": 3},
    ]


@pytest.mark.parametrize("threads", ["abc", "-1", "2.5"])
def test_grid_bad_thread_count(tmp_path, monkeypatch, capsys, threads):
    path = tmp_path / "grid.txt"
    path.write_text(GRID_BODY)
    monkeypatch.setenv("AJCABLE_THREADS", threads)
    assert main(["grid", str(path), "--nmax", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ajcable: error: AJCABLE_THREADS must be a non-negative integer, got {threads!r}\n"


def test_grid_missing_file(capsys):
    rc = main(["grid", "/nonexistent/grid.txt"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_grid_malformed_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 2 13\n")
    rc = main(["grid", str(path)])
    assert rc == 1
    assert f"{path}:1" in capsys.readouterr().err


def test_grid_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    rc = main(["grid", str(path)])
    assert rc == 1
    assert "no parameter tuples" in capsys.readouterr().err

