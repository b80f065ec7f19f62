import errno
import math
import os
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import specsing
from specsing import cli
from specsing.barrier import SpectralSingularityError
from specsing.cli import (
    CliError,
    EXIT_BAD_INPUT,
    EXIT_NO_SOLUTIONS,
    EXIT_OK,
    compute_table,
    load_config,
    main,
    parse_complex,
    parse_length_nm,
)
from specsing.waveguide import GAIN_CAP, find_singularities, gain_scan


class TestParsers:
    @pytest.mark.parametrize("text,nm", [
        ("5", 5.0),
        ("5nm", 5.0),
        ("2.5 um", 2.5e3),
        ("1mm", 1e6),
        ("1cm", 1e7),
        ("0.01m", 1e7),
    ])
    def test_lengths(self, text, nm):
        assert parse_length_nm(text) == pytest.approx(nm)

    def test_bad_length(self):
        with pytest.raises(CliError, match="^bad length 'five nm'$"):
            parse_length_nm("five nm")

    @pytest.mark.parametrize("text", ["five", "5xm", ""])
    def test_bad_length_is_named(self, text):
        # bare numbers fail with the message of suffixed ones
        with pytest.raises(CliError) as info:
            parse_length_nm(text)
        assert str(info.value) == f"bad length {text!r}"

    @pytest.mark.parametrize("text,val", [
        ("1+0.5i", 1 + 0.5j),
        ("-inf+2i", complex(-math.inf, 2.0)),
        ("1+0.5j", 1 + 0.5j),
        ("-2i", -2j),
        ("3", 3 + 0j),
        ("1+2I", 1 + 2j),
        ("-infI", complex(0.0, -math.inf)),
    ])
    def test_complex(self, text, val):
        assert parse_complex(text) == val

    def test_bad_complex(self):
        with pytest.raises(CliError):
            parse_complex("one+2i")


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["omega0_eV"] == 5.0
        assert cfg["omega_p_sq_eV2"] == -0.04
        assert cfg["two_beta_over_m"] == 1e7

    def test_file_with_comments_and_units(self, tmp_path):
        p = tmp_path / "wg.cfg"
        p.write_text("# gain medium\nomega0_eV = 4.0\n"
                     "two_beta_over_m = 1mm  # geometry\n")
        cfg = load_config(p)
        assert cfg["omega0_eV"] == 4.0
        assert cfg["two_beta_over_m"] == 1e6
        assert cfg["delta_eV"] == 1.25  # untouched default

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "wg.cfg"
        p.write_text("betta = 3\n")
        with pytest.raises(CliError) as info:
            load_config(p)
        assert str(info.value) == f"{p}:1: unknown key 'betta'"

    def test_missing_file(self):
        with pytest.raises(CliError):
            load_config("/nonexistent/wg.cfg")

    def test_mode_index_is_an_integer(self, tmp_path):
        p = tmp_path / "wg.cfg"
        p.write_text("mode_index = 2\n")
        cfg = load_config(p)
        assert cfg["mode_index"] == 2 and type(cfg["mode_index"]) is int

    @pytest.mark.parametrize("line,message", [
        ("delta_eV 3", "{path}:2: expected key = value"),
        ("delta_eV = abc", "{path}:2: bad number 'abc'"),
        ("mode_index = 1.5", "{path}:2: bad integer '1.5'"),
        ("two_beta_over_m = 3xm", "bad length '3xm'"),
    ])
    def test_bad_line_is_named(self, tmp_path, line, message):
        p = tmp_path / "wg.cfg"
        p.write_text("# medium\n" + line + "\n")
        with pytest.raises(CliError) as info:
            load_config(p)
        assert str(info.value) == message.format(path=p)


class TestTransferCommand:
    def test_free_case_output(self, capsys):
        rc = main(["transfer", "--z", "0", "--alpha", "1", "--k", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "m22=1.000000000000e+00+0.000000000000e+00i" in out
        assert "T2_plus_R2=1.000000000000e+00" in out

    @pytest.mark.parametrize("z,alpha,k,residual", [
        pytest.param("1", "2nm", "1", "7.453559924999e-01", id="1-2nm-1"),
        pytest.param("4", "1um", "2", "9.995003748126e-01", id="4-1um-2"),
        pytest.param("1+1e-20i", "2nm", "1", "7.453559922018e-01", id="1+1e-20i-2nm-1"),
    ])
    def test_removable_point_residual(self, capsys, z, alpha, k, residual):
        # at and next to z = k^2, |m22| >= 1, so the residual is far from 0
        rc = main(["transfer", "--z", z, "--alpha", alpha, "--k", k])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "T2_plus_R2=1.000000000000e+00\n" in out
        assert out.endswith(f"\nresidual={residual}\n")

    def test_bad_complex_is_input_error(self, capsys):
        rc = main(["transfer", "--z", "nope", "--alpha", "1", "--k", "1"])
        assert rc == EXIT_BAD_INPUT

    def test_bad_k_is_input_error(self, capsys):
        rc = main(["transfer", "--z", "1i", "--alpha", "1", "--k", "-2"])
        assert rc == EXIT_BAD_INPUT

    def test_missing_argument(self, capsys):
        rc = main(["transfer", "--z", "1i", "--k", "1"])
        assert rc == EXIT_BAD_INPUT

    def test_overflow_is_reported_not_raised(self, capsys):
        # README example: the entries grow like e^4116
        rc = main(["transfer", "--z", "1+0.5i", "--alpha", "2um", "--k", "0.01"])
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_singular_matrix_prints_infinite_amplitudes(self, capsys, monkeypatch):
        def singular(m):
            raise SpectralSingularityError("m22 = 0")

        monkeypatch.setattr(cli, "amplitudes", singular)
        rc = main(["transfer", "--z", "1+0.5i", "--alpha", "2nm", "--k", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_OK
        assert [ln.split("=", 1)[0] for ln in lines[:5]] == ["m11", "m12", "m21", "m22", "det"]
        assert lines[5:8] == ["T=inf", "R=inf", "T2_plus_R2=inf"]
        assert lines[8].startswith("residual=") and len(lines) == 9

    @pytest.mark.parametrize("z", ["-1+0.5i", "-1j", "-.5-2i", "-2e-1"])
    def test_negative_value_is_not_an_option(self, capsys, z):
        # a value that starts with '-' and a digit or '.' is read as a value,
        # the same as in the --z=... form
        rc = main(["transfer", "--z", z, "--alpha", "2nm", "--k", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert main(["transfer", f"--z={z}", "--alpha", "2nm", "--k", "1"]) == EXIT_OK
        assert capsys.readouterr().out == out

    # 'inf' is parsed as a number, not read as 'jnf': only a trailing i is the unit
    @pytest.mark.parametrize("option,value,message", [
        pytest.param(option, value, message, id=f"{option}-{value}")
        for option, value, message in [
            ("--z", "nan", "z must be finite, got (nan+0j)"),
            ("--z", "inf", "z must be finite, got (inf+0j)"),
            ("--z", "1+infi", "z must be finite, got (1+infj)"),
            ("--z", "infj", "z must be finite, got infj"),
            ("--k", "inf", "k must be positive and finite with 0 < k^2 < inf, got inf"),
            ("--k", "nan", "k must be positive and finite with 0 < k^2 < inf, got nan"),
            ("--alpha", "inf", "alpha must be positive and finite, got inf"),
        ]
    ])
    def test_non_finite_input_is_input_error(self, capsys, option, value, message):
        args = {"--z": "1i", "--alpha": "1", "--k": "1", option: value}
        rc = main(["transfer"] + [x for kv in args.items() for x in kv])
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT
        assert captured.out == "" and captured.err == f"error: {message}\n"


class TestCurveCommand:
    ARGS = ["curve", "--n", "1", "--rho-min", "0.7", "--rho-max", "0.9",
            "--samples", "8"]

    def test_csv_shape(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(self.ARGS + ["--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,sigma,alpha_k,residual"
        assert len(lines) > 1
        for ln in lines[1:]:
            rho, sigma, ak, res = (float(v) for v in ln.split(","))
            assert rho < 1 and sigma > 0 and ak > 0 and res < 1e-9

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--out", str(a)])
        main(self.ARGS + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_empty_range_exit_code(self, tmp_path):
        rc = main(["curve", "--n", "1", "--rho-min", "0.2", "--rho-max", "0.5",
                   "--samples", "4", "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_NO_SOLUTIONS

    def test_noise_bracket_is_not_an_error(self, tmp_path, capsys):
        # a grid sign change that F itself does not make (n = 1 noise tail)
        rc = main(["curve", "--n", "1", "--rho-min", "0.6666666667", "--rho-max", "0.7",
                   "--samples", "3", "--out", str(tmp_path / "c.csv")])
        assert rc in (EXIT_OK, EXIT_NO_SOLUTIONS)
        assert "error:" not in capsys.readouterr().err

    def test_bad_branch(self):
        assert main(["curve", "--n", "0", "--rho-min", "0.7",
                     "--rho-max", "0.9"]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("value", ["-inf", "-NaN"])
    def test_non_finite_rho_min_is_a_value(self, capsys, value):
        # read as a value, as in the --rho-min=... form, so trace_curve rejects it
        for argv in (["--rho-min", value], [f"--rho-min={value}"]):
            assert main(["curve", "--n", "1", *argv, "--rho-max", "0.9"]) == EXIT_BAD_INPUT
            assert capsys.readouterr().err.startswith("error: need finite rho_min")

    def test_negative_rho_min(self, capsys):
        rc = main(["curve", "--n", "1", "--rho-min", "-2e-1", "--rho-max", "0.9"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK and out.count("\n") > 1
        assert main(["curve", "--n", "1", "--rho-min=-2e-1", "--rho-max", "0.9"]) == EXIT_OK
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("args,rows", [
        (["--n", "700000", "--rho-min", "0.79", "--rho-max", "0.81", "--samples", "3"], 3),
        (["--n", "3", "--rho-min", "0.999", "--rho-max", "0.9999999999999", "--samples", "6"], 6),
    ])
    def test_points_below_the_y_grid(self, capsys, args, rows):
        # every slice has one root at y < 1e-6, below the bracketing grid
        rc = main(["curve"] + args)
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_OK and len(lines) == 1 + rows
        assert all(float(ln.split(",")[3]) < 1e-9 for ln in lines[1:])


class TestDesignCommand:
    def test_default_config_n2000(self, capsys):
        rc = main(["design", "--n", "2000"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "ell=2" in out
        assert "lambda_nm=3.065878016" in out  # 306.59 nm design

    def test_ell_filter(self, capsys):
        rc = main(["design", "--n", "2000", "--ell", "2"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("\n") == 1

    def test_lossy_medium_no_solutions(self, tmp_path, capsys):
        p = tmp_path / "lossy.cfg"
        p.write_text("omega_p_sq_eV2 = 0.04\n")
        rc = main(["design", "--n", "2000", "--config", str(p)])
        assert rc == EXIT_NO_SOLUTIONS

    @pytest.mark.parametrize("line", ["omega0_eV = nan", "delta_eV = inf",
                                      "two_beta_over_m = inf"])
    def test_non_finite_config_is_input_error(self, tmp_path, capsys, line):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        assert main(["design", "--n", "2000", "--config", str(p)]) == EXIT_BAD_INPUT


class TestScanCommand:
    def test_scan_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--n", "2000", "--ell", "2", "--span", "1e-4",
                   "--points", "21", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# solution:")
        assert lines[2] == "omega_ratio,log10_T2_plus_R2"
        assert len(lines) == 24
        center = dict(tuple(map(float, ln.split(","))) for ln in lines[3:])
        assert center[1.0] > 10

    # the README scan, and one whose centre row is capped
    @pytest.mark.parametrize("n,ell,span,points", [(2000, 2, 5e-4, 2001), (10000, 2, 1e-4, 21)])
    def test_scan_csv_bytes(self, capsys, n, ell, span, points):
        rc = main(["scan", "--n", str(n), "--ell", str(ell), "--span", str(span),
                   "--points", str(points)])
        out = capsys.readouterr().out
        medium, geom = cli.medium_geometry(cli.DEFAULT_CONFIG)
        sol = find_singularities(medium, geom, n)[ell - 1]
        scan = gain_scan(sol, medium, geom, np.linspace(1.0 - span, 1.0 + span, points))
        header = (f"# solution: {cli._solution_record(sol)}\n"
                  "# values with |m22| < 1e-300 are reported as the cap 600\n"
                  "omega_ratio,log10_T2_plus_R2\n")
        assert rc == EXIT_OK
        assert out == header + "".join(f"{r:.12e},{v:.12e}\n" for r, v in scan.tolist())
        assert (scan[:, 1] == GAIN_CAP).any() == (n == 10000)

    @pytest.mark.parametrize("span,points", [("nan", "5"), ("inf", "5"), ("1.5", "5"),
                                             ("1e-4", "0")])
    def test_bad_grid_is_input_error(self, capsys, span, points):
        rc = main(["scan", "--n", "2000", "--ell", "2", "--span", span, "--points", points])
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_missing_design_is_no_solution(self, capsys):
        rc = main(["scan", "--n", "2000", "--ell", "9"])
        captured = capsys.readouterr()
        assert rc == EXIT_NO_SOLUTIONS
        assert captured.out == "" and captured.err == ""


class TestTablesCommand:
    def test_table2_deviations(self, capsys):
        rc = main(["tables", "--which", "2"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("\n") == 9  # 8 rows + worst line
        worst = float(out.rsplit(":", 1)[1])
        assert worst < 1e-4

    def test_unknown_table(self):
        with pytest.raises(CliError, match="table must be 1 or 2, got 3"):
            compute_table(3)

    @pytest.mark.parametrize("which,rows,solves", [(1, 9, 3), (2, 8, 4)])
    def test_each_design_problem_is_solved_once(self, monkeypatch, which, rows, solves):
        # Table 1 has one (2beta/m, n) per geometry; Table 2's ell = 2 and
        # ell = 3 rows share their four n
        calls = []

        def counted(*args):
            calls.append(args)
            return find_singularities(*args)

        monkeypatch.setattr(cli, "find_singularities", counted)
        assert len(compute_table(which)) == rows
        assert len(calls) == solves


def _readme_commands():
    """The `specsing ...` lines of the README's "Command line" block."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("specsing ")]


def test_readme_lists_every_subcommand():
    assert sorted(line.split()[1] for line in _readme_commands()) == [
        "curve", "design", "scan", "tables", "transfer"]


# the README transfer example overflows a double and exits 3; every other
# example produces results
@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_exits_as_documented(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)  # --out files land here
    argv = shlex.split(line)[1:]
    assert main(argv) == (EXIT_BAD_INPUT if argv[0] == "transfer" else EXIT_OK)


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")


CURVE = ["curve", "--n", "1", "--rho-min", "0.7", "--rho-max", "0.9", "--samples", "5"]
SCAN = ["scan", "--n", "2000", "--ell", "2", "--points", "11"]


# (arguments, config file line or None, cli function replaced by one raising
# MemoryError or None, expected exit code)
@pytest.mark.parametrize("argv,config,oom,code", [
    pytest.param(["curve", "--n", "1", "--rho-min=-inf", "--rho-max", "0.5"], None, None,
                 EXIT_BAD_INPUT, id="curve-rho-min-inf"),
    pytest.param(["curve", "--n", "1", "--rho-min", "0.5", "--rho-max", "nan"], None, None,
                 EXIT_BAD_INPUT, id="curve-rho-max-nan"),
    pytest.param(["curve", "--n", "1", "--rho-min", "-inf", "--rho-max", "0.5"], None, None,
                 EXIT_BAD_INPUT, id="curve-rho-min-inf-token"),
    pytest.param(["curve", "--n", "1", "--rho-min", "-NaN", "--rho-max", "0.5"], None, None,
                 EXIT_BAD_INPUT, id="curve-rho-min-nan-token"),
    # rho_min so far below 0 that den = (1-rho)^2 y^2 + rho^2 would overflow on
    # the y grid (once a numpy overflow warning, a bare (34, ...) OverflowError,
    # or both): rejected by name before any slice is solved
    *(pytest.param(["curve", "--n", "1", "--rho-min", rho_min, "--rho-max", "0.9",
                    "--samples", "3"], None, None, EXIT_BAD_INPUT, id=f"curve-rho-min{rho_min}")
      for rho_min in ("-1e150", "-1e160", "-1e308")),
    pytest.param(["curve", "--n", "1", "--rho-min", "0.2", "--rho-max", "0.5", "--samples", "4"],
                 None, None, EXIT_NO_SOLUTIONS, id="curve-empty"),
    pytest.param(["design", "--n", "2000"], "omega_p_sq_eV2 = 0", None, EXIT_BAD_INPUT,
                 id="design-free-medium"),
    # media whose map from omega to (rho, sigma) overflows on the window, or
    # whose window end 10 omega0 does
    pytest.param(["design", "--n", "2000"], "omega0_eV = 1e200", None, EXIT_BAD_INPUT,
                 id="design-omega0-square-overflow"),
    pytest.param(["design", "--n", "2000"], "omega0_eV = 1e308", None, EXIT_BAD_INPUT,
                 id="design-window-end-overflow"),
    pytest.param(["design", "--n", "2000"], "delta_eV = 1e300", None, EXIT_BAD_INPUT,
                 id="design-delta-square-overflow"),
    # stand-ins for curve --samples 1e11 and scan --points 1e11, whose arrays
    # do not fit in memory; nothing that large is allocated here
    pytest.param(CURVE, None, "trace_curve", EXIT_BAD_INPUT, id="curve-out-of-memory"),
    pytest.param(SCAN, None, "gain_scan", EXIT_BAD_INPUT, id="scan-out-of-memory"),
    pytest.param(SCAN, None, None, EXIT_OK, id="scan"),
    pytest.param(["transfer", "--z", "1+1i", "--alpha", "1e300", "--k", "1e10"], None, None,
                 EXIT_BAD_INPUT, id="transfer-chi-overflow"),
    pytest.param(["transfer", "--z", "1+1i", "--alpha", "1nm", "--k", "1e-170"], None, None,
                 EXIT_BAD_INPUT, id="transfer-k-squared-underflow"),
    pytest.param(["transfer", "--z", "1", "--alpha", "2nm", "--k", "1e200"], None, None,
                 EXIT_BAD_INPUT, id="transfer-k-squared-overflow"),
])
def test_every_input_ends_in_an_exit_code(tmp_path, capsys, monkeypatch, argv, config, oom, code):
    if config is not None:
        (tmp_path / "wg.cfg").write_text(config + "\n")
        argv = argv + ["--config", str(tmp_path / "wg.cfg")]
    if oom is not None:
        monkeypatch.setattr(cli, oom, _out_of_memory)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would escape main as an exception
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (EXIT_OK, EXIT_NO_SOLUTIONS, EXIT_BAD_INPUT) and rc == code
    assert err == "" if rc != EXIT_BAD_INPUT else (
        err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err)
    assert not err.startswith("error: (")  # a bare errno tuple such as (34, '...') names nothing


class _FullStdout:
    """A stdout on a full disk: every write and flush fails."""

    def __init__(self, fail_on):
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(text)

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


# a buffered stdout fails at the flush, an unbuffered one at the write
@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("argv", [["design", "--n", "2000"], ["tables", "--which", "1"]])
def test_unwritable_stdout_is_one_error_line(capsys, monkeypatch, argv, fail_on):
    monkeypatch.setattr("sys.stdout", _FullStdout(fail_on))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_BAD_INPUT
    assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"


# In a real process the interpreter flushes stdout once more at exit, which a
# monkeypatched stdout never sees: the bytes a failed flush left buffered must
# not fail again there (that prints `Exception ignored ...` and exits 120).
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["design", "--n", "2000"], ["tables", "--which", "1"]])
def test_unwritable_stdout_in_a_process_is_one_error_line(argv, unbuffered):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.dirname(os.path.dirname(specsing.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "specsing.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"
