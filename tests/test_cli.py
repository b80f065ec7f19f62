import errno
import gc
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

from oracles import CAPPED_DESIGN, mp_scaled_transfer


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

    # mode_index is not a key: a mode index is folded into two_beta_over_m
    @pytest.mark.parametrize("line,key", [("betta = 3", "betta"),
                                          ("mode_index = 1", "mode_index")])
    def test_unknown_key(self, tmp_path, line, key):
        p = tmp_path / "wg.cfg"
        p.write_text(line + "\n")
        with pytest.raises(CliError) as info:
            load_config(p)
        assert str(info.value) == f"{p}:1: unknown key {key!r}"

    def test_readme_block_is_the_default(self, tmp_path):
        p = tmp_path / "readme.cfg"
        p.write_text(_readme().split("```ini\n", 1)[1].split("```", 1)[0])
        assert load_config(p) == cli.DEFAULT_CONFIG

    def test_missing_file(self):
        with pytest.raises(CliError):
            load_config("/nonexistent/wg.cfg")

    @pytest.mark.parametrize("line,message", [
        ("delta_eV 3", "{path}:2: expected key = value"),
        ("delta_eV = abc", "{path}:2: bad number 'abc'"),
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

    def test_readme_example_prints_the_scaled_form(self, capsys):
        # the entries grow like e^4116: printed scaled, after one log_scale line
        rc = main(["transfer", "--z", "1+0.5i", "--alpha", "2um", "--k", "0.01"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_OK
        assert [ln.split("=", 1)[0] for ln in lines] == [
            "log_scale", "m11", "m12", "m21", "m22", "T", "R", "T2_plus_R2", "residual"]
        assert lines[0] == "log_scale=4.1161579628826621e+03"
        assert lines[6:8] == ["R=6.559535330336e-01+7.605620838738e-01i",
                              "T2_plus_R2=1.008729720926e+00"]

    def test_subnormal_parts_print_the_scaled_form(self, capsys):
        # alpha = 1e-310 nm: e^b M has parts of ~5e-311, below the normal
        # doubles, so the entries print scaled after a log_scale line
        rc = main(["transfer", "--z", "0.5+0.5i", "--alpha", "1e-310", "--k", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_OK
        assert [ln.split("=", 1)[0] for ln in lines] == [
            "log_scale", "m11", "m12", "m21", "m22", "T", "R", "T2_plus_R2", "residual"]
        assert lines[0] == "log_scale=6.4359425290555759e-311"

    def test_det_is_left_out_where_it_has_no_digits(self, capsys):
        # e^b ~ e^412 fits, so M and T print as they are; det's product form
        # would cancel entries of ~1e180 and read nan
        rc = main(["transfer", "--z", "1+0.5i", "--alpha", "200nm", "--k", "0.01"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert [ln.split("=", 1)[0] for ln in out.splitlines()] == [
            "m11", "m12", "m21", "m22", "T", "R", "T2_plus_R2", "residual"]
        assert "nan" not in out and "m11=-1.122973482329e+180" in out

    def test_singular_matrix_prints_infinite_amplitudes(self, capsys, monkeypatch):
        def singular(chi, zeta):
            return 1 + 0j, 0j, 0j, 0.0  # m11, m12, m22 = 0, b

        monkeypatch.setattr(cli, "transfer_matrix", singular)
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
            # the physical barrier is checked here alone: the library takes
            # chi = alpha k and zeta = z/k^2
            ("--alpha", "0", "alpha must be positive and finite, got 0.0"),
            ("--alpha", "-2nm", "alpha must be positive and finite, got -2.0"),
            ("--alpha", "nan", "alpha must be positive and finite, got nan"),
            ("--k", "0", "k must be positive and finite with 0 < k^2 < inf, got 0.0"),
            ("--k", "-1", "k must be positive and finite with 0 < k^2 < inf, got -1.0"),
            # k^2 underflows to 0, and overflows to inf
            ("--k", "1e-200", "k must be positive and finite with 0 < k^2 < inf, got 1e-200"),
            ("--k", "1e200", "k must be positive and finite with 0 < k^2 < inf, got 1e+200"),
        ]
    ])
    def test_non_finite_input_is_input_error(self, capsys, option, value, message):
        args = {"--z": "1i", "--alpha": "1", "--k": "1", option: value}
        rc = main(["transfer"] + [x for kv in args.items() for x in kv])
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_alpha_k_that_underflows_is_the_empty_barrier(self, capsys):
        # alpha > 0 and k pass their checks, but alpha k = 1e-330 rounds to
        # chi = 0: the zero-length barrier, which transmits everything
        rc = main(["transfer", "--z", "1i", "--alpha", "1e-320nm", "--k", "1e-10"])
        captured = capsys.readouterr()
        assert rc == EXIT_OK and captured.err == ""
        assert captured.out == "\n".join([
            "m11=1.000000000000e+00+0.000000000000e+00i",
            "m12=0.000000000000e+00+0.000000000000e+00i",
            "m21=-0.000000000000e+00-0.000000000000e+00i",
            "m22=1.000000000000e+00+0.000000000000e+00i",
            "det=1.000000000000e+00+0.000000000000e+00i",
            "T=1.000000000000e+00+0.000000000000e+00i",
            "R=0.000000000000e+00+0.000000000000e+00i",
            "T2_plus_R2=1.000000000000e+00",
            "residual=1.000000000000e+00",
        ]) + "\n"


def _transfer_deck(count, seed):
    """(argv, alpha, z, k) of `transfer` runs: Re z and Im z uniform in
    [-2, 2], alpha log-uniform in [0.1, 1e4] nm and k log-uniform in
    [1e-4, 10].  Each double is written with 17 digits, so it parses back to
    itself."""
    rng = np.random.default_rng(seed)
    re, im = rng.uniform(-2, 2, (2, count))
    alpha = 10 ** rng.uniform(-1, 4, count)
    k = 10 ** rng.uniform(-4, 1, count)
    for i in range(count):
        z = complex(re[i], im[i])
        yield (["transfer", "--z", f"{z.real:.17g}{z.imag:+.17g}i",
                "--alpha", f"{alpha[i]:.17g}", "--k", f"{k[i]:.17g}"],
               float(alpha[i]), z, float(k[i]))


def _printed(mp, text):
    """A printed %.12e field as an mpc, and the most its rounding moved it:
    half a unit in the last digit of each part."""
    v = parse_complex(text)
    return mp.mpc(v), 5e-13 * (abs(v.real) + abs(v.imag))


def _check_transfer_fields(mp, fields, alpha, z, k):
    """Every field of one `transfer` stdout against the closed form at the
    working precision of ``mp``, for the doubles alpha, z and k."""
    (m11, m12, m22), x = mp_scaled_transfer(mp, alpha, z, k)
    b = x.imag
    # the closed form's own error, as in the 50-digit check of the barrier
    tol = 1e-15 * (16 + abs(x))
    scale = max(abs(m11), abs(m12), abs(m22))
    # M = e^s times the printed entries and T = e^-s times the printed T,
    # so those print e^{b-s} times the scaled entries and e^{s-b}/m22
    f = mp.exp(b - mp.mpf(fields.get("log_scale", "0")))
    for key, want in (("m11", m11), ("m12", m12), ("m21", -m12), ("m22", m22)):
        got, rounding = _printed(mp, fields[key])
        assert abs(got - f * want) <= f * tol * scale + rounding
    got, rounding = _printed(mp, fields["T"])
    want = 1 / (f * m22)
    assert abs(got - want) <= abs(want) * tol * scale / abs(m22) + rounding
    # R and |T|^2 + |R|^2 to 1e-11 relative, or to what a few ulps can move
    # them by where m22 = e^{2i chi}(c - t) cancels (|c| + |t| <= |m11| + |m22|)
    # or m12's factor w^2 - 1 = -zeta does
    zeta = mp.mpc(z) / mp.mpf(k) ** 2
    rel = 1e-11 + 2.0**-50 * ((abs(m11) + abs(m22)) / abs(m22) + abs(1 - zeta) / abs(zeta))
    got, _ = _printed(mp, fields["R"])
    assert abs(got - m12 / m22) <= rel * abs(m12 / m22)
    want = (mp.exp(-2 * b) + abs(m12) ** 2) / abs(m22) ** 2
    assert abs(mp.mpf(fields["T2_plus_R2"]) - want) <= rel * want
    if "det" in fields:
        assert abs(parse_complex(fields["det"]) - 1) <= 1e-12
    # residual = |c - t| / ((|c| + |t|) min(1 + |x|, 1e3)), where
    # c -+ t = e^{-+2i chi} (m22, m11): c - t errs by tol (|c| + |t|) at most
    chi = mp.mpf(alpha) * mp.mpf(k)
    c_minus_t, c_plus_t = mp.exp(-2j * chi) * m22, mp.exp(2j * chi) * m11
    cap = min(1 + abs(x), 1000)
    want = abs(c_minus_t) / ((abs(c_plus_t + c_minus_t) + abs(c_plus_t - c_minus_t)) / 2 * cap)
    assert abs(mp.mpf(fields["residual"]) - want) <= tol / cap + 1e-12 * want


def test_transfer_stdout_matches_50_digit_evaluation(capsys):
    """Differential check of every printed `transfer` field on a seeded deck
    that reaches b = 2 alpha k Im w ~ 1e4, far past where e^b overflows."""
    mpmath = pytest.importorskip("mpmath")
    scaled = 0
    for argv, alpha, z, k in _transfer_deck(300, seed=1):
        assert main(argv) == EXIT_OK, argv
        out = capsys.readouterr().out
        assert "nan" not in out, argv
        fields = dict(line.split("=", 1) for line in out.splitlines())
        scaled += "log_scale" in fields
        with mpmath.workdps(50):
            _check_transfer_fields(mpmath.mp, fields, alpha, z, k)
    assert 30 <= scaled <= 270  # both forms are exercised


class TestCurveCommand:
    ARGS = ["curve", "--n", "1", "--rho-min", "0.7", "--rho-max", "0.9",
            "--samples", "8"]

    # each printed rho, sigma and alpha_k parses back to the double that was
    # certified; 13 digits lose it near rho = 1 and, for alpha_k, at large n
    @pytest.mark.parametrize("n,rho_min,rho_max,samples", [
        (1, 0.7, 0.9, 8),
        (3, 0.9999999999, 0.99999999999999, 8),
        (3, 0.999, 0.9999999999999, 6),
        (2, 0.99999999999, 0.999999999999, 5),
        (700000, 0.79, 0.81, 3),
    ])
    def test_csv_shape(self, tmp_path, n, rho_min, rho_max, samples):
        out = tmp_path / "c.csv"
        rc = main(["curve", "--n", str(n), "--rho-min", repr(rho_min),
                   "--rho-max", repr(rho_max), "--samples", str(samples),
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,sigma,alpha_k,residual"
        points = specsing.trace_curve(specsing.BranchLabel(n=n), rho_min, rho_max, samples)
        assert len(lines) == 1 + len(points) > 1
        for ln, p in zip(lines[1:], points):
            rho, sigma, ak, res = (float(v) for v in ln.split(","))
            assert (rho, sigma, ak) == (p.rho, p.sigma, p.alpha_k)
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
        # a grid sign change that L itself does not make (n = 1 noise tail)
        rc = main(["curve", "--n", "1", "--rho-min", "0.6666666667", "--rho-max", "0.7",
                   "--samples", "3", "--out", str(tmp_path / "c.csv")])
        assert rc in (EXIT_OK, EXIT_NO_SOLUTIONS)
        assert "error:" not in capsys.readouterr().err

    def test_bad_branch(self):
        assert main(["curve", "--n", "0", "--rho-min", "0.7",
                     "--rho-max", "0.9"]) == EXIT_BAD_INPUT

    def test_one_sample_is_named(self, capsys):
        assert main(["curve", "--n", "1", "--rho-min", "0.7", "--rho-max", "0.9",
                     "--samples", "1"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == "error: samples must be >= 2\n"

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

    @pytest.mark.parametrize("config", ["", "omega0_eV = 3e76\n"], ids=["reference", "map-overflows"])
    def test_lossy_medium_no_solutions(self, tmp_path, capsys, config):
        # lemma 3: no design without gain, also where the map from omega to
        # (rho, sigma) would overflow (that medium with gain is exit 3)
        p = tmp_path / "lossy.cfg"
        p.write_text("omega_p_sq_eV2 = 0.04\n" + config)
        rc = main(["design", "--n", "2000", "--config", str(p)])
        assert (rc, *capsys.readouterr()) == (EXIT_NO_SOLUTIONS, "", "")

    @pytest.mark.parametrize("line", ["omega0_eV = nan", "delta_eV = inf",
                                      "two_beta_over_m = inf"])
    def test_non_finite_config_is_input_error(self, tmp_path, capsys, line):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        assert main(["design", "--n", "2000", "--config", str(p)]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("line,message", [
        ("omega0_eV = 0", "omega0 must be positive, got 0.0"),
        ("delta_eV = -1", "delta must be positive, got -1.0")])
    def test_non_positive_medium_is_named(self, tmp_path, capsys, line, message):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        assert main(["design", "--n", "2000", "--config", str(p)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_size_whose_k_squared_underflows_prints_its_designs(self, tmp_path, capsys):
        # at 2 beta/m = 1e200 nm the near-cutoff candidates' k^2 underflows,
        # but the gate works at k = 1: both designs print, and nothing else
        p = tmp_path / "wide.cfg"
        p.write_text("two_beta_over_m = 1e200\n")
        rc = main(["design", "--n", "2000", "--config", str(p)])
        out, err = capsys.readouterr()
        assert (rc, err) == (EXIT_OK, "")
        records = out.splitlines()
        assert len(records) == 2
        assert records[0].startswith("n=2000 ell=1 omega_eV=4.044")
        assert records[1].startswith("n=2000 ell=2 omega_eV=5.615")

    def test_design_whose_alpha_overflows_is_one_error_line(self, tmp_path, capsys):
        # its alpha = G/k exceeds a double: an error, not two_alpha_mm=inf
        p = tmp_path / "wide.cfg"
        p.write_text("two_beta_over_m = 1e200\n")
        rc = main(["design", "--n", str(10**200), "--config", str(p)])
        out, err = capsys.readouterr()
        assert (rc, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("error: the design at omega = ") and err.count("\n") == 1

    def test_mode_index_is_an_unknown_key(self, tmp_path, capsys):
        p = tmp_path / "wg.cfg"
        p.write_text("mode_index = 1\n")
        assert main(["design", "--n", "2000", "--config", str(p)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}:1: unknown key 'mode_index'\n"


# ell labels count from 1: a lower one is invalid input, named before the
# design grid is solved
@pytest.mark.parametrize("argv", [["design", "--n", "2000", "--ell", "0"],
                                  ["design", "--n", "2000", "--ell", "-3"],
                                  ["scan", "--n", "2000", "--ell", "0"],
                                  ["scan", "--n", "2000", "--ell", "-1"]])
def test_ell_below_one_is_input_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "find_singularities", None)
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ell must be >= 1, got {argv[-1]}\n"


_SCAN_CASES = [(2000, 2, 5e-4, 2001), (10000, 2, 1e-4, 21), (2000, 2, 5e-4, 1),
               (2000, 2, 5e-4, 4096), (2000, 2, 5e-4, 4097), (2000, 2, 5e-4, 20001)]


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

    @staticmethod
    def _expected_csv(n, ell, span, points):
        """The scan CSV as one string of per-row f-strings, and whether a row is capped."""
        medium, geom = cli.medium_geometry(cli.DEFAULT_CONFIG)
        sol, = [s for s in cli.find_singularities(medium, geom, n) if s.ell == ell]
        scan = gain_scan(sol, medium, geom, np.linspace(1.0 - span, 1.0 + span, points))
        header = (f"# solution: {cli._solution_record(sol)}\n"
                  "# values with |m22| < 1e-300 are reported as the cap 600\n"
                  "omega_ratio,log10_T2_plus_R2\n")
        rows = "".join(f"{r:.12e},{v:.12e}\n" for r, v in scan.tolist())
        return header + rows, (scan[:, 1] == GAIN_CAP).any()

    # the README scan, one whose centre row is capped, and scans of one point,
    # one whole block of rows, a block and one row, and several blocks.  The
    # n = 10000 design is the frozen CAPPED_DESIGN, so its centre row is
    # capped whatever omega the solver returns
    @pytest.mark.parametrize("n,ell,span,points", _SCAN_CASES)
    def test_scan_csv_bytes(self, monkeypatch, capsys, n, ell, span, points):
        if n == 10000:
            monkeypatch.setattr(cli, "find_singularities", lambda *args: [CAPPED_DESIGN])
        rc = main(["scan", "--n", str(n), "--ell", str(ell), "--span", str(span),
                   "--points", str(points)])
        out = capsys.readouterr().out
        expected, capped = self._expected_csv(n, ell, span, points)
        assert rc == EXIT_OK
        assert out == expected
        assert capped == (n == 10000)

    @pytest.mark.parametrize("n,ell,span,points", _SCAN_CASES)
    def test_scan_csv_file_bytes(self, tmp_path, n, ell, span, points):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--n", str(n), "--ell", str(ell), "--span", str(span),
                   "--points", str(points), "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_bytes() == self._expected_csv(n, ell, span, points)[0].encode()

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

    def test_missing_design_empties_the_out_file(self, tmp_path, capsys):
        # a file left by an earlier scan keeps no `# solution:` line
        out = tmp_path / "scan.csv"
        out.write_text("# solution: n=2000 ell=2\nomega_ratio,log10_T2_plus_R2\n")
        rc = main(["scan", "--n", "2000", "--ell", "9", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_NO_SOLUTIONS
        assert out.read_bytes() == b""
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


def _readme():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        return fh.read()


def _readme_commands():
    """The `specsing ...` lines of the README's "Command line" block."""
    block = _readme().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("specsing ")]


def test_readme_lists_every_subcommand():
    assert sorted(line.split()[1] for line in _readme_commands()) == [
        "curve", "design", "scan", "tables", "transfer"]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_exits_as_documented(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)  # --out files land here
    assert main(shlex.split(line)[1:]) == EXIT_OK


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
    """A stdout (or stderr) on a full disk: every flush fails, and every
    write ("write"), none ("flush") or every write after the first
    ("partway")."""

    def __init__(self, fail_on):
        self.fail_on = fail_on
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.fail_on == "write" or (self.fail_on == "partway" and self.writes > 1):
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(text)

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


# stdout commands, the last of which writes its CSV in several parts
_STDOUT_ARGVS = [["design", "--n", "2000"], ["tables", "--which", "1"],
                 ["scan", "--n", "2000", "--ell", "2", "--points", "20001"]]


# a buffered stdout fails at the flush, an unbuffered one at the write, and
# one that fills up during a scan at a later part's write
@pytest.mark.parametrize("fail_on", ["write", "flush", "partway"])
@pytest.mark.parametrize("argv", _STDOUT_ARGVS)
def test_unwritable_stdout_is_one_error_line(capsys, monkeypatch, argv, fail_on):
    monkeypatch.setattr("sys.stdout", _FullStdout(fail_on))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_BAD_INPUT
    assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"


def test_closed_stdout_is_one_error_line(capsys, monkeypatch):
    # sys.stdout is None in a process started with descriptor 1 closed
    monkeypatch.setattr("sys.stdout", None)
    assert main(["design", "--n", "2000"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: cannot write stdout: it is closed\n"


def test_unwritable_error_line_still_exits_3(capsys, monkeypatch):
    # the error line cannot be written either (a full stderr with no file
    # descriptor): main still returns 3, and no traceback reaches any stream
    stderr = _FullStdout("write")
    monkeypatch.setattr("sys.stderr", stderr)
    assert main(["design", "--n", "0"]) == EXIT_BAD_INPUT
    assert stderr.writes == 1
    assert capsys.readouterr() == ("", "")


def _process_env():
    """The environment of a child interpreter that imports this specsing."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = os.path.dirname(os.path.dirname(specsing.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# In a real process the interpreter flushes stdout once more at exit, which a
# monkeypatched stdout never sees: the bytes a failed flush left buffered must
# not fail again there (that prints `Exception ignored ...` and exits 120).
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", _STDOUT_ARGVS)
def test_unwritable_stdout_in_a_process_is_one_error_line(argv, unbuffered):
    env = _process_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "specsing.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


# A process that cannot write its error line, or starts with a descriptor
# closed, still exits 3: the stream that fails is discarded, so neither the
# handler nor the interpreter's flush at exit turns that into exit 1 or 120.
# (argv, stdout, stderr): each stream is "full" (/dev/full), "closed" or a pipe
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv,stdout,stderr", [
    (["design", "--n", "2000"], "full", "full"),
    (["design", "--n", "0"], "pipe", "full"),
    (["design", "--n", "0"], "pipe", "closed"),
    (["curve", "--n", "1", "--rho-min", "0.7", "--rho-max", "0.9", "--samples", "3"],
     "closed", "pipe"),
])
def test_unwritable_streams_in_a_process_exit_3(argv, stdout, stderr):
    closed = [fd for fd, how in ((1, stdout), (2, stderr)) if how == "closed"]
    with open("/dev/full", "w") as full:
        streams = {"full": full, "pipe": subprocess.PIPE, "closed": None}
        proc = subprocess.run([sys.executable, "-m", "specsing.cli", *argv],
                              stdout=streams[stdout], stderr=streams[stderr],
                              preexec_fn=lambda: [os.close(fd) for fd in closed],
                              env=_process_env(), text=True, timeout=120)
    assert proc.returncode == EXIT_BAD_INPUT
    if stdout == "pipe":
        assert proc.stdout == ""
    if stderr == "pipe":
        assert proc.stderr == "error: cannot write stdout: it is closed\n"


@pytest.mark.parametrize("argv", [["design"], ["curve", "--rho-min", "0.7", "--rho-max", "0.9"]])
def test_branch_index_too_large_for_a_double_is_named(capsys, monkeypatch, argv):
    # rejected before L is evaluated, where n would overflow unnamed
    monkeypatch.setattr(specsing.kernels, "f_grid", None)
    monkeypatch.setattr(specsing.kernels, "f_bounds", None)
    assert main([argv[0], "--n", str(10**309), *argv[1:]]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: branch index n does not fit in a double\n"


# `python -m specsing.cli` runs the module as __main__; an atexit hook reports
# the freeze count once the command has exited
_ENTRY_PROBE = ("import atexit, gc, runpy, sys; "
                "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); "
                "runpy.run_module('specsing.cli', run_name='__main__')")


def test_ell_below_one_in_a_process_is_one_error_line():
    proc = subprocess.run([sys.executable, "-m", "specsing.cli", "design", "--n", "2000",
                           "--ell", "0"], capture_output=True, env=_process_env(),
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (EXIT_BAD_INPUT, "")
    assert proc.stderr == "error: ell must be >= 1, got 0\n"


@pytest.mark.parametrize("command", ["design", "scan"])
def test_tiny_coupling_in_a_process_has_no_design_and_no_warning(tmp_path, command):
    # omega_p^2 = -1e-200: den = (1-rho)^2 y^2 + rho^2 underflows to 0 on the
    # whole grid, where L = +inf, its true sign: no bracket, no design, and
    # nothing on stderr
    config = tmp_path / "tiny.cfg"
    config.write_text("omega_p_sq_eV2 = -1e-200\n")
    argv = [command, "--n", "2000", "--config", str(config)] + (["--ell", "1"] if command == "scan" else [])
    proc = subprocess.run([sys.executable, "-m", "specsing.cli", *argv], capture_output=True,
                          env=_process_env(), text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_NO_SOLUTIONS, "", "")


def test_overflowing_denominator_in_a_process_is_one_error_line(tmp_path):
    # omega_p^2 = -1e200, delta = 1e-300: den = (1-rho)^2 y^2 + rho^2
    # overflows wherever rho < 1 on the grid, where L would read -x
    config = tmp_path / "huge.cfg"
    config.write_text("omega_p_sq_eV2 = -1e200\ndelta_eV = 1e-300\n")
    proc = subprocess.run([sys.executable, "-m", "specsing.cli", "design", "--n", "2000",
                           "--config", str(config)], capture_output=True,
                          env=_process_env(), text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (EXIT_BAD_INPUT, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("span", ["1e308", "8e307", "-1e308"])
def test_huge_span_in_a_process_is_one_error_line(span):
    # the grid's width 2 span overflows (+-1e308), or omega = ratio omega_s
    # does (8e307): one error line, no numpy warning
    proc = subprocess.run([sys.executable, "-m", "specsing.cli", "scan", "--n", "2000",
                           "--ell", "2", "--span", span], capture_output=True,
                          env=_process_env(), text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (EXIT_BAD_INPUT, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_process_entry_freezes_the_import_heap(capsys):
    argv = ["design", "--n", "2000"]
    proc = subprocess.run([sys.executable, "-c", _ENTRY_PROBE, *argv], capture_output=True,
                          env=_process_env(), text=True, timeout=120)
    frozen = gc.get_freeze_count()
    rc = main(argv)
    assert gc.get_freeze_count() == frozen  # main leaves the caller's collector alone
    assert int(proc.stderr) > 0
    assert (proc.stdout, proc.returncode) == (capsys.readouterr().out, rc)


def test_console_script_is_the_process_entry():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")) as fh:
        assert 'specsing = "specsing.cli:run"\n' in fh.read()
