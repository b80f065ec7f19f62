import warnings

import pytest

from specsing import cli
from specsing.cli import (
    CliError,
    EXIT_BAD_INPUT,
    EXIT_NO_SOLUTIONS,
    EXIT_OK,
    load_config,
    main,
    parse_complex,
    parse_length_nm,
)


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
        with pytest.raises(CliError):
            parse_length_nm("five nm")

    @pytest.mark.parametrize("text,val", [
        ("1+0.5i", 1 + 0.5j),
        ("1+0.5j", 1 + 0.5j),
        ("-2i", -2j),
        ("3", 3 + 0j),
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
        with pytest.raises(CliError):
            load_config(p)

    def test_missing_file(self):
        with pytest.raises(CliError):
            load_config("/nonexistent/wg.cfg")


class TestTransferCommand:
    def test_free_case_output(self, capsys):
        rc = main(["transfer", "--z", "0", "--alpha", "1", "--k", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "m22=1.000000000000e+00+0.000000000000e+00i" in out
        assert "T2_plus_R2=1.000000000000e+00" in out

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

    @pytest.mark.parametrize("option,value", [
        ("--z", "nan"), ("--z", "1+infi"), ("--k", "inf"), ("--k", "nan"), ("--alpha", "inf"),
    ])
    def test_non_finite_input_is_input_error(self, capsys, option, value):
        args = {"--z": "1i", "--alpha": "1", "--k": "1", option: value}
        rc = main(["transfer"] + [x for kv in args.items() for x in kv])
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT
        assert captured.out == "" and captured.err.startswith("error: ")


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

    def test_bad_branch(self):
        assert main(["curve", "--n", "0", "--rho-min", "0.7",
                     "--rho-max", "0.9"]) == EXIT_BAD_INPUT


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

    def test_grid_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECSING_GRID_POINTS", "50")
        assert main(["design", "--n", "2000"]) == EXIT_BAD_INPUT
        monkeypatch.setenv("SPECSING_GRID_POINTS", "4000")
        assert main(["design", "--n", "2000", "--ell", "2"]) == EXIT_OK


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

    @pytest.mark.parametrize("span,points", [("nan", "5"), ("inf", "5"), ("1.5", "5"),
                                             ("1e-4", "0")])
    def test_bad_grid_is_input_error(self, capsys, span, points):
        rc = main(["scan", "--n", "2000", "--ell", "2", "--span", span, "--points", points])
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT
        assert captured.out == "" and captured.err.startswith("error: ")


class TestTablesCommand:
    def test_table2_deviations(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECSING_GRID_POINTS", "8000")
        rc = main(["tables", "--which", "2"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("\n") == 9  # 8 rows + worst line
        worst = float(out.rsplit(":", 1)[1])
        assert worst < 1e-4


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
    pytest.param(["curve", "--n", "1", "--rho-min", "0.2", "--rho-max", "0.5", "--samples", "4"],
                 None, None, EXIT_NO_SOLUTIONS, id="curve-empty"),
    pytest.param(["design", "--n", "2000"], "omega_p_sq_eV2 = 0", None, EXIT_BAD_INPUT,
                 id="design-free-medium"),
    # stand-ins for curve --samples 1e11 and scan --points 1e11, whose arrays
    # do not fit in memory; nothing that large is allocated here
    pytest.param(CURVE, None, "trace_curve", EXIT_BAD_INPUT, id="curve-out-of-memory"),
    pytest.param(SCAN, None, "gain_scan", EXIT_BAD_INPUT, id="scan-out-of-memory"),
    pytest.param(SCAN, None, None, EXIT_OK, id="scan"),
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
