"""Command-line interface.

Subcommands:
  transfer  -- transfer matrix / amplitudes for one (z, alpha, k)
  curve     -- trace a singularity branch to CSV
  design    -- solve waveguide singularity designs for a branch index
  scan      -- frequency scan of log10(|T|^2+|R|^2) around a design, to CSV
  tables    -- recompute the reference design tables and show deviations

Exit codes: 0 success with results, 2 valid run with no solutions,
3 invalid input or configuration, an arithmetic failure (a result that
does not fit in a double), a request too large for memory, or output that
cannot be written.  `main` is the one place that turns an exception into
an `error:` line and exit code 3.

Numeric CSV fields use %.12e and LF line endings so output is
byte-deterministic for fixed inputs.
"""

import argparse
import math
import os
import re
import sys

import numpy as np

from .barrier import BarrierSpec, SpectralSingularityError, amplitudes, m22_residual, transfer_matrix
from .locus import BranchLabel, trace_curve
from .waveguide import GAIN_CAP, M22_FLOOR, GainMedium, WaveguideGeometry, find_singularities, gain_scan

EXIT_OK = 0
EXIT_NO_SOLUTIONS = 2
EXIT_BAD_INPUT = 3

#: length suffixes, "m" after the two-letter ones it ends; bare numbers are nm
_LENGTH_UNITS_NM = {"nm": 1.0, "um": 1e3, "mm": 1e6, "cm": 1e7, "m": 1e9, "": 1.0}

DEFAULT_CONFIG = {
    "omega0_eV": 5.0,
    "omega_p_sq_eV2": -0.04,
    "delta_eV": 1.25,
    "two_beta_over_m": 1e7,  # 1.0 cm in nm
    "mode_index": 1,
}


class CliError(Exception):
    """Invalid input or configuration; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    """Reports bad usage as CliError, and reads a token that starts with '-'
    and a digit, '.', 'inf' or 'nan' in any case (-1+0.5i, -1j, -2e-1, -inf,
    -NaN) as a value, never as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise CliError(message)


def parse_length_nm(text):
    """Parse a length with optional unit suffix (nm, um, mm, cm, m) to nm."""
    t = str(text).strip()
    unit = next(u for u in _LENGTH_UNITS_NM if t.endswith(u))
    try:
        return float(t[:len(t) - len(unit)]) * _LENGTH_UNITS_NM[unit]
    except ValueError:
        raise CliError(f"bad length {text!r}")


def parse_complex(text):
    """Parse a complex number; 'i', 'I', 'j' and 'J' notations are accepted."""
    # only a trailing i or I is the imaginary unit: 'inf' keeps its i
    t = re.sub(r"[iI]$", "j", str(text).strip().replace(" ", ""))
    try:
        return complex(t)
    except ValueError:
        raise CliError(f"bad complex number {text!r}")


#: the parser of each config key that float does not read
_CONFIG_PARSERS = {"two_beta_over_m": parse_length_nm, "mode_index": int}


def load_config(path):
    """Flat key=value config file of DEFAULT_CONFIG's keys, each read by float
    or its _CONFIG_PARSERS entry; '#' starts a comment, missing keys default."""
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise CliError(f"cannot read config {path}: {exc}")
        for ln, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{ln}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULT_CONFIG:
                raise CliError(f"{path}:{ln}: unknown key {key!r}")
            parse = _CONFIG_PARSERS.get(key, float)
            try:
                cfg[key] = parse(val)
            except ValueError:  # parse_length_nm raises its own CliError
                kind = "integer" if parse is int else "number"
                raise CliError(f"{path}:{ln}: bad {kind} {val!r}")
    return cfg


def medium_geometry(cfg):
    medium = GainMedium(omega0=cfg["omega0_eV"], omega_p_sq=cfg["omega_p_sq_eV2"],
                        delta=cfg["delta_eV"])
    m = cfg["mode_index"]
    geom = WaveguideGeometry(beta=cfg["two_beta_over_m"] * m / 2.0, m=m)
    return medium, geom


def _fmt_c(c):
    return f"{c.real:.12e}{c.imag:+.12e}i"


def _write(out_path, text):
    try:
        if out_path is None:
            sys.stdout.write(text)
            sys.stdout.flush()  # a full disk or closed pipe fails here
        else:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if out_path is None:
            _discard_stdout()
        raise CliError(f"cannot write {out_path or 'stdout'}: {exc}")


def _discard_stdout():
    """Point stdout's file descriptor at devnull.  A failed flush keeps its
    bytes buffered, and the interpreter flushes stdout again at exit; without
    this that flush fails too, prints `Exception ignored ...` and exits 120."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no file descriptor behind stdout: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def cmd_transfer(args):
    spec = BarrierSpec(alpha=parse_length_nm(args.alpha), z=parse_complex(args.z))
    m = transfer_matrix(spec, args.k)
    lines = [
        f"m11={_fmt_c(m.m11)}",
        f"m12={_fmt_c(m.m12)}",
        f"m21={_fmt_c(m.m21)}",
        f"m22={_fmt_c(m.m22)}",
        f"det={_fmt_c(m.det)}",
    ]
    try:
        amp = amplitudes(m)
        t2r2 = abs(amp.t) ** 2 + abs(amp.r_left) ** 2
        lines += [
            f"T={_fmt_c(amp.t)}",
            f"R={_fmt_c(amp.r_left)}",
            f"T2_plus_R2={t2r2:.12e}",
        ]
    except SpectralSingularityError:
        lines += ["T=inf", "R=inf", "T2_plus_R2=inf"]
    lines.append(f"residual={m22_residual(spec, args.k):.12e}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_curve(args):
    if args.n < 1:
        raise CliError(f"branch index must be >= 1, got {args.n}")
    points = trace_curve(BranchLabel(n=args.n, eps=-1),
                         args.rho_min, args.rho_max, args.samples)
    rows = ["rho,sigma,alpha_k,residual"]
    for p in points:
        rows.append(f"{p.rho:.12e},{p.sigma:.12e},{p.alpha_k:.12e},{p.residual:.12e}")
    _write(args.out, "\n".join(rows) + "\n")
    return EXIT_OK if points else EXIT_NO_SOLUTIONS


def _solution_record(sol):
    return (f"n={sol.branch.n} ell={sol.ell} "
            f"omega_eV={sol.omega:.12e} "
            f"lambda_nm={sol.lam:.12e} "
            f"two_alpha_mm={2 * sol.alpha / 1e6:.12e} "
            f"sqrt_eps_re={sol.refractive_index.real:.12e} "
            f"sqrt_eps_im={sol.refractive_index.imag:.12e} "
            f"residual={sol.residual:.3e}")


def _solve_design(args, cfg):
    medium, geom = medium_geometry(cfg)
    sols = find_singularities(medium, geom, args.n)
    if getattr(args, "ell", None) is not None:
        sols = [s for s in sols if s.ell == args.ell]
    return medium, geom, sols


def cmd_design(args):
    _, _, sols = _solve_design(args, load_config(args.config))
    _write(args.out, "".join(_solution_record(s) + "\n" for s in sols))
    return EXIT_OK if sols else EXIT_NO_SOLUTIONS


def cmd_scan(args):
    if not math.isfinite(args.span):
        raise CliError(f"span must be finite, got {args.span}")
    if args.points < 1:
        raise CliError(f"points must be >= 1, got {args.points}")
    medium, geom, sols = _solve_design(args, load_config(args.config))
    if not sols:
        return EXIT_NO_SOLUTIONS
    sol = sols[0]
    ratios = np.linspace(1.0 - args.span, 1.0 + args.span, args.points)
    scan = gain_scan(sol, medium, geom, ratios)
    header = (f"# solution: {_solution_record(sol)}\n"
              f"# values with |m22| < {M22_FLOOR:g} are reported as the cap {GAIN_CAP:g}\n"
              "omega_ratio,log10_T2_plus_R2\n")
    # one %-format of all rows: the bytes of a per-row f"{r:.12e},{v:.12e}"
    _write(args.out, header + ("%.12e,%.12e\n" * len(scan)) % tuple(scan.ravel().tolist()))
    return EXIT_OK


# Reference design tables: (label, two_beta_over_m [nm] or branch n, rows).
# Rows: (ell or n, lambda [nm], two_alpha [mm], sqrt_eps).
TABLE1 = [
    ("2beta/m=1um", 1e3, [
        (1, 1679.8, 15.517, 0.99919 - 6.1408e-5j),
        (2, 614.03, 3.2291, 0.99910 - 2.1814e-4j),
        (3, 162.61, 0.81531, 1.00045 - 2.6078e-4j),
    ]),
    ("2beta/m=1mm", 1e6, [
        (1, 1.9974e6, 3.07845e5, 0.99920 - 4.9699e-8j),
        (2, 575.20, 2.8786, 0.99908 - 2.4333e-4j),
        (3, 162.85, 0.81379, 1.00045 - 2.6259e-4j),
    ]),
    ("2beta/m=1cm", 1e7, [
        (1, 1.9982e7, 6.7894e6, 0.99920 - 4.968e-9j),
        (2, 575.20, 2.8786, 0.99908 - 2.4333e-4j),
        (3, 162.84, 0.81379, 1.00045 - 2.6259e-4j),
    ]),
]
TABLE2 = [
    (2, [
        (2000, 306.59, 0.30685, 0.99902 - 1.1437e-3j),
        (3000, 347.47, 0.52173, 0.99893 - 7.763e-4j),
        (4000, 382.28, 0.76534, 0.99895 - 5.8934e-4j),
        (5000, 415.09, 1.03877, 0.99897 - 4.757e-4j),
    ]),
    (3, [
        (2000, 220.78, 0.22059, 1.00055 - 1.1701e-3j),
        (3000, 203.54, 0.30504, 1.00064 - 8.043e-4j),
        (4000, 193.10, 0.38589, 1.00062 - 6.1592e-4j),
        (5000, 185.45, 0.46327, 1.00059 - 5.006e-4j),
    ]),
]


def _rel(a, b):
    return abs(a - b) / abs(b)


def _table_line(tag, ell_or_n, sol, lam_exp, ta_exp, se_exp):
    ta = 2 * sol.alpha / 1e6
    se = sol.refractive_index
    devs = [_rel(sol.lam, lam_exp), _rel(ta, ta_exp),
            _rel(se.real, se_exp.real), _rel(se.imag, se_exp.imag)]
    return (f"{tag} {ell_or_n}: "
            f"lambda={sol.lam:.6g} nm (exp {lam_exp:.6g}, dev {devs[0]:.1e})  "
            f"2alpha={ta:.6g} mm (exp {ta_exp:.6g}, dev {devs[1]:.1e})  "
            f"sqrt_eps={se.real:.6f}{se.imag:+.4e}i "
            f"(exp {se_exp.real:.5f}{se_exp.imag:+.4e}i, "
            f"dev {devs[2]:.1e}/{devs[3]:.1e})"), max(devs)


def compute_table(which):
    """Recompute a reference table: a (line, max_rel_dev) pair per row.

    The designs are solved in `medium_geometry` of DEFAULT_CONFIG at the
    table's 2beta/m, once per (2beta/m, n): Table 2's ell = 2 and 3 rows
    share their four solves.
    """
    if which == 1:
        rows = [(label, f"ell={ell}", tb, 10000, ell, expected)
                for label, tb, table in TABLE1 for ell, *expected in table]
    elif which == 2:  # 2beta/m = 1 cm
        rows = [(f"ell={ell}", f"n={n}", 1e7, n, ell, expected)
                for ell, table in TABLE2 for n, *expected in table]
    else:
        raise CliError(f"table must be 1 or 2, got {which}")
    designs = dict.fromkeys((tb, n) for _, _, tb, n, _, _ in rows)
    for tb, n in designs:
        cfg = {**DEFAULT_CONFIG, "two_beta_over_m": tb}
        designs[tb, n] = {s.ell: s for s in find_singularities(*medium_geometry(cfg), n)}
    return [_table_line(tag, ell_or_n, designs[tb, n][ell], *expected)
            for tag, ell_or_n, tb, n, ell, expected in rows]


def cmd_tables(args):
    rows = compute_table(args.which)
    worst = max(dev for _, dev in rows)
    lines = [line for line, _ in rows] + [f"worst relative deviation: {worst:.2e}"]
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser():
    p = _Parser(prog="specsing",
                description="Spectral singularities of the complex barrier "
                            "potential and resonating-waveguide designs.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transfer", help="transfer matrix for one (z, alpha, k)")
    t.add_argument("--z", required=True, help="complex coupling, nm^-2 (e.g. 1+0.5i)")
    t.add_argument("--alpha", required=True, help="barrier half-length (length suffix ok)")
    t.add_argument("--k", type=float, required=True, help="wave number, nm^-1")
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_transfer)

    c = sub.add_parser("curve", help="trace a singularity branch to CSV")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--rho-min", type=float, required=True)
    c.add_argument("--rho-max", type=float, required=True)
    c.add_argument("--samples", type=int, default=50)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_curve)

    d = sub.add_parser("design", help="solve waveguide singularity designs")
    d.add_argument("--config", default=None)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--ell", type=int, default=None)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_design)

    s = sub.add_parser("scan", help="frequency scan around a design, to CSV")
    s.add_argument("--config", default=None)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--span", type=float, default=5e-4)
    s.add_argument("--points", type=int, default=2001)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_scan)

    tb = sub.add_parser("tables", help="recompute a reference table")
    tb.add_argument("--which", type=int, required=True, choices=(1, 2))
    tb.add_argument("--out", default=None)
    tb.set_defaults(func=cmd_tables)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
