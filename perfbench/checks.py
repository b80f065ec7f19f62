"""Output checks that do not trust the program under test.

Residuals are recomputed here from each result's (alpha, z, k) with the
closed form |f(w, alpha k)| / (|1+w|^2 + |1-w|^2), w = sqrt(1 - z/k^2) on the
upper-half-plane branch; the ``residual`` field the program returns is never
read.  Reference outputs recorded from a known-good tree are compared
numerically.
"""

import cmath
import math
import re

HBAR_C_EV_NM = 197.3269804
RESIDUAL_TOL = 1e-9
REF_RTOL = 1e-10
TABLE_GATE = 1e-4
MIN_PEAK_DECADES = 15.0
# Scan values are log10(|T|^2+|R|^2) around a singularity and are
# ill-conditioned: moving the design frequency by one ulp moves values with
# |ratio - 1| >= 1e-5 by up to ~1e-9 relative, and values nearer the peak by
# far more.  They are compared at SCAN_RTOL outside SCAN_PEAK_HALF_WIDTH and
# only gated by MIN_PEAK_DECADES at the peak.
SCAN_RTOL = 1e-6
SCAN_PEAK_HALF_WIDTH = 1e-5

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _sqrt_upper(u):
    s = cmath.sqrt(u)
    return s if s.imag > 0 or (s.imag == 0 and s.real >= 0) else -s


def residual(alpha, z, k):
    """Scale-free m22 residual of the barrier (alpha, z) at wave number k."""
    w = _sqrt_upper(1 - z / (k * k))
    chi = alpha * k
    try:
        f = cmath.exp(-2j * chi * w) * (1 + w) ** 2 - cmath.exp(2j * chi * w) * (1 - w) ** 2
    except OverflowError:
        return math.inf
    return abs(f) / (abs(1 + w) ** 2 + abs(1 - w) ** 2)


def close(got, ref, rtol=REF_RTOL):
    """True if two equal-length number sequences agree to relative rtol."""
    if len(got) != len(ref):
        return False
    return all(math.isclose(g, r, rel_tol=rtol) for g, r in zip(got, ref))


# -- in-process results -----------------------------------------------------

def check_designs(sols, lossy):
    """Problems with one find_singularities result (empty list = correct)."""
    problems = []
    if lossy and sols:
        problems.append(f"lossy medium gave {len(sols)} designs")
    ells = [s.ell for s in sols]
    if ells != list(range(1, len(sols) + 1)):
        problems.append(f"ell labels {ells} are not 1..{len(sols)}")
    for s in sols:
        z = s.k * s.k * complex(s.rho_star, s.sigma_star)
        # the coupling the medium gives at omega must be the certified one
        kk = s.omega / HBAR_C_EV_NM
        z_medium = kk * kk * (1 - s.epsilon)
        if abs(z_medium - z) > RESIDUAL_TOL * abs(z):
            problems.append(f"ell={s.ell}: z inconsistent with epsilon")
        res = residual(s.alpha, z, s.k)
        if not res < RESIDUAL_TOL:
            problems.append(f"ell={s.ell}: residual {res:.2e}")
    return problems


def check_curve_points(points, rho_min, rho_max):
    problems = []
    for p in points:
        res = residual(p.alpha_k, complex(p.rho, p.sigma), 1.0)
        if not res < RESIDUAL_TOL:
            problems.append(f"rho={p.rho}: residual {res:.2e}")
        if not (rho_min - 1e-12 <= p.rho <= rho_max + 1e-12 and p.sigma > 0):
            problems.append(f"point ({p.rho}, {p.sigma}) outside the window")
    return problems


def check_scan(scan, points):
    """Problems with one gain_scan result over ``points`` ratios around 1."""
    if len(scan) != points:
        return [f"{len(scan)} scan points, expected {points}"]
    problems = []
    if not all(math.isfinite(v) for _, v in scan):
        problems.append("non-finite scan value")
    ratio, peak = min(scan, key=lambda rv: abs(rv[0] - 1.0))
    if abs(ratio - 1.0) > 1e-12 or not peak >= MIN_PEAK_DECADES:
        problems.append(f"value {peak} at ratio {ratio} below {MIN_PEAK_DECADES} decades")
    return problems


def table_designs(cases):
    """Full-precision designs [omega, lambda, 2 alpha, Re n, Im n] of the
    reference table rows; each case is (2 beta / m in nm, n, ell)."""
    import specsing
    medium = specsing.GainMedium(omega0=5.0, omega_p_sq=-0.04, delta=1.25)
    rows = []
    for two_beta, n, ell in cases:
        geom = specsing.WaveguideGeometry(beta=two_beta / 2.0, m=1)
        sols = {s.ell: s for s in specsing.find_singularities(medium, geom, n)}
        s = sols.get(ell)
        rows.append(None if s is None else [
            s.omega, s.lam, 2 * s.alpha, s.refractive_index.real, s.refractive_index.imag])
    return rows


def check_table(rows, ref):
    """(worst relative deviation from the paper's values over the rows found,
    problems) of one table's designs against its reference record."""
    problems = []
    worst = 0.0
    for i, (got, paper, design) in enumerate(zip(rows, ref["paper"], ref["designs"])):
        if got is None:
            problems.append(f"table row {i}: design not found")
            continue
        lam, two_alpha_mm = got[1], got[2] / 1e6
        devs = [abs(g - p) / abs(p) for g, p in
                zip((lam, two_alpha_mm, got[3], got[4]), paper)]
        worst = max(worst, *devs)
        if not close(got, design):
            problems.append(f"table row {i}: {got} differs from reference {design}")
    if len(rows) != len(ref["designs"]):
        problems.append(f"{len(rows)} table rows, reference has {len(ref['designs'])}")
    if not worst <= TABLE_GATE:
        problems.append(f"table deviation {worst:.2e} above {TABLE_GATE}")
    return worst, problems


# -- CLI outputs ------------------------------------------------------------

def parse_output(kind, text):
    """Parse one subcommand's output into plain numbers.

    curve  -> {"rows": [[rho, sigma, alpha_k], ...]}
    design -> {"rows": [[n, ell, omega, lambda, two_alpha, re, im], ...]}
    scan   -> {"design": [...], "rows": [[ratio, value], ...]}
    tables -> {"rows": [[numbers of each line], ...], "worst": float}
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if kind == "curve":
        return {"rows": [[float(x) for x in ln.split(",")[:3]] for ln in lines[1:]]}
    if kind == "design":
        return {"rows": [_design_record(ln) for ln in lines]}
    if kind == "scan":
        design = _design_record(lines[0].split(":", 1)[1])
        rows = [[float(x) for x in ln.split(",")] for ln in lines
                if not ln.startswith("#") and not ln.startswith("omega_ratio")]
        return {"design": design, "rows": rows}
    if kind == "tables":
        worst = float(lines[-1].split(":")[1])
        return {"rows": [[float(x) for x in _NUMBER.findall(ln.split(":", 1)[1])]
                         for ln in lines[:-1]], "worst": worst}
    raise ValueError(f"unknown output kind {kind!r}")


def _design_record(line):
    """Numbers of a design record, without its (program-reported) residual."""
    fields = dict(f.split("=", 1) for f in line.split())
    keys = ("n", "ell", "omega_eV", "lambda_nm", "two_alpha_mm", "sqrt_eps_re", "sqrt_eps_im")
    return [float(fields[k]) for k in keys]


def check_cli_output(kind, parsed, ref):
    """Problems of a parsed CLI output against its reference record."""
    problems = []
    rows = parsed["rows"]
    if kind == "curve":
        if not close([x for r in rows for x in r], [x for r in ref["rows"] for x in r]):
            problems.append("curve differs from reference")
        for rho, sigma, alpha_k in rows:
            res = residual(alpha_k, complex(rho, sigma), 1.0)
            if not res < RESIDUAL_TOL:
                problems.append(f"curve point rho={rho}: residual {res:.2e}")
    elif kind == "design":
        if not close([x for r in rows for x in r], [x for r in ref["rows"] for x in r]):
            problems.append("designs differ from reference")
        if [r[1] for r in rows] != list(range(1, len(rows) + 1)):
            problems.append("ell labels are not contiguous")
    elif kind == "scan":
        if not close(parsed["design"], ref["design"]):
            problems.append("scanned design differs from reference")
        if len(rows) != ref["points"]:
            problems.append(f"{len(rows)} scan rows, expected {ref['points']}")
        else:
            for i, (ratio, value) in zip(ref["index"], ref["rows"]):
                got_ratio, got_value = rows[i]
                far = abs(ratio - 1.0) >= SCAN_PEAK_HALF_WIDTH
                if not close([got_ratio], [ratio]) or (
                        far and not close([got_value], [value], SCAN_RTOL)):
                    problems.append(f"scan row {i} differs from reference")
                    break
            problems += check_scan([tuple(r) for r in rows], ref["points"])
    elif kind == "tables":
        if not close([x for r in rows for x in r], [x for r in ref["rows"] for x in r]):
            problems.append("table lines differ from reference")
        if not parsed["worst"] <= TABLE_GATE:
            problems.append(f"table deviation {parsed['worst']:.2e} above {TABLE_GATE}")
    return problems
