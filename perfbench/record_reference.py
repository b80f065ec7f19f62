"""Record the reference outputs the benchmark compares against.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_reference.py

It rewrites perfbench/reference/tables.json (full-precision designs of the
Table 1 and 2 rows, and the paper's values) and perfbench/reference/cli.json
(parsed outputs of the fixed-input CLI commands).  Re-record only when an
output is meant to change, and say why in the change that does it.
"""

import json
import os
import shutil
import sys

import run  # puts src/ on the children's path and this directory on ours

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import workloads  # noqa: E402

SCAN_REFERENCE_ROWS = 1000


def tables():
    from specsing import cli
    out = {}
    table1 = [(tb, 10000, ell, lam, ta, se) for _, tb, rows in cli.TABLE1
              for ell, lam, ta, se in rows]
    table2 = [(1e7, n, ell, lam, ta, se) for ell, rows in cli.TABLE2
              for n, lam, ta, se in rows]
    for which, rows in (("1", table1), ("2", table2)):
        cases = [[tb, n, ell] for tb, n, ell, *_ in rows]
        out[which] = {
            "cases": cases,
            "paper": [[lam, ta, se.real, se.imag] for *_, lam, ta, se in rows],
            "designs": checks.table_designs(cases),
        }
    return out


def cli_outputs():
    cwd = os.path.join(run.OUT, "reference")
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    out = {}
    for name, sub, args, out_file in workloads.CLI_MIX:
        code, _, _, stdout = run.run_cli(name, sub, args, cwd)
        if code != 0:
            raise SystemExit(f"{name} exited {code}; not recording a reference")
        if out_file:
            with open(os.path.join(cwd, out_file)) as fh:
                stdout = fh.read()
        parsed = checks.parse_output(sub, stdout)
        if sub == "scan":
            rows = parsed["rows"]
            step = max(1, len(rows) // SCAN_REFERENCE_ROWS)
            index = list(range(0, len(rows), step))
            parsed = {"design": parsed["design"], "points": len(rows),
                      "index": index, "rows": [rows[i] for i in index]}
        out[name] = parsed
    return out


def main():
    ref_dir = os.path.join(run.HERE, "reference")
    os.makedirs(ref_dir, exist_ok=True)
    for name, data in (("tables.json", tables()), ("cli.json", cli_outputs())):
        with open(os.path.join(ref_dir, name), "w") as fh:
            json.dump(data, fh, indent=None, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main()
