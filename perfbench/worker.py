"""One fresh interpreter of the benchmark: set up a workload, then run it.

Prints ``READY`` once specsing is imported and the inputs are built (the
parent times set-up up to that line), then the reference-table checks and,
for an in-process workload, the timed loop; the last stdout line is a JSON
report.  With ``--setup-only`` it exits right after ``READY``.

Usage: python perfbench/worker.py --workload NAME --seed N --seconds S
           --trace 0|1 --out DIR [--setup-only]
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")


def setup(workload, seed):
    import specsing  # noqa: F401  (part of the set-up being timed)
    import workloads
    if workload == "cli_session":
        return [workloads.cli_order(seed, c) for c in range(64)]
    return workloads.IN_PROCESS[workload](seed)


def table_checks():
    """Designs of the Table 1 and 2 rows against the reference outputs and
    the paper: (worst deviation from the paper, failed tables, problems,
    tables checked)."""
    import checks
    with open(os.path.join(REFERENCE, "tables.json")) as fh:
        ref = json.load(fh)
    worst, failed, problems = 0.0, 0, []
    for which in sorted(ref):
        try:
            dev, probs = checks.check_table(checks.table_designs(ref[which]["cases"]),
                                            ref[which])
        except Exception as exc:  # a check that raises is a failed check
            dev, probs = 0.0, [f"{type(exc).__name__}: {exc}"]
        worst = max(worst, dev)
        failed += bool(probs)
        problems += [f"table {which}: {p}" for p in probs]
    return worst, failed, problems, len(ref)


def run_loop(wl, seconds, start, tracer=None):
    """Closed loop, one client: ops back to back until ``seconds`` elapse
    (or the tracer's span buffer is full).  Returns per-op ns, per-op
    results, failed ops and problem notes.  Checks run between ops, off the
    clock."""
    run_op = tracer.run_op if tracer else None
    durations, results, failed, notes = [], [], 0, []
    clock = time.perf_counter_ns
    t_end = clock() + int(seconds * 1e9)
    i = start
    while clock() < t_end:
        t0 = clock()
        try:
            out = run_op(wl.op, i) if run_op else wl.op(i)
        except Exception as exc:  # an op that raises is a failed op
            durations.append(clock() - t0)
            results.append(0)
            failed += 1
            notes.append(f"op {i}: {type(exc).__name__}: {exc}")
            i += 1
            continue
        durations.append(clock() - t0)
        count, problems = wl.check(i, out)
        results.append(count)
        if problems:
            failed += 1
            notes.append(f"op {i}: " + "; ".join(problems[:3]))
        i += 1
        if tracer and tracer.full:
            break
    return durations, results, failed, notes


def environment():
    from importlib import metadata
    env = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy"):
        try:
            env[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            env[dist] = None
    try:
        from specsing import kernels
        env["backend"] = getattr(kernels, "BACKEND", None)
    except ImportError:
        pass
    return env


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    wl = setup(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    worst, failed, problems, attempted = table_checks()
    report = {"table_max_rel_dev": worst, "attempted": attempted, "failed": failed,
              "notes": problems}
    if args.workload != "cli_session":
        for problems in getattr(wl, "setup_checks", []):
            report["attempted"] += 1
            report["failed"] += bool(problems)
            report["notes"] += problems
        run = args.seconds / 2 if args.trace else args.seconds
        durations, results, failed, notes = run_loop(wl, run, 0)
        report.update(durations_ns=durations, results=results)
        report["attempted"] += len(durations)
        report["failed"] += failed
        report["notes"] += notes
        if args.trace:
            tr = traced(wl, run, len(durations), args)
            report.update(profile=tr["profile"], traced_durations_ns=tr["durations"])
            report["attempted"] += len(tr["durations"])
            report["failed"] += tr["failed"]
            report["notes"] += tr["notes"]
        if hasattr(wl, "probe"):
            report["known_defects_failing"] = wl.probe()
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["environment"] = environment()
    print(json.dumps(report))
    return 0


def traced(wl, seconds, start, args):
    """Second half of a traced run: the same loop with the tracer installed."""
    import tracing
    tracer = tracing.Tracer()
    tracer.intern(tracing.IMPORT_SPAN, layer="import")
    uninstall = tracing.install(tracer)
    try:
        durations, _, failed, notes = run_loop(wl, seconds, start, tracer)
    finally:
        uninstall()
    prof = tracing.profile(tracer)
    tracer.write(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return {"profile": prof, "durations": durations, "failed": failed, "notes": notes}


if __name__ == "__main__":
    sys.exit(main())
