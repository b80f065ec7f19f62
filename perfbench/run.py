"""specsing benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_session, design_sweep, curve_trace, gain_scan (see
perfbench/README.md).  The program is run from ``src/`` of the checkout.
With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics; the line before it
is the environment.  Everything else (spans, per-op samples, CLI outputs)
goes to ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib-only module; specsing is imported lazily)

SETUP_SAMPLES = 5       # set-up timings per run (4 probes and the main worker)
IMPORT_ROUNDS = 3       # fresh-interpreter rounds per import increment
CHILD_TIMEOUT = 150     # seconds before a child process is killed


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program being wrong)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _watchdog(proc):
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def run_worker(workload, seed, seconds, trace, setup_only=False):
    """Start a worker; return (seconds until READY, final stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=child_env(), text=True)
    timer = _watchdog(proc)
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return t_ready, (json.loads(lines[-1]) if lines else None)


def run_cli(name, sub, args, cwd, traced=False):
    """One fresh-interpreter CLI call; returns (exit code, ns, maxrss kB, stdout)."""
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "clirun.py"),
               os.path.join(cwd, f"profile-{name}.json"), sub, *args]
    else:
        cmd = [sys.executable, "-m", "specsing.cli", sub, *args]
    out_path = os.path.join(cwd, f"{name}.stdout")
    with open(out_path, "w") as out, open(os.path.join(cwd, f"{name}.stderr"), "w") as err:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = _watchdog(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter_ns() - t0
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        return proc.returncode, elapsed, usage.ru_maxrss, fh.read()


def import_increments():
    """Import cost as increments between fresh interpreters (medians)."""
    probes = {
        "interpreter": "pass",
        "numpy": "import numpy",
        "scipy_optimize": "import numpy, scipy.optimize",
        "specsing": "import specsing, sys; print(int('scipy.optimize' in sys.modules))",
    }
    times = {k: [] for k in probes}
    loaded = None
    for _ in range(IMPORT_ROUNDS):
        for key, code in probes.items():
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            dt = time.perf_counter() - t0
            if proc.returncode == 0:
                times[key].append(dt)
                if key == "specsing":
                    loaded = int(proc.stdout.strip())
    med = {k: statistics.median(v) if v else None for k, v in times.items()}

    def diff(a, b):
        return None if med[a] is None or med[b] is None else med[a] - med[b]
    return {
        "import.interpreter_s": med["interpreter"],
        "import.numpy_s": diff("numpy", "interpreter"),
        "import.scipy_optimize_s": diff("scipy_optimize", "numpy"),
        "import.specsing_s": diff("specsing", "numpy"),
        "import.scipy_loaded": loaded,
    }


def tail(durations_ns, percentile):
    """The smallest sample with at most (100 - percentile)% of the samples
    above it, in ms, and the number of samples above it."""
    ordered = sorted(durations_ns)
    rank = min(len(ordered), len(ordered) * percentile // 100 + 1)
    return ordered[rank - 1] / 1e6, len(ordered) - rank


def op_metrics(durations_ns, results, inputs, percentile):
    """End-to-end op metrics of a run in which every input ran several times
    (op i ran input ``inputs[i]``).  Each input's faster half of its repeats
    is dropped, because the host's bursts of faster running come and go
    within a run (see README, *Noise and bounds*); the rates count each
    input with the median of its slower half, ``op_p50_ms`` and
    ``op_tail_ms`` are percentiles of the slower halves pooled."""
    reps = {}
    for ns, res, key in zip(durations_ns, results, inputs):
        reps.setdefault(key, []).append((ns, res))
    slower = [sorted(r)[len(r) // 2:] for r in reps.values()]
    typical = [statistics.median_low(r) for r in slower]
    busy = sum(ns for ns, _ in typical) / 1e9
    pool = [ns for r in slower for ns, _ in r]
    tail_ms, beyond = tail(pool, percentile)
    return {
        "ops_per_s": len(typical) / busy,
        "op_p50_ms": statistics.median(pool) / 1e6,
        "op_tail_ms": tail_ms,
        "results_per_s": sum(res for _, res in typical) / busy,
    }, {"inputs": len(typical), "repeats": min(len(r) for r in reps.values()),
        "samples": len(pool), "beyond": beyond}


# -- workloads --------------------------------------------------------------

def cli_cycles(seed, seconds, start_cycle, cwd, traced, refs):
    """Seeded cycles of the CLI mix until ``seconds`` have elapsed."""
    import checks
    ops = []
    t_end = time.perf_counter() + seconds
    cycle = start_cycle
    while time.perf_counter() < t_end:
        for idx in workloads.cli_order(seed, cycle):
            if time.perf_counter() >= t_end:
                break
            name, sub, args, out_file = workloads.CLI_MIX[idx]
            if out_file:
                _remove(os.path.join(cwd, out_file))
            code, ns, rss, stdout = run_cli(name, sub, args, cwd, traced)
            problems = [] if code == 0 else [f"{name}: exit {code}, expected 0"]
            results = 0
            if not problems:
                try:
                    text = stdout
                    if out_file:
                        with open(os.path.join(cwd, out_file)) as fh:
                            text = fh.read()
                    parsed = checks.parse_output(sub, text)
                    results = len(parsed["rows"])
                    problems = [f"{name}: {p}" for p in
                                checks.check_cli_output(sub, parsed, refs[name])]
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"{name}: unreadable output ({exc})"]
            ops.append({"name": name, "sub": sub, "ns": ns, "rss_kb": rss,
                        "results": results, "problems": problems})
        cycle += 1
    return ops, cycle


def _remove(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def run_cli_session(seed, seconds, trace):
    """The CLI loop, reported in the shape of an in-process worker's report."""
    cwd = os.path.join(OUT, "cli")
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    with open(os.path.join(HERE, "reference", "cli.json")) as fh:
        refs = json.load(fh)
    run = seconds / 2 if trace else seconds
    ops, cycle = cli_cycles(seed, run, 0, cwd, False, refs)
    name, sub, args = workloads.CLI_PROBE
    code, probe_ns, _, _ = run_cli(name, sub, args, cwd)
    traced_ops = cli_cycles(seed, run, cycle, cwd, True, refs)[0] if trace else []
    by_sub = {"transfer": [probe_ns / 1e6]}
    for op in ops:
        by_sub.setdefault(op["sub"], []).append(op["ns"] / 1e6)
    report = {
        "durations_ns": [op["ns"] for op in ops],
        "results": [op["results"] for op in ops],
        "peak_rss_kb": max(op["rss_kb"] for op in ops),
        "traced_durations_ns": [op["ns"] for op in traced_ops],
        "attempted": len(ops) + len(traced_ops),
        "failed": sum(bool(op["problems"]) for op in ops + traced_ops),
        "notes": [p for op in ops + traced_ops for p in op["problems"]],
        "known_defects_failing": int(code != 0),
        "cli_ms": {s: statistics.median(v) for s, v in by_sub.items()},
        "probe": {"name": name, "exit": code, "ms": probe_ns / 1e6},
        "ops": ops,
    }
    if trace:
        import tracing
        profiles = []
        for op in traced_ops:
            with open(os.path.join(cwd, f"profile-{op['name']}.json")) as fh:
                profiles.append(json.load(fh))
        report["profile"] = tracing.merge(profiles)
    return report


def measure(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    # the first worker warms up (byte-compiles, fills the file cache) untimed
    setups = [run_worker(workload, seed, seconds, trace, setup_only=True)[0]
              for _ in range(SETUP_SAMPLES)][1:]
    t_ready, report = run_worker(workload, seed, seconds, trace)
    setups.append(t_ready)
    if workload == "cli_session":
        # the worker did the table checks; the ops run from here
        cli = run_cli_session(seed, seconds, trace)
        for key in ("attempted", "failed", "notes"):
            cli[key] += report[key]
        report.update(cli)
        inputs = [op["name"] for op in report["ops"]]
    else:  # the worker cycles through its deck
        inputs = [i % workloads.DECK_SIZE[workload] for i in range(len(report["durations_ns"]))]
    durations = report["durations_ns"]
    pct = workloads.TAIL_PERCENTILE[workload]
    e2e, tail_info = op_metrics(durations, report["results"], inputs, pct)
    e2e.update(setup_s=statistics.median(setups), peak_rss_mb=report["peak_rss_kb"] / 1024,
               table_max_rel_dev=report["table_max_rel_dev"])
    layer = {"check.known_defects_failing": report.get("known_defects_failing", 0)}
    for sub in ("transfer", "curve", "design", "scan", "tables"):
        layer[f"cli.{sub}_ms"] = report.get("cli_ms", {}).get(sub, 0.0)
    if trace:
        import tracing
        traced = report["traced_durations_ns"]
        layer.update(tracing.layer_metrics(report["profile"]))
        layer.update(import_increments())
        layer["trace.overhead_ratio"] = (
            (len(traced) / sum(traced)) / (len(durations) / sum(durations)))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": report["attempted"], "failed": report["failed"],
        "failed_ratio": report["failed"] / report["attempted"],
        "tail": {"percentile": pct, **tail_info},
        "setup_samples_s": setups, "end_to_end": e2e, "per_layer": layer,
        "notes": report["notes"][:50], "environment": report["environment"],
        "durations_ns": durations, **{k: report[k] for k in ("probe", "ops") if k in report},
    }


# -- output -----------------------------------------------------------------

def environment(worker_env, seed):
    env = dict(worker_env)
    env["nproc"] = os.cpu_count()
    env["cpu"] = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), env["cpu"])
    except OSError:  # not Linux
        pass
    env["commit"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            env["commit"] = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):  # no git on this machine
            pass
    env["seed"] = seed
    return env


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(SRC, "specsing", "__init__.py")):
            raise BenchError(f"no program to benchmark: {SRC}/specsing is missing")
        summary = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = summary["per_layer"] if args.trace else summary["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed}
    summary["environment"] = environment(summary["environment"], args.seed)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, m in metrics.items():
        v = m["value"]
        print(f"  {name:48s} {'null' if v is None else format(v, '.6g'):>14s} {m['unit']}")
    t = summary["tail"]
    print(f"  {t['inputs']} inputs, each run {t['repeats']}+ times; op_tail_ms is "
          f"p{t['percentile']} of their slower halves ({t['samples']} ops, "
          f"{t['beyond']} beyond it)")
    print(f"  failed_ratio {summary['failed']}/{summary['attempted']} "
          f"= {summary['failed_ratio']:.4g}")
    known = summary["per_layer"]["check.known_defects_failing"]
    if known:
        print(f"  known defects still failing (not counted above): {known}")
    for note in summary["notes"][:10]:
        print(f"  FAILED {note}")
    print(json.dumps({"environment": summary["environment"]}))
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
