"""Outside-in span tracing of the specsing layers.

The tracer wraps names of the package at run time, at the layer boundaries:

- the package API (functions re-exported by ``specsing/__init__.py``), at
  package level, where the benchmark calls it;
- every binding in one layer module of a public function of another (say
  ``waveguide.m22_residual``, which ``find_singularities`` calls to certify);
- the named bindings of ``NAMED_BINDINGS``: the CLI entry point, the per-rho
  stage ``locus.solve_sigma``, the root polishers bound from scipy and the
  kernel entry points.

Calls inside one module stay unwrapped, so hot helpers add no tracing cost.
Nothing in the package changes; a name that does not exist is skipped and
every metric that needs it is reported as ``None``.

A span is (id, parent id, op id, name, start ns, end ns).  Spans are kept in
compact arrays and written out when the run ends; self time is the span's
duration minus the time its direct child spans cover.
"""

import array
import functools
import importlib
import inspect
import json
import time

from checks import RESIDUAL_TOL

LAYERS = ("cli", "waveguide", "locus", "kernels", "barrier")

# binding -> (function name, layer), wrapped at the module attribute, so that
# calls from inside the module are traced too
NAMED_BINDINGS = {
    "cli.main": ("cli.main", "cli"),
    "locus.solve_sigma": ("locus.solve_sigma", "locus"),
    "locus.brentq": ("locus.polish", "locus"),
    "waveguide.brentq": ("waveguide.polish", "waveguide"),
    "kernels.f_grid": ("kernels.f_grid", "kernels"),
    "kernels.f_scalar": ("kernels.f_scalar", "kernels"),
}

PACKAGE = "specsing"
MAX_SPANS = 1_000_000  # spans kept in memory; a traced loop stops when full
COLUMNS = ("id", "parent", "op", "name", "t0", "t1")
OP_SPAN = "bench.op"
IMPORT_SPAN = "import.specsing"


def _call(fn, *args):
    return fn(*args)


class Tracer:
    """Records nested spans of one thread into arrays of int64."""

    def __init__(self):
        self.names = []
        self.meta = {}  # span name -> (function, layer)
        self._index = {}
        self.cols = {c: array.array("q") for c in COLUMNS}
        self.stack = []
        self.next_id = 1
        self.op = 0
        self.counters = {}
        self._op_span = self.wrap(OP_SPAN, _call, layer="bench")

    @property
    def full(self):
        return len(self.cols["id"]) >= MAX_SPANS

    def intern(self, name, function=None, layer=None):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.meta[name] = (function or name, layer or name.split(".")[0])
        return self._index[name]

    def wrap(self, name, fn, function=None, layer=None, observe=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        idx = self.intern(name, function, layer)
        stack = self.stack
        clock = time.perf_counter_ns
        add = [self.cols[c].append for c in COLUMNS]
        add_id, add_parent, add_op, add_name, add_t0, add_t1 = add

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                add_id(sid)
                add_parent(parent)
                add_op(self.op)
                add_name(idx)
                add_t0(t0)
                add_t1(t1)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def run_op(self, fn, *args):
        """Run one benchmark op as a root span and return its result."""
        self.op += 1
        return self._op_span(fn, *args)

    def write(self, path):
        """Write the spans: a JSON header line, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": list(COLUMNS), "names": self.names,
                                 "meta": self.meta}) + "\n")
            for row in zip(*(self.cols[c] for c in COLUMNS)):
                fh.write(json.dumps(row) + "\n")


# -- observers ----------------------------------------------------------------

def _bump(counters, key, amount=1):
    counters[key] = counters.get(key, 0) + amount


def _grid_points(fn, counters):
    params = inspect.signature(fn).parameters
    if "grid_points" not in params:
        return None
    pos = list(params).index("grid_points")
    default = params["grid_points"].default
    counters["waveguide.grid_points"] = 0

    def observe(counters, args, kwargs, result):
        points = kwargs.get("grid_points", args[pos] if len(args) > pos else default)
        _bump(counters, "waveguide.grid_points", int(points))
    return observe


def _result_length(key):
    def make(fn, counters):
        counters[key] = 0

        def observe(counters, args, kwargs, result):
            _bump(counters, key, len(result))
        return observe
    return make


def _certify(prefix):
    def make(fn, counters):
        counters[prefix + ".accepted"] = 0
        counters[prefix + ".worst_accepted_residual"] = 0.0

        def observe(counters, args, kwargs, result):
            if result < RESIDUAL_TOL:
                _bump(counters, prefix + ".accepted")
                worst = prefix + ".worst_accepted_residual"
                counters[worst] = max(counters[worst], float(result))
        return observe
    return make


# Counters taken at the same boundaries as the spans.  A factory gets the
# wrapped function and the counters; it returns the observer, or None when
# the function no longer has what it observes (its counters then stay
# absent and the metrics built on them read None).
# function -> factory, for every binding of that function
OBSERVERS = {
    "waveguide.find_singularities": _grid_points,
    "kernels.f_grid": _result_length("kernels.f_grid.points"),
    "waveguide.gain_scan": _result_length("waveguide.gain_scan.points"),
}
# binding -> factory, for that binding only
BINDING_OBSERVERS = {
    "locus.m22_residual": _certify("locus.certify"),
    "waveguide.m22_residual": _certify("waveguide.certify"),
}


def install(tracer):
    """Wrap the package's layer boundaries; return an undo callable.

    Names are resolved now, at run time: a module or binding that does not
    exist is skipped, never an error.
    """
    pkg = importlib.import_module(PACKAGE)
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
    origin_layer = {mod.__name__: layer for layer, mod in modules.items()}

    def public(attr, value):
        return (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ in origin_layer)

    targets = []  # (module, attribute, binding, function, layer)
    for attr, value in vars(pkg).items():
        if public(attr, value):
            owner = origin_layer[value.__module__]
            targets.append((pkg, attr, f"{PACKAGE}.{attr}", f"{owner}.{value.__name__}", owner))
    for layer, mod in modules.items():
        for attr, value in vars(mod).items():
            binding = f"{layer}.{attr}"
            if binding in NAMED_BINDINGS and callable(value):
                targets.append((mod, attr, binding, *NAMED_BINDINGS[binding]))
            elif public(attr, value) and origin_layer[value.__module__] != layer:
                owner = origin_layer[value.__module__]
                targets.append((mod, attr, binding, f"{owner}.{value.__name__}", owner))
    undo = []
    for mod, attr, binding, function, owner in targets:
        value = getattr(mod, attr)
        make = BINDING_OBSERVERS.get(binding) or OBSERVERS.get(function)
        observe = make(value, tracer.counters) if make else None
        setattr(mod, attr, tracer.wrap(binding, value, function, owner, observe))
        undo.append((mod, attr, value))

    def uninstall():
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)
    return uninstall


# -- aggregation ------------------------------------------------------------

def self_times(ids, parents, t0s, t1s):
    """Self ns of each span: its duration minus the time its direct children
    cover.  Span ids are positive integers; parent 0 means no parent."""
    covered = array.array("q", bytes(8 * (max(ids, default=0) + 1)))
    for parent, t0, t1 in zip(parents, t0s, t1s):
        covered[parent] += t1 - t0
    return [t1 - t0 - covered[i] for i, t0, t1 in zip(ids, t0s, t1s)]


def profile(tracer):
    """Mergeable summary of a trace: per span name [calls, total ns, self ns],
    the observers' counters, and root-finder evaluations per polish span.

    Every binding that was wrapped has an entry, so a name that is absent
    from ``stats`` was not found in the package."""
    c = tracer.cols
    selfs = self_times(c["id"], c["parent"], c["t0"], c["t1"])
    stats = {name: [0, 0, 0] for name in tracer.names}
    name_of = array.array("q", bytes(8 * tracer.next_id))
    for sid, idx in zip(c["id"], c["name"]):
        name_of[sid] = idx
    polish = {tracer._index[b]: fn for b, (fn, _) in NAMED_BINDINGS.items()
              if fn.endswith(".polish") and b in tracer._index}
    f_scalar = tracer._index.get("kernels.f_scalar")
    counters = dict(tracer.counters)
    if f_scalar is not None:
        for owner in polish.values():
            counters[owner + ".f_evals"] = 0
    ops = set()
    for idx, parent, op, t0, t1, own in zip(c["name"], c["parent"], c["op"],
                                             c["t0"], c["t1"], selfs):
        st = stats[tracer.names[idx]]
        st[0] += 1
        st[1] += t1 - t0
        st[2] += own
        ops.add(op)
        if idx == f_scalar and name_of[parent] in polish:
            _bump(counters, polish[name_of[parent]] + ".f_evals")
    ops.discard(0)
    return {"ops": len(ops), "spans": len(selfs), "stats": stats,
            "meta": tracer.meta, "counters": counters}


def merge(profiles):
    """Sum profiles of separate processes (worst residuals take the max)."""
    out = {"ops": 0, "spans": 0, "stats": {}, "meta": {}, "counters": {}}
    for p in profiles:
        out["ops"] += p["ops"]
        out["spans"] += p["spans"]
        out["meta"].update(p["meta"])
        for name, st in p["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += st[i]
        for key, value in p["counters"].items():
            if key.endswith("worst_accepted_residual"):
                out["counters"][key] = max(out["counters"].get(key, 0.0), value)
            else:
                out["counters"][key] = out["counters"].get(key, 0) + value
    return out


# -- per-layer metrics ------------------------------------------------------

SHARE_LAYERS = ("import", "cli", "waveguide", "locus", "kernels", "barrier", "bench")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(prof):
    """Per-layer metrics of a profile.  Counts and times are per traced op, so
    they do not depend on how many ops fit into the run.  A metric that needs
    a function, binding or counter not found in the package is ``None``; one
    whose function exists but was not called reads 0."""
    ops = prof["ops"]
    stats, meta, counters = prof["stats"], prof["meta"], prof["counters"]

    def function(name):
        found = [stats[s] for s, (fn, _) in meta.items() if fn == name and s in stats]
        if not found:
            return None
        return [sum(st[i] for st in found) for i in range(3)]

    op_ns = (function(OP_SPAN) or [0, 0, 0])[1]
    out = {}

    def put(name, value, *needs):
        out[name] = None if any(n is None for n in needs) else value(*needs)

    def per_op(x):
        return _ratio(x, ops)

    fs = function("waveguide.find_singularities")
    points = counters.get("waveguide.grid_points")
    put("waveguide.find_singularities.calls", lambda st: per_op(st[0]), fs)
    put("waveguide.find_singularities.self_ms", lambda st: per_op(st[2] / 1e6), fs)
    put("waveguide.find_singularities.self_share", lambda st: _ratio(st[2], op_ns), fs)
    put("waveguide.grid_points", per_op, points)
    put("waveguide.ns_per_grid_point", lambda st, p: _ratio(st[2], p), fs, points)

    gs = function("waveguide.gain_scan")
    put("waveguide.gain_scan.self_ms", lambda st: per_op(st[2] / 1e6), gs)
    put("waveguide.gain_scan.us_per_point", lambda st, p: _ratio(st[1] / 1e3, p),
        gs, counters.get("waveguide.gain_scan.points"))

    ss = function("locus.solve_sigma")
    put("locus.solve_sigma.calls", lambda st: per_op(st[0]), ss)
    put("locus.solve_sigma.self_ms", lambda st: per_op(st[2] / 1e6), ss)

    fg = function("kernels.f_grid")
    grid = counters.get("kernels.f_grid.points")
    put("kernels.f_grid.calls", lambda st: per_op(st[0]), fg)
    put("kernels.f_grid.points", per_op, grid)
    put("kernels.f_grid.ns_per_point", lambda st, p: _ratio(st[1], p), fg, grid)
    put("kernels.f_grid.share", lambda st: _ratio(st[1], op_ns), fg)

    fsc = function("kernels.f_scalar")
    put("kernels.f_scalar.calls", lambda st: per_op(st[0]), fsc)
    put("kernels.f_scalar.ms", lambda st: per_op(st[1] / 1e6), fsc)

    for layer in ("locus", "waveguide"):
        pol = stats.get(f"{layer}.brentq")
        put(f"{layer}.polish.calls", lambda st: per_op(st[0]), pol)
        put(f"{layer}.polish.ms", lambda st: per_op(st[1] / 1e6), pol)
        put(f"{layer}.polish.f_evals_per_root", lambda st, e: _ratio(e, st[0]),
            pol, counters.get(f"{layer}.polish.f_evals"))
        cert = stats.get(f"{layer}.m22_residual")
        put(f"{layer}.certify.calls", lambda st: per_op(st[0]), cert)
        put(f"{layer}.certify.ms", lambda st: per_op(st[1] / 1e6), cert)
        put(f"{layer}.certify.accept_ratio", lambda st, a: _ratio(a, st[0]),
            cert, counters.get(f"{layer}.certify.accepted"))
        put(f"{layer}.certify.worst_accepted_residual", lambda w: w,
            counters.get(f"{layer}.certify.worst_accepted_residual"))

    for name in ("transfer_matrix", "m22_residual"):
        st = function(f"barrier.{name}")
        put(f"barrier.{name}.calls", lambda st: per_op(st[0]), st)
        put(f"barrier.{name}.us_per_call", lambda st: _ratio(st[1] / 1e3, st[0]), st)
    put("barrier.transfer_matrix.share", lambda st: _ratio(st[1], op_ns),
        function("barrier.transfer_matrix"))

    for layer in SHARE_LAYERS:
        spans = [stats[s] for s, (_, lay) in meta.items() if lay == layer and s in stats]
        out[f"layer.{layer}.self_share"] = (
            _ratio(sum(st[2] for st in spans), op_ns) if spans else None)
    out["trace.spans"] = per_op(prof["spans"])
    return out
