"""Per-layer tracing of ``secnet`` from outside the library.

``Tracer.install`` replaces public functions of each ``secnet`` module with
wrappers, in every ``secnet`` module namespace that bound the function, and
``DelayTransform.__call__`` on its class.  Coarse calls record a span (name,
start, end, parent span, op id, attributes); hot leaf calls, made hundreds of
thousands of times per op, only add to a count and a timer, and their time is
charged to the enclosing span so self times stay right.  A name a later
version removes or renames is reported absent with a warning, and the
metrics that need it are left out.
"""

import importlib
import json
import sys
import warnings
from contextlib import contextmanager
from time import perf_counter

SPAN, HOT = "span", "hot"


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _npoints(t):
    try:
        return len(t)
    except TypeError:
        return 1


def _eq_result(args, kwargs, result):
    return {"method": getattr(result, "method", None),
            "iterations": getattr(result, "iterations", 0)}


def _eq_error(args, kwargs, exc):
    return {"infeasible": type(exc).__name__ == "InfeasibleError"}


def _rate_result(args, kwargs, result):
    return {"method": getattr(result, "method", None)}


def _cdf_call(args, kwargs):
    return {"points": _npoints(_arg(args, kwargs, 1, "t_grid"))}


def _inversion_call(args, kwargs):
    return {"points": _npoints(_arg(args, kwargs, 1, "t"))}


def _queue_call(args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"sessions": cfg.horizon_sessions}


def _queue_result(args, kwargs, result):
    return {"warnings": len(result.warnings)}


def _queue_error(args, kwargs, exc):
    return {"failed": True}


def _spatial_call(users_interior):
    """Attributes of a spatial call: replications, and the user-BS pairs per
    replication computed from the config's densities and window (users
    restricted to the guard-free interior when ``users_interior``)."""

    def call(args, kwargs):
        cfg = _arg(args, kwargs, 0, "cfg")
        area = cfg.window_side**2
        users = cfg.user_density * area
        if users_interior:
            users *= (1.0 - 2.0 * cfg.guard_fraction) ** 2
        return {"replications": cfg.replications,
                "links": users * cfg.bs_density * area * cfg.replications}

    return call


def _voronoi_call(args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"replications": cfg.replications, "links": 0.0}


# (traced name, defining module, attribute, kind, on_call, on_result, on_error)
WRAPS = [
    ("equilibrium.solve", "secnet.equilibrium", "solve_equilibrium", SPAN,
     None, _eq_result, _eq_error),
    ("geometry.access_probability", "secnet.geometry", "access_probability", HOT,
     None, None, None),
    ("geometry.coverage_probability", "secnet.geometry", "coverage_probability", HOT,
     None, None, None),
    ("capacity.min_delay_over_rate", "secnet.capacity", "min_delay_over_rate", SPAN,
     None, None, None),
    ("capacity.optimal_rate_fixed_band", "secnet.capacity", "optimal_rate_fixed_band",
     SPAN, None, _rate_result, None),
    ("capacity.capacity_limit_derivative", "secnet.capacity",
     "capacity_limit_derivative", HOT, None, None, None),
    ("queueing.mean_delay", "secnet.queueing", "mean_delay", HOT, None, None, None),
    ("queueing.delay_transform", "secnet.queueing", "delay_transform", SPAN,
     None, None, None),
    ("queueing.transform", "secnet.queueing", "DelayTransform.__call__", HOT,
     None, None, None),
    ("queueing.busy_root", "secnet.queueing", "busy_root", HOT, None, None, None),
    ("queueing.delay_cdf", "secnet.queueing", "delay_cdf", SPAN, _cdf_call, None, None),
    ("laplace.euler_inversion", "secnet.laplace", "euler_inversion", SPAN,
     _inversion_call, None, None),
    ("laplace.talbot_inversion", "secnet.laplace", "talbot_inversion", SPAN,
     _inversion_call, None, None),
    ("spatial.coverage", "secnet.simulate.spatial", "spatial_coverage", SPAN,
     _spatial_call(True), None, None),
    ("spatial.user_count_pmf", "secnet.simulate.spatial", "empirical_user_count_pmf",
     SPAN, _spatial_call(False), None, None),
    ("spatial.voronoi", "secnet.simulate.spatial", "sample_voronoi_cells", SPAN,
     _voronoi_call, None, None),
    ("queue_sim.run", "secnet.simulate.queue_sim", "run_priority_queue", SPAN,
     _queue_call, _queue_result, _queue_error),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "hidden")

    def __init__(self, name, start, parent, op, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = attrs
        self.hidden = 0.0  # time of hot calls made directly inside this span

    def to_json(self, index):
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **(self.attrs or {})}


class Tracer:
    """Collects spans and hot-call counters while installed."""

    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.spans = []
        self.stack = []
        self.op_id = None
        self.hot_depth = 0
        self.counts = {w[0]: 0 for w in wraps}
        self.timers = {w[0]: 0.0 for w in wraps}
        self.absent = []
        self._restore = []

    # ------------------------------------------------------------ install

    def install(self):
        for name, module, attr, kind, on_call, on_result, on_error in self.wraps:
            try:
                owner = importlib.import_module(module)
                holder_name, _, fn_name = attr.rpartition(".")
                holder = getattr(owner, holder_name) if holder_name else owner
                original = getattr(holder, fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                warnings.warn(f"trace: {module}.{attr} not found; "
                              f"metrics of {name} reported absent", stacklevel=2)
                continue
            if kind == SPAN:
                wrapper = self._span_wrapper(name, original, on_call, on_result, on_error)
            else:
                wrapper = self._hot_wrapper(name, original)
            if holder_name:
                self._patch(holder, fn_name, original, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if (mod_name == "secnet" or mod_name.startswith("secnet.")) and \
                            mod.__dict__.get(fn_name) is original:
                        self._patch(mod, fn_name, original, wrapper)

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._restore.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore = []

    # ----------------------------------------------------------- wrappers

    def _open(self, name, attrs):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.op_id, attrs))
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name, fn, on_call, on_result, on_error):
        def wrapper(*args, **kwargs):
            span = self._open(name, on_call(args, kwargs) if on_call else {})
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    span.attrs.update(on_error(args, kwargs, exc))
                raise
            finally:
                self._close(span)
                self.counts[name] += 1
                self.timers[name] += span.end - span.start
            if on_result:
                span.attrs.update(on_result(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.hot_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.hot_depth -= 1
                self.counts[name] += 1
                self.timers[name] += dt
                if self.hot_depth == 0 and self.stack:
                    self.spans[self.stack[-1]].hidden += dt

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def op(self, op_id, kind):
        """Span of one benchmark op; its children are the layer calls."""
        self.op_id = op_id
        span = self._open("op", {"kind": kind})
        try:
            yield span
        finally:
            self._close(span)
            self.op_id = None

    # ------------------------------------------------------------ output

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_json(i)) + "\n")

    def metrics(self, cli_ops):
        """Per-layer metrics ``{name: (value, unit)}``, leaving out those
        whose traced names are absent.  ``cli_ops`` is True when the ops are
        CLI invocations."""
        spans = self.spans
        children = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                children.setdefault(s.parent, []).append(i)

        def dur(s):
            return s.end - s.start

        def of(name):
            return [s for s in spans if s.name == name]

        def self_time(i):
            s = spans[i]
            return dur(s) - sum(dur(spans[c]) for c in children.get(i, ())) - s.hidden

        def share(num, den):
            return num / den if den else 0.0

        def under(index, name):
            """Spans called ``name`` nested anywhere below span ``index``."""
            out, todo = 0, list(children.get(index, ()))
            while todo:
                c = todo.pop()
                out += spans[c].name == name
                todo.extend(children.get(c, ()))
            return out

        c, t = self.counts, self.timers
        solves = of("equilibrium.solve")
        solved = [s for s in solves if "method" in s.attrs]
        rates = of("capacity.optimal_rate_fixed_band")
        cdfs = of("queueing.delay_cdf")
        runs = of("queue_sim.run")
        spatial = [s for s in spans if s.name.startswith("spatial.")]
        link_time = t.get("spatial.coverage", 0.0) + t.get("spatial.user_count_pmf", 0.0)
        min_delay = [i for i, s in enumerate(spans) if s.name == "capacity.min_delay_over_rate"]
        euler = [i for i, s in enumerate(spans) if s.name.startswith("laplace.")]
        op_spans = [i for i, s in enumerate(spans) if s.name == "op"]

        table = [
            ("cli.self_s", "s", [], lambda: (
                sum(self_time(i) for i in op_spans) if cli_ops else 0.0)),
            ("equilibrium.solves", "count", ["equilibrium.solve"], lambda: len(solves)),
            ("equilibrium.busy_s", "s", ["equilibrium.solve"],
             lambda: t["equilibrium.solve"]),
            ("equilibrium.iterations_per_solve", "count", ["equilibrium.solve"],
             lambda: share(sum(s.attrs["iterations"] for s in solved), len(solved))),
            ("equilibrium.bisection_share", "ratio", ["equilibrium.solve"],
             lambda: share(sum(s.attrs["method"] == "bisection" for s in solved),
                           len(solved))),
            ("equilibrium.infeasible_share", "ratio", ["equilibrium.solve"],
             lambda: share(sum(bool(s.attrs.get("infeasible")) for s in solves),
                           len(solves))),
            ("geometry.access_probability.calls", "count",
             ["geometry.access_probability"], lambda: c["geometry.access_probability"]),
            ("geometry.coverage_probability.calls", "count",
             ["geometry.coverage_probability"],
             lambda: c["geometry.coverage_probability"]),
            ("capacity.min_delay_over_rate.calls", "count",
             ["capacity.min_delay_over_rate"], lambda: c["capacity.min_delay_over_rate"]),
            ("capacity.min_delay_over_rate.busy_s", "s",
             ["capacity.min_delay_over_rate"], lambda: t["capacity.min_delay_over_rate"]),
            ("capacity.solves_per_min_delay", "count",
             ["capacity.min_delay_over_rate", "equilibrium.solve"],
             lambda: share(sum(under(i, "equilibrium.solve") for i in min_delay),
                           len(min_delay))),
            ("capacity.optimal_rate_fixed_band.calls", "count",
             ["capacity.optimal_rate_fixed_band"],
             lambda: c["capacity.optimal_rate_fixed_band"]),
            ("capacity.optimal_rate_fixed_band.busy_s", "s",
             ["capacity.optimal_rate_fixed_band"],
             lambda: t["capacity.optimal_rate_fixed_band"]),
            ("capacity.derivative_evals", "count", ["capacity.capacity_limit_derivative"],
             lambda: c["capacity.capacity_limit_derivative"]),
            ("capacity.golden_fallback_share", "ratio",
             ["capacity.optimal_rate_fixed_band"],
             lambda: share(sum(s.attrs.get("method") == "golden-fallback"
                               for s in rates), len(rates))),
            ("queueing.mean_delay.calls", "count", ["queueing.mean_delay"],
             lambda: c["queueing.mean_delay"]),
            ("queueing.transform_evals", "count", ["queueing.transform"],
             lambda: c["queueing.transform"]),
            ("queueing.transform.busy_s", "s", ["queueing.transform"],
             lambda: t["queueing.transform"]),
            ("queueing.busy_root.calls", "count", ["queueing.busy_root"],
             lambda: c["queueing.busy_root"]),
            ("queueing.busy_root.busy_s", "s", ["queueing.busy_root"],
             lambda: t["queueing.busy_root"]),
            ("queueing.delay_cdf.calls", "count", ["queueing.delay_cdf"],
             lambda: c["queueing.delay_cdf"]),
            ("queueing.delay_cdf.busy_s", "s", ["queueing.delay_cdf"],
             lambda: t["queueing.delay_cdf"]),
            ("queueing.evals_per_cdf_point", "count",
             ["queueing.transform", "queueing.delay_cdf"],
             lambda: share(c["queueing.transform"], sum(s.attrs["points"] for s in cdfs))),
            ("laplace.points", "count", ["laplace.euler_inversion"],
             lambda: sum(spans[i].attrs["points"] for i in euler)),
            ("laplace.self_s", "s", ["laplace.euler_inversion"],
             lambda: sum(self_time(i) for i in euler)),
            ("spatial.coverage.busy_s", "s", ["spatial.coverage"],
             lambda: t["spatial.coverage"]),
            ("spatial.user_count_pmf.busy_s", "s", ["spatial.user_count_pmf"],
             lambda: t["spatial.user_count_pmf"]),
            ("spatial.voronoi.busy_s", "s", ["spatial.voronoi"],
             lambda: t["spatial.voronoi"]),
            ("spatial.replications", "count",
             ["spatial.coverage", "spatial.user_count_pmf", "spatial.voronoi"],
             lambda: sum(s.attrs["replications"] for s in spatial)),
            ("spatial.links_per_s", "1/s", ["spatial.coverage", "spatial.user_count_pmf"],
             lambda: share(sum(s.attrs["links"] for s in spatial), link_time)),
            ("queue_sim.runs", "count", ["queue_sim.run"], lambda: len(runs)),
            ("queue_sim.busy_s", "s", ["queue_sim.run"], lambda: t["queue_sim.run"]),
            ("queue_sim.sessions_per_s", "1/s", ["queue_sim.run"],
             lambda: share(sum(s.attrs["sessions"] for s in runs), t["queue_sim.run"])),
            ("queue_sim.failed", "count", ["queue_sim.run"],
             lambda: sum(bool(s.attrs.get("failed")) for s in runs)),
            ("queue_sim.warnings", "count", ["queue_sim.run"],
             lambda: sum(s.attrs.get("warnings", 0) for s in runs)),
        ]
        out = {}
        for name, unit, needs, compute in table:
            if any(n in self.absent for n in needs):
                continue
            out[name] = (float(compute()), unit)
        return out
