"""Out-of-tree tracing of spherestein's layers.

``Tracer.install()`` wraps every public function (and every public method
of a class) defined in the layer modules and rebinds each wrapper
everywhere the library holds the original: module globals, including
names brought in by ``from .x import f``, and registry dicts such as the
harness estimator tables and the CLI fit dispatch.  Nothing under ``src/``
is edited, and ``uninstall()`` restores every binding.

Each call becomes a span (name, start, end, parent).  Spans are kept in
memory in flat arrays and written as JSON when the run ends.  Self time is
a span's duration minus the durations of its direct children, which is
accumulated as spans close.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("sampler", "est_vmf", "est_watson", "est_fb", "linalg", "special",
          "harness", "cli")

_now = time.perf_counter


class _Stats:
    __slots__ = ("calls", "incl", "self_time", "outer_calls", "outer_incl",
                 "raised")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        # calls whose parent span is in another layer: calls into the layer
        self.outer_calls = 0
        self.outer_incl = 0.0
        self.raised: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.stats: list[_Stats] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {"sampler.points": 0,
                                         "cli.bytes_read": 0}
        # (parent name id, child name id) -> time spent in such children
        self.child_time: dict[tuple[int, int], float] = {}
        self._stack: list[int] = []
        self._children: list[float] = []
        self._patches: list[tuple[object, object, object, bool]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.stats.append(_Stats())
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self._children.append(0.0)
        self.start.append(_now())
        return sid

    def close(self, sid: int, exc: BaseException | None = None) -> None:
        t = _now()
        self._stack.pop()
        children = self._children.pop()
        self.end[sid] = t
        dur = t - self.start[sid]
        nid = self.name_id[sid]
        st = self.stats[nid]
        st.calls += 1
        st.incl += dur
        st.self_time += dur - children
        if exc is not None:
            kind = type(exc).__name__
            st.raised[kind] = st.raised.get(kind, 0) + 1
        pid = self.parent[sid]
        if pid >= 0:
            self._children[-1] += dur
            key = (self.name_id[pid], nid)
            self.child_time[key] = self.child_time.get(key, 0.0) + dur
        if pid < 0 or self.layer_of[self.name_id[pid]] != self.layer_of[nid]:
            st.outer_calls += 1
            st.outer_incl += dur

    def is_outermost_in_layer(self, layer: str) -> bool:
        """True when no open span belongs to ``layer``."""
        return not any(self.layer_of[self.name_id[s]] == layer
                       for s in self._stack)

    def root(self, name: str):
        """A span that the benchmark itself opens around one operation."""
        if name not in self.names:
            self._register(name, "bench")
        return _Span(self, self.names.index(name))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        nid = self._register(name, layer)
        hook = _HOOKS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                outer = tracer.is_outermost_in_layer(layer)
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(sid, exc)
                raise
            tracer.close(sid)
            if hook is not None and outer:
                hook(tracer, fn.__name__, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "spherestein" or name.startswith("spherestein.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"spherestein.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, fn, self._wrap(
                                fn, f"{layer}.{attr}.{meth}", layer), attr=True)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(mod, attr, value, wrappers[id(value)][1], attr=True)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._patch(value, key, item, wrappers[id(item)][1],
                                        attr=False)

    def _patch(self, owner, key, original, wrapper, attr: bool) -> None:
        if attr:
            setattr(owner, key, wrapper)
        else:
            owner[key] = wrapper
        self._patches.append((owner, key, original, attr))

    def uninstall(self) -> None:
        for owner, key, original, attr in reversed(self._patches):
            if attr:
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def write(self, path: Path, t0: float) -> None:
        """Spans as columns; times in microseconds from ``t0``."""
        start = [round((s - t0) * 1e6, 3) for s in self.start]
        end = [round((e - t0) * 1e6, 3) for e in self.end]
        doc = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": {"name": list(self.name_id), "start_us": start,
                      "end_us": end, "parent": list(self.parent)},
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def by_name(self, name: str) -> _Stats:
        return self.stats[self.names.index(name)] if name in self.names else _Stats()

    def layer_total(self, layer: str, field: str) -> float:
        return sum(getattr(st, field) for st, lay in zip(self.stats, self.layer_of)
                   if lay == layer)

    def edge(self, parent: str, child: str) -> float:
        if parent not in self.names or child not in self.names:
            return 0.0
        return self.child_time.get(
            (self.names.index(parent), self.names.index(child)), 0.0)


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.sid = self.tracer.open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.sid, exc)
        return False


def _sampler_hook(tracer: Tracer, fname: str, args, result) -> None:
    if fname.startswith("sample_"):
        tracer.counts["sampler.points"] += int(result.shape[0])


def _cli_hook(tracer: Tracer, fname: str, args, result) -> None:
    argv = args[0] if args else None
    if fname == "main" and argv and "--in" in argv:
        tracer.counts["cli.bytes_read"] += os.path.getsize(argv[argv.index("--in") + 1])


_HOOKS = {"sampler": _sampler_hook, "cli": _cli_hook}


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit).

    ``traced_s`` and ``untraced_s`` time the same calls with and without
    the tracer installed.
    """
    def per_call(name: str, scale: float) -> float:
        st = tracer.by_name(name)
        return st.incl / st.calls * scale if st.calls else 0.0

    def frac_raised(names: tuple[str, ...], exc: str) -> float:
        calls = sum(tracer.by_name(n).calls for n in names)
        raised = sum(tracer.by_name(n).raised.get(exc, 0) for n in names)
        return raised / calls if calls else 0.0

    samplers = [n for n in tracer.names if n.startswith("sampler.sample_")]
    sample_calls = sum(tracer.by_name(n).outer_calls for n in samplers)
    sample_time = sum(tracer.by_name(n).outer_incl for n in samplers)
    points = tracer.counts["sampler.points"]

    fit = tracer.by_name("est_fb.fb_stein_fit")
    solve_time = fit.incl - tracer.edge("est_fb.fb_stein_fit", "est_fb.fb_statistics")

    harness_self = tracer.layer_total("harness", "self_time")
    harness_incl = tracer.layer_total("harness", "outer_incl")
    cli_calls = tracer.layer_total("cli", "outer_calls")
    cli_self = tracer.layer_total("cli", "self_time")

    m = {
        "sampler.calls": (sample_calls, "count"),
        "sampler.points": (points, "count"),
        "sampler.self_s": (tracer.layer_total("sampler", "self_time"), "s"),
        "sampler.us_per_point": (sample_time / points * 1e6 if points else 0.0, "us"),
    }
    for code, fn in (("st", "kappa_stein"), ("ml", "kappa_mle"),
                     ("sm", "kappa_score_matching")):
        m[f"est_vmf.{code}.us_per_call"] = (per_call(f"est_vmf.{fn}", 1e6), "us")
    m["est_vmf.self_s"] = (tracer.layer_total("est_vmf", "self_time"), "s")
    for code, fn in (("st", "watson_stein_fit"), ("mla", "watson_mla_fit")):
        m[f"est_watson.{code}.us_per_call"] = (per_call(f"est_watson.{fn}", 1e6), "us")
    m["est_watson.ne_frac"] = (frac_raised(
        ("est_watson.watson_stein_fit", "est_watson.watson_mla_fit",
         "est_watson.watson_mle_fit"), "NotEligible"), "ratio")
    m["est_watson.self_s"] = (tracer.layer_total("est_watson", "self_time"), "s")
    m["est_fb.statistics.ms_per_call"] = (per_call("est_fb.fb_statistics", 1e3), "ms")
    m["est_fb.solve.ms_per_call"] = (
        solve_time / fit.calls * 1e3 if fit.calls else 0.0, "ms")
    m["est_fb.singular_frac"] = (
        frac_raised(("est_fb.fb_stein_fit",), "SingularSystem"), "ratio")
    for fn in ("solve_linear", "sym_eigen"):
        st = tracer.by_name(f"linalg.{fn}")
        m[f"linalg.{fn}.calls"] = (st.calls, "count")
        m[f"linalg.{fn}.self_s"] = (st.self_time, "s")
    m["special.calls"] = (tracer.layer_total("special", "calls"), "count")
    m["special.self_s"] = (tracer.layer_total("special", "self_time"), "s")
    m["harness.self_s"] = (harness_self, "s")
    m["harness.self_frac"] = (harness_self / harness_incl if harness_incl else 0.0, "ratio")
    m["cli.self_ms_per_call"] = (cli_self / cli_calls * 1e3 if cli_calls else 0.0, "ms")
    m["cli.bytes_read"] = (tracer.counts["cli.bytes_read"], "bytes")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return m
