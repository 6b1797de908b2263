"""In-memory spans around calls into the ``repro`` layers, and the
arithmetic that turns them into per-layer metrics.

The benchmark measures each layer from outside: :class:`Probe` replaces a
layer's public functions with thin wrappers for the duration of one pass
and restores them afterwards.  Untraced passes install only the counters
the correctness checks need (simulated messages per ``net.run`` and per
trial); traced passes also record one span per wrapped call.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (``-1`` at top level); spans stay in memory until the pass ends.

Self time of a span is its duration minus the part of its interval that
its child spans cover (:func:`exclusive_s`).
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

Span = List  # [name, start, end, parent]


class Recorder:
    """A stack-shaped span log for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return wrapper


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _children(spans: Sequence[Span]) -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        kids.setdefault(s[3], []).append(i)
    return kids


def _outermost(spans: Sequence[Span], name: str) -> List[int]:
    """Indices of spans called ``name`` not nested in another ``name``."""
    out = []
    for i, s in enumerate(spans):
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def count(spans: Sequence[Span], name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def total_s(spans: Sequence[Span], name: str) -> float:
    """Seconds inside ``name`` spans (nested repeats counted once)."""
    return sum((spans[i][2] - spans[i][1] for i in _outermost(spans, name)), 0.0)


def exclusive_s(
    spans: Sequence[Span], name: str, minus: Optional[Set[str]] = None
) -> float:
    """Seconds inside ``name`` spans not covered by certain descendants.

    With ``minus=None`` this is the plain self time: duration minus the
    union of the direct children's intervals.  With a set of names, the
    subtracted intervals are the outermost descendants carrying one of
    those names, wherever they sit below the span (so ``core.self_s`` can
    be the algorithm's time outside ``net.run`` even when the runs happen
    under an intermediate span such as ``core.kw_reduction``).
    """
    kids = _children(spans)
    total = 0.0
    for i in _outermost(spans, name):
        lo, hi = spans[i][1], spans[i][2]
        covered: List[Tuple[float, float]] = []
        todo = list(kids.get(i, ()))
        while todo:
            j = todo.pop()
            if minus is None or spans[j][0] in minus:
                covered.append((max(lo, spans[j][1]), min(hi, spans[j][2])))
            else:
                todo.extend(kids.get(j, ()))
        total += (hi - lo) - union_length(covered)
    return total


def fallbacks(spans: Sequence[Span], outer: str, inner: str) -> int:
    """Number of ``outer`` spans with an ``inner`` span as direct child."""
    kids = _children(spans)
    return sum(
        1
        for i, s in enumerate(spans)
        if s[0] == outer and any(spans[j][0] == inner for j in kids.get(i, ()))
    )


# ----------------------------------------------------------------------
# the probe: wrappers around the layers' public functions
# ----------------------------------------------------------------------
class Probe:
    """Counters (always) and spans (``traced``) around ``repro`` calls.

    ``messages`` accumulates over every ``SynchronousNetwork.run``;
    ``trial_log`` holds ``(algorithm, scheduler, messages)`` per call of a
    registry algorithm, in call order, which is how per-trial message
    counts are recovered from inside a serial sweep.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.recorder = Recorder()
        self.messages = 0
        self.trial_log: List[Tuple[str, str, int]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching helpers ----------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        """Rebind ``owner.attr`` (or ``owner[attr]`` for a dict), undoably."""
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _span(self, name: str, fn: Callable) -> Callable:
        return self.recorder.wrap(name, fn) if self.traced else fn

    def _wrap_function(self, fn: Callable, name: str) -> None:
        """Replace every ``repro`` module binding of ``fn`` with a span
        wrapper (functions are imported by name into several modules)."""
        wrapper = self.recorder.wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def _wrap_method(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.recorder.wrap(name, raw.__func__)))
        else:
            self._set(cls, attr, self.recorder.wrap(name, raw))

    # -- install / uninstall -------------------------------------------
    def install(self) -> "Probe":
        from repro.simulator.network import SynchronousNetwork

        probe = self
        net_run = SynchronousNetwork.__dict__["run"]

        def counted_run(net, *args, **kwargs):
            result = net_run(net, *args, **kwargs)
            probe.messages += result.messages
            return result

        self._set(SynchronousNetwork, "run", self._span("simulator.run", counted_run))
        self._wrap_algorithms()
        if self.traced:
            self._install_spans()
        return self

    def _wrap_algorithms(self) -> None:
        from repro.experiments import registry

        probe = self
        for alg, spec in list(registry.ALGORITHMS.items()):

            def run(net, gen, seed, params, _inner=spec.run, _alg=alg):
                m0 = probe.messages
                result = _inner(net, gen, seed, params)
                probe.trial_log.append((_alg, net.scheduler, probe.messages - m0))
                return result

            wrapped = dataclasses.replace(
                spec, run=self._span("core.run_algorithm", run)
            )
            self._set(registry.ALGORITHMS, alg, wrapped)

    def _install_spans(self) -> None:
        from repro.core.color_reduction import kuhn_wattenhofer_reduction
        from repro.core.hpartition import compute_hpartition
        from repro.experiments import registry
        from repro.experiments.cache import ResultCache
        from repro.graphs.graph import Graph
        from repro.simulator.column import ColumnEngine
        from repro.simulator.engines import EngineRun, EventEngine
        from repro.verify import (
            check_forests_decomposition,
            check_legal_coloring,
            check_mis,
        )

        self._wrap_method(Graph, "from_edge_count", "graphs.csr")
        self._wrap_method(Graph, "from_arrays", "graphs.csr")
        for fam, builder in list(registry.FAMILIES.items()):
            self._set(
                registry.FAMILIES, fam, self.recorder.wrap("graphs.build", builder)
            )
        self._wrap_method(EngineRun, "build_contexts", "simulator.contexts")
        self._wrap_method(EventEngine, "execute", "simulator.event.execute")
        self._wrap_method(ColumnEngine, "execute", "simulator.column.execute")
        self._wrap_function(kuhn_wattenhofer_reduction, "core.kw_reduction")
        self._wrap_function(compute_hpartition, "core.hpartition")
        for check in (check_legal_coloring, check_forests_decomposition, check_mis):
            self._wrap_function(check, "verify.check")
        self._wrap_method(ResultCache, "put", "experiments.cache_put")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span named ``name`` (traced passes only)."""
        return self._span(name, fn)(*args, **kwargs)


# ----------------------------------------------------------------------
# per-layer metrics of one traced pass
# ----------------------------------------------------------------------
#: name -> unit, in report order
LAYER_METRICS = {
    "graphs.build_s": "s",
    "graphs.csr_s": "s",
    "simulator.runs": "count",
    "simulator.run_s": "s",
    "simulator.contexts_s": "s",
    "simulator.event.execute_s": "s",
    "simulator.column.execute_s": "s",
    "simulator.column.fallbacks": "count",
    "simulator.column.kernel_frac": "ratio",
    "core.self_s": "s",
    "core.kw_reduction_self_s": "s",
    "core.hpartition_s": "s",
    "verify.check_s": "s",
    "experiments.overhead_s": "s",
    "experiments.cache_put_s": "s",
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "experiments.graph_builds": "count",
    "experiments.graph_reuses": "count",
    "pipeline.scaling_slope": "1",
    "trace.overhead_frac": "ratio",
    "host.wall_s": "s",
    "host.ref_s": "s",
}


def layer_metrics(spans: Sequence[Span], sweep: Optional[dict] = None) -> Dict[str, float]:
    """The layer metrics of one traced pass.

    ``pipeline.scaling_slope``, ``trace.overhead_frac`` and the ``host.*``
    rows are not here: they compare passes or time the host, so the parent
    computes them.

    Engine times are self times: ``simulator.event.execute_s`` excludes
    context building and ``simulator.column.execute_s`` excludes the event
    engine it falls back to, so the engine rows plus
    ``simulator.contexts_s`` partition ``simulator.run_s`` up to the
    ``net.run`` set-up.  ``graphs.build_s`` likewise excludes
    ``graphs.csr_s``.  Sweep counters are zero outside ``sweep-mix``.
    """
    column = count(spans, "simulator.column.execute")
    fell_back = fallbacks(spans, "simulator.column.execute", "simulator.event.execute")
    sweep = sweep or {}
    return {
        "graphs.build_s": exclusive_s(spans, "graphs.build", {"graphs.csr"}),
        "graphs.csr_s": total_s(spans, "graphs.csr"),
        "simulator.runs": count(spans, "simulator.run"),
        "simulator.run_s": total_s(spans, "simulator.run"),
        "simulator.contexts_s": total_s(spans, "simulator.contexts"),
        "simulator.event.execute_s": exclusive_s(spans, "simulator.event.execute"),
        "simulator.column.execute_s": exclusive_s(spans, "simulator.column.execute"),
        "simulator.column.fallbacks": fell_back,
        "simulator.column.kernel_frac": (column - fell_back) / column if column else 0.0,
        "core.self_s": exclusive_s(spans, "core.run_algorithm", {"simulator.run"}),
        "core.kw_reduction_self_s": exclusive_s(
            spans, "core.kw_reduction", {"simulator.run"}
        ),
        "core.hpartition_s": total_s(spans, "core.hpartition"),
        "verify.check_s": total_s(spans, "verify.check"),
        "experiments.overhead_s": (
            sweep["wall_s"] - sweep["elapsed_s"] if sweep else 0.0
        ),
        "experiments.cache_put_s": total_s(spans, "experiments.cache_put"),
        "experiments.cache_hits": sweep.get("cache_hits", 0),
        "experiments.cache_misses": sweep.get("cache_misses", 0),
        "experiments.graph_builds": sweep.get("graph_builds", 0),
        "experiments.graph_reuses": sweep.get("graph_reuses", 0),
    }
