"""The benchmark's workloads: inputs made from a seed, and one pass each.

Every workload runs the paper's pipelines in a single process with no
pool (the reference host has 2 cores).  A pass builds its inputs
(set-up), then runs the timed body: each trial is the algorithm run on a
fresh ``SynchronousNetwork`` followed by its ``repro.verify`` checker.

Workloads
---------
``legal-ladder``
    ``cor46`` (the Corollary 4.6 legal coloring, which every other
    coloring pipeline wraps) on ``forest_union(a=4)`` over a doubling
    ladder of n, default ``event`` engine.  The only workload where the
    glue on participant subsets between ``net.run`` calls (the
    Kuhn–Wattenhofer reduction, context building) dominates; the top
    rung dominates ``wall_s``, so a quadratic in n shows there.
``forests-large``
    ``forests`` on one large ``forest_union_bulk`` with
    ``scheduler="column"``: the column kernels run and ``verify``
    dominates.  It bypasses the KW glue and context building, so a fix
    there must show no change here.
``sweep-mix``
    A serial ``run_sweep`` with a cold ``ResultCache`` in a temporary
    directory: the paper pipelines plus the deterministic baselines
    ``linial`` and ``be08`` over 6 families and 2 seeds at small n, every
    cell once with the default engine and once with
    ``scheduler="column"``.  Many small ``net.run`` calls, graphs shared
    through the in-process GraphStore, cache writes, and column fallback
    on the recursions.  The randomized baselines (``luby_*``) are left
    out: their coin flips derive from the trial key, which includes the
    scheduler, so their column and event cells are not comparable.

Noise diagnosis
---------------
On the reference host (a 2-vCPU KVM guest) a fixed pure-Python loop of
about 0.25 s varies between 0.21 s and 0.36 s from one repetition to the
next, with CPU time tracking wall time within 4% and no steal time;
single ``cor46`` n=8000 passes ranged from 3.42 s to 4.49 s the same way.
The variation is host speed, not descheduling, so a process pool on 2
cores only adds to it (two sets of runs of identical code through a pool
gave ``wall_s`` medians 6-7% apart).  On top of that fast noise the host's
speed shifts in regimes lasting tens of minutes: the same ``sweep-mix``
pass took a median 3.6-4.1 s in one hour and 2.2 s in the next, a 1.8x
change that no repetition inside a run can average out.  Hence:

* every pass runs in a fresh child process, one at a time, never in a
  pool; this also makes ``peak_rss_mb`` a per-pass peak rather than a
  high-water mark that grows over passes (``forests`` at n=100k grew from
  252 MB to 402 MB over 5 passes in one process);
* times are medians over all the passes of a run;
* ``setup_s`` and ``wall_s`` are rescaled to a reference host speed,
  timed with a fixed pure-Python kernel in the parent right before and
  after every pass (``run.py``).  Across the 1.8x regime change above the
  rescaled ``sweep-mix`` time moved about 15%, the raw time 83%.  The
  traced run reports the raw median as ``host.wall_s`` and the kernel's
  time as ``host.ref_s``.

The exact counts vary only with the seed's graphs: over 10 seeds their
quartile spread is at most 8% (``output_classes`` on ``legal-ladder``,
25-27 colors), and ``peak_rss_mb`` on ``forests-large`` drops by 8% for
about one seed in 14 (input-dependent, repeatable for that seed).
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

WORKLOADS = ("legal-ladder", "forests-large", "sweep-mix")

#: the sweep's algorithms: paper pipelines, then deterministic baselines
SWEEP_ALGORITHMS = (
    "cor46", "thm43", "thm53", "delta_plus_one", "mis_arboricity", "forests",
    "linial", "be08",
)

#: algorithm kind -> the result attribute counted in ``output_classes``
_CLASSES = {"coloring": "num_colors", "decomposition": "num_forests"}

#: per-layer metric -> (end-to-end metric it should move, workloads where
#: it should move it).  Recorded before any optimisation lands; see
#: ``spans.py`` for how each is measured.
PREDICTIONS = {
    "graphs.build_s": ("setup_s", ("forests-large", "legal-ladder")),
    "graphs.csr_s": ("setup_s, peak_rss_mb", ("forests-large", "legal-ladder")),
    "simulator.runs": ("wall_s", ("legal-ladder", "sweep-mix")),
    "simulator.run_s": ("wall_s", ("legal-ladder", "sweep-mix")),
    "simulator.contexts_s": ("wall_s", ("legal-ladder", "sweep-mix")),
    "simulator.event.execute_s": ("wall_s", ("forests-large", "sweep-mix")),
    "simulator.column.execute_s": ("wall_s", ("forests-large", "sweep-mix")),
    "simulator.column.fallbacks": ("wall_s", ("forests-large", "sweep-mix")),
    "simulator.column.kernel_frac": ("wall_s", ("forests-large", "sweep-mix")),
    "core.self_s": ("wall_s", ("legal-ladder",)),
    "core.kw_reduction_self_s": ("wall_s", ("legal-ladder",)),
    "core.hpartition_s": ("wall_s", ("legal-ladder",)),
    "verify.check_s": ("wall_s", ("forests-large",)),
    "experiments.overhead_s": ("wall_s", ("sweep-mix",)),
    "experiments.cache_put_s": ("wall_s", ("sweep-mix",)),
    "experiments.cache_hits": ("wall_s", ("sweep-mix",)),
    "experiments.cache_misses": ("wall_s", ("sweep-mix",)),
    "experiments.graph_builds": ("wall_s", ("sweep-mix",)),
    "experiments.graph_reuses": ("wall_s", ("sweep-mix",)),
    "pipeline.scaling_slope": ("wall_s", ("legal-ladder",)),
    "trace.overhead_frac": ("none (tracing cost)", WORKLOADS),
    "host.wall_s": ("none (wall_s before rescaling to host speed)", WORKLOADS),
    "host.ref_s": ("none (host speed)", WORKLOADS),
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_inputs(workload: str, seed: int, tiny: bool = False) -> Dict[str, Any]:
    """The workload's generated inputs: the same seed gives the same dict.

    ``tiny`` shrinks every size for the benchmark's own smoke tests.
    """
    rng = random.Random(f"{workload}:{seed}")
    draw = lambda: rng.randrange(1 << 31)  # noqa: E731
    if workload == "legal-ladder":
        ns = (60, 120) if tiny else (750, 1500, 3000, 6000)
        return {
            "workload": workload,
            "rungs": [{"n": n, "a": 4, "seed": draw()} for n in ns],
        }
    if workload == "forests-large":
        return {
            "workload": workload,
            "n": 800 if tiny else 100_000,
            "a": 4,
            "seed": draw(),
        }
    if workload == "sweep-mix":
        n = 40 if tiny else 200
        side = int(n ** 0.5)
        families = {
            "forest_union": {"n": n, "a": 3},
            "planar": {"n": n},
            "tree": {"n": n},
            "grid": {"rows": side, "cols": side},
            "regular": {"n": n, "d": 6},
            "hubs": {"n": n, "a": 2, "num_hubs": 4},
        }
        return {
            "workload": workload,
            "families": families,
            "algorithms": list(SWEEP_ALGORITHMS[:2] if tiny else SWEEP_ALGORITHMS),
            "seeds": [draw(), draw()],
        }
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
def _trial(probe, alg: str, gen, scheduler: str) -> Dict[str, Any]:
    """Run one registry algorithm on a fresh network, then its checker.

    An exception fails the trial and is reported; it never aborts the pass.
    """
    from repro import SynchronousNetwork, verify
    from repro.experiments.registry import ALGORITHMS

    spec = ALGORITHMS[alg]
    m0 = probe.messages
    out: Dict[str, Any] = {"label": f"{alg}/{gen.name}/n={gen.n}/{scheduler}"}
    try:
        net = SynchronousNetwork(gen.graph, scheduler=scheduler)
        result = spec.run(net, gen, 0, {})
        if spec.kind == "coloring":
            verify.check_legal_coloring(gen.graph, result.colors)
        elif spec.kind == "decomposition":
            verify.check_forests_decomposition(gen.graph, result)
        else:
            verify.check_mis(gen.graph, result.members)
    except Exception:  # a failed trial is counted, the pass goes on
        out.update(ok=False, error=traceback.format_exc())
        return out
    attr = _CLASSES.get(spec.kind)
    out.update(
        ok=True,
        rounds=result.rounds,
        messages=probe.messages - m0,
        outputs=getattr(result, attr) if attr else 0,
    )
    return out


def _legal_ladder(inputs, probe, work_dir) -> Dict[str, Any]:
    from repro.graphs import forest_union

    gens = [
        probe.call("graphs.build", forest_union, r["n"], r["a"], seed=r["seed"])
        for r in inputs["rungs"]
    ]
    first = time.perf_counter()
    trials, rung_s = [], []
    for gen in gens:
        t0 = time.perf_counter()
        trials.append(_trial(probe, "cor46", gen, "event"))
        rung_s.append(time.perf_counter() - t0)
    end = time.perf_counter()
    return {"first": first, "end": end, "trials": trials, "rung_s": rung_s,
            "rung_n": [g.n for g in gens]}


def _forests_large(inputs, probe, work_dir) -> Dict[str, Any]:
    from repro.graphs import forest_union_bulk

    gen = probe.call(
        "graphs.build", forest_union_bulk, inputs["n"], inputs["a"],
        seed=inputs["seed"],
    )
    first = time.perf_counter()
    trials = [_trial(probe, "forests", gen, "column")]
    end = time.perf_counter()
    return {"first": first, "end": end, "trials": trials}


def _sweep_spec(inputs):
    from repro.experiments import ScenarioSpec, SweepSpec

    cells = [
        ScenarioSpec(
            family=family,
            algorithm=alg,
            family_params=params,
            seeds=list(inputs["seeds"]),
            scheduler=scheduler,
        )
        for family, params in inputs["families"].items()
        for alg in inputs["algorithms"]
        for scheduler in ("", "column")
    ]
    return SweepSpec("sweep-mix", cells)


def _sweep_mix(inputs, probe, work_dir) -> Dict[str, Any]:
    from repro.experiments import ResultCache, run_sweep

    spec = _sweep_spec(inputs)
    trial_specs = spec.trials()
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    first = time.perf_counter()
    try:
        sweep = run_sweep(
            spec, cache=ResultCache(cache_dir), workers=1, executor="serial"
        )
    except Exception:  # the whole sweep failed: every trial counts failed
        end = time.perf_counter()
        err = traceback.format_exc()
        trials = [{"label": t.label(), "ok": False, "error": err}
                  for t in trial_specs]
        return {"first": first, "end": end, "trials": trials}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    end = time.perf_counter()
    return {"first": first, "end": end,
            "trials": sweep_trials(sweep, probe.trial_log),
            "sweep": {
                "wall_s": sweep.wall_s,
                "elapsed_s": sum(r.elapsed_s for r in sweep.results),
                "cache_hits": sweep.cache_hits,
                "cache_misses": sweep.cache_misses,
                "graph_builds": sweep.graph_builds,
                "graph_reuses": sweep.graph_reuses,
            }}


def sweep_trials(sweep, trial_log) -> List[Dict[str, Any]]:
    """Per-trial records of a cold serial sweep, checked for agreement.

    ``trial_log`` lists ``(algorithm, scheduler, messages)`` per executed
    trial in execution order, which for a cold serial sweep is the order
    of ``sweep.results``.  A column cell whose rounds, messages or metrics
    differ from its event twin (same family, parameters, algorithm and
    seed) fails both.
    """
    if len(trial_log) != len(sweep.results):
        raise RuntimeError(
            f"sweep ran {len(trial_log)} algorithm calls for "
            f"{len(sweep.results)} trials"
        )
    trials = []
    twins: Dict[tuple, List[int]] = {}
    for res, (alg, scheduler, messages) in zip(sweep.results, trial_log, strict=True):
        t = res.trial
        if (alg, scheduler) != (t.algorithm, t.scheduler or "event"):
            raise RuntimeError(f"sweep order changed at {t.label()}")
        kind = res.metrics.get("kind")
        ok = res.metrics.get("verified") is True and not res.cached
        trials.append({
            "label": f"{t.label()}/{scheduler}",
            "ok": ok,
            "rounds": res.metrics.get("rounds"),
            "messages": messages,
            "outputs": res.metrics.get(
                {"coloring": "colors", "decomposition": "num_forests"}.get(kind, ""), 0
            ),
            "_metrics": res.metrics,
        })
        twin = (t.family, repr(sorted(t.family_params.items())), t.algorithm, t.seed)
        twins.setdefault(twin, []).append(len(trials) - 1)
    for idxs in twins.values():
        first = trials[idxs[0]]
        for i in idxs[1:]:
            other = trials[i]
            if any(first[k] != other[k] for k in ("rounds", "messages", "_metrics")):
                for rec in (first, other):
                    rec["ok"] = False
                    rec["error"] = f"column and event cells disagree: {rec['label']}"
    for rec in trials:
        del rec["_metrics"]
    return trials


_PASSES = {
    "legal-ladder": _legal_ladder,
    "forests-large": _forests_large,
    "sweep-mix": _sweep_mix,
}


def run_pass(inputs: Dict[str, Any], probe, work_dir: Optional[str] = None):
    """Set up and run one pass of ``inputs["workload"]`` under ``probe``.

    Returns the pass record: ``first``/``end`` (``time.perf_counter``
    stamps of the first timed call and the end of the timed body),
    ``trials`` (``ok``, ``rounds``, ``messages``, ``outputs`` per trial)
    and workload extras (``rung_s``/``rung_n`` or ``sweep``).
    """
    return _PASSES[inputs["workload"]](inputs, probe, work_dir)
