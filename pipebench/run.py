#!/usr/bin/env python3
"""Run one workload of the paper-pipeline benchmark and print its metrics.

    python3 pipebench/run.py --workload legal-ladder --seed 1 --seconds 40 --trace 0

Every pass runs in a fresh child process of this script (``--child``,
inputs as JSON on stdin): it imports ``repro`` from ``src/``, builds the
workload's graphs, runs the timed body and prints one JSON record.  The
parent starts passes one at a time until ``--seconds`` would be exceeded
(at least :data:`MIN_PASSES`), checks every trial, and prints each metric
as ``name value unit``, then one JSON object as the last line.

``setup_s`` and ``wall_s`` are medians over the passes after rescaling
each pass to a reference host speed (:data:`REF_NOMINAL_S`), because the
reference host's speed drifts by up to 1.8x between runs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, with
``trace.overhead_frac`` the traced passes' median wall time over the
untraced passes' median, minus one.

A trial fails when it raises, when its checker rejects the output, or when
its exact counts (rounds, messages, output classes) differ from the same
trial in the run's first pass, traced or not.  ``verified_frac`` is the
share of attempted trials that did not fail.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".pipebench_work"

#: passes per run at the least, whatever ``--seconds`` says
MIN_PASSES = 3
#: a child pass that takes longer than this is killed and fails the run
PASS_TIMEOUT_S = 150
#: no pass starts that would end a run later than this, minimum or not
RUN_CAP_S = 150

#: name -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
    "total_rounds": "rounds",
    "total_messages": "messages",
    "output_classes": "count",
}

COUNTS = ("rounds", "messages", "outputs")

#: Host speed on the reference host drifts by up to 1.8x over tens of
#: minutes (see ``workloads.py``), so ``setup_s`` and ``wall_s`` are given
#: in seconds of a host on which :func:`reference_kernel` takes this long:
#: each pass's times are scaled by ``REF_NOMINAL_S`` over the kernel's time
#: measured just before and just after the pass, in this parent process,
#: which never imports ``repro`` before the passes end.
REF_NOMINAL_S = 0.023


class PassFailed(RuntimeError):
    """A child pass crashed or printed no record: the run cannot go on."""


# ----------------------------------------------------------------------
# child: one pass
# ----------------------------------------------------------------------
def child_main() -> None:
    request = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    probe = spans.Probe(traced=request["traced"]).install()
    try:
        record = workloads.run_pass(request["inputs"], probe, str(WORK_DIR))
    finally:
        probe.uninstall()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if probe.traced:
        record["layers"] = spans.layer_metrics(
            probe.recorder.spans, record.get("sweep")
        )
    print(json.dumps(record))


# ----------------------------------------------------------------------
# parent: passes, checks, metrics
# ----------------------------------------------------------------------
def reference_kernel() -> int:
    """Fixed allocation-heavy pure-Python work, the yardstick of host speed.

    Never change it: its running time defines the unit of the timed
    end-to-end metrics.
    """
    counts, pairs, acc = {}, set(), 0
    for i in range(60_000):
        k = (i * 7919) % 5003
        counts[k] = counts.get(k, 0) + 1
        pairs.add((k, i & 15))
        acc += len(str(i))
    return acc + len(counts) + len(pairs)


def reference_s() -> float:
    """The reference kernel's median time over 7 runs."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_child(inputs: dict, traced: bool) -> dict:
    """One pass in a fresh process; adds raw ``setup_s``/``wall_s``."""
    request = json.dumps({"inputs": inputs, "traced": traced})
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child"],
            input=request, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S, cwd=str(ROOT),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {PASS_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux
    record["setup_s"] = record["first"] - spawn
    record["wall_s"] = record["end"] - record["first"]
    return record


def run_passes(inputs: dict, seconds: float, trace: bool):
    """Untraced (and, with ``trace``, alternating traced) passes.

    Each record gains ``ref_s``, the mean reference-kernel time measured
    right before and right after it.
    """
    plain, traced = [], []
    start = time.perf_counter()
    durations = []
    refs = [reference_s()]
    per_round = 2 if trace else 1
    while True:
        done = len(plain) + len(traced)
        if done:
            ends_at = time.perf_counter() - start + statistics.median(durations)
            if done >= MIN_PASSES * per_round and ends_at > seconds:
                break
            if done % per_round == 0 and ends_at > RUN_CAP_S:
                break
        use_trace = trace and done % 2 == 1
        began = time.perf_counter()
        record = run_child(inputs, use_trace)
        refs.append(reference_s())
        record["ref_s"] = (refs[-2] + refs[-1]) / 2
        durations.append(time.perf_counter() - began)
        (traced if use_trace else plain).append(record)
    return plain, traced


def check_trials(passes: list) -> tuple:
    """``(attempted, failed, reference)`` over every pass of a run.

    ``reference`` holds the first pass's trials; a trial fails when it is
    not ``ok`` or when its counts differ from its reference trial.
    """
    reference = passes[0]["trials"]
    attempted = failed = 0
    for p in passes:
        if len(p["trials"]) != len(reference):
            raise PassFailed("passes ran different numbers of trials")
        for trial, ref in zip(p["trials"], reference, strict=True):
            attempted += 1
            agree = all(trial.get(k) == ref.get(k) for k in COUNTS)
            if not (trial["ok"] and ref["ok"] and agree):
                failed += 1
                why = trial.get("error") or f"counts differ from pass 0: {trial}"
                print(f"FAILED {trial['label']}: {why}", file=sys.stderr)
    return attempted, failed, reference


def scaled(passes: list, key: str) -> float:
    """Median over passes of a time rescaled to the reference host speed."""
    return statistics.median(p[key] * REF_NOMINAL_S / p["ref_s"] for p in passes)


def end_to_end(plain: list, attempted: int, failed: int, reference: list) -> dict:
    ok = [t for t in reference if t["ok"]]
    return {
        "setup_s": scaled(plain, "setup_s"),
        "wall_s": scaled(plain, "wall_s"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "verified_frac": (attempted - failed) / attempted,
        "total_rounds": sum(t["rounds"] for t in ok),
        "total_messages": sum(t["messages"] for t in ok),
        "output_classes": sum(t["outputs"] for t in ok),
    }


def per_layer(plain: list, traced: list) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.analysis.bounds import fit_loglog_slope

    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    slope = 0.0
    if "rung_s" in plain[0]:
        rungs = zip(*(p["rung_s"] for p in plain), strict=True)
        slope = fit_loglog_slope(
            plain[0]["rung_n"], [statistics.median(r) for r in rungs]
        )
    out["pipeline.scaling_slope"] = slope
    out["trace.overhead_frac"] = scaled(traced, "wall_s") / scaled(plain, "wall_s") - 1
    out["host.wall_s"] = statistics.median(p["wall_s"] for p in plain)
    out["host.ref_s"] = statistics.median(p["ref_s"] for p in plain + traced)
    return out


def main(argv=None) -> int:
    import spans
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the
    # running pass and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    inputs = workloads.make_inputs(args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    try:
        plain, traced = run_passes(inputs, args.seconds, bool(args.trace))
        attempted, failed, reference = check_trials(plain + traced)
    except PassFailed as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if args.trace:
        values = per_layer(plain, traced)
        units = spans.LAYER_METRICS
    else:
        values = end_to_end(plain, attempted, failed, reference)
        units = END_TO_END
    print(f"# {args.workload} seed={args.seed} passes={len(plain)}+{len(traced)} "
          f"trials={attempted} failed={failed}")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child_main()
    else:
        sys.exit(main())
