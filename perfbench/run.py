"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload small-exact --seed 0 --seconds 20 --trace 0

One process, one call at a time (closed loop, one client), BLAS/OpenMP pinned
to one thread before numpy is imported.  ``--trace 0`` prints the end-to-end
metrics, with times scaled to a reference CPU speed (see ``speed.py``);
``--trace 1`` runs the pool untraced and then traced and prints the per-layer
metrics.  Per-item records (input digest, values, references,
time) and the spans go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
PASSES = 2  # timed passes over the pool; each item keeps its fastest
FAIL_FLOOR = 0.001  # fail_frac reads this when nothing failed, so it is never 0
# Passes after the first stop once the timed phase has run this many times
# --seconds, so a much slower program still ends well within three minutes.
CAP = 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_ms_p50", "ms", "lower"),
    ("item_ms_tail", "ms", "lower"),
    ("radius_ms_p50", "ms", "lower"),
    ("crawford_ms_p50", "ms", "lower"),
    ("ref_agree_frac", "fraction", "higher"),
    ("fail_frac", "fraction", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def import_package():
    """Import aqradius from this checkout's src/ and return (package, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import aqradius
    import aqradius.cli  # noqa: F401  (not imported by the package itself)

    if not Path(aqradius.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"aqradius imported from {aqradius.__file__}, not from {ROOT / 'src'}")
    return aqradius, time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_items(pool, *, deadline: float | None = None, tracer=None, timer=None, probe=None):
    """Closed loop over the pool, one item at a time, in order.

    Stops early, between items, once ``time.perf_counter()`` passes
    ``deadline``.  Returns (position, seconds, result or exception, wall
    seconds) records.  With a ``probe`` (see ``speed.py``), the item's
    seconds, and those of the estimator calls the ``timer`` recorded inside
    it, are its wall seconds scaled to the reference speed by the probes run
    right before and after it; without one they are the wall seconds.
    """
    from speed import scale

    records = []
    before = probe() if probe is not None else None
    for j, item in enumerate(pool):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.item = j
        marks = {name: len(d) for name, d in timer.durations.items()} if timer else {}
        t0 = time.perf_counter()
        try:
            result = item.call()
        except Exception as exc:  # a failed item is recorded and the loop goes on
            result = exc
        wall = time.perf_counter() - t0
        factor = 1.0
        if probe is not None:
            after = probe()
            factor, before = scale(before, after), after
            for name, start in marks.items():
                d = timer.durations[name]
                d[start:] = [x * factor for x in d[start:]]
        records.append((j, wall * factor, result, wall))
    return records


def check_records(pool, records, tracer=None):
    """Check every record; returns one Outcome per record and the totals."""
    from checks import Outcome

    by_pos = {rec[0]: rec[2] for rec in records}
    checked = []
    compared = agreed = 0
    for j, _dt, result, *_ in records:
        item = pool[j]
        if isinstance(result, Exception):
            checked.append(Outcome(reported=[f"raised {type(result).__name__}: {result}"]))
            continue
        peer = None
        if item.peer is not None:
            peer = by_pos.get(j + item.peer)
            peer = None if isinstance(peer, Exception) else peer
        if tracer is not None:
            tracer.item, tracer.phase = j, "check"
        try:
            out = item.check(result, peer)
        except Exception as exc:  # a check that cannot evaluate the value fails the item
            checked.append(Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"]))
            continue
        compared += out.compared
        agreed += out.agreed
        checked.append(out)
    return checked, compared, agreed


def timed_passes(pool, seconds: float, probe):
    """Closed-loop passes over the pool; each item keeps its fastest time.

    Every pass runs the whole pool, so the item count and mix are fixed by
    the workload, not by the program's speed.  Only if the timed phase has
    run ``CAP * seconds`` do later passes stop early; their items keep the
    passes they had.  Passes alternate between the CPUs the process may use.
    Times are scaled to the reference speed by ``probe`` (see ``speed.py``);
    taking each item's (and each estimator call's) fastest pass removes the
    spikes that remain.  Returns the first pass's records, each item's scaled
    times in the passes, the fastest scaled time per estimator call and the
    positions whose result differed between passes.
    """
    from tracer import CallTimer

    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    deadline = time.perf_counter() + CAP * seconds
    try:
        for r in range(PASSES):
            os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            with CallTimer() as timer:
                records = run_items(
                    pool, deadline=deadline if r else None, timer=timer, probe=probe
                )
            passes.append((records, timer.durations))
    finally:
        os.sched_setaffinity(0, cpus)
    first = passes[0][0]
    times = [[p[0][i][1] for p in passes if i < len(p[0])] for i in range(len(first))]
    calls = {}
    for name, durations in passes[0][1].items():
        runs = [p[1][name] for p in passes]
        calls[name] = [min(r[k] for r in runs if k < len(r)) for k in range(len(durations))]
    unstable = {
        first[i][0]
        for i in range(len(first))
        if any(repr(p[0][i][2]) != repr(first[i][2]) for p in passes[1:] if i < len(p[0]))
    }
    return first, times, calls, unstable


def summarize(name, best, checked, compared, agreed, calls, setup_s, rss_mb, wall=None) -> dict:
    ms = sorted(1e3 * dt for dt in best)
    n = len(ms)
    tail_rank = min(10, n - 1)
    failed = sum(1 for out in checked if out.failed)
    rad = calls["radius.aq_radius"]
    cra = calls["radius.aq_crawford"]
    values = {
        "setup_s": setup_s,
        "items_per_s": n / sum(best),
        "item_ms_p50": statistics.median(ms),
        "item_ms_tail": ms[n - 1 - tail_rank],
        "radius_ms_p50": 1e3 * statistics.median(rad) if rad else float("nan"),
        "crawford_ms_p50": 1e3 * statistics.median(cra) if cra else float("nan"),
        "ref_agree_frac": agreed / compared if compared else float("nan"),
        "fail_frac": max(failed / n, FAIL_FLOOR),
        "peak_rss_mb": rss_mb,
    }
    print(f"workload {name}: {n} items, fastest passes sum to {sum(best):.3f} s, "
          f"{failed} failed, {agreed}/{compared} values agree with references")  # fmt: skip
    print(f"item_ms_tail is the p{100.0 * (1.0 - tail_rank / n):.1f} of {n} samples "
          f"({tail_rank} slower); radius/crawford medians over {len(rad)}/{len(cra)} calls")  # fmt: skip
    if wall:
        print(f"unscaled wall times: first pass {sum(wall):.3f} s, item median "
              f"{1e3 * statistics.median(wall):.3f} ms; times below are at the reference speed")  # fmt: skip
    return values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_failures(pool, records, checked) -> None:
    shown = 0
    for rec, out in zip(records, checked):
        j = rec[0]
        if out.failed and shown < 20:
            reasons = out.problems + out.reported
            print(f"FAIL item {j} [{pool[j].kind}]: {'; '.join(reasons[:3])}")
            shown += 1
    total = sum(1 for out in checked if out.failed)
    if total > shown:
        print(f"... and {total - shown} more failed items")


def write_records(path, env, pool, records, checked, times) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"environment": env}) + "\n")
        for (j, _, _, wall), out, passes in zip(records, checked, times):
            item = pool[j]
            rec = {
                "i": j, "kind": item.kind, "op": item.op, "digest": item.digest,
                "ms": 1e3 * min(passes), "ms_passes": [1e3 * dt for dt in passes],
                "wall_ms_first_pass": 1e3 * wall,
                "ok": not out.failed, "problems": out.problems, "reported": out.reported,
                "values": out.values, "refs": out.refs,
            }  # fmt: skip
            fh.write(json.dumps(rec, default=str) + "\n")


def run(aq, import_s, workload, seed, seconds, trace, tiny=False) -> dict:
    """Set up, time and check one workload; returns the final JSON object."""
    import speed
    import workloads
    from tracer import LAYER_METRICS, Tracer, layer_metrics

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    build = workloads.WORKLOADS[workload]
    extra = {"out_dir": str(out_dir)} if workload == "verify-suite" else {}

    probe = speed.Probe()
    import_s *= speed.scale(probe(), probe())
    reps = []
    for _ in range(SETUP_REPS):
        before = probe()
        t0 = time.perf_counter()
        wl = build(aq, seed, tiny, **extra)
        for warm in wl.warmups:
            try:
                warm()
            except Exception as exc:  # reported, the timed phase still runs
                print(f"warm-up failed: {type(exc).__name__}: {exc}")
        reps.append((time.perf_counter() - t0) * speed.scale(before, probe()))
    setup_s = import_s + statistics.median(reps)
    print(f"setup_s: import {import_s:.3f} s + median of set-ups "
          f"{', '.join(f'{r:.3f}' for r in reps)} s, at the reference speed")  # fmt: skip
    pool = wl.items
    env = environment()
    print("environment " + json.dumps(env))

    if trace:
        t0 = time.perf_counter()
        run_items(pool)
        elapsed = time.perf_counter() - t0
        with Tracer() as tracer:
            t0 = time.perf_counter()
            records = run_items(pool, tracer=tracer)
            elapsed_t = time.perf_counter() - t0
            checked, compared, agreed = check_records(pool, records, tracer)
        tracer.dump(out_dir / f"spans-{workload}-s{seed}.jsonl")
        times = [[rec[1]] for rec in records]
        metrics = layer_metrics(tracer, len(records))
        skipped, reports = wl.skip_counts
        metrics["laws.skip_frac"] = skipped / reports if reports else 0.0
        metrics["trace.overhead_pct"] = 100.0 * (elapsed_t - elapsed) / elapsed
        units = dict(LAYER_METRICS)
    else:
        records, times, calls, unstable = timed_passes(pool, seconds, probe)
        rss_mb = peak_rss_mb()  # before the checks, whose references take memory too
        checked, compared, agreed = check_records(pool, records)
        for rec, out in zip(records, checked):
            if rec[0] in unstable:
                out.problems.append(f"another pass over item {rec[0]} gave a different result")
        best = [min(passes) for passes in times]
        wall = [rec[3] for rec in records]
        metrics = summarize(
            workload, best, checked, compared, agreed, calls, setup_s, rss_mb, wall
        )
        units = {name: unit for name, unit, _ in END_TO_END}

    report_failures(pool, records, checked)
    write_records(out_dir / f"{workload}-s{seed}-t{int(trace)}.jsonl", env, pool, records,
                  checked, times)  # fmt: skip
    if not trace:
        for name, unit, better in END_TO_END:
            print(f"  {name:<16} {metrics[name]:>14.6g} {unit:<8} ({better} is better)")
    return {
        "correct": not any(out.problems for out in checked),
        "attempted": len(records),
        "failed": sum(1 for out in checked if out.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("small-exact", "dense-large", "verify-suite", "converge-diag"))  # fmt: skip
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        aq, import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import aqradius from this checkout: {exc}", file=sys.stderr)
        return 2
    result = run(aq, import_s, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
