"""Benchmark harness for radmix.

Run from the root of a checkout:

    python3 perfbench/run.py --workload inclusion_scan --seed 0 \
        --seconds 36 --trace 0

``--workload all`` runs every workload, each in a fresh process, and prints
their metrics together.  A run sets up the workload several times in fresh
child processes (the median is ``setup_s``), then repeats identical passes
of the workload until ``--seconds`` are used up (at least the workload's
``min_passes``) and reports medians over the passes.  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from
the traced ones instead.

End-to-end times are normalised to a fixed host speed with a probe timed
between items (see speed.py); the raw times are printed beside them and
kept in the full result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed and 2 when the program
under test cannot be loaded.  The full result, with the environment, goes to
``perfbench/out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("inclusion_scan", "lacunary_norms", "bergman_grid")
SETUP_REPS = 11
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy is imported.

    Children inherit the environment, so set-up processes match.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_radmix():
    """Import radmix from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import radmix
    if not Path(radmix.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"radmix loaded from {radmix.__file__}, not {src}")
    return radmix


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "radmix").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def tail(values: list) -> tuple:
    """The highest percentile with at least ten values above it."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def time_setup(workload: str, seed: int) -> tuple:
    """Median normalised and raw seconds of importing radmix and building
    the inputs, each time in a fresh process after one unmeasured one."""
    from speed import PROBE_REF_S

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    raw, norm = [], []
    for _ in range(1 + SETUP_REPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              check=True)
        seconds, probe_s = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        norm.append(seconds * PROBE_REF_S / probe_s)
    return statistics.median(norm[1:]), statistics.median(raw[1:])


class Pass:
    """One pass: its result, normalised and raw wall seconds without the
    probes, the clock that timed it and, when traced, its spans."""

    def __init__(self, traced, res, wall, raw_wall, clock, recorder):
        self.traced, self.res, self.recorder = traced, res, recorder
        self.wall, self.raw_wall, self.clock = wall, raw_wall, clock

    def item_seconds(self, normalised: bool) -> list:
        if normalised:
            return [self.clock.scale(s, e) for s, e in self.res.items]
        return [e - s for s, e in self.res.items]


def run_passes(work, seconds: float, trace: bool, run_id: str) -> list:
    """Repeat passes until the next one would end after ``seconds``.

    In a traced run every second pass is traced.  The host's speed is
    probed before and after every pass and, unless it is traced, between
    its items (probes inside a traced pass would add to its spans).
    """
    from speed import SpeedClock
    from tracing import traced_pass

    clock = SpeedClock()
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        tracing = trace and len(passes) % 2 == 1
        gc.collect()
        t0 = time.perf_counter()
        first = clock.mark()
        if tracing:
            res, recorder = traced_pass(work, run_id)
        else:
            res, recorder = work.run_pass(tick=clock.tick), None
        raw_wall, wall = clock.between(first, clock.mark())
        passes.append(Pass(tracing, res, wall, raw_wall, clock, recorder))
        longest = max(longest, time.perf_counter() - t0)
        if (len(passes) >= work.min_passes
                and time.perf_counter() - start + longest > seconds):
            return passes


def item_stats(passes: list, normalised: bool) -> tuple:
    """Median pass wall and item latencies.  Every pass repeats the same
    items in the same order, so each item's latency is its median over the
    passes."""
    items = [statistics.median(lat) for lat in
             zip(*(p.item_seconds(normalised) for p in passes))]
    tail_s, percentile = tail(items)
    return {
        "wall_s": statistics.median(p.wall if normalised else p.raw_wall
                                    for p in passes),
        "item_p50_ms": 1e3 * statistics.median(items),
        "item_tail_ms": 1e3 * tail_s,
    }, len(items), percentile


def end_to_end(passes: list) -> tuple:
    values, n_items, percentile = item_stats(passes, normalised=True)
    raw, _, _ = item_stats(passes, normalised=False)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    probes = [r for _, _, r in passes[0].clock.marks]
    return values, {"items_per_pass": n_items, "tail_percentile": percentile,
                    "raw": raw, "probes": len(probes),
                    "probe_ms_median": 1e3 * statistics.median(probes)}


def per_layer(passes: list) -> tuple:
    """Counts from the traced passes (they must agree exactly), medians of
    their times, and the traced minus the untraced median pass wall."""
    from tracing import COUNTS, layer_metrics

    traced = [layer_metrics(p.recorder.spans, p.res.counts)
              for p in passes if p.traced]
    repeat = all(t[k] == traced[0][k] for t in traced for k in COUNTS)
    values = {name: traced[0][name] if name in COUNTS
              else statistics.median(t[name] for t in traced)
              for name in traced[0]}
    walls = {flag: statistics.median(p.wall for p in passes
                                     if p.traced == flag)
             for flag in (True, False)}
    values["trace.overhead_s"] = walls[True] - walls[False]
    return values, {"counts_repeat": repeat}


def declared_units(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(args) -> int:
    pin_threads()
    try:
        load_radmix()
    except ImportError as exc:
        print(f"cannot load radmix from this checkout: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    setup_s, raw_setup_s = (None, None) if args.trace else time_setup(
        args.workload, args.seed)
    work = WORKLOADS[args.workload](args.seed)
    run_id = uuid.uuid4().hex
    passes = run_passes(work, args.seconds, bool(args.trace), run_id)

    attempted = sum(p.res.attempted for p in passes)
    failed = sum(p.res.failed for p in passes)
    tables = [p.res.table for p in passes]
    same_tables = all(t == tables[0] for t in tables)
    if args.trace:
        values, notes = per_layer(passes)
        correct = failed == 0 and same_tables and notes["counts_repeat"]
    else:
        values, notes = end_to_end(passes)
        values["setup_s"] = setup_s
        notes["raw"]["setup_s"] = raw_setup_s
        correct = failed == 0 and same_tables
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, declared {sorted(units)}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    notes.update(passes=len(passes),
                 traced_passes=sum(p.traced for p in passes),
                 pass_walls_s=[p.wall for p in passes],
                 raw_pass_walls_s=[p.raw_wall for p in passes])

    env = environment(args.seed)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} {json.dumps(notes)}")
    print(f"# environment {json.dumps(env)}")
    raw = notes.get("raw", {})
    for name, (value, unit) in metrics.items():
        extra = f"  (raw {raw[name]:.6f})" if name in raw else ""
        print(f"{name:34s} {value:16.6f} {unit}{extra}")
    print(f"{'failed_share':34s} {failed / max(attempted, 1):16.6f} "
          f"({failed}/{attempted} checked items)")
    problems = [what for p in passes for what in p.res.problems]
    for problem in problems[:20]:
        print(f"# check failed: {problem}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "run_id": run_id,
        "environment": env,
        "seconds": args.seconds, "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / max(attempted, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "problems": problems,
        "scan_verdicts": tables[0],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [s for p in passes if p.recorder
                 for s in p.recorder.to_json()]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2 or not lines:
            return 2
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return status


def setup_only(args) -> int:
    """Time importing radmix and building the inputs, probing the host's
    speed just before and just after; print the seconds and the mean
    probe time."""
    pin_threads()
    sys.path.insert(0, str(HERE))
    from speed import probe
    before = probe()
    t0 = time.perf_counter()
    load_radmix()
    from workloads import WORKLOADS
    WORKLOADS[args.workload](args.seed)
    seconds = time.perf_counter() - t0
    print(seconds, (before + probe()) / 2)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
