"""Self-test of the benchmark at reduced sizes (not part of the test suite).

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the per-layer counts of two traced passes of one seed agree
exactly, that the scan verdicts do not depend on the seed, that the
lacunary inputs do, that the speed normalisation scales intervals as
documented, that a short run prints the result line the contract asks for,
and that the harness fails without a result when the program is missing.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import run  # noqa: E402

SMALL = {
    "inclusion_scan": dict(grid=(2, "inf")),
    "lacunary_norms": dict(series=2, nodes=6),
    "bergman_grid": dict(n=32, trials=3, blowup_grid=(512, 64, 16), radii=4),
}


def check(ok: bool, what: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def traced_counts_repeat(failures: list) -> None:
    from tracing import COUNTS, layer_metrics, traced_pass
    from workloads import WORKLOADS

    for name, sizes in SMALL.items():
        work = WORKLOADS[name](7, **sizes)
        runs = []
        for _ in range(2):
            res, rec = traced_pass(work, "selftest")
            runs.append(layer_metrics(rec.spans, res.counts))
        differ = [k for k in COUNTS if runs[0][k] != runs[1][k]]
        check(not differ, f"{name}: traced counts repeat {differ or ''}",
              failures)
        reached = [k for k in ("functions.evaluate.calls", "meshes.calls")
                   if not runs[0][k]]
        check(not reached, f"{name}: functions and meshes reached {reached or ''}",
              failures)


def seeds(failures: list) -> None:
    from workloads import InclusionScan, LacunaryNorms

    small = SMALL["inclusion_scan"]
    tables = [InclusionScan(s, **small).run_pass().table for s in (1, 2)]
    orders = [InclusionScan(s, **small).cells for s in (1, 2)]
    check(orders[0] != orders[1], "inclusion_scan: seeds permute the cells",
          failures)
    check(tables[0] == tables[1], "inclusion_scan: verdicts equal across seeds",
          failures)
    inputs = [[f for f, _, _ in LacunaryNorms(s, **SMALL["lacunary_norms"]).series]
              for s in (1, 2)]
    check(inputs[0] != inputs[1], "lacunary_norms: inputs differ across seeds",
          failures)
    again = [f for f, _, _ in LacunaryNorms(1, **SMALL["lacunary_norms"]).series]
    check(again == inputs[0], "lacunary_norms: one seed, same inputs", failures)


def speed_normalisation(failures: list) -> None:
    from speed import PROBE_REF_S, SpeedClock

    clock = SpeedClock()
    # probes of 1, 2, 4 and 8 times the reference time, each 0.1 s long
    clock.marks = [(1.1 * i, 1.1 * i + 0.1, 2 ** i * PROBE_REF_S)
                   for i in range(4)]
    clock._ends = [m[1] for m in clock.marks]
    # each gap is scaled by the mean of the two probes before and after it
    want = 1.0 / (7 / 3) + 1.0 / (15 / 4) + 1.0 / (14 / 3)
    raw, norm = clock.between(0, 3)
    check(abs(raw - 3.0) < 1e-9 and abs(norm - want) < 1e-9,
          f"speed: pass time without probes, scaled per gap ({raw}, {norm})",
          failures)
    scaled = clock.scale(2.4, 2.8)
    check(abs(scaled - 0.4 / (14 / 3)) < 1e-9,
          f"speed: an item scaled by the probes around it ({scaled})",
          failures)


def result_line(failures: list) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bergman_grid",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = set(last) == {"correct", "attempted", "failed", "metrics"}
    metrics = set(last["metrics"]) == {"setup_s", "wall_s", "item_p50_ms",
                                       "item_tail_ms", "peak_rss_mb"}
    check(proc.returncode == 0 and keys and metrics and last["correct"],
          "run.py prints the result line and exits 0", failures)


def fails_without_program(failures: list) -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lacunary_norms",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    check(proc.returncode not in (0, None) and not proc.stdout.strip(),
          f"without src/ the run exits {proc.returncode} and prints nothing",
          failures)


def main() -> int:
    run.pin_threads()
    run.load_radmix()
    failures: list = []
    traced_counts_repeat(failures)
    seeds(failures)
    speed_normalisation(failures)
    result_line(failures)
    fails_without_program(failures)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
