"""Component-count benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload abelian-square|census|oracle \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its src/.
The workloads are described in workloads.py.

The run first times SETUP_REPS set-ups, each a fresh interpreter that
imports the package, builds the workload's groups and generates its inputs
from the seed (``setup_s`` is their median). It then runs passes, each in a
fresh interpreter, until S seconds have gone by (at least one pass, and no
pass that might not end within RUN_LIMIT_S). The first pass also runs the
cross-checks, outside its timed region.

Every time is in reference seconds: measured seconds scaled by the speed of
the core they were measured on (see speed.py), so that runs on a shared
host whose core speed drifts can be compared.

--trace 0 reports, as medians over the passes: wall_s (one pass), cpu_s
(user + sys, children included), max_case_s (the slowest case of a pass),
peak_rss_mb (largest over the passes) and setup_s.

--trace 1 runs each untraced pass next to a traced one, and reports the
per-layer metrics of the traced passes (see workloads.LAYER_FEEDS) plus
trace.overhead_ratio, traced wall_s over untraced wall_s, and
probe.speed_ratio, the factor from measured to reference seconds of the
untraced passes. Every per-layer metric is printed on every workload; one
whose layer the workload does not run reads 0, and a warning names any
metric that reads 0 on a workload LAYER_FEEDS lists for it. The
spans of the last traced pass are written to
.perfbench-work/spans-<workload>-<seed>.json.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed`` counts cases that were wrong, raised
or exited non-zero, and failed cross-checks, so failed / attempted is the
fail ratio (not a metric, as it is 0 whenever the run is correct). The
exit code is 1 when any failed, and 2 when the checkout has no engine.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import LAYER_FEEDS, WORKLOADS  # noqa: E402

SETUP_REPS = 15
RUN_LIMIT_S = 170.0  # every worker must end within this many seconds of the start

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "max_case_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def worker_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        {
            "PYTHONHASHSEED": "0",
            # one single-threaded process: no BLAS thread pool in the matmul
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            # nothing may fall through to the user's cache directory
            "HURWITZ_CACHE_DIR": str(workdir / "default-cache"),
        }
    )
    return env


class Runner:
    """Spawns the workers of one run and tallies their cases and checks."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.env = worker_env(workdir)
        self.t_start = time.monotonic()
        self.n_cases = sum(len(unit) for unit in WORKLOADS[workload])
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def spawn(self, mode: str, checks: bool = False) -> dict | None:
        """Run one worker; returns its result, or None if it failed."""
        budget = RUN_LIMIT_S - (time.monotonic() - self.t_start)
        cmd = [sys.executable, str(HERE / "worker.py"), mode, self.workload, str(self.seed),
               str(self.workdir), repr(time.time())]
        if checks:
            cmd.append("--checks")
        res, error = None, f"{mode} worker: no time left in the run"
        if budget > 1.0:
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=budget
                )
                if proc.returncode == 0:
                    res = json.loads(proc.stdout.strip().splitlines()[-1])
                else:
                    tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
                    error = f"{mode} worker exited {proc.returncode}: {tail[0]}"
            except subprocess.TimeoutExpired:
                error = f"{mode} worker timed out"
        if res is None:
            # A worker that did not finish counts every case of its pass as failed.
            self.attempted += self.n_cases
            self.failed += self.n_cases
            self.errors.append(error)
            return None
        for item in res["cases"] + res.get("checks", []):
            self.attempted += 1
            if item["error"]:
                self.failed += 1
                self.errors.append(f"{item['name']}: {item['error']}")
        return res


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    runner = Runner(workload, seed, workdir)
    setups = [runner.spawn("setup") for _ in range(SETUP_REPS)]

    passes, traced = [], []
    t0 = time.monotonic()
    longest = 0.0  # slowest iteration so far

    def room_for_more() -> bool:
        now = time.monotonic()
        return now - t0 < seconds and now - runner.t_start + 1.5 * longest < RUN_LIMIT_S

    while not passes or room_for_more():
        it0 = time.monotonic()
        res = runner.spawn("pass", checks=not passes)
        if res is None:
            break
        passes.append(res)
        if trace:
            res = runner.spawn("trace")
            if res is None:
                break
            traced.append(res)
        longest = max(longest, time.monotonic() - it0)

    for e in runner.errors:
        print(f"error: {e}", file=sys.stderr)
    for p in passes + traced:
        print(
            f"pass: wall {p['wall_s']:.3f} reference s = {p['raw_wall_s']:.3f} measured s"
            f" x speed scale {p['scale']:.4f}; cpu {p['cpu_s']:.3f} = {p['raw_cpu_s']:.3f} measured s",
            file=sys.stderr,
        )
    ok = runner.failed == 0
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if ok and not trace:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "max_case_s": statistics.median(max(c["seconds"] for c in p["cases"]) for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        units = END_TO_END_UNITS
    elif ok:
        for m in sorted({m for t in traced for m in t["missing"]}):
            print(f"warning: traced run could not wrap {m}", file=sys.stderr)
        metrics = {
            name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]
        }
        metrics["abelian.reference_s"] = passes[0]["reference_s"]
        metrics["trace.overhead_ratio"] = statistics.median(
            t["wall_s"] for t in traced
        ) / statistics.median(p["wall_s"] for p in passes)
        metrics["probe.speed_ratio"] = statistics.median(p["scale"] for p in passes)
        if set(metrics) != set(LAYER_FEEDS):
            raise RuntimeError(f"traced metrics differ from LAYER_FEEDS: {set(metrics) ^ set(LAYER_FEEDS)}")
        for name, (_, feeds) in LAYER_FEEDS.items():
            if workload in feeds and not metrics[name]:
                print(f"warning: {name} reads 0 on {workload}, which LAYER_FEEDS lists for it", file=sys.stderr)
        units = {name: layer_unit(name) for name in metrics}
    return {
        "correct": ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in ("src/hurwitz_components/cli.py", "tests/data/q8.json"):
        if not (ROOT / need).is_file():
            print(f"error: {need} is missing; run from a full checkout", file=sys.stderr)
            return 2
    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
