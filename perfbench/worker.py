"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED WORKDIR SPAWNED_AT [--checks]

MODE is ``setup`` (import, build the groups, generate the inputs, exit),
``pass`` (set up, then run every case of the workload once, timed) or
``trace`` (the same pass with the engine's layers wrapped in spans).
``--checks`` adds the answer cross-checks that run after the timed pass.
SPAWNED_AT is the parent's ``time.time()`` just before it started this
process, so that set-up time includes interpreter start. Times are in
reference seconds (see speed.py). The last line of stdout is one JSON
object; see ``run_worker``.
"""
from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CLOSED_FORM, SETUP_GROUPS, WORKLOADS, Case  # noqa: E402

ROOT = HERE.parent
TIMING_FIELDS = ("elapsed_ms",)


def import_engine():
    """Import the package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from hurwitz_components import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's src/")
    return cli


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def setup(cli, workload: str, seed: int, workdir: Path) -> list[Case]:
    """Build the workload's groups and generate its inputs from the seed."""
    rng = random.Random(seed)
    for spec in SETUP_GROUPS[workload]:
        cli.construct_group(spec)
    catalog = workdir / "catalog.txt"
    if workload == "census":
        lines = list(SETUP_GROUPS["census"])
        rng.shuffle(lines)
        catalog.write_text("\n".join(lines) + "\n")
    cache = workdir / f"cache-{seed}-{time.time_ns()}"
    units = list(WORKLOADS[workload])
    rng.shuffle(units)
    subst = {"{catalog}": str(catalog), "{cache}": str(cache)}
    return [
        Case(c.name, tuple(subst.get(a, a) for a in c.argv) + ("--seed", str(seed)), c.same_bytes_as)
        for unit in units
        for c in unit
    ]


def call_cli(cli, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def answer_error(case: Case, code: int, out: str, expected: dict, printed: dict) -> str | None:
    """Why a case's answer is wrong, or None when it matches the record."""
    if code != 0:
        return f"exit code {code}"
    if case.same_bytes_as is not None and out != printed.get(case.same_bytes_as):
        return f"bytes differ from {case.same_bytes_as}"
    if answer_doc(out) != expected[case.name]:
        return "document differs from expected.json"
    return None


def answer_doc(out: str) -> dict:
    """The printed document without its timing fields."""
    doc = json.loads(out)
    for key in TIMING_FIELDS:
        doc.pop(key, None)
    return doc


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def release_memory(libc) -> None:
    """Free cyclic garbage and hand freed heap pages back to the OS, so that
    each case's peak RSS starts from the same floor whatever case ran before
    it, as when a user runs each command in its own process."""
    gc.collect()
    if libc is not None:
        libc.malloc_trim(0)


def run_pass(cli, cases: list[Case], expected: dict, tracer: Tracer | None = None) -> dict:
    """Run every case once, each after the previous one ends; time the pass
    and each case, then check every answer after the clock has stopped."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: no malloc_trim
        libc = None
    runs = []
    root = tracer.open("pass") if tracer else None
    with SpeedProbe() as probe:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        for case in cases:
            span = tracer.open("cli.case") if tracer else None
            c0, s0 = time.perf_counter(), len(probe.samples)
            try:
                code, out = call_cli(cli, case.argv)
                raised = None
            except Exception as exc:  # a crash is a failed case, not a crashed benchmark
                code, out, raised = -1, "", f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - c0
            if tracer:
                tracer.close(span).info = {"case": case.name}
            release_memory(libc)
            runs.append((case, code, out, seconds, (s0, len(probe.samples)), raised))
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        n_samples = len(probe.samples)
    if tracer:
        tracer.close(root)
    scale = probe.scale(0, n_samples)

    printed: dict[str, str] = {}
    results = []
    for case, code, out, seconds, window, error in runs:
        if error is None:
            try:
                error = answer_error(case, code, out, expected, printed)
            except (ValueError, KeyError) as exc:
                error = f"unreadable answer: {type(exc).__name__}: {exc}"
        printed[case.name] = out
        results.append({"name": case.name, "seconds": seconds * probe.scale(*window), "error": error})
    return {
        "wall_s": wall * scale,
        "cpu_s": cpu * scale,
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "scale": scale,
        "cases": results,
        "printed": printed,
    }


def cross_checks(cli, cases: list[Case], expected: dict, printed: dict) -> tuple[list[dict], float]:
    """Answer checks by a second route, outside the timed pass: the abelian
    closed-form class count, and the two-stage document for each one-stage
    case. Returns the checks and the seconds spent in the abelian reference."""
    from hurwitz_components.abelian import quadruple_classes

    checks = []
    reference_s = 0.0
    for case in cases:
        error = None
        if case.name in CLOSED_FORM:
            p = CLOSED_FORM[case.name]
            t0 = time.perf_counter()
            h, _ = quadruple_classes(p)
            reference_s += time.perf_counter() - t0
            if h != expected[case.name]["h"]:
                error = f"quadruple_classes({p}) = {h}, expected.json has h = {expected[case.name]['h']}"
        elif "one-stage" in case.argv:
            argv = ["two-stage" if a == "one-stage" else a for a in case.argv]
            code, out = call_cli(cli, argv)
            if code != 0:
                error = f"two-stage exit code {code}"
            elif not printed[case.name] or answer_doc(out) != answer_doc(printed[case.name]):
                error = "two-stage document differs from the one-stage document"
        else:
            continue
        checks.append({"name": f"cross-check {case.name}", "error": error})
    return checks, reference_s


def install_tracing(cli, tracer: Tracer, enumerated: list) -> None:
    """Wrap each layer's public function where orbits and cli look it up.
    ``enumerated`` collects the (group, type) of every side whose systems
    the engine enumerated, for the candidate estimate of its yield."""
    from hurwitz_components import moves, orbits

    def n_moves(tau) -> int:
        gp, r = tau.gprime, len(tau.periods)
        return 0 if (gp, r) == (0, 0) else len(moves.available_moves(gp, r))

    def side_info(args, part):
        enumerated.append((args[0], part.tau))
        return {
            "key": f"{args[0].name}/{part.tau}",
            "systems": len(part.systems),
            "labels": len(part.labels),
            "moves": n_moves(part.tau),
        }

    def one_stage_info(args, rep):
        # A pair of equal types enumerates its one side once.
        sides = {tau.canonical(): tau for tau in args[1:3]}
        enumerated.extend((args[0], tau) for tau in sides.values())
        return {"total_pairs": rep.total_pairs, "moves": n_moves(args[1]) + n_moves(args[2])}

    spans = [
        (orbits, "side_orbits", "orbits.side", False, side_info),
        (orbits, "count_components", "orbits.count", False, None),
        (cli, "count_components", "orbits.count", False, None),
        (orbits, "count_components_one_stage", "orbits.one_stage", False, one_stage_info),
        (cli, "count_components_one_stage", "orbits.one_stage", False, one_stage_info),
        (orbits, "automorphism_group", "automorphisms.aut", False,
         lambda a, aut: {"acting_maps": len(aut.acting_maps())}),
        (orbits, "inner_automorphisms", "automorphisms.inn", False, lambda a, m: {"maps": len(m)}),
        (orbits, "enumerate_systems", "ramification.enumerate", True,
         lambda a, s: {"systems": len(s)}),
        (orbits, "sigma_set", "ramification.sigma", False, None),
        (orbits, "admissible_type_pairs", "orbits.admissible", False,
         lambda a, pairs: {"pairs": len(pairs)}),
        (cli, "construct_group", "groups.construct", False, None),
    ]
    for module, attr, name, consume, describe in spans:
        tracer.patch(module, attr, lambda fn, n=name, c=consume, d=describe: tracer.wrap(n, fn, c, d))
    tracer.patch(orbits, "apply_move", tracer.count)


def layer_metrics(tracer: Tracer, enumerated: list, scale: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass. Times are reference seconds
    (measured seconds times the pass's probe scale); the rest are exact
    counts or ratios of counts, not timings. A layer the workload does not
    run reads 0 calls and 0 s."""
    from hurwitz_components.orbits import estimate_system_candidates

    spans = tracer.spans
    own = tracer.self_seconds()
    tot = tracer.totals()

    def seconds(name: str, key: str = "seconds") -> float:
        return tot[name][key] * scale if name in tot else 0.0

    def calls(name: str) -> int:
        return int(tot[name]["calls"]) if name in tot else 0

    def info_sum(name: str, key: str) -> int:
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    sides = [s for s in spans if s.name == "orbits.side"]
    label_cells = 0
    for i, s in enumerate(spans):
        if s.name == "orbits.count":
            ls = [spans[c].info.get("labels", 0) for c in children.get(i, []) if spans[c].name == "orbits.side"]
            if ls:
                label_cells += ls[0] * ls[-1]

    # apply_move calls counted inside the move BFS, against the number the
    # BFS must make: each system (or pair) is expanded once by every move.
    bfs = [s for s in spans if s.name in ("orbits.side", "orbits.one_stage")]
    counted = sum(s.applies_end - s.applies_start for s in bfs)
    derived = sum(s.info.get("systems", 0) * s.info.get("moves", 0) for s in sides) + sum(
        s.info.get("total_pairs", 0) * s.info.get("moves", 0)
        for s in spans
        if s.name == "orbits.one_stage"
    )

    systems = info_sum("ramification.enumerate", "systems")
    candidates = sum(estimate_system_candidates(G, tau) for G, tau in enumerated)
    case_span = {s.info.get("case"): i for i, s in enumerate(spans) if s.name == "cli.case"}
    root = next(i for i, s in enumerate(spans) if s.name == "pass")
    # Time in no engine layer's span: the pass's own and the cli calls' own.
    outside = own[root] + sum(own[i] for i in case_span.values())
    return {
        "groups.construct_s": seconds("groups.construct"),
        "ramification.enumerate_s": seconds("ramification.enumerate"),
        "ramification.systems": systems,
        "ramification.yield_ratio": ratio(systems, candidates),
        "ramification.sigma_s": seconds("ramification.sigma"),
        "ramification.sigma_calls": calls("ramification.sigma"),
        "moves.apply_calls": tracer.calls[0],
        "moves.apply_derived_ratio": ratio(counted, derived),
        "automorphisms.aut_s": seconds("automorphisms.aut"),
        "automorphisms.aut_calls": calls("automorphisms.aut"),
        "automorphisms.acting_maps": info_sum("automorphisms.aut", "acting_maps"),
        "automorphisms.inn_s": seconds("automorphisms.inn"),
        "automorphisms.inn_maps": info_sum("automorphisms.inn", "maps"),
        "orbits.side_s": seconds("orbits.side"),
        "orbits.side_bfs_self_s": seconds("orbits.side", "self_seconds"),
        "orbits.side_calls": len(sides),
        "orbits.side_repeats": len(sides) - len({s.info.get("key") for s in sides}),
        "orbits.labels": info_sum("orbits.side", "labels"),
        "orbits.label_cells": label_cells,
        "orbits.pair_stage_self_s": seconds("orbits.count", "self_seconds"),
        "orbits.one_stage_s": seconds("orbits.one_stage"),
        "orbits.one_stage_pairs": info_sum("orbits.one_stage", "total_pairs"),
        "orbits.admissible_s": seconds("orbits.admissible"),
        "orbits.type_pairs": info_sum("orbits.admissible", "pairs"),
        # Miss: cli time outside the count (key, canonical JSON, cache write).
        "cli.cache_write_s": own[case_span["cache-miss"]] * scale if "cache-miss" in case_span else 0.0,
        "cli.cache_hit_s": spans[case_span["cache-hit"]].seconds * scale if "cache-hit" in case_span else 0.0,
        "trace.accounted_ratio": 1.0 - ratio(outside, spans[root].seconds),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_worker(
    mode: str, workload: str, seed: int, workdir: Path, spawned_at: float, checks: bool
) -> dict:
    """One repetition. The result has the pass's wall_s, cpu_s, peak_rss_mb,
    per-case seconds and errors, the cross-checks, and, when traced, the
    per-layer metrics and any engine name the tracer could not wrap."""
    with SpeedProbe() as probe:
        cli = import_engine()
        cases = setup(cli, workload, seed, workdir)
        setup_s = time.time() - spawned_at
    if mode == "setup":
        return {"cases": [], "setup_s": setup_s * probe.scale()}
    expected = load_expected()
    tracer = enumerated = None
    if mode == "trace":
        tracer, enumerated = Tracer(), []
        install_tracing(cli, tracer, enumerated)
    try:
        res = run_pass(cli, cases, expected, tracer)
    finally:
        if tracer:
            tracer.unpatch()
    res["peak_rss_mb"] = peak_rss_mb()
    printed = res.pop("printed")
    res["checks"], res["reference_s"] = cross_checks(cli, cases, expected, printed) if checks else ([], 0.0)
    if tracer:
        res["layers"] = layer_metrics(tracer, enumerated, res["scale"])
        res["missing"] = tracer.missing
        out = ROOT / ".perfbench-work" / f"spans-{workload}-{seed}.json"
        out.write_text(json.dumps(tracer.to_json()))
    return res


def main(argv: list[str]) -> int:
    mode, workload, seed, workdir, spawned_at = argv[:5]
    res = run_worker(mode, workload, int(seed), Path(workdir), float(spawned_at), "--checks" in argv[5:])
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
