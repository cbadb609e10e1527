"""The benchmark's workloads, and which layer metric should move which end-to-end metric.

All three workloads are closed loops with one client: each case is one
in-process ``cli.main([...])`` call that starts after the previous one has
finished, in one single-threaded Python process. Every repetition (pass)
runs in a fresh interpreter, so ``peak_rss_mb`` belongs to that workload.

The workload seed is passed to the engine as ``--seed`` (it only seeds the
sampled Sigma-constancy assertions) and shuffles the order of the cases
within a pass, and of the catalog lines in ``census``. No answer depends on
it; every answer is checked against ``expected.json``.

abelian-square
    ``count`` (two-stage) on ``Zn:p,p`` with ``(0|p,p,p)^2`` for p = 7, 11, 13
    (h = 7, 79, 178), plus a cache probe on ``Zn:5,5``: a miss that writes a
    fresh ``--cache-dir``, then a hit whose bytes must equal the miss's.
    The pair-orbit stage is most of the time, and the 8.6 M label cells at
    p = 13 set peak memory. p = 7 acts with the full list of 2016 Aut maps,
    p = 11 and 13 with 5 generator maps, so both branches of the acting-map
    choice run. An Aut-quotient pair stage, or Aut from generators, shows
    here first.

census
    ``scan --chi 1 --q 1 --threads 2`` over a generated catalog of eight
    groups, among them a Cayley-table group (Q8, validated on load) and
    Alt:5: 46 type pairs, 8 rows, total_h = 10. ``side_orbits`` is nearly
    all of the time (move/Inn BFS over g' > 0 handle moves, and system
    enumeration); the pair stage is a few tens of milliseconds. 92 side
    partitions are built of which only 68 are distinct. A pair-stage change
    should leave it unchanged; a side-stage, Inn or ``--threads`` change
    should move it (``--threads 2`` is a no-op in the engine today).

oracle
    ``count --oracle one-stage`` on ``Zn:5,5 (0|5,5,5)^2``,
    ``Sym:4 (0|2,2,2,4)x(1|3)`` and ``Sym:4 (0|3,4,4)x(1|2,2)``. The raw-pair
    Python BFS is all of the time and uses neither the label quotient nor
    the pair stage. After the timed pass each document is compared with the
    two-stage document of the same case. It also catches a change to the
    shared moves/ramification code that helps one route and costs the other.

Deliberately not workloads:

* ``verify``: its two-route panel is meant to widen once the oracle is fast,
  so its work changes by design; its cost is already covered by the
  abelian-square counts and the g' > 0 enumeration in census.
* The Tier-1 test suite: about 190 s per run, too long to repeat.
* ``Alt:5`` and ``Zn:7,7`` one-stage counts: about 46 s and 23 s each, too
  long to repeat.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    """One ``cli.main`` call. ``{catalog}`` and ``{cache}`` in argv are
    replaced with per-run paths. A case with ``same_bytes_as`` must print
    exactly the bytes the named case printed earlier in the same pass."""

    name: str
    argv: tuple[str, ...]
    same_bytes_as: str | None = None


def _count(group: str, t1: str, t2: str, *extra: str) -> tuple[str, ...]:
    return ("count", "--group", group, "--type1", t1, "--type2", t2, *extra)


def _square(p: int) -> Case:
    t = f"0|{p},{p},{p}"
    return Case(f"Zn{p}x{p}", _count(f"Zn:{p},{p}", t, t, "--no-cache"))


# abelian-square case -> p, checked once per run against the closed-form
# class count abelian.quadruple_classes(p), outside the timed pass.
CLOSED_FORM = {f"Zn{p}x{p}": p for p in (7, 11, 13)}


_PROBE = _count("Zn:5,5", "0|5,5,5", "0|5,5,5", "--cache-dir", "{cache}")

CENSUS_CATALOG = (
    "Sym:3",
    "Sym:4",
    "Alt:4",
    "Zn:2,2",
    "Zn:2,4",
    "Zn:2,2,2",
    "cayley:tests/data/q8.json",
    "Alt:5",
)

ORACLE_CASES = (
    ("oracle-Zn5x5", "Zn:5,5", "0|5,5,5", "0|5,5,5"),
    ("oracle-Sym4-a", "Sym:4", "0|2,2,2,4", "1|3"),
    ("oracle-Sym4-b", "Sym:4", "0|3,4,4", "1|2,2"),
)

# A workload is a list of units; the seed shuffles the units, and the cases
# inside one unit keep their order (the cache hit must follow its miss).
WORKLOADS: dict[str, list[tuple[Case, ...]]] = {
    "abelian-square": [
        *((_square(p),) for p in CLOSED_FORM.values()),
        (Case("cache-miss", _PROBE), Case("cache-hit", _PROBE, same_bytes_as="cache-miss")),
    ],
    "census": [
        (
            Case(
                "census",
                ("scan", "--catalog", "{catalog}", "--chi", "1", "--q", "1", "--threads", "2"),
            ),
        ),
    ],
    "oracle": [
        (Case(name, _count(g, t1, t2, "--oracle", "one-stage", "--no-cache")),)
        for name, g, t1, t2 in ORACLE_CASES
    ],
}

# Groups each workload builds during set-up, before any timed case.
SETUP_GROUPS: dict[str, tuple[str, ...]] = {
    "abelian-square": ("Zn:5,5", "Zn:7,7", "Zn:11,11", "Zn:13,13"),
    "census": CENSUS_CATALOG,
    "oracle": ("Zn:5,5", "Sym:4"),
}

# Per-layer metric -> (end-to-end metric it should move, workloads it moves on).
# Every one is reported on every workload; on the others its layer may not
# run, and then its seconds and counts are 0.
LAYER_FEEDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "groups.construct_s": ("setup_s", ("abelian-square", "census", "oracle")),
    "ramification.enumerate_s": ("wall_s", ("census",)),
    "ramification.systems": ("wall_s", ("census",)),
    "ramification.yield_ratio": ("wall_s", ("census",)),
    "ramification.sigma_s": ("wall_s", ("abelian-square",)),
    "ramification.sigma_calls": ("wall_s", ("abelian-square",)),
    "moves.apply_calls": ("wall_s, cpu_s", ("census", "oracle")),
    "moves.apply_derived_ratio": ("none: check of the counter", ("census", "oracle")),
    "automorphisms.aut_s": ("wall_s", ("abelian-square", "census")),
    "automorphisms.aut_calls": ("wall_s", ("abelian-square", "census")),
    "automorphisms.acting_maps": ("wall_s", ("abelian-square",)),
    "automorphisms.inn_s": ("wall_s", ("census",)),
    "automorphisms.inn_maps": ("wall_s", ("census",)),
    "orbits.side_s": ("wall_s", ("census",)),
    "orbits.side_bfs_self_s": ("wall_s", ("census",)),
    "orbits.side_calls": ("wall_s", ("census",)),
    "orbits.side_repeats": ("wall_s", ("census",)),
    "orbits.labels": ("peak_rss_mb", ("abelian-square",)),
    "orbits.label_cells": ("peak_rss_mb", ("abelian-square",)),
    "orbits.pair_stage_self_s": ("wall_s, max_case_s", ("abelian-square",)),
    "orbits.one_stage_s": ("wall_s", ("oracle",)),
    "orbits.one_stage_pairs": ("wall_s", ("oracle",)),
    "orbits.admissible_s": ("wall_s", ("census",)),
    "orbits.type_pairs": ("wall_s", ("census",)),
    "cli.cache_write_s": ("wall_s", ("abelian-square",)),
    "cli.cache_hit_s": ("wall_s", ("abelian-square",)),
    "abelian.reference_s": ("none: outside the timed pass", ("abelian-square",)),
    "trace.overhead_ratio": ("none: cost of the traced run itself", ("abelian-square", "census", "oracle")),
    "trace.accounted_ratio": ("none: share of traced wall_s in engine layer spans", ("abelian-square", "census", "oracle")),
    "probe.speed_ratio": ("none: reference over measured seconds", ("abelian-square", "census", "oracle")),
}
