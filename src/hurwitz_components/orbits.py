"""Hurwitz orbits and component counts.

Two independent routes compute h(G; tau1, tau2):

* the two-stage engine: per-side orbit partitions under moves + Inn(G),
  disjointness evaluated once per orbit-label pair, then a vectorized BFS
  over disjoint label pairs under diagonal Aut(G) and the factor swap;
* a one-stage oracle: direct BFS over raw disjoint ordered pairs under
  per-side moves, per-side Inn generators, diagonal Aut generators, and swap.

Both refuse honestly (BudgetExceeded) instead of degrading.
"""
from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .automorphisms import automorphism_group, inner_automorphisms
from .errors import BudgetExceeded, UserInputError
from .groups import Group
from .moves import available_moves, apply_move, convention_self_check
from .ramification import (
    SignatureType,
    curve_genus,
    enumerate_systems,
    period_multisets_with_angle_sum,
    sigma_set,
    long_relation_holds,
)

DEFAULT_MAX_SYSTEMS = 10_000_000
DEFAULT_ONE_STAGE_SCAN_BUDGET = 5_000_000


@dataclass
class EquivalenceConfig:
    include_inn_per_side: bool | None = None  # None = auto (always on)
    include_swap: bool | None = None  # None = auto (on iff unordered types match)
    max_systems: int = DEFAULT_MAX_SYSTEMS
    one_stage_scan_budget: int = DEFAULT_ONE_STAGE_SCAN_BUDGET
    representatives: bool = False
    threads: int = 1  # accepted for interface compatibility; engine is single-threaded
    seed: int = 0  # seeds the sampled Sigma-constancy assertions


@dataclass
class SidePartition:
    group: Group
    tau: SignatureType  # canonical (sorted periods)
    systems: list[tuple[int, ...]]  # sorted
    labels: list[tuple[int, ...]]  # lex-min member per orbit, sorted
    label_of: dict[tuple[int, ...], int]  # system -> index into labels
    orbit_members: list[list[tuple[int, ...]]]

    @property
    def orbit_sizes(self) -> list[int]:
        return [len(m) for m in self.orbit_members]


@dataclass
class OrbitReport:
    group: str
    type1: str
    type2: str
    h: int
    orbit_sizes: list[int]  # descending
    total_pairs: int
    elapsed_ms: float | None = None
    representatives: list[dict] | None = None

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "type1": self.type1,
            "type2": self.type2,
            "h": self.h,
            "orbit_sizes": self.orbit_sizes,
            "total_pairs": self.total_pairs,
            "elapsed_ms": self.elapsed_ms,
            "representatives": self.representatives,
        }


def estimate_system_candidates(G: Group, tau: SignatureType) -> int:
    """Upper bound on tuples enumerated for the unordered type (pre-filter)."""
    counts_by_order: dict[int, int] = {}
    for m in set(tau.periods):
        counts_by_order[m] = sum(1 for x in G.elements() if G.element_order(x) == m)
    total = 0
    for ordering in tau.orderings():
        cand = G.order ** (2 * tau.gprime)
        for m in ordering[: len(ordering) - 1] if ordering else ():
            cand *= counts_by_order[m]
        total += cand
    if tau.r == 0:
        total = G.order ** (2 * tau.gprime)
    return total


def side_orbits(
    G: Group, tau: SignatureType, config: EquivalenceConfig | None = None
) -> SidePartition:
    """Partition all systems of tau's unordered type into move orbits.

    Orbit labels are the lexicographically minimal members; conjugation by
    generators of G is applied entrywise alongside the moves (always on
    unless explicitly disabled, and forced on for g' > 0).
    """
    config = config or EquivalenceConfig()
    canonical = SignatureType(tau.gprime, tuple(sorted(tau.periods)))
    est = estimate_system_candidates(G, canonical)
    if est > config.max_systems:
        raise BudgetExceeded(
            f"side enumeration for {G.name} type {canonical} needs {est} candidate tuples "
            f"(> {config.max_systems})",
            required=est,
        )
    systems: list[tuple[int, ...]] = []
    for ordering in canonical.orderings():
        systems.extend(enumerate_systems(G, SignatureType(canonical.gprime, ordering)))
    systems.sort()

    include_inn = config.include_inn_per_side
    if include_inn is None:
        include_inn = True
    if canonical.gprime > 0:
        include_inn = True

    gp, r = canonical.gprime, canonical.r
    if gp == 0 and r == 0:
        moves = []
    else:
        moves = available_moves(gp, r)
        convention_self_check(G, gp, r, systems[:20])
    inn_maps = inner_automorphisms(G) if include_inn else ()

    universe = set(systems)
    label_of: dict[tuple[int, ...], int] = {}
    labels: list[tuple[int, ...]] = []
    orbit_members: list[list[tuple[int, ...]]] = []
    for seed in systems:
        if seed in label_of:
            continue
        idx = len(labels)
        labels.append(seed)
        members = [seed]
        label_of[seed] = idx
        frontier = [seed]
        while frontier:
            nxt = []
            for ent in frontier:
                neighbors = [apply_move(G, gp, ent, m) for m in moves]
                for phi in inn_maps:
                    neighbors.append(tuple(phi[x] for x in ent))
                for nb in neighbors:
                    if nb not in label_of:
                        if nb not in universe:
                            raise AssertionError(
                                f"move left the system universe for {G.name} {canonical}"
                            )
                        label_of[nb] = idx
                        members.append(nb)
                        nxt.append(nb)
            frontier = nxt
        members.sort()
        orbit_members.append(members)
    return SidePartition(G, canonical, systems, labels, label_of, orbit_members)


def _sigma_matrix(
    G: Group, part: SidePartition, rng: random.Random
) -> np.ndarray:
    """Bool matrix (labels x |G|) of Sigma sets, with sampled orbit-constancy checks."""
    mat = np.zeros((len(part.labels), G.order), dtype=bool)
    for i, label in enumerate(part.labels):
        sig = sigma_set(G, part.tau.gprime, label)
        for x in sig:
            mat[i, x] = True
        members = part.orbit_members[i]
        for ent in rng.sample(members, min(3, len(members))):
            if sigma_set(G, part.tau.gprime, ent) != sig:
                raise AssertionError(
                    f"Sigma not constant on orbit {i} of {G.name} {part.tau}"
                )
    return mat


def _aut_label_perm(
    G: Group, part: SidePartition, phi: tuple[int, ...]
) -> np.ndarray:
    """Permutation induced on orbit labels by the automorphism phi."""
    out = np.empty(len(part.labels), dtype=np.int64)
    for i, label in enumerate(part.labels):
        image = tuple(phi[x] for x in label)
        j = part.label_of.get(image)
        if j is None:
            raise AssertionError(f"automorphism image left the system set for {G.name}")
        out[i] = j
    return out


def count_components(
    G: Group,
    tau1: SignatureType,
    tau2: SignatureType,
    config: EquivalenceConfig | None = None,
) -> OrbitReport:
    """Two-stage component count h(G; tau1, tau2)."""
    config = config or EquivalenceConfig()
    rng = random.Random(config.seed)
    t1 = SignatureType(tau1.gprime, tuple(sorted(tau1.periods)))
    t2 = SignatureType(tau2.gprime, tuple(sorted(tau2.periods)))
    same_types = t1.canonical() == t2.canonical()
    include_swap = config.include_swap
    if include_swap is None:
        include_swap = same_types
    if include_swap and not same_types:
        raise UserInputError("swap may only be enabled when the unordered types coincide")

    side1 = side_orbits(G, t1, config)
    side2 = side1 if same_types else side_orbits(G, t2, config)
    L1, L2 = len(side1.labels), len(side2.labels)
    report_base = dict(group=G.name, type1=str(t1), type2=str(t2))
    if L1 == 0 or L2 == 0:
        return OrbitReport(**report_base, h=0, orbit_sizes=[], total_pairs=0)

    m1 = _sigma_matrix(G, side1, rng)
    m2 = m1 if same_types else _sigma_matrix(G, side2, rng)
    inter = m1.astype(np.float32) @ m2.astype(np.float32).T
    valid = inter == 1.0  # identity is shared by every Sigma pair
    del inter

    s1 = np.array([len(m) for m in side1.orbit_members], dtype=np.int64)
    s2 = s1 if same_types else np.array([len(m) for m in side2.orbit_members], dtype=np.int64)

    acting = automorphism_group(G).acting_maps()
    perms1 = [_aut_label_perm(G, side1, phi) for phi in acting]
    perms2 = perms1 if same_types else [_aut_label_perm(G, side2, phi) for phi in acting]

    valid_flat = valid.ravel()
    cell_ids = np.flatnonzero(valid_flat)
    total_pairs = int(s1[cell_ids // L2] @ s2[cell_ids % L2])

    visited = np.zeros(L1 * L2, dtype=bool)
    h = 0
    orbit_sizes: list[int] = []
    representatives: list[dict] | None = [] if config.representatives else None
    for seed in cell_ids:
        if visited[seed]:
            continue
        h += 1
        visited[seed] = True
        frontier = np.array([seed], dtype=np.int64)
        members = [frontier]
        while frontier.size:
            images = []
            fi, fj = frontier // L2, frontier % L2
            for p1, p2 in zip(perms1, perms2):
                images.append(p1[fi] * L2 + p2[fj])
            if include_swap:
                images.append(fj * L2 + fi)
            nxt = np.unique(np.concatenate(images)) if images else np.array([], dtype=np.int64)
            nxt = nxt[~visited[nxt]]
            if nxt.size and not valid_flat[nxt].all():
                raise AssertionError("equivalence image left the disjoint-cell set")
            visited[nxt] = True
            frontier = nxt
            if nxt.size:
                members.append(nxt)
        cells = np.concatenate(members)
        orbit_sizes.append(int(s1[cells // L2] @ s2[cells % L2]))
        if representatives is not None:
            i, j = int(seed) // L2, int(seed) % L2
            representatives.append(
                {
                    "first": [G.element_label(x) for x in side1.labels[i]],
                    "second": [G.element_label(x) for x in side2.labels[j]],
                }
            )
    if sum(orbit_sizes) != total_pairs:
        raise AssertionError("orbit sizes do not sum to the number of disjoint pairs")
    _warn_component_bound(G, t1, t2, h)
    return OrbitReport(
        **report_base,
        h=h,
        orbit_sizes=sorted(orbit_sizes, reverse=True),
        total_pairs=total_pairs,
        representatives=representatives,
    )


def _warn_component_bound(G: Group, t1: SignatureType, t2: SignatureType, h: int) -> None:
    bound = G.order ** (t1.r + t2.r - 2) if (t1.r + t2.r) >= 2 else None
    if bound is not None and h > bound:
        print(
            f"warning: h = {h} exceeds the bound |G|^(r1+r2-2) = {bound} "
            f"for {G.name} ({t1}) x ({t2})",
            file=sys.stderr,
        )


def count_components_one_stage(
    G: Group,
    tau1: SignatureType,
    tau2: SignatureType,
    config: EquivalenceConfig | None = None,
) -> OrbitReport:
    """Direct BFS over raw disjoint ordered pairs; the cross-checking oracle."""
    config = config or EquivalenceConfig()
    t1 = SignatureType(tau1.gprime, tuple(sorted(tau1.periods)))
    t2 = SignatureType(tau2.gprime, tuple(sorted(tau2.periods)))
    same_types = t1.canonical() == t2.canonical()
    include_swap = config.include_swap
    if include_swap is None:
        include_swap = same_types

    est1 = estimate_system_candidates(G, t1)
    est2 = estimate_system_candidates(G, t2)
    if est1 > config.max_systems or est2 > config.max_systems:
        raise BudgetExceeded(
            f"one-stage side enumeration needs {max(est1, est2)} candidates "
            f"(> {config.max_systems})",
            required=max(est1, est2),
        )

    def collect(t: SignatureType) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for ordering in t.orderings():
            out.extend(enumerate_systems(G, SignatureType(t.gprime, ordering)))
        out.sort()
        return out

    sys1 = collect(t1)
    sys2 = sys1 if same_types else collect(t2)
    raw = len(sys1) * len(sys2)
    if raw > config.one_stage_scan_budget:
        raise BudgetExceeded(
            f"one-stage oracle must scan {raw} raw pairs (> {config.one_stage_scan_budget})",
            required=raw,
        )
    report_base = dict(group=G.name, type1=str(t1), type2=str(t2))
    if raw == 0:
        return OrbitReport(**report_base, h=0, orbit_sizes=[], total_pairs=0)

    # Memoized conjugate closures make Sigma a cheap union per system.
    closures: dict[int, frozenset[int]] = {}

    def element_closure(c: int) -> frozenset[int]:
        got = closures.get(c)
        if got is None:
            base = G.cyclic_subgroup(c)
            if G.is_abelian():
                got = base
            else:
                acc = set()
                for y in base:
                    for g in G.elements():
                        acc.add(G.conj(y, g))
                got = frozenset(acc)
            closures[c] = got
        return got

    def sigma_of(entries: tuple[int, ...], gp: int) -> frozenset[int]:
        out = {G.identity}
        for c in entries[2 * gp :]:
            out |= element_closure(c)
        return frozenset(out)

    sig1 = {e: sigma_of(e, t1.gprime) for e in sys1}
    sig2 = sig1 if same_types else {e: sigma_of(e, t2.gprime) for e in sys2}

    pairs = [
        (x, y) for x in sys1 for y in sys2 if len(sig1[x] & sig2[y]) == 1
    ]
    total_pairs = len(pairs)
    if total_pairs == 0:
        return OrbitReport(**report_base, h=0, orbit_sizes=[], total_pairs=0)

    gp1, r1 = t1.gprime, t1.r
    gp2, r2 = t2.gprime, t2.r
    moves1 = available_moves(gp1, r1) if (gp1, r1) != (0, 0) else []
    moves2 = available_moves(gp2, r2) if (gp2, r2) != (0, 0) else []
    inn = inner_automorphisms(G)
    aut_maps = automorphism_group(G).acting_maps()

    pair_set = set(pairs)
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    h = 0
    orbit_sizes: list[int] = []
    representatives: list[dict] | None = [] if config.representatives else None
    for seed in pairs:
        if seed in seen:
            continue
        h += 1
        seen.add(seed)
        size = 0
        frontier = [seed]
        while frontier:
            nxt = []
            for (x, y) in frontier:
                size += 1
                neighbors = []
                for m in moves1:
                    neighbors.append((apply_move(G, gp1, x, m), y))
                for m in moves2:
                    neighbors.append((x, apply_move(G, gp2, y, m)))
                for phi in inn:
                    neighbors.append((tuple(phi[e] for e in x), y))
                    neighbors.append((x, tuple(phi[e] for e in y)))
                for phi in aut_maps:
                    neighbors.append(
                        (tuple(phi[e] for e in x), tuple(phi[e] for e in y))
                    )
                if include_swap:
                    neighbors.append((y, x))
                for nb in neighbors:
                    if nb not in seen:
                        if nb not in pair_set:
                            raise AssertionError(
                                "one-stage neighbor left the disjoint-pair set"
                            )
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        orbit_sizes.append(size)
        if representatives is not None:
            representatives.append(
                {
                    "first": [G.element_label(e) for e in seed[0]],
                    "second": [G.element_label(e) for e in seed[1]],
                }
            )
    if sum(orbit_sizes) != total_pairs:
        raise AssertionError("one-stage orbit sizes do not sum to pair count")
    return OrbitReport(
        **report_base,
        h=h,
        orbit_sizes=sorted(orbit_sizes, reverse=True),
        total_pairs=total_pairs,
        representatives=representatives,
    )


@dataclass
class InnLemmaReport:
    group: str
    tau: str
    passed: bool
    systems_checked: int
    inner_count: int
    counterexample: dict | None = None


def verify_inn_lemma(
    G: Group, tau: SignatureType, config: EquivalenceConfig | None = None
) -> InnLemmaReport:
    """Check that inner automorphisms preserve each braid orbit (g' = 0).

    Conjugation by generators of G suffices: if each generator keeps every
    orbit label, so does every product of them, i.e. all of Inn(G).
    """
    if tau.gprime != 0:
        raise UserInputError("inner-automorphism audit applies to g' = 0 types only")
    config = config or EquivalenceConfig()
    cfg = EquivalenceConfig(
        include_inn_per_side=False,
        max_systems=config.max_systems,
        seed=config.seed,
    )
    part = side_orbits(G, tau, cfg)
    inn = inner_automorphisms(G)
    inner_count = G.order // len(G.center())
    for ent in part.systems:
        base = part.label_of[ent]
        for phi in inn:
            image = tuple(phi[x] for x in ent)
            if part.label_of.get(image) != base:
                return InnLemmaReport(
                    G.name,
                    str(part.tau),
                    False,
                    len(part.systems),
                    inner_count,
                    {
                        "system": [G.element_label(x) for x in ent],
                        "inner_image": [G.element_label(x) for x in image],
                    },
                )
    return InnLemmaReport(G.name, str(part.tau), True, len(part.systems), inner_count)


@dataclass
class ScanRow:
    group: str
    type1: str
    type2: str
    h: int
    g1: int
    g2: int


@dataclass
class ScanResult:
    chi: int
    q: int
    rows: list[ScanRow]
    total_h: int
    warnings: list[str]


def admissible_type_pairs(
    G: Group, chi: int, q: int
) -> list[tuple[SignatureType, SignatureType]]:
    """All unordered pairs (tau1, tau2) with g1'+g2' = q and
    (g1-1)(g2-1) = |G| chi, periods drawn from element orders of G."""
    n = G.order
    target = n * chi
    orders = [m for m in G.orders_present() if m >= 2]
    out: dict[tuple, tuple[SignatureType, SignatureType]] = {}
    for g1p in range(q + 1):
        g2p = q - g1p
        for u in range(1, target + 1):
            if target % u:
                continue
            v = target // u
            s1 = Fraction(2 * u, n) + 2 - 2 * g1p
            s2 = Fraction(2 * v, n) + 2 - 2 * g2p
            if s1 < 0 or s2 < 0:
                continue
            lists1 = period_multisets_with_angle_sum(orders, s1)
            lists2 = period_multisets_with_angle_sum(orders, s2)
            for p1 in lists1:
                for p2 in lists2:
                    t1 = SignatureType(g1p, p1)
                    t2 = SignatureType(g2p, p2)
                    ok1, gg1 = _genus_ok(n, t1)
                    ok2, gg2 = _genus_ok(n, t2)
                    if not (ok1 and ok2):
                        continue
                    key = tuple(sorted([t1.canonical(), t2.canonical()]))
                    if key not in out:
                        a, b = sorted([t1, t2], key=lambda t: t.canonical())
                        out[key] = (a, b)
    return [out[k] for k in sorted(out)]


def _genus_ok(order: int, tau: SignatureType) -> tuple[bool, Fraction]:
    g = curve_genus(order, tau)
    return (g.denominator == 1 and g >= 2), g


def scan_invariants(
    catalog: list[Group], chi: int, q: int, config: EquivalenceConfig | None = None
) -> ScanResult:
    """Census of components with the given chi and q over the catalog groups."""
    if chi < 1 or q < 0:
        raise UserInputError("scan requires chi >= 1 and q >= 0")
    config = config or EquivalenceConfig()
    rows: list[ScanRow] = []
    warnings: list[str] = []
    for G in catalog:
        for t1, t2 in admissible_type_pairs(G, chi, q):
            try:
                rep = count_components(G, t1, t2, config)
            except BudgetExceeded as exc:
                warnings.append(f"{G.name} ({t1}) x ({t2}): skipped, {exc}")
                continue
            if rep.h > 0:
                g1 = int(curve_genus(G.order, t1))
                g2 = int(curve_genus(G.order, t2))
                rows.append(ScanRow(G.name, str(t1), str(t2), rep.h, g1, g2))
    rows.sort(key=lambda r: (r.group, r.type1, r.type2))
    return ScanResult(chi, q, rows, sum(r.h for r in rows), warnings)
