"""Hurwitz orbits and component counts.

Two independent routes compute h(G; tau1, tau2):

* the two-stage engine: per-side orbit partitions under moves + Inn(G),
  disjointness evaluated once per orbit-label pair, then a vectorized BFS
  over disjoint label pairs under diagonal Aut(G) and the factor swap,
  seeded from the least cell not yet reached;
* a one-stage oracle: components of the raw disjoint ordered pairs, found
  from index maps of per-side moves, per-side Inn generators, diagonal Aut
  generators and the swap, without orbit labels or any quotient.

Both act with generators only (forward moves, Inn and Aut generator maps):
each permutes a finite set, so its inverse is one of its powers. The swap
acts exactly when the unordered types coincide. Both refuse honestly
(BudgetExceeded) instead of degrading.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
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
    rh_admissible,
    sigma_set,
)

DEFAULT_MAX_SYSTEMS = 10_000_000
DEFAULT_ONE_STAGE_SCAN_BUDGET = 5_000_000


@dataclass
class EquivalenceConfig:
    include_inn_per_side: bool = True  # g' > 0 sides always act with Inn(G)
    max_systems: int = DEFAULT_MAX_SYSTEMS
    one_stage_scan_budget: int = DEFAULT_ONE_STAGE_SCAN_BUDGET
    representatives: bool = False
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


def _systems(G: Group, tau: SignatureType, config: EquivalenceConfig) -> list[tuple[int, ...]]:
    """Every system of tau's unordered type, sorted; refuses past the budget."""
    est = estimate_system_candidates(G, tau)
    if est > config.max_systems:
        raise BudgetExceeded(
            f"side enumeration for {G.name} type {tau} needs {est} candidate tuples "
            f"(> {config.max_systems})",
            required=est,
        )
    systems: list[tuple[int, ...]] = []
    for ordering in tau.orderings():
        systems.extend(enumerate_systems(G, SignatureType(tau.gprime, ordering)))
    systems.sort()
    return systems


def _images(systems: list[tuple[int, ...]], maps, where: str):
    """For each map on systems, yield the index array i -> index of map(systems[i])."""
    index = {ent: i for i, ent in enumerate(systems)}
    for f in maps:
        try:
            yield np.fromiter((index[f(ent)] for ent in systems), np.int64, len(systems))
        except KeyError:
            raise AssertionError(f"a map left the system set of {where}") from None


def _components(n: int, images) -> np.ndarray:
    """For each index in range(n), the least index of its orbit under the maps.

    The maps (int index arrays) are taken one at a time, so images may be a
    generator. Root hooking plus pointer jumping: every edge x -> img[x]
    whose ends have different roots hooks the larger root onto the smaller,
    then pointers jump until every tree is a star; this repeats until no
    edge of the map joins two roots. Merging never splits a class, so the
    edges of earlier maps stay inside one class. Edges are used in both
    directions, so the classes are the orbits of the group the maps
    generate, and callers pass generators without their inverses.
    """
    root = np.arange(n, dtype=np.int64)
    for img in images:
        while True:
            other = root[img]
            cut = root != other
            if not cut.any():
                break
            a, b = root[cut], other[cut]
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while True:
                jumped = root[root]
                if (jumped == root).all():
                    break
                root = jumped
    return root


def side_orbits(
    G: Group, tau: SignatureType, config: EquivalenceConfig | None = None
) -> SidePartition:
    """Partition all systems of tau's unordered type into move orbits.

    Orbit labels are the lexicographically minimal members. The forward
    moves act, and conjugation by generators of G is applied entrywise
    alongside them (unless disabled; always on for g' > 0).
    """
    config = config or EquivalenceConfig()
    canonical = tau.with_sorted_periods()
    systems = _systems(G, canonical, config)
    include_inn = config.include_inn_per_side or canonical.gprime > 0

    gp, r = canonical.gprime, canonical.r
    if gp == 0 and r == 0:
        moves = []
    else:
        moves = available_moves(gp, r)
        convention_self_check(G, gp, r, systems[:20])
    inn_maps = inner_automorphisms(G) if include_inn else ()

    maps = [lambda ent, m=m: apply_move(G, gp, ent, m) for m in moves]
    maps += [lambda ent, phi=phi: tuple(phi[x] for x in ent) for phi in inn_maps]
    root = _components(len(systems), _images(systems, maps, f"{G.name} {canonical}"))
    is_label = root == np.arange(len(systems))
    label_idx = (np.cumsum(is_label) - 1)[root].tolist()
    labels = [systems[i] for i in np.flatnonzero(is_label)]
    label_of = dict(zip(systems, label_idx))
    orbit_members: list[list[tuple[int, ...]]] = [[] for _ in labels]
    for ent, k in zip(systems, label_idx):
        orbit_members[k].append(ent)
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
    """Two-stage component count h(G; tau1, tau2).

    Cells (i, j) of label pairs are flat ids i * L2 + j. Each orbit is a
    frontier BFS under the Aut generator label permutations (and the swap)
    from the least valid cell not yet reached.
    """
    config = config or EquivalenceConfig()
    rng = random.Random(config.seed)
    t1, t2 = tau1.with_sorted_periods(), tau2.with_sorted_periods()
    same_types = t1.canonical() == t2.canonical()

    side1 = side_orbits(G, t1, config)
    side2 = side1 if same_types else side_orbits(G, t2, config)
    L1, L2 = len(side1.labels), len(side2.labels)
    representatives: list[dict] | None = [] if config.representatives else None
    report_base = dict(group=G.name, type1=str(t1), type2=str(t2))
    if L1 == 0 or L2 == 0:
        return OrbitReport(
            **report_base, h=0, orbit_sizes=[], total_pairs=0, representatives=representatives
        )

    m1 = _sigma_matrix(G, side1, rng)
    m2 = m1 if same_types else _sigma_matrix(G, side2, rng)
    inter = m1.astype(np.float32) @ m2.astype(np.float32).T
    valid = inter == 1.0  # identity is shared by every Sigma pair
    del inter

    s1 = np.array([len(m) for m in side1.orbit_members], dtype=np.int64)
    s2 = s1 if same_types else np.array([len(m) for m in side2.orbit_members], dtype=np.int64)

    gens = automorphism_group(G).generator_maps
    perms1 = [_aut_label_perm(G, side1, phi) for phi in gens]
    perms2 = perms1 if same_types else [_aut_label_perm(G, side2, phi) for phi in gens]

    total_pairs = sum(int(s1[i]) * int(s2[row].sum()) for i, row in enumerate(valid))
    valid_flat = valid.ravel()
    unseen = valid_flat.copy()
    h = 0
    orbit_sizes: list[int] = []
    seed = 0
    while True:
        seed += int(np.argmax(unseen[seed:]))
        if not unseen[seed]:
            break
        h += 1
        unseen[seed] = False
        frontier = np.array([seed], dtype=np.int64)
        members = [frontier]
        while frontier.size:
            fi, fj = frontier // L2, frontier % L2
            images = [p1[fi] * L2 + p2[fj] for p1, p2 in zip(perms1, perms2)]
            if same_types:
                images.append(fj * L2 + fi)
            nxt = np.sort(np.concatenate(images)) if images else frontier[:0]
            first = np.ones(nxt.size, dtype=bool)
            first[1:] = nxt[1:] != nxt[:-1]
            nxt = nxt[first]
            if not valid_flat[nxt].all():
                raise AssertionError("equivalence image left the disjoint-cell set")
            nxt = nxt[unseen[nxt]]
            unseen[nxt] = False
            frontier = nxt
            members.append(nxt)
        cells = np.concatenate(members)
        orbit_sizes.append(int(s1[cells // L2] @ s2[cells % L2]))
        if representatives is not None:
            i, j = divmod(seed, L2)
            representatives.append(
                {
                    "first": [G.element_label(x) for x in side1.labels[i]],
                    "second": [G.element_label(x) for x in side2.labels[j]],
                }
            )
    if sum(orbit_sizes) != total_pairs:
        raise AssertionError("orbit sizes do not sum to the number of disjoint pairs")
    return OrbitReport(
        **report_base,
        h=h,
        orbit_sizes=sorted(orbit_sizes, reverse=True),
        total_pairs=total_pairs,
        representatives=representatives,
    )


def component_bound_warning(
    G: Group, tau1: SignatureType, tau2: SignatureType, h: int
) -> str | None:
    """The warning text if h exceeds |G|^(r1+r2-2), else None."""
    r = tau1.r + tau2.r
    if r < 2 or h <= G.order ** (r - 2):
        return None
    return (
        f"h = {h} exceeds the bound |G|^(r1+r2-2) = {G.order ** (r - 2)} "
        f"for {G.name} ({tau1.with_sorted_periods()}) x ({tau2.with_sorted_periods()})"
    )


def count_components_one_stage(
    G: Group,
    tau1: SignatureType,
    tau2: SignatureType,
    config: EquivalenceConfig | None = None,
) -> OrbitReport:
    """Components of the raw disjoint ordered pairs; the cross-checking oracle.

    Pairs are flat ids i * n2 + j into the two sorted system lists. Every
    move, Inn generator and Aut generator acts once per system as an index
    map, pair images follow by index arithmetic, and the orbits come from
    _components without orbit labels or any quotient.
    """
    config = config or EquivalenceConfig()
    t1, t2 = tau1.with_sorted_periods(), tau2.with_sorted_periods()
    same_types = t1.canonical() == t2.canonical()

    sys1 = _systems(G, t1, config)
    sys2 = sys1 if same_types else _systems(G, t2, config)
    n2 = len(sys2)
    raw = len(sys1) * n2
    if raw > config.one_stage_scan_budget:
        raise BudgetExceeded(
            f"one-stage oracle must scan {raw} raw pairs (> {config.one_stage_scan_budget})",
            required=raw,
        )

    def sigma_rows(t: SignatureType, systems: list[tuple[int, ...]]) -> np.ndarray:
        rows = np.zeros((len(systems), G.order), dtype=np.float32)
        for k, ent in enumerate(systems):
            rows[k, list(sigma_set(G, t.gprime, ent))] = 1.0
        return rows

    sig1 = sigma_rows(t1, sys1)
    sig2 = sig1 if same_types else sigma_rows(t2, sys2)
    disjoint = ((sig1 @ sig2.T) == 1.0).ravel()  # identity is in every Sigma
    pair_ids = np.flatnonzero(disjoint)
    total_pairs = len(pair_ids)
    representatives: list[dict] | None = [] if config.representatives else None
    report_base = dict(group=G.name, type1=str(t1), type2=str(t2))
    if total_pairs == 0:
        return OrbitReport(
            **report_base, h=0, orbit_sizes=[], total_pairs=0, representatives=representatives
        )

    inn = inner_automorphisms(G)
    aut_maps = automorphism_group(G).generator_maps

    def side_maps(t: SignatureType, systems: list[tuple[int, ...]]):
        gp, r = t.gprime, t.r
        moves = available_moves(gp, r) if (gp, r) != (0, 0) else []
        per_side = [lambda ent, m=m: apply_move(G, gp, ent, m) for m in moves]
        per_side += [lambda ent, phi=phi: tuple(phi[x] for x in ent) for phi in inn]
        diagonal = [lambda ent, phi=phi: tuple(phi[x] for x in ent) for phi in aut_maps]
        where = f"{G.name} {t}"
        return list(_images(systems, per_side, where)), list(_images(systems, diagonal, where))

    own1, aut1 = side_maps(t1, sys1)
    own2, aut2 = (own1, aut1) if same_types else side_maps(t2, sys2)
    i, j = pair_ids // n2, pair_ids % n2
    rank = np.cumsum(disjoint) - 1  # flat id -> position in pair_ids

    def flat_images():
        for img in own1:
            yield img[i] * n2 + j
        for img in own2:
            yield i * n2 + img[j]
        for a1, a2 in zip(aut1, aut2):
            yield a1[i] * n2 + a2[j]
        if same_types:
            yield j * n2 + i

    def pair_images():
        for f in flat_images():
            if not disjoint[f].all():
                raise AssertionError("one-stage neighbor left the disjoint-pair set")
            yield rank[f]

    root = _components(total_pairs, pair_images())
    seeds = np.flatnonzero(root == np.arange(total_pairs))
    orbit_sizes = np.bincount(root)[seeds].tolist()
    if sum(orbit_sizes) != total_pairs:
        raise AssertionError("one-stage orbit sizes do not sum to pair count")
    if representatives is not None:
        for seed in pair_ids[seeds].tolist():
            representatives.append(
                {
                    "first": [G.element_label(e) for e in sys1[seed // n2]],
                    "second": [G.element_label(e) for e in sys2[seed % n2]],
                }
            )
    return OrbitReport(
        **report_base,
        h=len(seeds),
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
                    if not (rh_admissible(n, t1)[0] and rh_admissible(n, t2)[0]):
                        continue
                    key = tuple(sorted([t1.canonical(), t2.canonical()]))
                    if key not in out:
                        a, b = sorted([t1, t2], key=lambda t: t.canonical())
                        out[key] = (a, b)
    return [out[k] for k in sorted(out)]


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
            warning = component_bound_warning(G, t1, t2, rep.h)
            if warning is not None:
                warnings.append(warning)
            if rep.h > 0:
                g1 = int(curve_genus(G.order, t1))
                g2 = int(curve_genus(G.order, t2))
                rows.append(ScanRow(G.name, str(t1), str(t2), rep.h, g1, g2))
    rows.sort(key=lambda r: (r.group, r.type1, r.type2))
    return ScanResult(chi, q, rows, sum(r.h for r in rows), warnings)
