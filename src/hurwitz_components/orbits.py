"""Hurwitz orbits and component counts.

Two independent routes compute h(G; tau1, tau2):

* the two-stage engine: per-side orbit partitions under moves + Inn(G),
  then the pair stage quotiented by diagonal Aut(G): a Schreier vector
  per Aut orbit of side-1 labels, and the orbits of the root label's
  stabilizer (plus the factor swap) on the disjoint cells of that one
  root's row;
* a one-stage oracle: components of the raw disjoint ordered pairs, found
  from index maps of per-side moves, per-side Inn generators, diagonal Aut
  generators and the swap, without orbit labels or any quotient.

A side is one sorted (N, k) array of systems, one system per row; there
is no other model of a system. The routes share only steps that read
system rows and Sigma rows, never orbit labels or a quotient: _systems
(enumeration under the budget), _move_maps (the forward moves),
_images and _components (index maps and their orbits), and _valid_cells
(Sigma rows that meet only in the identity). Each route builds its own
Sigma rows: the oracle calls sigma_set per system, the two-stage engine
gathers per-element rows over whole system arrays.

Each move is applied to a whole array at once and each automorphism
acts as a gather phi[systems]; image rows are located among the systems
by a rank lookup over chunks of columns, which raises AssertionError for
a row outside the set. Both routes act with generators only (forward
moves, Inn and Aut generator maps): each permutes a finite set, so its
inverse is one of its powers. The two-stage side partition applies the
moves to one system per Inn(G) class, since a move is a word in the
entries and commutes with conjugation; the oracle applies every move to
every system. The swap acts exactly when the unordered types coincide.
Both refuse honestly (BudgetExceeded) instead of degrading.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automorphisms import (
    _generating_subset,
    automorphism_group,
    inner_automorphisms,
)
from .errors import BudgetExceeded, UserInputError
from .groups import Group, index_dtype
from .moves import available_moves, apply_move, convention_self_check
from .ramification import (
    SignatureType,
    candidate_tuples,
    curve_genus,
    enumerate_systems,
    period_multisets_with_angle_sum,
    sigma_set,
)

DEFAULT_MAX_SYSTEMS = 10_000_000
DEFAULT_ONE_STAGE_SCAN_BUDGET = 5_000_000


@dataclass
class EquivalenceConfig:
    max_systems: int = DEFAULT_MAX_SYSTEMS
    representatives: bool = False
    seed: int = 0  # seeds the labels sampled by the pair stage's row check


@dataclass
class SidePartition:
    group: Group
    tau: SignatureType  # canonical (sorted periods)
    systems: np.ndarray  # (N, k) element indices, one system per row, rows sorted
    orbit: np.ndarray  # per system, the index of its orbit
    leaders: np.ndarray  # per orbit, the row of its least member (ascending)

    @property
    def labels(self) -> np.ndarray:
        """The least member of each orbit, one row per orbit."""
        return self.systems[self.leaders]

    @property
    def orbit_sizes(self) -> np.ndarray:
        return np.bincount(self.orbit, minlength=len(self.leaders))


@dataclass
class OrbitReport:
    group: str
    type1: str
    type2: str
    h: int
    orbit_sizes: list[int]  # descending
    total_pairs: int
    representatives: list[dict] | None = None

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "type1": self.type1,
            "type2": self.type2,
            "h": self.h,
            "orbit_sizes": self.orbit_sizes,
            "total_pairs": self.total_pairs,
            "representatives": self.representatives,
        }


def estimate_system_candidates(G: Group, tau: SignatureType) -> int:
    """Upper bound on tuples enumerated for the unordered type (pre-filter)."""
    return sum(candidate_tuples(G, SignatureType(tau.gprime, o)) for o in tau.orderings())


def _systems(G: Group, tau: SignatureType, config: EquivalenceConfig) -> np.ndarray:
    """Every system of tau's unordered type as sorted rows; refuses past the budget."""
    est = estimate_system_candidates(G, tau)
    if est > config.max_systems:
        raise BudgetExceeded(
            f"side enumeration for {G.name} type {tau} needs {est} candidate tuples "
            f"(> {config.max_systems})",
            required=est,
        )
    k = 2 * tau.gprime + tau.r
    blocks = []
    for ordering in tau.orderings():
        rows = enumerate_systems(G, SignatureType(tau.gprime, ordering))  # or a list of rows
        blocks.append(np.asarray(rows, dtype=index_dtype(G.order)).reshape(len(rows), k))
    systems = np.concatenate(blocks)
    return systems[np.lexsort(systems.T[::-1])] if len(blocks) > 1 else systems


class _RowIndex:
    """Locates rows among sorted distinct system rows, a chunk of columns at a time.

    Columns are read in chunks of w, each chunk a base-|G| number below
    |G|^w, with w as large as keeps N * |G|^w below 2^62. For each chunk the
    sorted distinct keys rank(preceding columns) * |G|^w + chunk are kept,
    and a query row's rank is looked up chunk by chunk, so no key overflows
    int64 for any row width (w = 1 is the column-by-column lookup).
    """

    def __init__(self, systems: np.ndarray, order: int) -> None:
        n, k = systems.shape
        width = 1
        while width < k and (n + 1) * order ** (width + 1) < 1 << 62:
            width += 1
        self.chunks = [(c, min(c + width, k)) for c in range(0, k, width)]
        self.order = order
        self.levels = []
        rank = np.zeros(n, dtype=np.int64)
        for chunk in self.chunks:
            key = self._key(rank, systems, chunk)
            new = np.ones(n, dtype=bool)
            new[1:] = key[1:] != key[:-1]
            self.levels.append(key[new])
            rank = np.cumsum(new) - 1

    def _key(self, rank: np.ndarray, rows: np.ndarray, chunk: tuple[int, int]) -> np.ndarray:
        key = rank.copy()
        for c in range(*chunk):
            key *= self.order
            key += rows[:, c]
        return key

    def __call__(self, rows: np.ndarray, where: str) -> np.ndarray:
        """The index of each row among the systems."""
        rank = np.zeros(len(rows), dtype=np.int64)
        for keys, chunk in zip(self.levels, self.chunks):
            key = self._key(rank, rows, chunk)
            rank = np.searchsorted(keys, key)
            if len(key) and (rank.max() >= len(keys) or (keys[rank] != key).any()):
                raise AssertionError(f"a map left the system set of {where}")
        return rank


def _images(G: Group, systems: np.ndarray, maps, where: str):
    """For each map on system arrays, yield the index array i -> index of map(systems)[i]."""
    locate = _RowIndex(systems, G.order)
    for f in maps:
        yield locate(f(systems), where)


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


def _element_maps(G: Group, maps) -> list:
    """Maps on element indices as gathers that act on whole system arrays."""
    return [lambda rows, phi=np.asarray(phi, index_dtype(G.order)): phi[rows] for phi in maps]


def _move_maps(G: Group, tau: SignatureType) -> list:
    """The forward moves of tau's shape as maps on whole system arrays
    (none for (g', r) = (0, 0))."""
    gp, r = tau.gprime, tau.r
    moves = available_moves(gp, r) if (gp, r) != (0, 0) else []
    return [lambda rows, m=m: apply_move(G, gp, rows, m) for m in moves]


def side_orbits(
    G: Group, tau: SignatureType, config: EquivalenceConfig | None = None
) -> SidePartition:
    """Partition all systems of tau's unordered type into orbits under the
    moves and Inn(G).

    Orbits are numbered by their least members. The Inn classes come first:
    the components of the Inn generator maps over all systems, each of
    exactly |G|/|Z(G)| members, since Inn(G) acts freely on generating
    systems. A move is a word in a system's entries, so it commutes with
    every inner automorphism and carries whole classes onto classes; each
    forward move therefore acts on one system per class, the least, and
    the move orbits are found over the classes. An orbit's least member is
    the least member of its least class. Without Inn generators (G
    abelian) every class is a single system.
    """
    config = config or EquivalenceConfig()
    canonical = tau.with_sorted_periods()
    systems = _systems(G, canonical, config)
    inn = inner_automorphisms(G)
    convention_self_check(G, canonical.gprime, canonical.r, systems[:20], inn)
    locate = _RowIndex(systems, G.order)
    where = f"{G.name} {canonical}"
    n = len(systems)
    if inn:
        inn_root = _components(n, (locate(f(systems), where) for f in _element_maps(G, inn)))
        is_rep = inn_root == np.arange(n)
        cls = (np.cumsum(is_rep) - 1)[inn_root]  # class number of each system
        reps = np.flatnonzero(is_rep)
        size = G.order // len(G.center())
        if (np.bincount(cls) != size).any():
            raise AssertionError(f"Inn(G) classes of {where} do not all have {size} members")
        rows = systems[reps]
        images = (cls[locate(f(rows), where)] for f in _move_maps(G, canonical))
        root = reps[_components(len(reps), images)[cls]]
    else:
        images = (locate(f(systems), where) for f in _move_maps(G, canonical))
        root = _components(n, images)
    is_leader = root == np.arange(n)
    orbit = (np.cumsum(is_leader) - 1)[root]
    return SidePartition(G, canonical, systems, orbit, np.flatnonzero(is_leader))


def _sigma_rows(G: Group) -> np.ndarray:
    """Bool rows, one per element x: the conjugates of the powers of x, which
    are the cyclic subgroups of its conjugates, the share of a Sigma set that
    one branch entry x contributes."""
    rows = np.zeros((G.order, G.order), dtype=bool)
    for x in G.elements():
        rows[x, list(frozenset().union(*map(G.cyclic_subgroup, G.conjugacy_class(x))))] = True
    return rows


def _sigma_matrix(G: Group, part: SidePartition) -> np.ndarray:
    """Bool matrix (labels x |G|) of Sigma sets, checked constant on every orbit.

    A system's Sigma row is the identity column OR-ed with the _sigma_rows
    row of each branch entry, gathered by element index from one table over
    the whole group. Every system's row is compared with its orbit label's
    row, a block of systems at a time.
    """
    branch = part.systems[:, 2 * part.tau.gprime :]
    table = _sigma_rows(G)

    def sigma(rows: np.ndarray) -> np.ndarray:
        out = np.zeros((len(rows), G.order), dtype=bool)
        out[:, G.identity] = True
        for col in branch[rows].T:
            out |= table[col]
        return out

    mat = sigma(part.leaders)
    step = max(1, (1 << 20) // G.order)
    for start in range(0, len(part.systems), step):
        rows = np.arange(start, min(start + step, len(part.systems)))
        bad = (sigma(rows) != mat[part.orbit[rows]]).any(axis=1)
        if bad.any():
            orbit = part.orbit[rows[np.argmax(bad)]]
            raise AssertionError(f"Sigma not constant on orbit {orbit} of {G.name} {part.tau}")
    return mat


def _aut_label_perms(G: Group, part: SidePartition, maps) -> list[np.ndarray]:
    """The permutation each automorphism induces on the orbit labels."""
    locate = _RowIndex(part.systems, G.order)
    labels = part.labels
    where = f"{G.name} {part.tau} under an automorphism"
    return [part.orbit[locate(f(labels), where)] for f in _element_maps(G, maps)]


def count_components(
    G: Group,
    tau1: SignatureType,
    tau2: SignatureType,
    config: EquivalenceConfig | None = None,
) -> OrbitReport:
    """Two-stage component count h(G; tau1, tau2).

    The side partitions under moves and Inn(G) come from side_orbits; the
    pair stage (_count_pairs) then counts orbits of disjoint label pairs
    under diagonal Aut(G) and the swap, one row of cells per Aut orbit of
    side-1 labels.
    """
    config = config or EquivalenceConfig()
    t1, t2 = tau1.with_sorted_periods(), tau2.with_sorted_periods()
    side1 = side_orbits(G, t1, config)
    side2 = side1 if t1.canonical() == t2.canonical() else side_orbits(G, t2, config)
    return _count_pairs(G, side1, side2, config)


def _valid_cells(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Bool matrix of row pairs (orbit labels, or systems in the one-stage
    oracle) whose Sigma rows meet only in the identity, computed in row
    blocks of at most about a million cells."""
    valid = np.empty((len(m1), len(m2)), dtype=bool)
    f2 = m2.T.astype(np.float32)
    step = max(1, (1 << 20) // max(1, len(m2)))
    for start in range(0, len(m1), step):
        block = m1[start : start + step].astype(np.float32) @ f2
        valid[start : start + step] = block == 1.0  # identity is shared by every Sigma pair
    return valid


def _transversals(
    G: Group, n: int, maps: list[np.ndarray], perms: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """A Schreier vector for each Aut orbit (block) of n labels.

    Returns root, the least label of each label's block, and u, one element
    map per label whose label permutation sends root[x] to x. The rows of u
    grow breadth first from the roots: a generator s whose label permutation
    sends x to a new label y gives u_y = s o u_x, the gather s[u_x].
    """
    root = _components(n, perms)
    u = np.empty((n, G.order), dtype=index_dtype(G.order))
    reached = root == np.arange(n)
    frontier = np.flatnonzero(reached)
    u[frontier] = np.arange(G.order)
    while frontier.size:
        grown = []
        for s, perm in zip(maps, perms):
            img = perm[frontier]
            new = ~reached[img]
            img = img[new]
            u[img] = s[u[frontier[new]]]
            reached[img] = True
            grown.append(img)
        frontier = np.concatenate(grown) if grown else frontier[:0]
    return root, u


def _stabilizer_gens(
    G: Group, gens: tuple[int, ...], maps: list[np.ndarray], perms: list[np.ndarray], root, u, uinv
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schreier generators u_{s(x)}^-1 o s o u_x of Stab(root[x]), over every
    label x and generator s, without repeats or the identity.

    An automorphism is fixed by its images of the generating tuple gens, so
    the generators are told apart by those few columns alone. Returns the
    distinct generators (one element map per row) and the (root, generator)
    pairs that occur, as two arrays sorted by root.
    """
    n = len(root)
    if not maps:
        none = np.zeros(0, dtype=np.intp)
        return np.zeros((0, G.order), dtype=u.dtype), none, none
    gens = np.array(gens, dtype=np.intp)
    images = np.concatenate([uinv[perm[:, None], s[u[:, gens]]] for s, perm in zip(maps, perms)])
    moved = np.flatnonzero((images != gens).any(axis=1))  # drop the identity
    _, first, which = np.unique(
        images[moved], axis=0, return_index=True, return_inverse=True
    )
    stab = np.array(
        [uinv[perms[t][x]][maps[t][u[x]]] for t, x in (divmod(int(r), n) for r in moved[first])],
        dtype=u.dtype,
    ).reshape(len(first), G.order)
    pairs = np.unique(root[moved % n] * len(first) + which.ravel())
    return stab, pairs // len(first), pairs % len(first)


def _count_pairs(
    G: Group, side1: SidePartition, side2: SidePartition, config: EquivalenceConfig
) -> OrbitReport:
    """The pair stage of count_components, on side partitions already built;
    the swap acts when the unordered types coincide.

    Cells are label pairs (i, j) whose Sigma rows meet only in the
    identity. Aut(G) splits the side-1 labels into blocks (its orbits), each
    with a Schreier vector rooted at its least label i0, and every orbit of
    cells under diagonal Aut meets the row of i0 in one orbit of Stab(i0).
    So only the row cells (i0, j) are kept, and their orbits come from
    _components under the Schreier generators of each Stab(i0) and, for
    equal types, the swap (i0, j) -> (j, i0) carried back to a row by j's
    transversal. Label orbit sizes are Aut-invariant, so a row cell weighs
    |block| s1[i0] s2[j]. An orbit's least cell lies in a row and is its
    least row cell, so the _components roots are the representatives, in
    ascending order of the least cells.
    """
    rng = random.Random(config.seed)
    same_types = side1.tau.canonical() == side2.tau.canonical()
    L1, L2 = len(side1.leaders), len(side2.leaders)
    representatives: list[dict] | None = [] if config.representatives else None
    report_base = dict(group=G.name, type1=str(side1.tau), type2=str(side2.tau))
    if L1 == 0 or L2 == 0:
        return OrbitReport(
            **report_base, h=0, orbit_sizes=[], total_pairs=0, representatives=representatives
        )

    m1 = _sigma_matrix(G, side1)
    m2 = m1 if same_types else _sigma_matrix(G, side2)
    s1 = side1.orbit_sizes
    s2 = s1 if same_types else side2.orbit_sizes
    labels1, labels2 = side1.labels, side2.labels
    locate1 = _RowIndex(side1.systems, G.order)
    locate2 = locate1 if same_types else _RowIndex(side2.systems, G.order)
    where1, where2 = (f"{G.name} {t} under an automorphism" for t in (side1.tau, side2.tau))

    aut = automorphism_group(G)
    maps = [np.asarray(phi, index_dtype(G.order)) for phi in aut.generator_maps]
    perms = _aut_label_perms(G, side1, aut.generator_maps)
    root, u = _transversals(G, L1, maps, perms)
    uinv = np.empty_like(u)
    np.put_along_axis(uinv, u, np.arange(G.order, dtype=u.dtype)[None, :], axis=1)
    gens = G.generating_tuple()
    stab, use_root, use_gen = _stabilizer_gens(G, gens, maps, perms, root, u, uinv)
    roots = np.flatnonzero(root == np.arange(L1))
    block = np.searchsorted(roots, root)  # block number of each side-1 label
    block_size = np.bincount(block)

    fixed = side1.orbit[locate1(stab[use_gen[:, None], labels1[use_root]], where1)]
    if (fixed != use_root).any():
        raise AssertionError("a stabilizer generator moves the root label of its block")
    stab_lists = stab.tolist()
    gens_of: dict[int, tuple[int, ...]] = {}
    for r, k in zip(use_root.tolist(), use_gen.tolist()):
        gens_of[r] = gens_of.get(r, ()) + (k,)
    subsets: dict[tuple[int, ...], tuple[int, list[int]]] = {}
    uses = np.zeros((len(stab), len(roots)), dtype=bool)  # generator k acts on block b
    for b, r in enumerate(roots.tolist()):
        key = gens_of.get(r, ())
        if key not in subsets:
            subsets[key] = _generating_subset([stab_lists[k] for k in key], gens)
        order, kept = subsets[key]
        if block_size[b] * order != aut.order:
            raise AssertionError(
                f"orbit-stabilizer fails for the Aut orbit of label {r} of {G.name} {side1.tau}"
            )
        uses[[key[i] for i in kept], b] = True
    acting = np.flatnonzero(uses.any(axis=1))

    valid_rows = _valid_cells(m1[roots], m2)
    cell_block, cell_j = np.nonzero(valid_rows)
    cell_i = roots[cell_block]
    flat = cell_i.astype(np.int64) * L2 + cell_j
    weight = block_size[cell_block] * s1[cell_i] * s2[cell_j]
    total_pairs = int(weight.sum())

    def cells_at(target: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(flat, target)
        if len(target) and (pos.max() >= len(flat) or (flat[pos] != target).any()):
            raise AssertionError("equivalence image left the disjoint-cell set")
        return pos

    def cell_maps():
        for k, perm2 in zip(acting.tolist(), _aut_label_perms(G, side2, stab[acting])):
            img = np.arange(len(flat))
            on = uses[k, cell_block]
            img[on] = cells_at(cell_i[on].astype(np.int64) * L2 + perm2[cell_j[on]])
            yield img
        if same_types:
            back = side1.orbit[locate1(uinv[cell_j[:, None], labels1[cell_i]], where1)]
            yield cells_at(root[cell_j] * L2 + back)

    least = _components(len(flat), cell_maps())
    seeds = np.flatnonzero(least == np.arange(len(flat)))
    sizes = np.zeros(len(flat), dtype=np.int64)
    np.add.at(sizes, least, weight)
    orbit_sizes = sizes[seeds].tolist()
    if sum(orbit_sizes) != total_pairs:
        raise AssertionError("orbit sizes do not sum to the number of disjoint pairs")

    # A sampled label x of each block: its row of cells is row i0 carried by u_x.
    members = np.argsort(block, kind="stable")  # by block, each root first
    starts = np.concatenate([[0], np.cumsum(block_size)])
    picked = []
    for b in np.flatnonzero(block_size > 1).tolist():
        others = members[starts[b] + 1 : starts[b + 1]].tolist()
        picked += [(b, x) for x in rng.sample(others, min(3, len(others)))]
    if picked:
        direct = _valid_cells(m1[[x for _, x in picked]], m2)
        row_cuts = np.searchsorted(cell_block, np.arange(len(roots) + 1))
        for (b, x), row in zip(picked, direct):
            js = cell_j[row_cuts[b] : row_cuts[b + 1]]
            carried = side2.orbit[locate2(u[x][labels2[js]], where2)]
            if not np.array_equal(np.sort(carried), np.flatnonzero(row)):
                raise AssertionError(
                    f"the cells of label {x} are not those of label {roots[b]} carried by "
                    f"its transversal in {G.name} {side1.tau} x {side2.tau}"
                )

    if representatives is not None:
        for c in seeds.tolist():
            representatives.append(
                {
                    "first": [G.element_label(x) for x in labels1[cell_i[c]].tolist()],
                    "second": [G.element_label(x) for x in labels2[cell_j[c]].tolist()],
                }
            )
    return OrbitReport(
        **report_base,
        h=len(seeds),
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
    if raw > DEFAULT_ONE_STAGE_SCAN_BUDGET:
        raise BudgetExceeded(
            f"one-stage oracle must scan {raw} raw pairs (> {DEFAULT_ONE_STAGE_SCAN_BUDGET})",
            required=raw,
        )

    def sigma_rows(t: SignatureType, systems: np.ndarray) -> np.ndarray:
        rows = np.zeros((len(systems), G.order), dtype=bool)
        for k, ent in enumerate(systems.tolist()):
            rows[k, list(sigma_set(G, t.gprime, ent))] = True
        return rows

    sig1 = sigma_rows(t1, sys1)
    sig2 = sig1 if same_types else sigma_rows(t2, sys2)
    disjoint = _valid_cells(sig1, sig2).ravel()
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

    def side_maps(t: SignatureType, systems: np.ndarray):
        per_side = _move_maps(G, t) + _element_maps(G, inn)
        maps = per_side + _element_maps(G, aut_maps)
        images = list(_images(G, systems, maps, f"{G.name} {t}"))
        return images[: len(per_side)], images[len(per_side) :]

    own1, aut1 = side_maps(t1, sys1)
    own2, aut2 = (own1, aut1) if same_types else side_maps(t2, sys2)
    i, j = pair_ids // n2, pair_ids % n2
    # flat id -> position in pair_ids; int32 holds it under the raw-pair budget
    rank = np.cumsum(disjoint, dtype=np.int32)
    rank -= 1

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
            yield rank[f].astype(np.intp)  # so _components' gathers need no cast

    root = _components(total_pairs, pair_images())
    seeds = np.flatnonzero(root == np.arange(total_pairs))
    orbit_sizes = np.bincount(root)[seeds].tolist()
    if sum(orbit_sizes) != total_pairs:
        raise AssertionError("one-stage orbit sizes do not sum to pair count")
    if representatives is not None:
        for seed in pair_ids[seeds].tolist():
            representatives.append(
                {
                    "first": [G.element_label(e) for e in sys1[seed // n2].tolist()],
                    "second": [G.element_label(e) for e in sys2[seed % n2].tolist()],
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
    canonical = tau.with_sorted_periods()
    systems = _systems(G, canonical, config)
    convention_self_check(G, 0, canonical.r, systems[:20])
    where = f"{G.name} {canonical}"
    root = _components(len(systems), _images(G, systems, _move_maps(G, canonical), where))
    inn = inner_automorphisms(G)
    inner_count = G.order // len(G.center())
    images = _images(G, systems, _element_maps(G, inn), f"{where} under an inner automorphism")
    # The first system (then the first generator) that changes its braid orbit.
    bad = []
    for k, img in enumerate(images):
        moved = np.flatnonzero(root[img] != root)
        if len(moved):
            bad.append((int(moved[0]), k))
    if bad:
        row, k = min(bad)
        ent = systems[row].tolist()
        return InnLemmaReport(
            G.name,
            str(canonical),
            False,
            len(systems),
            inner_count,
            {
                "system": [G.element_label(x) for x in ent],
                "inner_image": [G.element_label(inn[k][x]) for x in ent],
            },
        )
    return InnLemmaReport(G.name, str(canonical), True, len(systems), inner_count)


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
    (g1-1)(g2-1) = |G| chi, periods drawn from element orders of G.

    Each type is built with angle sum 2u/|G| + 2 - 2g' for a divisor u of
    |G| chi, so its genus is u + 1 >= 2 and it is always admissible."""
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
        sides: dict[tuple, SidePartition] = {}  # one build per canonical type of G

        def side(tau: SignatureType) -> SidePartition:
            key = tau.canonical()
            if key not in sides:
                sides[key] = side_orbits(G, tau, config)
            return sides[key]

        for t1, t2 in admissible_type_pairs(G, chi, q):
            try:
                rep = _count_pairs(G, side(t1), side(t2), config)
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
