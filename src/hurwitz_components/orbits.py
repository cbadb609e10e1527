"""Hurwitz orbits and component counts.

Two independent routes compute h(G; tau1, tau2):

* the two-stage engine: per-side orbit partitions under moves + Inn(G)
  over the class-sorted fiber (side_orbits), then the pair
  stage quotiented by diagonal Aut(G) through a Schreier tree of the Aut
  orbits of side-1 labels (_count_pairs);
* a one-stage oracle: components of the disjoint ordered pairs of Inn(G)
  class rows of every ordering under the moves, the diagonal Aut
  generators and the swap, without orbit labels or the Aut quotient; each
  class-row pair weighs (|G|/|Z(G)|)^2 raw pairs.

A side is one sorted (N, k) array of systems, one row per Inn(G) class
(its least member, see side_orbits); there is no other model of a
system. A _RowIndex locates rows among them, each image row reduced to
its class row first, and raises AssertionError for a row outside the
set. Full listings still check that enumeration: verify_inn_lemma and
`hurwitz enumerate` list every system, and the tests pin the routes to
references that list every system. The routes share only steps that
read system rows and Sigma rows, never orbit labels or a quotient by
Aut(G): _systems, apply_move, _RowIndex, _located (which stacks image
rows into its lookups), _components (kept in groups, where
abelian.quadruple_classes uses it too), _check_inn_sample and
_valid_cells, and the one builder of the document (_report), which
reads only the orbit sizes and representative rows each route hands it
and checks the sizes against that route's own pair count. Each builds
its own Sigma rows (sigma_masks, one element column each, in the oracle;
_sigma_matrix in the two-stage engine). An automorphism
is a row phi of a (maps, |G|) index array and acts as the gather
phi[systems]. Both routes act with generators only (forward moves, Inn
and Aut generator maps): each permutes a finite set, so its inverse is
one of its powers. The oracle acts with every move of
moves.available_moves on every ordering, so its agreement also tests the
fiber reduction and that the xi-twists that moves.generating_moves drops
add no orbit.
The swap acts exactly when the unordered types coincide. Both build a
type pair's sides by one rule (_pair_sides): the side with fewer
candidate tuples first, and its partner only when it has a system, so a
side with no system answers h = 0 without enumerating its partner. The
two-stage engine first answers h = 0 where the types force a common Sigma
column (_forced_columns); the oracle does not, so it checks those pairs.
Both refuse honestly (BudgetExceeded) instead of degrading, past the tuples
their enumeration expands, and the oracle also past
DEFAULT_ONE_STAGE_SCAN_BUDGET class-row pairs.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .automorphisms import (
    SchreierTree,
    _generating_subset,
    automorphism_group,
    inner_automorphisms,
)
from .errors import BudgetExceeded, UserInputError
from .groups import (
    Group,
    InnerClasses,
    _components,
    distinct,
    distinct_rows,
    index_dtype,
    prime_factorization,
)
from .moves import MoveID, apply_move, available_moves, fiber_words
from .ramification import (
    BLOCK_ROWS,
    SignatureType,
    candidate_tuples,
    curve_genus,
    enumerate_systems,
    period_multisets_with_angle_sum,
    sigma_masks,
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
    """One side's orbits under the moves and Inn(G), held one row per Inn(G)
    class over the class-sorted fiber (Group.class_keys).

    A class row is the least member of its class, and each class has
    |G|/|Z(G)| systems (one for an abelian G, whose classes are single
    systems). The moves carry an orbit's systems over one ordering of its
    class multiset bijectively onto those over any other, so a class row
    weighs |G|/|Z(G)| times the number of orderings of its class multiset.
    The row index reduces any system to its class row before the lookup,
    and label_of first braid-sorts a row back into class order, so moves
    and automorphisms may act on class rows freely.
    """

    group: Group
    tau: SignatureType  # canonical (sorted periods)
    systems: np.ndarray  # (N, k) class-sorted class rows, rows sorted
    orbit: np.ndarray  # per class row, the index of its orbit
    leaders: np.ndarray  # per orbit, the class row of its least member (ascending)
    locate: _RowIndex  # the class-row index of systems, built once by side_orbits

    def __len__(self) -> int:
        """The number of class rows."""
        return len(self.systems)

    def sorted_locate(self, rows: np.ndarray, where: str) -> np.ndarray:
        """The index of each row's class row, which must be a system of the
        side over the ascending periods, braid-sorted (_braid_sorted) first."""
        return self.locate(_braid_sorted(self.group, self.tau.gprime, rows), where)

    def label_of(self, rows: np.ndarray, where: str) -> np.ndarray:
        """The orbit of each row, found by sorted_locate."""
        return self.orbit[self.sorted_locate(rows, where)]

    @property
    def labels(self) -> np.ndarray:
        """The least member of each orbit, one row per orbit."""
        return self.systems[self.leaders]

    @property
    def orbit_sizes(self) -> np.ndarray:
        """The number of systems in each orbit, over every ordering: its class
        rows times |G|/|Z(G)| times the orderings of its label's class
        multiset, r! over the factorials of the runs of equal classes (run
        counts 1, 2, ... along each run, so a run's product is its factorial)."""
        branch = self.group.class_keys[self.labels[:, 2 * self.tau.gprime :]]
        run = np.ones(branch.shape, dtype=np.int64)
        for h in range(1, self.tau.r):
            same = branch[:, h] == branch[:, h - 1]
            run[same, h] = run[same, h - 1] + 1
        orderings = math.factorial(self.tau.r) // run.prod(axis=1)
        inner = self.group.order // len(self.group.center())
        return np.bincount(self.orbit, minlength=len(self.leaders)) * orderings * inner


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
        return dict(vars(self))


def _braid_sorted(G: Group, gprime: int, rows: np.ndarray) -> np.ndarray:
    """Systems over ascending periods, each carried into class order
    (Group.class_keys) by bubble passes of sigma_h on adjacent slots
    whose keys descend. sigma_h swaps the two slots' classes, so each pass
    stays inside the row's orbit under the moves. Only rows with a
    descending neighbour pair are copied and moved. In an abelian G sigma_h
    swaps two entries, so the passes sort the branch entries by key, which
    one argsort does."""
    keys, r = G.class_keys, rows.shape[1] - 2 * gprime
    branch = keys[rows[:, 2 * gprime :]]
    unsorted = np.flatnonzero((branch[:, 1:] < branch[:, :-1]).any(axis=1))
    if not len(unsorted):
        return rows
    rows, sub = rows.copy(), rows[unsorted]
    if G.inner_classes() is None:
        order = np.argsort(branch[unsorted], axis=1, kind="stable")
        sub[:, 2 * gprime :] = np.take_along_axis(sub[:, 2 * gprime :], order, axis=1)
    else:
        swapped = True
        while swapped:
            swapped = False
            for h in range(1, r):
                pair = keys[sub[:, 2 * gprime + h - 1 : 2 * gprime + h + 1]]
                swap = pair[:, 0] > pair[:, 1]
                if swap.any():
                    sub[swap] = apply_move(G, gprime, sub[swap], MoveID("sigma", h))
                    swapped = True
    rows[unsorted] = sub
    return rows


def _orderings(tau: SignatureType, fiber: bool) -> list[tuple[int, ...]]:
    return [tuple(sorted(tau.periods))] if fiber else tau.orderings()


def estimate_system_candidates(
    G: Group, tau: SignatureType, inn_classes: bool = False, fiber: bool = False
) -> int:
    """Upper bound on tuples enumerated for the unordered type (pre-filter);
    with inn_classes, for one row per Inn(G) class; with fiber, for the
    ascending ordering only."""
    return sum(
        candidate_tuples(G, SignatureType(tau.gprime, o), inn_classes)
        for o in _orderings(tau, fiber)
    )


def _systems(
    G: Group,
    tau: SignatureType,
    config: EquivalenceConfig,
    inn_classes: bool = False,
    fiber: bool = False,
) -> np.ndarray:
    """Every system of tau's unordered type (with inn_classes, the least
    member of each Inn(G) class; with fiber, the class-sorted ones only,
    over the ascending ordering) as sorted rows; refuses past the budget,
    which counts the ordering's candidate tuples before class sorting."""
    est = estimate_system_candidates(G, tau, inn_classes, fiber)
    if est > config.max_systems:
        raise BudgetExceeded(
            f"side enumeration for {G.name} type {tau} needs {est} candidate tuples "
            f"(> {config.max_systems})",
            required=est,
        )
    k = 2 * tau.gprime + tau.r

    def block(ordering: tuple[int, ...]) -> np.ndarray:
        rows = enumerate_systems(
            G, SignatureType(tau.gprime, ordering), inn_classes=inn_classes, class_sorted=fiber
        )
        # a list of rows too: the benchmark's traced run wraps
        # orbits.enumerate_systems with consume=True, which returns a list
        return np.asarray(rows, dtype=index_dtype(G.order)).reshape(len(rows), k)

    blocks = [block(ordering) for ordering in _orderings(tau, fiber)]
    if len(blocks) == 1:
        return blocks[0]
    systems = np.concatenate(blocks)
    blocks.clear()  # the sort then holds no per-ordering copy
    order = np.lexsort(systems.T[::-1])
    for column in systems.T:  # sorted in place, one column of scratch at a time
        column[:] = column[order]
    return systems


class _RowIndex:
    """Locates rows among sorted distinct system rows, a chunk of columns at a time.

    Columns are read in chunks of w, each chunk a base-|G| number below
    |G|^w, with w as large as keeps N * |G|^w below 2^62. For each chunk the
    sorted distinct keys rank(preceding columns) * |G|^w + chunk are kept,
    and a query row's rank is looked up chunk by chunk, so no key overflows
    int64 for any row width (w = 1 is the column-by-column lookup). Given a
    group's InnerClasses, the systems are class rows, and each query row is
    first reduced to its class row (InnerClasses.least_conjugates).
    """

    def __init__(
        self, systems: np.ndarray, order: int, classes: InnerClasses | None = None
    ) -> None:
        n, k = systems.shape
        width = 1
        while width < k and (n + 1) * order ** (width + 1) < 1 << 62:
            width += 1
        self.chunks = [(c, min(c + width, k)) for c in range(0, k, width)]
        self.order = order
        self.classes = classes
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
        """The index of each row (or of its class row) among the systems."""
        if self.classes is not None:
            rows = self.classes.least_conjugates(rows)
        rank = np.zeros(len(rows), dtype=np.int64)
        for keys, chunk in zip(self.levels, self.chunks):
            key = self._key(rank, rows, chunk)
            rank = np.searchsorted(keys, key)
            if len(key) and (rank.max() >= len(keys) or (keys[rank] != key).any()):
                raise AssertionError(f"a map left the system set of {where}")
        return rank


def _move_maps(G: Group, tau: SignatureType) -> list:
    """Every forward move of tau's shape (moves.available_moves) as a map
    on whole system arrays (none for (g', r) = (0, 0)); the oracle's moves."""
    gp, r = tau.gprime, tau.r
    moves = available_moves(gp, r) if (gp, r) != (0, 0) else []
    return [lambda rows, m=m: apply_move(G, gp, rows, m) for m in moves]


def _located(locate, images, where: str):
    """locate(rows, where) of each of a run of row arrays, one index array
    per array, in order. As many consecutive arrays as fit in
    ramification.BLOCK_ROWS rows are stacked into one lookup; an array of
    more rows than that has its own, uncopied. images may be a generator,
    drawn one array at a time, each before the lookup that holds it."""

    def stacked(batch: list[np.ndarray]):
        got = locate(batch[0] if len(batch) == 1 else np.concatenate(batch), where)
        at = 0
        for rows in batch:
            yield got[at : at + len(rows)]
            at += len(rows)

    batch: list[np.ndarray] = []
    held = 0
    for rows in images:
        if batch and held + len(rows) > BLOCK_ROWS:
            yield from stacked(batch)
            batch, held = [], 0
        batch.append(rows)
        held += len(rows)
    if batch:
        yield from stacked(batch)


def _word_rows(G: Group, gprime: int, systems: np.ndarray) -> list:
    """Each word of moves.fiber_words over the class blocks of some
    class-sorted row, with the indices of the rows whose blocks it belongs
    to: one word set per distinct mask of equal neighbouring classes. For
    an abelian G and g' = 0 there is none: sigma_h swaps two entries there,
    so every word fixes every class-sorted row."""
    if gprime == 0 and G.inner_classes() is None:
        return []
    keys, branch = G.class_keys, systems[:, 2 * gprime :]
    equal = np.zeros((len(systems), max(branch.shape[1] - 1, 0)), dtype=bool)
    for h in range(equal.shape[1]):
        equal[:, h] = keys[branch[:, h]] == keys[branch[:, h + 1]]
    firsts, mask = distinct_rows(np.packbits(equal, axis=1))
    masks_of: dict[tuple, list[int]] = {}
    for m, first in enumerate(firsts.tolist()):
        for word in fiber_words(gprime, tuple(keys[branch[first]].tolist())):
            masks_of.setdefault(word, []).append(m)
    every = np.arange(len(systems))  # one array shared by the words of every mask
    return [
        (word, every if len(ms) == len(firsts) else np.flatnonzero(np.isin(mask, ms)))
        for word, ms in masks_of.items()
    ]


def _checked_move_images(G: Group, tau: SignatureType, systems: np.ndarray, inn, locate):
    """For each word of _word_rows, an index map of the systems (class-sorted,
    over tau's ascending periods): locate(rows, where) of the images of the
    rows the word acts on, and each other row fixed.

    A word keeps each of its rows' class sequence, so its images are
    class-sorted. Each word acts once, a move at a time, on its rows with
    the Inn images of their sample (the first 20 of them) stacked below;
    locate refuses any image that is not a system, the images of
    consecutive words stacked into one lookup (_located). On the sample,
    the word w must commute with each Inn generator map phi, phi(w(x)) =
    w(phi(x)), and its reversed word of inverse moves, acting once on the
    images, must give back the sample; else AssertionError names the word.
    A word is checked before the lookup that holds its images.
    """
    gp, n, where = tau.gprime, len(systems), f"{G.name} {tau}"
    words = _word_rows(G, gp, systems)

    def act(rows: np.ndarray, word) -> np.ndarray:
        for m in word:
            rows = apply_move(G, gp, rows, m)
        return rows

    def checked():
        for word, at in words:
            rows = systems if len(at) == n else systems[at]
            sample = rows[:20]
            s, held = len(sample), len(rows)
            stack = np.concatenate([rows] + [phi[sample] for phi in inn]) if len(inn) else rows
            undo = tuple(m.inverted() for m in reversed(word))
            name, back = (" ".join(map(str, w)) for w in (word, undo))
            out = act(stack, word)
            moved = out[:s]
            for k, phi in enumerate(inn):
                if not np.array_equal(phi[moved], out[held + k * s : held + (k + 1) * s]):
                    raise AssertionError(
                        f"move {name} does not commute with Inn(G) map {k} on {G.name}"
                    )
            if not np.array_equal(act(moved, undo), sample):
                raise AssertionError(f"move {back} does not undo move {name} on {where}")
            yield out[:held]

    for (_, at), got in zip(words, _located(locate, checked(), where)):
        if len(at) == n:
            yield got
        else:
            img = np.arange(n)
            img[at] = got
            yield img


def _check_inn_sample(systems: np.ndarray, inn: np.ndarray, locate, where: str) -> None:
    """One lookup of the Inn generator images of the sample (the first 20
    class rows), which must land on the sample's own rows; else AssertionError."""
    sample = systems[:20]
    if len(inn):
        got = locate(np.concatenate(inn[:, sample]), where)
        if (got != np.tile(np.arange(len(sample)), len(inn))).any():
            raise AssertionError(f"an inner automorphism takes a row of {where} out of its class")


def side_orbits(
    G: Group, tau: SignatureType, config: EquivalenceConfig | None = None
) -> SidePartition:
    """Partition the systems of tau's unordered type into orbits under the
    moves and Inn(G), one row per Inn(G) class over the class-sorted fiber:
    periods ascending, and within each block of equal periods the branch
    entries' class minima ascending (Group.class_keys).

    The moves keep a system's multiset of branch-entry classes and act on
    its orderings through S_r, transitively, so each orbit meets the fiber
    in the systems of one class sequence, and there in one orbit of that
    sequence's stabilizer, generated by moves.fiber_words over its blocks
    of equal classes (one word set per mask of equal neighbours,
    _word_rows). Inn(G) acts freely on generating systems, so a class has
    |G|/|Z(G)| members, and a move commutes with conjugation: each word acts
    once on the class rows of its masks, and the row index reduces its
    images to class rows, in one pass that also checks the word
    (_checked_move_images). Orbits are numbered by their least members,
    which are class rows. One lookup then checks that no Inn generator
    moves a sample row out of its class.
    """
    config = config or EquivalenceConfig()
    canonical = tau.with_sorted_periods()
    systems = _systems(G, canonical, config, inn_classes=True, fiber=True)
    inn = inner_automorphisms(G)
    locate = _RowIndex(systems, G.order, G.inner_classes())
    root = _components(len(systems), _checked_move_images(G, canonical, systems, inn, locate))
    is_leader = root == np.arange(len(systems))
    orbit = (np.cumsum(is_leader) - 1)[root]
    part = SidePartition(G, canonical, systems, orbit, np.flatnonzero(is_leader), locate)
    # through the braid sort, as label_of, so a map that moves classes shows
    _check_inn_sample(systems, inn, part.sorted_locate, f"{G.name} {canonical}")
    return part


def _powers(G: Group, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Elementwise x ** e of an index array and exponents >= 0, by squaring."""
    out = np.full(len(x), G.identity, dtype=np.intp)
    base, e = x, e.copy()
    while e.any():
        odd = (e & 1).astype(bool)
        out[odd] = G.mul_array(out[odd], base[odd])
        base, e = G.mul_array(base, base), e >> 1
    return out


def _sigma_rows(G: Group) -> np.ndarray:
    """Bool table (|G| x C), one column per conjugacy class of subgroups of
    prime order: row x marks the classes of the prime-order subgroups of <x>,
    one per prime p dividing ord(x), the class of <x^(ord(x)/p)>. These are
    the classes of prime-order subgroups inside the conjugates of <x>, the
    share of a Sigma set that one branch entry x contributes.

    <y> and <z> of prime order are conjugate iff a conjugate of z generates
    <y>, so the least class minimum over the generators y^j of <y> names its
    class (the class minimum of an element of an abelian G is itself). The
    table is built on the first call for a group and kept on it, read-only.
    """
    if G._sigma_rows is not None:
        return G._sigma_rows
    classes = G.inner_classes()
    least = np.arange(G.order) if classes is None else classes.least
    orders = G.orders
    key = np.full(G.order, -1, dtype=np.intp)  # per element y of prime order, the key of <y>
    marks = []
    for p in prime_factorization(G.order):
        gens = np.flatnonzero(orders == p)
        acc, key[gens] = gens, least[gens]
        for _ in range(p - 2):
            acc = G.mul_array(acc, gens)
            key[gens] = np.minimum(key[gens], least[acc])
        xs = np.flatnonzero(orders % p == 0)
        marks.append((xs, _powers(G, xs, orders[xs] // p)))
    columns = distinct(key[key >= 0])
    rows = np.zeros((G.order, len(columns)), dtype=bool)
    for xs, ys in marks:
        rows[xs, np.searchsorted(columns, key[ys])] = True
    rows.flags.writeable = False
    G._sigma_rows = rows
    return rows


def _sigma_matrix(G: Group, part: SidePartition) -> np.ndarray:
    """Bool matrix (labels x C) of Sigma sets over the C conjugacy classes of
    prime-order subgroups (_sigma_rows), checked constant on every orbit.

    Sigma(V) is a union of conjugates of cyclic subgroups, so it is closed
    under powers and conjugation: a shared element x != 1 has a power of
    prime order, whose whole class of subgroups is then shared. So two
    Sigma sets meet only in the identity iff their rows share no column.
    A system's row is the OR of the _sigma_rows rows of its branch entries,
    gathered by element index from one table over the whole group, with
    the C columns packed into 64-bit words (one gather moves one word per
    row). Every class row's row is compared with its orbit label's row, a
    block of rows at a time; Sigma is a union of conjugacy classes, so it
    is constant on each Inn(G) class.
    """
    branch = part.systems[:, 2 * part.tau.gprime :]
    table = _sigma_rows(G)
    columns = table.shape[1]
    padded = np.pad(table, ((0, 0), (0, -columns % 64)))
    words = np.packbits(padded, axis=1).view(np.uint64).T.copy()  # (words, |G|)

    def sigma(rows: np.ndarray) -> np.ndarray:
        out = np.zeros((len(words), len(rows)), dtype=np.uint64)
        for col in branch[rows].T:
            out |= words[:, col]
        return out

    mat = sigma(part.leaders)
    step = max(1, (1 << 20) // max(1, columns))
    for start in range(0, len(part.systems), step):
        rows = np.arange(start, min(start + step, len(part.systems)))
        bad = (sigma(rows) != mat[:, part.orbit[rows]]).any(axis=0)
        if bad.any():
            orbit = part.orbit[rows[np.argmax(bad)]]
            raise AssertionError(f"Sigma not constant on orbit {orbit} of {G.name} {part.tau}")
    return np.unpackbits(mat.T.copy().view(np.uint8), axis=1, count=columns).view(bool)


def _aut_label_perms(G: Group, part: SidePartition, maps: np.ndarray) -> list[np.ndarray]:
    """The permutation each automorphism (a row of maps) induces on the orbit
    labels, as label_of gives it: the label images of consecutive maps
    stacked into one braid sort and lookup (_located, part.sorted_locate)."""
    where = f"{G.name} {part.tau} under an automorphism"
    images = (phi[part.labels] for phi in maps)
    return [part.orbit[i] for i in _located(part.sorted_locate, images, where)]


def _pair_sides(G: Group, t1: SignatureType, t2: SignatureType, build, fiber: bool):
    """The sides build(t1), build(t2) of a type pair, in that order, or None
    when a side has no rows; the one rule by which both routes build them.

    The side with fewer candidate tuples (estimate_system_candidates over
    Inn(G) classes, the number its budget checks; t1 on a tie) is built
    first, and its partner only when it has a row. The pairs counted are
    pairs of systems, one of each side, so a side with no system leaves
    none: h = 0, and the partner is never enumerated nor refused. Equal
    unordered types build one side.
    """
    if t1.canonical() == t2.canonical():
        side = build(t1)
        return (side, side) if len(side) else None
    cost = [estimate_system_candidates(G, t, inn_classes=True, fiber=fiber) for t in (t1, t2)]
    swap = cost[1] < cost[0]
    first = build(t2 if swap else t1)
    if not len(first):
        return None
    second = build(t1 if swap else t2)
    if not len(second):
        return None
    return (second, first) if swap else (first, second)


def _forced_columns(G: Group, tau: SignatureType) -> np.ndarray:
    """The Sigma columns (_sigma_rows) that every system of tau marks: the
    OR over tau's distinct periods m of the columns marked by every element
    of order m, since each system has a branch entry of each period. A
    period with no element of its order forces every column (all() over no
    rows), which is sound: tau then has no system. Two types that force a
    common column have no disjoint pair of systems, so h = 0."""
    table = _sigma_rows(G)
    forced = np.zeros(table.shape[1], dtype=bool)
    for m in set(tau.periods):
        forced |= table[G.orders == m].all(axis=0)
    return forced


def _report(
    G: Group, t1: SignatureType, t2: SignatureType, config: EquivalenceConfig,
    sizes=(), total_pairs: int = 0, firsts=(), seconds=(),
) -> OrbitReport:
    """The one document of a type pair, for both routes and every settled
    pair: one orbit per entry of sizes (none by default, h = 0), which must
    sum to total_pairs, else AssertionError; with config.representatives,
    orbit k's pair of system rows (firsts[k], seconds[k]) in element labels."""
    if sum(sizes) != total_pairs:
        raise AssertionError("orbit sizes do not sum to the number of disjoint pairs")
    representatives = None
    if config.representatives:
        def named(row: np.ndarray) -> list[str]:
            return [G.element_label(x) for x in row.tolist()]

        representatives = [{"first": named(a), "second": named(b)} for a, b in zip(firsts, seconds)]
    return OrbitReport(
        group=G.name, type1=str(t1), type2=str(t2), h=len(sizes),
        orbit_sizes=sorted(sizes, reverse=True), total_pairs=total_pairs,
        representatives=representatives,
    )


def _count_type_pair(
    G: Group, t1: SignatureType, t2: SignatureType, build, config: EquivalenceConfig
) -> OrbitReport:
    """The two-stage count of sorted types t1, t2 from side partitions
    build(t) (side_orbits, or a cache of it), built by _pair_sides unless
    the types force a common Sigma column (_forced_columns)."""
    forced = (_forced_columns(G, t1) & _forced_columns(G, t2)).any()
    sides = None if forced else _pair_sides(G, t1, t2, build, fiber=True)
    return _report(G, t1, t2, config) if sides is None else _count_pairs(G, *sides, config)


def count_components(
    G: Group,
    tau1: SignatureType,
    tau2: SignatureType,
    config: EquivalenceConfig | None = None,
) -> OrbitReport:
    """Two-stage component count h(G; tau1, tau2).

    Types that force a common Sigma column answer h = 0 before either side
    is built (_forced_columns). Else the side partitions under moves and
    Inn(G) come from side_orbits, the side with fewer candidate tuples
    first and its partner only when it has a system (_pair_sides; an empty
    side answers h = 0, however large its partner). The pair stage
    (_count_pairs) then counts orbits of disjoint label pairs under
    diagonal Aut(G) and the swap, one row of cells per Aut orbit of side-1
    labels.
    """
    config = config or EquivalenceConfig()
    t1, t2 = tau1.with_sorted_periods(), tau2.with_sorted_periods()
    return _count_type_pair(G, t1, t2, lambda t: side_orbits(G, t, config), config)


def _valid_cells(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Bool matrix of row pairs (orbit labels, or class rows in the one-stage
    oracle) whose Sigma rows share no column, computed in row blocks of at
    most about a million cells. Neither route keeps an identity column: the
    two-stage rows have one column per class of prime-order subgroups
    (_sigma_matrix), and the oracle's rows are whole Sigma sets less the
    identity, so no shared column means Sigma sets that meet only in 1."""
    valid = np.empty((len(m1), len(m2)), dtype=bool)
    f2 = m2.T.astype(np.float32)
    step = max(1, (1 << 20) // max(1, len(m2)))
    for start in range(0, len(m1), step):
        valid[start : start + step] = m1[start : start + step].astype(np.float32) @ f2 == 0
    return valid


def _count_pairs(
    G: Group, side1: SidePartition, side2: SidePartition, config: EquivalenceConfig
) -> OrbitReport:
    """The pair stage of count_components, on side partitions already built,
    each with a system; the swap acts when the unordered types coincide.

    Cells are label pairs (i, j) whose Sigma sets meet only in the
    identity (_valid_cells on _sigma_matrix rows). Aut(G) splits the
    side-1 labels into blocks (its orbits), each a tree of one SchreierTree
    rooted at its least label i0, and every orbit of cells under diagonal
    Aut meets the row of i0 in one orbit of Stab(i0). So only the row cells
    (i0, j) are kept, and their orbits come from _components under the
    Schreier generators of each Stab(i0) and, for equal types, the swap
    (i0, j) -> (j, i0) carried back to a row by u_j^-1, a walk up j's tree.
    Label orbit sizes are Aut-invariant, so a row cell weighs
    |block| s1[i0] s2[j]. An orbit's least cell lies in a row and is its
    least row cell, so the _components roots are the representatives, in
    ascending order of the least cells.
    """
    rng = random.Random(config.seed)
    same_types = side1.tau.canonical() == side2.tau.canonical()
    L1, L2 = len(side1.leaders), len(side2.leaders)

    m1 = _sigma_matrix(G, side1)
    m2 = m1 if same_types else _sigma_matrix(G, side2)
    s1 = side1.orbit_sizes
    s2 = s1 if same_types else side2.orbit_sizes
    labels1, labels2 = side1.labels, side2.labels
    where1, where2 = (f"{G.name} {t} under an automorphism" for t in (side1.tau, side2.tau))

    aut = automorphism_group(G)
    maps = aut.generator_maps
    gens, perms = G.generating_tuple(), _aut_label_perms(G, side1, maps)
    tree = SchreierTree(_components(L1, perms), maps, perms, gens)
    stab, use_root, use_gen = tree.stabilizer_gens()
    roots = np.flatnonzero(tree.root == np.arange(L1))
    block = np.searchsorted(roots, tree.root)  # block number of each side-1 label
    block_size = np.bincount(block)

    fixed = side1.label_of(stab[use_gen[:, None], labels1[use_root]], where1)
    if (fixed != use_root).any():
        raise AssertionError("a stabilizer generator moves the root label of its block")
    gens_of: dict[int, tuple[int, ...]] = {}
    for r, k in zip(use_root.tolist(), use_gen.tolist()):
        gens_of[r] = gens_of.get(r, ()) + (k,)
    subsets: dict[tuple[int, ...], tuple[int, list[int]]] = {}
    uses = np.zeros((len(stab), len(roots)), dtype=bool)  # generator k acts on block b
    for b, r in enumerate(roots.tolist()):
        key = gens_of.get(r, ())
        if key not in subsets:
            subsets[key] = _generating_subset(stab[list(key)], gens)
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
            back = side1.label_of(tree.back(cell_j, labels1[cell_i]), where1)
            yield cells_at(tree.root[cell_j] * L2 + back)

    least = _components(len(flat), cell_maps())
    seeds = np.flatnonzero(least == np.arange(len(flat)))
    sizes = np.zeros(len(flat), dtype=np.int64)
    np.add.at(sizes, least, weight)

    # A sampled label x of each block: u_x^-1 carries its row of cells onto row i0.
    members = np.argsort(block, kind="stable")  # by block, each root first
    starts = np.concatenate([[0], np.cumsum(block_size)])
    picked = []
    for b in np.flatnonzero(block_size > 1).tolist():
        others = members[starts[b] + 1 : starts[b + 1]].tolist()
        picked += [(b, x) for x in rng.sample(others, min(3, len(others)))]
    if picked:
        xs = np.array([x for _, x in picked])
        pick, jx = np.nonzero(_valid_cells(m1[xs], m2))
        carried = side2.label_of(tree.back(xs[pick], labels2[jx]), where2)
        row_cuts = np.searchsorted(cell_block, np.arange(len(roots) + 1))
        pick_cuts = np.searchsorted(pick, np.arange(len(picked) + 1))
        for p, (b, x) in enumerate(picked):
            js = cell_j[row_cuts[b] : row_cuts[b + 1]]
            if not np.array_equal(np.sort(carried[pick_cuts[p] : pick_cuts[p + 1]]), js):
                raise AssertionError(
                    f"the cells of label {x} are not those of label {roots[b]} carried by "
                    f"its transversal in {G.name} {side1.tau} x {side2.tau}"
                )

    return _report(
        G, side1.tau, side2.tau, config, sizes[seeds].tolist(), total_pairs,
        labels1[cell_i[seeds]], labels2[cell_j[seeds]],
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
    """Components of the disjoint ordered pairs of Inn(G)-class rows; the
    cross-checking oracle.

    Inn(G) acts on each side independently and freely, so each pair of
    class rows stands for (|G|/|Z(G)|)^2 raw pairs, and an orbit's least
    raw pair is its least class-row pair. Pairs are flat ids i * n2 + j
    into the two sorted class-row lists. Every move and Aut generator acts
    once per class row as an index map (the row index reduces each image to
    its class row), pair images follow by index arithmetic, and the orbits
    come from _components without orbit labels or any other quotient. Inn
    generators fix every class row, so they give no map; one lookup checks
    that they keep a sample of rows in their classes. The class rows of
    every ordering are enumerated by the two-stage engine's rule
    (_pair_sides): the side with fewer candidate tuples first, and its
    partner only when it has a class row, so a side with none answers
    h = 0 without enumerating its partner.
    """
    config = config or EquivalenceConfig()
    t1, t2 = tau1.with_sorted_periods(), tau2.with_sorted_periods()
    same_types = t1.canonical() == t2.canonical()

    sides = _pair_sides(
        G, t1, t2, lambda t: _systems(G, t, config, inn_classes=True), fiber=False
    )
    if sides is None:
        return _report(G, t1, t2, config)
    sys1, sys2 = sides
    n2 = len(sys2)
    cells = len(sys1) * n2
    if cells > DEFAULT_ONE_STAGE_SCAN_BUDGET:
        raise BudgetExceeded(
            f"one-stage oracle must scan {cells} class-row pairs "
            f"(> {DEFAULT_ONE_STAGE_SCAN_BUDGET})",
            required=cells,
        )

    sig1 = sigma_masks(G, t1.gprime, sys1)
    sig2 = sig1 if same_types else sigma_masks(G, t2.gprime, sys2)
    sig1[:, G.identity] = sig2[:, G.identity] = False  # whole Sigma sets less the identity
    disjoint = _valid_cells(sig1, sig2).ravel()
    pair_ids = np.flatnonzero(disjoint)
    per_pair = (G.order // len(G.center())) ** 2  # raw pairs per class-row pair
    total_pairs = len(pair_ids) * per_pair
    if total_pairs == 0:
        return _report(G, t1, t2, config)

    inn = inner_automorphisms(G)
    aut_maps = automorphism_group(G).generator_maps

    def side_maps(t: SignatureType, systems: np.ndarray):
        """Index maps of the moves, then of the Aut generators, stacked into
        as few lookups as _located allows."""
        locate, where = _RowIndex(systems, G.order, G.inner_classes()), f"{G.name} {t}"
        _check_inn_sample(systems, inn, locate, where)
        moves = _move_maps(G, t)
        images = chain((f(systems) for f in moves), (phi[systems] for phi in aut_maps))
        maps = list(_located(locate, images, where))
        return maps[: len(moves)], maps[len(moves) :]

    moves1, aut1 = side_maps(t1, sys1)
    moves2, aut2 = (moves1, aut1) if same_types else side_maps(t2, sys2)
    i, j = pair_ids // n2, pair_ids % n2
    # flat id -> position in pair_ids; int32 holds it under the pair budget
    rank = np.cumsum(disjoint, dtype=np.int32)
    rank -= 1

    def flat_images():
        for img in moves1:
            yield img[i] * n2 + j
        for img in moves2:
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

    root = _components(len(pair_ids), pair_images())
    seeds = np.flatnonzero(root == np.arange(len(pair_ids)))
    firsts = seconds = ()
    if config.representatives:
        # the two-stage engine's: the least pair over class-sorted rows
        keys = G.class_keys

        def class_sorted(t: SignatureType, systems: np.ndarray) -> np.ndarray:
            branch = keys[systems[:, 2 * t.gprime :]]
            return (branch[:, 1:] >= branch[:, :-1]).all(axis=1)

        fiber = np.flatnonzero(class_sorted(t1, sys1)[i] & class_sorted(t2, sys2)[j])
        least = np.full(len(pair_ids), len(pair_ids))
        np.minimum.at(least, root[fiber], fiber)
        picked = pair_ids[np.sort(least[seeds])]
        firsts, seconds = sys1[picked // n2], sys2[picked % n2]
    sizes = (np.bincount(root)[seeds] * per_pair).tolist()
    return _report(G, t1, t2, config, sizes, total_pairs, firsts, seconds)


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
    braid orbit, so does all of Inn(G). Inn(G) keeps each entry's class, so
    it keeps the class-sorted fiber, where the braid orbits are the orbits
    of the words of _checked_move_images (side_orbits); every system there
    is checked, each image braid-sorted (_braid_sorted) before its lookup so
    that a map that moves classes is reported too.
    """
    if tau.gprime != 0:
        raise UserInputError("inner-automorphism audit applies to g' = 0 types only")
    config = config or EquivalenceConfig()
    canonical = tau.with_sorted_periods()
    systems = _systems(G, canonical, config, fiber=True)
    inn = inner_automorphisms(G)
    locate, where = _RowIndex(systems, G.order), f"{G.name} {canonical}"
    root = _components(len(systems), _checked_move_images(G, canonical, systems, inn, locate))
    inner_count = G.order // len(G.center())
    images = (
        locate(_braid_sorted(G, 0, phi[systems]), f"{where} under an inner automorphism")
        for phi in inn
    )
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
                "inner_image": [G.element_label(x) for x in inn[k][ent].tolist()],
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
    multisets: dict[Fraction, list] = {}  # angle sum -> its period multisets, for this call
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
            for s in (s1, s2):
                if s not in multisets:
                    multisets[s] = period_multisets_with_angle_sum(orders, s)
            for p1 in multisets[s1]:
                for p2 in multisets[s2]:
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
    """Census of components with the given chi and q over the catalog groups.

    Each type pair is counted by count_components' rules, its sides from
    one cache per group, so a side built for one pair is reused by every
    other. A pair settled by forced Sigma columns, or with an empty side,
    has h = 0 and no row, and a side it does not build is not refused.
    """
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
                rep = _count_type_pair(G, t1, t2, side, config)
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
