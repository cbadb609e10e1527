from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hurwitz_components.automorphisms import (
    AutGroup,
    SchreierTree,
    automorphism_group,
    inner_automorphisms,
)
from hurwitz_components.errors import BudgetExceeded, UserInputError
from hurwitz_components.groups import (
    AbelianGroup,
    _components,
    construct_group,
    distinct,
    index_dtype,
    prime_factorization,
)
from hurwitz_components.moves import (
    apply_move,
    available_moves,
    fiber_words,
    generating_moves,
)
from hurwitz_components import automorphisms, cli, orbits
from hurwitz_components.orbits import (
    EquivalenceConfig,
    OrbitReport,
    _RowIndex,
    _systems,
    _sigma_matrix,
    _sigma_rows,
    _valid_cells,
    admissible_type_pairs,
    component_bound_warning,
    count_components,
    count_components_one_stage,
    estimate_system_candidates,
    scan_invariants,
    side_orbits,
    verify_inn_lemma,
)
from hurwitz_components.ramification import (
    BLOCK_ROWS,
    SignatureType,
    enumerate_systems,
    rh_admissible,
    sigma_set,
)
from test_automorphisms import _closure
from test_ramification import _system_valid


def _tau(text: str) -> SignatureType:
    return SignatureType.parse(text)


def test_side_orbits_label_partition():
    G = AbelianGroup([5, 5])
    part = side_orbits(G, _tau("0|5,5,5"))
    systems = list(map(tuple, part.systems.tolist()))
    assert len(systems) == 480 and systems == sorted(set(systems))
    assert len(part.leaders) == 80
    assert sum(part.orbit_sizes) == 480
    # orbit ids are contiguous from zero and each orbit's label is its least member
    assert set(part.orbit.tolist()) == set(range(80))
    for oid, seed in enumerate(map(tuple, part.labels.tolist())):
        members = [ent for ent, k in zip(systems, part.orbit.tolist()) if k == oid]
        assert seed == min(members)
        assert len(members) == part.orbit_sizes[oid]


def test_side_orbits_single_orbit_for_symmetric_triangle():
    G = construct_group("Sym:3")
    part = side_orbits(G, _tau("0|2,2,3"))
    assert sum(part.orbit_sizes) == 18
    assert len(part.leaders) == 1


def test_side_orbits_accept_enumeration_as_row_list(monkeypatch):
    G = construct_group("Sym:4")
    tau = _tau("1|2,2")
    want = side_orbits(G, tau)
    monkeypatch.setattr(
        orbits, "enumerate_systems", lambda G, t, **kw: list(enumerate_systems(G, t, **kw))
    )
    got = side_orbits(G, tau)
    assert got.systems.dtype == want.systems.dtype
    for field in ("systems", "orbit", "leaders"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def _ascending(G, tau, systems) -> np.ndarray:
    """Which rows lie over the ascending ordering of tau's periods."""
    orders = G.orders[systems[:, 2 * tau.gprime :]]
    return (orders[:, 1:] >= orders[:, :-1]).all(axis=1)


def _side_orbits_on_every_system(G, tau):
    """The side partition with every forward move (available_moves) and every
    Inn generator map acting on every system of every ordering: the
    reference for side_orbits, which moves one system per Inn class over the
    ascending ordering with fiber_words. Returns the systems, the least
    member over the ascending ordering of each orbit (ascending) and each
    orbit's size, over every ordering."""
    canonical = tau.with_sorted_periods()
    systems = _systems(G, canonical, EquivalenceConfig())
    locate = _RowIndex(systems, G.order)
    images = [locate(f(systems), "reference") for f in orbits._move_maps(G, canonical)]
    images += [locate(phi[systems], "reference") for phi in inner_automorphisms(G)]
    root = _components(len(systems), images)
    fiber = np.flatnonzero(_ascending(G, canonical, systems))
    leaders = np.full(len(systems), len(systems))
    np.minimum.at(leaders, root[fiber], fiber)
    leaders = np.sort(leaders[root == np.arange(len(systems))])
    return systems, leaders, np.bincount(root)[root[leaders]]


@pytest.mark.parametrize(
    "spec, text",
    [
        ("Sym:3", "0|2,2,3"),
        ("Sym:4", "1|2,2"),
        ("Sym:4", "0|2,2,2,4"),
        ("Sym:4", "1|3,3,3"),
        ("Alt:4", "1|3,3,3"),
        ("Alt:5", "0|2,5,5"),
        ("Alt:5", "1|2"),  # no systems
        ("q8", "0|4,4,4"),  # a centre of order 2
        ("q8", "1|2"),
        ("Zn:2,4", "1|2,2"),  # no Inn generators
        ("Zn:2,4", "1|2,2,2,2"),  # 7 of 13 moves dropped
    ],
)
def test_side_orbits_over_inn_classes_match_every_system(spec, text, q8, monkeypatch):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = _tau(text)
    systems, leaders, sizes = _side_orbits_on_every_system(G, tau)
    rows_per_call = []
    real = orbits.apply_move

    def counted(G, gp, rows, mv):
        rows_per_call.append(len(rows))
        return real(G, gp, rows, mv)

    rows_per_lookup = []
    real_lookup = _RowIndex.__call__

    def located(self, rows, where):
        rows_per_lookup.append(len(rows))
        return real_lookup(self, rows, where)

    monkeypatch.setattr(orbits, "apply_move", counted)
    monkeypatch.setattr(_RowIndex, "__call__", located)
    part = side_orbits(G, tau)
    assert np.array_equal(part.labels, systems[leaders])
    assert np.array_equal(part.orbit_sizes, sizes)
    fiber = np.count_nonzero(_ascending(G, tau, systems))
    classes = fiber // (G.order // len(G.center()))
    assert len(part.systems) == classes
    # each word acts once, a move at a time, on the class rows with the Inn
    # images of the sample stacked below them, then its reversed word of
    # inverse moves once on the sample's images
    sample = min(classes, 20)
    inn = len(inner_automorphisms(G))
    words = fiber_words(tau.gprime, tau.with_sorted_periods().periods)
    assert rows_per_call == [
        rows for w in words for rows in [classes + inn * sample] * len(w) + [sample] * len(w)
    ]
    # one lookup checks the sample's images under every Inn generator, then
    # the class rows' images of as many consecutive words as fit in
    # BLOCK_ROWS rows go to one lookup
    per = max(1, BLOCK_ROWS // classes) if classes else len(words)
    stacks = [classes * len(words[at : at + per]) for at in range(0, len(words), per)]
    assert rows_per_lookup == [inn * sample] * (inn > 0) + stacks


def test_a_stranger_in_a_middle_word_of_a_stack_is_refused(monkeypatch):
    # Sym:4 (1|3,3,3): 756 class rows, so its 5 words share one lookup. One
    # row past the sample of the middle word's images becomes the identity
    # tuple, which generates nothing: the word's own checks (on the sample)
    # pass, and the stacked lookup must still refuse it.
    G = construct_group("Sym:4")
    tau = _tau("1|3,3,3")
    words = fiber_words(tau.gprime, tau.periods)
    middle = len(words) // 2
    planted_call = sum(2 * len(w) for w in words[:middle]) + len(words[middle]) - 1
    calls = []
    real = orbits.apply_move

    def planted(G, gp, rows, mv):
        out = real(G, gp, rows, mv)
        if len(calls) == planted_call:
            out[20] = G.identity
        calls.append(len(rows))
        return out

    rows_per_lookup = []
    real_lookup = _RowIndex.__call__

    def located(self, rows, where):
        rows_per_lookup.append(len(rows))
        return real_lookup(self, rows, where)

    monkeypatch.setattr(orbits, "apply_move", planted)
    monkeypatch.setattr(_RowIndex, "__call__", located)
    with pytest.raises(AssertionError, match=r"a map left the system set of Sym:4 1\|3,3,3$"):
        side_orbits(G, tau)
    assert 3 <= len(words) <= BLOCK_ROWS // 756
    assert rows_per_lookup[-1] == 756 * len(words)  # the refusing lookup held every word


def test_stacked_label_perms_match_one_lookup_per_map(monkeypatch):
    # Alt:4 (1|3,3,3) has 4 orbit labels; its 24 automorphisms, 5 to a
    # stack of 20 rows, must permute them as 24 lookups of one map each do
    G = construct_group("Alt:4")
    part = side_orbits(G, _tau("1|3,3,3"))
    maps = np.array(sorted(_closure(G, automorphism_group(G).generator_maps)), dtype=np.int16)
    assert len(maps) == 24 and len(part.leaders) == 4
    where = "Alt:4 (1|3,3,3) under an automorphism"
    want = [part.label_of(phi[part.labels], where) for phi in maps]
    assert sorted(map(tuple, np.array(want).tolist())) != [tuple(range(4))] * 24
    lookups = []
    real_lookup = _RowIndex.__call__

    def located(self, rows, where):
        lookups.append(len(rows))
        return real_lookup(self, rows, where)

    monkeypatch.setattr(_RowIndex, "__call__", located)
    got = orbits._aut_label_perms(G, part, maps)
    assert lookups == [96]  # one stack under BLOCK_ROWS
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    monkeypatch.setattr(orbits, "BLOCK_ROWS", 20)
    lookups.clear()
    got = orbits._aut_label_perms(G, part, maps)
    assert lookups == [20] * 4 + [16]
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


CENSUS_SPECS = ("Sym:3", "Sym:4", "Alt:4", "Zn:2,2", "Zn:2,4", "Zn:2,2,2", "q8", "Alt:5")  # census order
PIN_CANDIDATES = 400_000  # candidate class-row tuples over every ordering, past (1, 1)


def _pinned_sides(G, blocks: int = 1):
    """G's census sides: every side at (chi, q) = (1, 1), and those at (2, 1)
    and (2, 0) with two or more distinct periods (whose fiber is smaller than
    the side) and at most PIN_CANDIDATES candidate class-row tuples over
    every ordering; only sides with at least blocks distinct periods."""
    sides = {}
    for chi, q in ((1, 1), (2, 1), (2, 0)):
        for tau in (t for pair in admissible_type_pairs(G, chi, q) for t in pair):
            if (chi, q) != (1, 1) and (
                len(set(tau.periods)) < 2
                or estimate_system_candidates(G, tau, inn_classes=True) > PIN_CANDIDATES
            ):
                continue
            if len(set(tau.periods)) >= blocks:
                sides.setdefault(tau.canonical(), tau.with_sorted_periods())
    return list(sides.values())


def _side_orbits_over_every_ordering(G, tau):
    """The side stage before the fiber: class rows of every ordering of the
    periods, each move of generating_moves acting once. Returns the class
    rows' index, each class row's orbit root and the orbit sizes by root."""
    gp = tau.gprime
    systems = _systems(G, tau, EquivalenceConfig(), inn_classes=True)
    locate = _RowIndex(systems, G.order, G.inner_classes())
    moves = generating_moves(gp, tau.r) if (gp, tau.r) != (0, 0) else []
    root = _components(len(systems), [locate(apply_move(G, gp, systems, m), "") for m in moves])
    sizes = np.bincount(root, minlength=len(systems)) * (G.order // len(G.center()))
    return locate, root, sizes


@pytest.mark.parametrize("spec", CENSUS_SPECS)
def test_fiber_partitions_match_every_ordering(spec, q8):
    # each orbit over every ordering meets the fiber in exactly one fiber
    # orbit, and its size is that orbit's class rows times their weight
    G = q8 if spec == "q8" else construct_group(spec)
    for tau in _pinned_sides(G):
        locate, root, sizes = _side_orbits_over_every_ordering(G, tau)
        part = side_orbits(G, tau)
        old = root[locate(part.systems, str(tau))]
        lead = old[part.leaders]  # the old orbit of each fiber orbit
        assert np.array_equal(old, lead[part.orbit]), tau
        orbits_before = np.count_nonzero(root == np.arange(len(root)))
        assert len(set(lead.tolist())) == len(lead) == orbits_before, tau
        assert np.array_equal(part.orbit_sizes, sizes[lead]), tau


@pytest.mark.parametrize("dropped", ["block-pair braid", "xi1 twist"])
def test_fiber_words_without_a_generator_split_orbits(dropped, q8, monkeypatch):
    # Without the braid of the first two blocks, or the xi1 twists at the
    # first point of the second block, H's words generate a smaller group:
    # some pinned side shows more orbits, and none fewer.
    real = fiber_words

    def fewer(gp, periods):
        words = real(gp, periods)
        if dropped == "block-pair braid":
            cut = [w for w in words if len(w) > 1][:1]
        else:
            cut = [w for w in words if w[0].kind == "xi1" and w[0].d > 1][:gp]
        return [w for w in words if w not in cut]

    sides = [
        (G, tau)
        for G in _census_catalog(q8)
        for tau in _pinned_sides(G, blocks=2)
        if tau.gprime > 0 or dropped == "block-pair braid"
    ]
    before = [len(side_orbits(G, tau).leaders) for G, tau in sides]
    monkeypatch.setattr(orbits, "fiber_words", fewer)
    after = [len(side_orbits(G, tau).leaders) for G, tau in sides]
    assert all(a >= b for a, b in zip(after, before))
    assert any(a > b for a, b in zip(after, before))


def _schreier_words(gp, periods):
    """Schreier generators of the stabilizer H of the ascending ordering of
    periods (Seress, Permutation Group Algorithms, section 4.1), as words.
    The moves of generating_moves act on the orderings (sigma_h swaps places
    h and h + 1, a handle move fixes them); u_w, a word of a breadth-first
    tree, takes the ascending ordering to w, and every ordering w and move
    m give the word u_w, m, u_{m(w)}^-1 unless it is a tree edge."""
    moves = generating_moves(gp, len(periods))

    def act(m, w):
        if m.kind != "sigma":
            return w
        return w[: m.i - 1] + (w[m.i], w[m.i - 1]) + w[m.i + 1 :]

    tree = {tuple(sorted(periods)): ()}
    frontier = list(tree)
    while frontier:
        grown = []
        for w in frontier:
            for m in moves:
                if act(m, w) not in tree:
                    tree[act(m, w)] = tree[w] + (m,)
                    grown.append(act(m, w))
        frontier = grown
    return [
        tree[w] + (m,) + tuple(x.inverted() for x in reversed(tree[act(m, w)]))
        for w in tree
        for m in moves
        if tree[w] + (m,) != tree[act(m, w)]
    ]


@pytest.mark.parametrize(
    "spec, text",
    [
        ("Sym:4", "0|2,2,3,3"),
        ("Sym:4", "0|2,2,4,4"),
        ("Alt:4", "0|2,2,2,2,3,3"),
        ("Alt:5", "0|2,2,3,3"),
        ("Sym:4", "1|2,4,4"),
        ("Zn:2,4", "1|2,4,4"),
        ("q8", "1|2,4,4"),
    ],
)
def test_fiber_words_give_the_orbits_of_schreier_generators(spec, text, q8, monkeypatch):
    # H's Schreier generators generate H, so fiber_words, whose images stay
    # in the fiber, must give the same partition of it
    G = q8 if spec == "q8" else construct_group(spec)
    tau = _tau(text)
    want = side_orbits(G, tau)
    monkeypatch.setattr(orbits, "fiber_words", _schreier_words)
    got = side_orbits(G, tau)
    assert len(_schreier_words(tau.gprime, tau.periods)) > len(fiber_words(tau.gprime, tau.periods))
    assert np.array_equal(got.systems, want.systems)
    assert np.array_equal(got.orbit, want.orbit)


def _least_conjugate_by_every_element(G, row):
    """The least of the |G| conjugates of one row, by plain enumeration."""
    return min(tuple(G.conj(x, g) for x in row) for g in G.elements())


@pytest.mark.parametrize(
    "spec, text", [("Sym:3", "0|2,2,3"), ("Sym:4", "1|2,2"), ("Alt:5", "0|2,5,5"), ("q8", "1|2")]
)
def test_least_conjugates_match_a_minimum_over_every_element(spec, text, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = _tau(text)
    classes = G.inner_classes()
    part = side_orbits(G, tau)
    rows = part.systems
    rows = np.concatenate(
        [rows]
        + [f(rows) for f in orbits._move_maps(G, tau)]
        + [phi[rows] for phi in automorphism_group(G).generator_maps]
    )
    sample = np.random.default_rng(4).choice(len(rows), size=min(400, len(rows)), replace=False)
    rows = rows[np.sort(sample)]
    want = [_least_conjugate_by_every_element(G, row) for row in rows.tolist()]
    assert list(map(tuple, classes.least_conjugates(rows).tolist())) == want
    # every class row is its own least conjugate
    assert np.array_equal(classes.least_conjugates(part.systems), part.systems)
    assert classes.least_conjugates(rows[:0]).shape == (0, rows.shape[1])


def test_least_conjugates_without_a_multiplication_table():
    # past TABLE_LIMIT a group has no multiplication table, and conjugation
    # reads the backend's own products and inverses
    G = construct_group("Sym:4")
    classes = G.inner_classes()
    rows = np.random.default_rng(6).integers(0, G.order, size=(300, 4)).astype(np.int16)
    want = classes.least_conjugates(rows)
    G._products = G._inverses = None
    assert np.array_equal(classes.least_conjugates(rows), want)


def test_abelian_sides_do_no_conjugate_gathers():
    G = construct_group("Zn:5,5")
    part = side_orbits(G, _tau("0|5,5,5"))
    assert G.inner_classes() is None and G._inner_classes is None
    assert len(part.systems) == 480 and part.orbit_sizes.sum() == 480


def test_side_orbits_refuse_inn_classes_of_the_wrong_size(monkeypatch):
    G = construct_group("Sym:4")
    classes = G.inner_classes()
    # The leads of 1|2,2 (the class minima) share one enumeration block,
    # and c, a double transposition, is not the first of them.
    c = max(np.unique(classes.least[G.orders == 2]).tolist())
    classes.centralizer_order[c] = 1  # C(c) missing members
    with pytest.raises(AssertionError, match=f"with lead {c} do not split"):
        side_orbits(G, _tau("1|2,2"))


def test_side_orbits_refuse_a_broken_conjugator_table():
    G = construct_group("Sym:4")
    classes = G.inner_classes()
    moved = np.flatnonzero(classes.least != np.arange(G.order))
    classes.conjugator[moved] = G.identity  # leaves those leads off their class minima
    with pytest.raises(AssertionError, match="misses its class minimum"):
        side_orbits(G, _tau("0|2,3,4"))


def test_side_budget_counts_the_restricted_enumeration():
    G = construct_group("Sym:4")
    tau = _tau("0|2,3,4")
    expanded = 0
    for m1, m2, m3 in tau.orderings():
        # the lead takes the least member of each class of order m1, the
        # second entry every element of order m2; the third is solved
        leads = {min(G.conjugacy_class(x)) for x in G.elements() if G.element_order(x) == m1}
        seconds = [y for y in G.elements() if G.element_order(y) == m2]
        expanded += len(leads) * len(seconds)
        rows = enumerate_systems(G, SignatureType(0, (m1, m2, m3)), inn_classes=True)
        assert set(rows[:, 0].tolist()) <= leads
    assert estimate_system_candidates(G, tau, inn_classes=True) == expanded == 60
    assert estimate_system_candidates(G, tau) == 348  # the oracle's and enumerate's estimate


def test_side_budget_counts_the_ascending_ordering_only():
    G = construct_group("Sym:4")
    tau = _tau("0|4,2,3")
    # two class minima of order 2 as the lead, eight elements of order 3
    est = estimate_system_candidates(G, tau, inn_classes=True, fiber=True)
    assert est == 2 * 8 < estimate_system_candidates(G, tau, inn_classes=True) == 60
    assert len(side_orbits(G, tau, EquivalenceConfig(max_systems=est)).leaders) == 1
    with pytest.raises(BudgetExceeded) as info:
        side_orbits(G, tau, EquivalenceConfig(max_systems=est - 1))
    assert info.value.required == est


def test_row_index_locates_rows_and_refuses_strangers():
    G = construct_group("Sym:3")
    systems = _systems(G, _tau("0|2,2,3"), EquivalenceConfig())
    locate = _RowIndex(systems, G.order)
    shuffled = np.random.default_rng(3).permutation(len(systems))
    assert locate(systems[shuffled], "Sym:3").tolist() == shuffled.tolist()
    with pytest.raises(AssertionError, match="left the system set"):
        locate(systems[:, ::-1], "Sym:3 (0|2,2,3)")


def test_row_index_keys_stay_in_int64():
    order, width = 40_320, 12  # Sym:8 indices, rows of six handles
    rows = np.random.default_rng(5).integers(0, order, size=(5000, width)).astype(np.int32)
    rows = np.unique(rows, axis=0)  # sorted distinct rows
    locate = _RowIndex(rows, order)
    assert len(locate.chunks) > 1
    assert all(int(keys.max()) < 1 << 62 for keys in locate.levels)
    assert locate(rows[::-1], "rows").tolist() == list(range(len(rows)))[::-1]


def test_planted_map_that_leaves_the_system_set_raises(monkeypatch):
    G = construct_group("Sym:3")
    collapse = np.full((1, G.order), G.identity, dtype=np.int16)  # not an automorphism
    monkeypatch.setattr(orbits, "inner_automorphisms", lambda G: collapse)
    with pytest.raises(AssertionError, match="left the system set"):
        side_orbits(G, _tau("0|2,2,3"))


def test_valid_cells_in_row_blocks_match_one_product():
    rng = np.random.default_rng(9)
    m1 = rng.random((3000, 17)) < 0.05
    m2 = rng.random((700, 17)) < 0.05
    whole = (m1.astype(np.float32) @ m2.astype(np.float32).T) == 0  # no shared column
    got = _valid_cells(m1, m2)
    assert got.any() and not got.all() and np.array_equal(got, whole)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, n))


def _subgroup_class(G, z: int) -> frozenset:
    """The conjugacy class of the subgroup <z>, as a set of subgroups."""
    sub = G.closure([z]).tolist()
    return frozenset(frozenset(int(G.conj(x, g)) for x in sub) for g in G.elements())


def _class_columns(G, table: np.ndarray) -> dict[int, int]:
    """The column of each element z of prime order: the one column its row
    marks. Checked to name the class of <z>, one column per class."""
    col = {}
    for z in G.elements():
        if _is_prime(G.element_order(z)):
            (col[z],) = np.flatnonzero(table[z]).tolist()
    named = {(_subgroup_class(G, z), c) for z, c in col.items()}
    assert len({k for k, _ in named}) == len({c for _, c in named}) == len(named)
    assert len(named) == table.shape[1]
    return col


def _sigma_classes(G, col: dict[int, int], gprime: int, entries) -> set[int]:
    """The columns of the prime-order subgroup classes inside sigma_set."""
    return {col[z] for z in sigma_set(G, gprime, tuple(entries)) if z in col}


@pytest.mark.parametrize("spec", ["Sym:4", "Alt:5", "q8", "Zn:5,5"])
def test_sigma_table_matches_sigma_set(spec, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    table = _sigma_rows(G)
    # classes of subgroups of prime order: Zn:p,p has p + 1, Q8 only <-1>
    columns = {"Sym:4": 3, "Alt:5": 3, "q8": 1, "Zn:5,5": 6}[spec]
    assert table.shape == (G.order, columns)
    col = _class_columns(G, table)
    for x in G.elements():
        assert set(np.flatnonzero(table[x]).tolist()) == _sigma_classes(G, col, 0, (x,)), x


@pytest.mark.parametrize(
    "spec,text",
    [("Sym:4", "0|2,3,4"), ("Alt:5", "0|2,5,5"), ("q8", "1|2"), ("Zn:5,5", "0|5,5,5"), ("Zn:2,4", "2|")],
)
def test_sigma_matrix_rows_match_sigma_set(spec, text, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = _tau(text)
    part = side_orbits(G, tau)
    mat = _sigma_matrix(G, part)
    col = _class_columns(G, _sigma_rows(G))
    assert mat.shape == (len(part.leaders), len(set(col.values())))
    for row, label in zip(mat, part.labels.tolist()):
        assert set(np.flatnonzero(row).tolist()) == _sigma_classes(G, col, tau.gprime, label)


def _full_sigma_rows(G):
    """Sigma rows with one column per element: the conjugates of the powers
    of x, as the pair stage built them before the class columns."""
    rows = np.zeros((G.order, G.order), dtype=bool)
    for x in G.elements():
        rows[x, np.concatenate([G.closure([y]) for y in G.conjugacy_class(x)])] = True
    return rows


def _full_sigma_matrix(G, part):
    """(labels x |G|) Sigma rows with the identity column, from _full_sigma_rows."""
    table = _full_sigma_rows(G)
    out = np.zeros((len(part.leaders), G.order), dtype=bool)
    out[:, G.identity] = True
    for col in part.labels[:, 2 * part.tau.gprime :].T:
        out |= table[col]
    return out


def _full_valid_cells(m1, m2):
    """Row pairs whose full Sigma rows share only the identity column."""
    return (m1.astype(np.float32) @ m2.T.astype(np.float32)) == 1.0


@pytest.mark.parametrize(
    "spec,t1,t2",
    [
        ("Sym:4", "0|2,3,4", "0|3,4,4"),
        ("Sym:4", "0|2,2,2,2,2,2", "0|2,2,2,2,2,2"),
        ("Sym:4", "0|2,2,2,4", "1|3"),
        ("Sym:4", "0|3,4,4", "1|2,2"),
        ("Alt:5", "0|2,5,5", "0|3,3,5"),
        ("Alt:5", "0|2,5,5", "1|3"),
        ("q8", "0|4,4,4", "1|2"),
        ("q8", "0|4,4,4", "2|"),
        ("Zn:3,3", "0|3,3,3", "0|3,3,3,3"),
        ("Zn:5,5", "0|5,5,5", "0|5,5,5"),
        ("Zn:2,2,2", "0|2,2,2,2", "1|2,2"),
        ("Zn:2,4", "0|2,2,4,4", "1|2,2"),
        ("Zn:2,4", "0|2,4,4", "2|"),
    ],
)
def test_class_column_validity_matches_full_columns(spec, t1, t2, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    side1, side2 = side_orbits(G, _tau(t1)), side_orbits(G, _tau(t2))
    reduced = _valid_cells(_sigma_matrix(G, side1), _sigma_matrix(G, side2))
    full = _full_valid_cells(_full_sigma_matrix(G, side1), _full_sigma_matrix(G, side2))
    assert reduced.shape == full.shape and np.array_equal(reduced, full)


@pytest.mark.parametrize("spec", ["Sym:4", "Alt:5", "q8", "Zn:3,3", "Zn:5,5", "Zn:2,2,2", "Zn:2,4"])
def test_class_columns_decide_disjointness_of_any_entry_tuples(spec, q8):
    # Any union of conjugates of cyclic subgroups, not only the Sigma sets
    # of systems: every single element, and random pairs and triples.
    G = q8 if spec == "q8" else construct_group(spec)
    rng = np.random.default_rng(3)
    entries = [np.arange(G.order)[:, None]]
    entries += [rng.integers(0, G.order, size=(200, k)) for k in (2, 3)]
    reduced_table, full_table = _sigma_rows(G), _full_sigma_rows(G)
    for a in entries:
        for b in entries:
            reduced = _valid_cells(reduced_table[a].any(axis=1), reduced_table[b].any(axis=1))
            full = _full_valid_cells(full_table[a].any(axis=1), full_table[b].any(axis=1))
            assert full.any() and not full.all() and np.array_equal(reduced, full)


def test_sigma_matrix_checks_every_system_of_an_orbit():
    G = AbelianGroup([5, 5])
    part = side_orbits(G, _tau("0|5,5,5"))
    mat = _sigma_matrix(G, part)
    row = len(part.systems) - 1  # the last system is no orbit's least member
    assert row not in part.leaders.tolist()
    other = next(k for k in range(len(mat)) if (mat[k] != mat[part.orbit[row]]).any())
    part.orbit = part.orbit.copy()
    part.orbit[row] = other  # file one system under an orbit with another Sigma
    with pytest.raises(AssertionError, match=f"Sigma not constant on orbit {other} "):
        _sigma_matrix(G, part)


def test_sigma_matrix_packs_more_than_64_columns(monkeypatch):
    # Zn:2^7 has 127 classes of prime-order subgroups; here a real table is
    # widened to 76 columns (two 64-bit words) and its rows ORed directly.
    G = AbelianGroup([5, 5])
    part = side_orbits(G, _tau("0|5,5,5"))
    table = np.concatenate([np.zeros((G.order, 70), dtype=bool), _sigma_rows(G)], axis=1)
    table[:, 3] = table[:, 70]  # a bit in each word
    monkeypatch.setattr(orbits, "_sigma_rows", lambda G: table)
    want = table[part.labels].any(axis=1)
    assert want[:, 3].any() and not want[:, 3].all()
    assert np.array_equal(_sigma_matrix(G, part), want)
    part.orbit = part.orbit.copy()
    row = len(part.systems) - 1
    part.orbit[row] = next(k for k in range(len(want)) if (want[k] != want[part.orbit[row]]).any())
    with pytest.raises(AssertionError, match="Sigma not constant"):
        _sigma_matrix(G, part)


def test_scan_builds_each_side_once_per_group(monkeypatch):
    catalog = [construct_group("Sym:3"), construct_group("Zn:2,2"), construct_group("Sym:3")]
    pairs = {id(G): admissible_type_pairs(G, 1, 1) for G in catalog}
    want = sorted(
        (G.name, str(t1), str(t2), h)
        for G in catalog
        for t1, t2 in pairs[id(G)]
        if (h := count_components(G, t1, t2).h) > 0
    )
    distinct = sum(len({t.canonical() for p in pairs[id(G)] for t in p}) for G in catalog)
    assert distinct < 2 * sum(len(p) for p in pairs.values())  # some type repeats
    want_built = _replayed_side_builds(catalog, 1, 1)

    built = []
    real = orbits.side_orbits

    def counted(G, tau, config=None):
        built.append((id(G), tau.canonical()))
        return real(G, tau, config)

    monkeypatch.setattr(orbits, "side_orbits", counted)
    result = scan_invariants(catalog, chi=1, q=1)
    # Zn:2,2 (0|2^8) and each Sym:3 (1|2,2) are only ever the partner of an
    # empty side; 5 more sides of each Sym:3 serve only pairs settled by
    # forced Sigma columns
    assert built == want_built
    assert (len(built), len(set(built)), distinct) == (11, 11, 24)
    assert sorted((r.group, r.type1, r.type2, r.h) for r in result.rows) == want


def test_scan_builds_aut_and_sigma_rows_once_per_group(monkeypatch, q8_path):
    # a fresh catalog, so no group holds Aut(G) or its Sigma rows yet
    catalog = [construct_group(f"cayley:{q8_path}" if s == "q8" else s) for s in CENSUS_SPECS]
    aut_builds, sigma_builds = [], []
    for name in ("_homocyclic_auts", "_conjugation_auts", "_backtracking_auts"):
        real = getattr(automorphisms, name)

        def counted(G, real=real):
            aut_builds.append(id(G))
            return real(G)

        monkeypatch.setattr(automorphisms, name, counted)
    real_powers = orbits._powers

    def powers(G, x, e):  # one call per prime dividing |G| in each _sigma_rows build
        sigma_builds.append(id(G))
        return real_powers(G, x, e)

    monkeypatch.setattr(orbits, "_powers", powers)
    scan_invariants(catalog, chi=1, q=1)
    assert 0 < len(aut_builds) == len(set(aut_builds)) <= len(catalog)
    for G in catalog:
        builds = sigma_builds.count(id(G))
        assert builds in (0, len(prime_factorization(G.order))), G.name
        assert (G._aut is not None) == (id(G) in aut_builds)
        assert builds == 0 or not G._sigma_rows.flags.writeable
    assert automorphism_group(catalog[1]) is automorphism_group(catalog[1])


def test_an_aut_refusal_is_raised_again_and_not_kept():
    G = construct_group("Alt:6")  # degree 6: backtracking over 7,200 candidate tuples
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="candidate tuples"):
            automorphism_group(G)
        assert G._aut is None


def _census_catalog(q8):
    """The groups of the benchmark's census scan, in its order."""
    return [q8 if spec == "q8" else construct_group(spec) for spec in CENSUS_SPECS]


def _count_row_index_builds(monkeypatch) -> list[int]:
    """Record the number of rows of every _RowIndex built from now on."""
    builds = []
    real = _RowIndex.__init__

    def counted(self, systems, order, classes=None):
        builds.append(len(systems))
        real(self, systems, order, classes)

    monkeypatch.setattr(_RowIndex, "__init__", counted)
    return builds


def test_count_indexes_each_side_once(monkeypatch):
    G = construct_group("Sym:4")
    builds = _count_row_index_builds(monkeypatch)
    rep = count_components(G, _tau("0|2,2,2,4"), _tau("1|3"))
    assert rep.h > 0  # the pair stage ran in full
    assert len(builds) == 2


def test_census_scan_indexes_each_side_once(monkeypatch, q8):
    catalog = _census_catalog(q8)
    sides = {
        (G.name, t.canonical())
        for G in catalog
        for pair in admissible_type_pairs(G, 1, 1)
        for t in pair
    }
    want = _replayed_side_builds(catalog, 1, 1)
    builds = _count_row_index_builds(monkeypatch)
    scan_invariants(catalog, chi=1, q=1)
    # 35 of the 68 sides serve only pairs settled by forced Sigma columns or
    # partnered with an empty side, so they are never built
    assert len(sides) == 68
    assert len(builds) == len(want)
    assert (len(builds), sum(builds)) == (33, 2_822)


def _forces_common_column(G, t1: SignatureType, t2: SignatureType) -> bool:
    """The forced-column rule from whole Sigma sets: a type forces the
    elements in the Sigma set of every element of one of its periods, and a
    pair is settled when its types force a common element other than 1."""

    def forced(t: SignatureType) -> set:
        out = {G.identity}
        for m in set(t.periods):
            sets = [sigma_set(G, 0, (x,)) for x in np.flatnonzero(G.orders == m).tolist()]
            out |= frozenset.intersection(*sets) if sets else set(range(G.order))
        return out

    return len(forced(t1) & forced(t2)) > 1


def _replayed_side_builds(catalog, chi: int, q: int) -> list[tuple]:
    """The (id(G), canonical type) of each side scan_invariants builds, in
    order, by its rule replayed: no side for a pair whose types force a
    common Sigma column, else the side with fewer candidate tuples (type1 on
    a tie), then its partner if that side has a system; each side once."""
    want, has_rows = [], {}
    for G in catalog:
        for t1, t2 in admissible_type_pairs(G, chi, q):
            if _forces_common_column(G, t1, t2):
                continue
            cost = [estimate_system_candidates(G, t, inn_classes=True, fiber=True) for t in (t1, t2)]
            for t in (t2, t1) if cost[1] < cost[0] else (t1, t2):
                key = (id(G), t.canonical())
                if key not in has_rows:
                    want.append(key)
                    has_rows[key] = len(side_orbits(G, t).leaders) > 0
                if not has_rows[key]:
                    break
    return want


def test_census_scan_builds_the_cheaper_side_first_and_no_partner_of_an_empty_side(
    monkeypatch, q8
):
    catalog = _census_catalog(q8)
    want = _replayed_side_builds(catalog, 1, 1)
    built = []
    real = orbits.side_orbits

    def counted(G, tau, config=None):
        built.append((id(G), tau.canonical()))
        return real(G, tau, config)

    monkeypatch.setattr(orbits, "side_orbits", counted)
    scan_invariants(catalog, chi=1, q=1)
    assert built == want and len(built) == 33


def _scan_building_both_sides(catalog, chi: int, q: int) -> dict:
    """The scan loop as it was before an empty side settled its pair: both
    sides of every type pair are built (once per group) and a pair with an
    empty side answers h = 0. Per (group, type1, type2), the pair's
    (h, orbit_sizes, total_pairs), or None where a side is refused."""
    config = EquivalenceConfig()
    out = {}
    for G in catalog:
        sides = {}

        def side(tau):
            if tau.canonical() not in sides:
                sides[tau.canonical()] = side_orbits(G, tau, config)
            return sides[tau.canonical()]

        for t1, t2 in admissible_type_pairs(G, chi, q):
            key = (G.name, str(t1), str(t2))
            try:
                side1, side2 = side(t1), side(t2)
            except BudgetExceeded:
                out[key] = None
                continue
            if len(side1.leaders) and len(side2.leaders):
                rep = orbits._count_pairs(G, side1, side2, config)
                out[key] = (rep.h, rep.orbit_sizes, rep.total_pairs)
            else:
                out[key] = (0, [], 0)
    return out


def _scan_documents(catalog, chi: int, q: int, monkeypatch, forced=None):
    """scan_invariants over the catalog, with orbits._forced_columns replaced
    by forced when given: per (group, type1, type2) the pair's (h,
    orbit_sizes, total_pairs), and the ScanResult."""
    got = {}
    real = orbits._count_type_pair

    def recorded(G, t1, t2, build, config):
        rep = real(G, t1, t2, build, config)
        got[G.name, str(t1), str(t2)] = (rep.h, rep.orbit_sizes, rep.total_pairs)
        return rep

    monkeypatch.setattr(orbits, "_count_type_pair", recorded)
    if forced is not None:
        monkeypatch.setattr(orbits, "_forced_columns", forced)
    result = scan_invariants(catalog, chi, q)
    monkeypatch.undo()
    return got, result


@pytest.mark.parametrize("chi, q, refused", [(1, 1, 0), (2, 1, 3)])
def test_census_counts_match_the_loop_that_builds_both_sides(chi, q, refused, q8, monkeypatch):
    catalog = _census_catalog(q8)
    want = _scan_building_both_sides(catalog, chi, q)
    assert sum(v is None for v in want.values()) == refused
    got, result = _scan_documents(catalog, chi, q, monkeypatch)
    assert not [w for w in result.warnings if "skipped" in w]
    assert got.keys() == want.keys()
    # every refusal of the old loop pairs a side past the budget with an empty side
    assert all(got[k] == (0, [], 0) for k, v in want.items() if v is None)
    assert {k: got[k] for k, v in want.items() if v is not None} == {
        k: v for k, v in want.items() if v is not None
    }
    rows = [(r.group, r.type1, r.type2, r.h) for r in result.rows]
    assert rows == sorted(k + (v[0],) for k, v in got.items() if v[0] > 0)
    if (chi, q) == (1, 1):  # the count route goes through the same rule
        for G in catalog:
            for t1, t2 in admissible_type_pairs(G, chi, q):
                rep = count_components(G, t1, t2)
                assert (rep.h, rep.orbit_sizes, rep.total_pairs) == want[G.name, str(t1), str(t2)]


def _never_forced(G, tau: SignatureType) -> np.ndarray:
    return np.zeros(_sigma_rows(G).shape[1], dtype=bool)


def _settled_pairs_that_differ(catalog, chi: int, q: int, monkeypatch, forced) -> tuple[list, int]:
    """The census scan with forced columns `forced` against the scan that
    settles no pair by them: the keys of the pairs whose (h, orbit_sizes,
    total_pairs) differ ("scan" too if the rows, total_h or warnings
    differ), and the number of pairs that `forced` settles."""
    off, off_result = _scan_documents(catalog, chi, q, monkeypatch, _never_forced)
    on, on_result = _scan_documents(catalog, chi, q, monkeypatch, forced)
    assert on.keys() == off.keys()
    differ = [k for k in off if on[k] != off[k]]
    if (on_result.rows, on_result.total_h, on_result.warnings) != (
        off_result.rows, off_result.total_h, off_result.warnings
    ):
        differ.append("scan")
    settled = sum(
        bool((forced(G, t1) & forced(G, t2)).any())
        for G in catalog
        for t1, t2 in admissible_type_pairs(G, chi, q)
    )
    return differ, settled


@pytest.mark.parametrize("chi, q, settled", [(1, 1, 22), (2, 1, 49), (2, 0, 90)])
def test_forced_columns_change_no_census_count(chi, q, settled, q8, monkeypatch):
    catalog = _census_catalog(q8)
    differ, n = _settled_pairs_that_differ(catalog, chi, q, monkeypatch, orbits._forced_columns)
    assert differ == [] and n == settled


def test_a_planted_forced_column_shows_in_the_pin(q8, monkeypatch):
    # Sym:3 (0|2^6) x (1|3) has h = 1; planting the involution column of
    # (0|2^6) on (1|3), which only forces the column of <(123)>, settles it
    catalog = _census_catalog(q8)
    real = orbits._forced_columns

    def planted(G, tau):
        if G.name == "Sym:3" and str(tau) == "1|3":
            return real(G, tau) | real(G, _tau("0|2,2,2,2,2,2"))
        return real(G, tau)

    differ, n = _settled_pairs_that_differ(catalog, 1, 1, monkeypatch, planted)
    assert differ == [("Sym:3", "0|2,2,2,2,2,2", "1|3"), "scan"] and n == 23


def test_the_oracle_agrees_on_pairs_settled_by_forced_columns(q8, monkeypatch):
    # every settled census pair at (chi, q) = (1, 1) is within the oracle's
    # budget; the oracle enumerates each without the rule
    config = EquivalenceConfig(representatives=True)
    settled, both_sides = [], []
    for G in _census_catalog(q8):
        for t1, t2 in admissible_type_pairs(G, 1, 1):
            if (orbits._forced_columns(G, t1) & orbits._forced_columns(G, t2)).any():
                settled.append((G, t1, t2, count_components(G, t1, t2, config)))
    assert len(settled) == 22 and all(rep.h == 0 for *_, rep in settled)

    def unused(G, tau):
        raise AssertionError("the oracle read the forced-column rule")

    monkeypatch.setattr(orbits, "_forced_columns", unused)
    for G, t1, t2, rep in settled:
        assert count_components_one_stage(G, t1, t2, config) == rep
        if all(len(_systems(G, t, config, inn_classes=True)) for t in (t1, t2)):
            both_sides.append((G.name, str(t1), str(t2)))
    # pairs whose sides both have systems but no disjoint pair, g' > 0 among them
    assert len(both_sides) == 7
    assert (q8.name, "0|4,4,4", "1|2,4,4") in both_sides
    assert ("Alt:4", "0|2,2,3,3", "1|2,2") in both_sides


def test_forced_columns_of_q8_sym3_and_abelian_squares(q8):
    # Q8's one prime-order subgroup is its centre, the square of every order-4 element
    assert orbits._forced_columns(q8, _tau("0|4,4,4")).tolist() == [True]
    G = construct_group("Sym:3")
    involution, rotation = (_sigma_rows(G)[G.orders.tolist().index(m)] for m in (2, 3))
    assert not (involution & rotation).any()
    for t in ("0|2,2,2,2,2,2", "1|2,2", "0|2,2,2,2,3"):
        assert (orbits._forced_columns(G, _tau(t)) == involution | (3 in _tau(t).periods) * rotation).all()
    # a period that is no element order forces every column: the type has no system
    assert orbits._forced_columns(G, _tau("0|2,2,4")).all()
    for p in (5, 7):
        H = AbelianGroup([p, p])
        forced = orbits._forced_columns(H, _tau(f"0|{p},{p},{p}"))
        assert forced.shape == (p + 1,) and not forced.any()


@pytest.mark.parametrize(
    "route, built_by", [(count_components, "side_orbits"), (count_components_one_stage, "_systems")]
)
def test_an_empty_side_is_built_alone_and_the_cheaper_side_first(route, built_by, monkeypatch):
    G = construct_group("Sym:4")
    built = []
    real = getattr(orbits, built_by)

    def counted(G, tau, *args, **kwargs):
        built.append(str(tau.with_sorted_periods()))
        return real(G, tau, *args, **kwargs)

    monkeypatch.setattr(orbits, built_by, counted)
    # (0|3,3,4) has no system (two 3-cycles and a 4-cycle have an odd product);
    # its partner would need 573,956,280 candidate tuples
    empty, huge = _tau("0|3,3,4"), _tau("1|2,2,2,2,2,2,2,2")
    for t1, t2 in [(empty, huge), (huge, empty)]:
        built.clear()
        rep = route(G, t1, t2, EquivalenceConfig(representatives=True))
        assert rep == OrbitReport("Sym:4", str(t1), str(t2), 0, [], 0, [])
        assert built == ["0|3,3,4"]
    # (1|3) needs 120 candidate tuples, (0|2,2,2,4) 162 over the fiber, 459 over every ordering
    built.clear()
    assert route(G, _tau("0|2,2,2,4"), _tau("1|3")).h > 0
    assert built == ["1|3", "0|2,2,2,4"]


@pytest.mark.parametrize("route, fiber", [(count_components, True), (count_components_one_stage, False)])
@pytest.mark.parametrize("t1, t2", [("0|3,4,4", "1|2,2"), ("0|2,2,2,4", "1|3")])
def test_a_partner_past_the_budget_is_still_refused(route, fiber, t1, t2):
    G = construct_group("Sym:4")
    cost = {t: estimate_system_candidates(G, _tau(t), inn_classes=True, fiber=fiber) for t in (t1, t2)}
    cheap, dear = sorted(cost, key=cost.get)
    assert cost[cheap] < cost[dear]
    cheap_rows = _systems(G, _tau(cheap), EquivalenceConfig(), inn_classes=True, fiber=fiber)
    assert len(cheap_rows) > 0
    # the budget admits the cheaper side and refuses its partner
    with pytest.raises(BudgetExceeded, match=f"type {dear} needs {cost[dear]} ") as info:
        route(G, _tau(t1), _tau(t2), EquivalenceConfig(max_systems=cost[cheap]))
    assert info.value.required == cost[dear]


SIZES_DO_NOT_SUM = "orbit sizes do not sum to the number of disjoint pairs"


def test_report_checks_the_sizes_and_names_the_representatives():
    G, t = construct_group("Zn:3,3"), _tau("0|3,3,3")
    for sizes, total in [([4, 2], 5), ((), 1), ([6], 0)]:
        with pytest.raises(AssertionError, match=SIZES_DO_NOT_SUM):
            orbits._report(G, t, t, EquivalenceConfig(), sizes, total)
    rows = np.array([[1, 3, 5], [2, 6, 1]])
    config = EquivalenceConfig(representatives=True)
    rep = orbits._report(G, t, t, config, [2, 4], 6, rows, rows[::-1])
    named = [[G.element_label(x) for x in row] for row in rows.tolist()]
    reps = [{"first": named[0], "second": named[1]}, {"first": named[1], "second": named[0]}]
    assert rep == OrbitReport("Zn:3,3", "0|3,3,3", "0|3,3,3", 2, [4, 2], 6, reps)


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("route", ["two-stage", "one-stage"])
def test_a_final_root_at_a_non_root_fails_the_one_size_check(route, corrupt, monkeypatch):
    """A control on each route's last _components call (the row cells of
    the pair stage, the class-row pairs of the oracle): one orbit's root
    pointed at a member that is not a root loses that orbit's pairs, and
    _report's one size check must see it."""
    # h = 1 over 4 row cells (two-stage) and over every class-row pair (oracle)
    G, t = construct_group("Zn:5,5"), _tau("0|5,5,5")
    config = EquivalenceConfig()
    if route == "two-stage":
        side = side_orbits(G, t, config)
        count, final = (lambda: orbits._count_pairs(G, side, side, config)), 2  # labels, then cells
    else:
        count, final = (lambda: count_components_one_stage(G, t, t, config)), 1
    calls = []

    def components(n, images):
        root = _components(n, images)
        calls.append(n)
        if corrupt and len(calls) == final:
            x = np.flatnonzero(root != np.arange(n))[0]  # a member of an orbit, not its root
            root[root[x]] = x
        return root

    monkeypatch.setattr(orbits, "_components", components)
    if corrupt:
        with pytest.raises(AssertionError, match=SIZES_DO_NOT_SUM):
            count()
    else:
        assert count().h == 1
    assert len(calls) == final


def test_admissible_type_pairs_lists_each_angle_sum_once(monkeypatch, q8):
    catalog = _census_catalog(q8)
    want = [admissible_type_pairs(G, 1, 1) for G in catalog]
    targets = []
    real = orbits.period_multisets_with_angle_sum

    def counted(orders, target):
        targets.append(target)
        return real(orders, target)

    monkeypatch.setattr(orbits, "period_multisets_with_angle_sum", counted)
    for G, pairs in zip(catalog, want):
        targets.clear()
        assert admissible_type_pairs(G, 1, 1) == pairs
        assert len(targets) == len(set(targets))


def _fraction_period_multisets(allowed_orders, target):
    """The Fraction recursion that period_multisets_with_angle_sum replaced."""
    allowed = sorted({m for m in allowed_orders if m >= 2})
    out = []

    def rec(start_idx, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        if remaining < 0:
            return
        for i in range(start_idx, len(allowed)):
            term = 1 - Fraction(1, allowed[i])
            if term > remaining:
                break
            rec(i, remaining - term, acc + (allowed[i],))

    rec(0, target, ())
    return out


def test_integer_angle_sums_match_the_fraction_recursion(monkeypatch, q8):
    calls = []
    real = orbits.period_multisets_with_angle_sum

    def recorded(orders, target):
        calls.append((orders, target, real(orders, target)))
        return calls[-1][2]

    monkeypatch.setattr(orbits, "period_multisets_with_angle_sum", recorded)
    for G in _census_catalog(q8):
        for chi in (1, 2, 3):
            for q in (0, 1, 2):
                admissible_type_pairs(G, chi, q)
    assert len(calls) > 100 and any(got for *_, got in calls)
    for orders, target, got in calls:
        assert got == _fraction_period_multisets(orders, target), (orders, target)
    # a target that no scaled sum reaches, and the empty multiset
    assert real((2, 3), Fraction(1, 7)) == [] == _fraction_period_multisets((2, 3), Fraction(1, 7))
    assert real((2, 3), 0) == [()] and real((), Fraction(1, 2)) == []


def test_systems_sort_holds_about_twice_the_result():
    # 36 orderings of the periods; the blocks, their concatenation, the
    # sort index and a sorted copy once held about 3.5 times the result.
    G = construct_group("Zn:2,4")
    tau = _tau("0|2,2,2,2,2,2,2,4,4")
    assert len(tau.orderings()) > 1
    tracemalloc.start()
    try:
        systems = _systems(G, tau, EquivalenceConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(systems) == 314_784
    assert peak < 2.5 * systems.nbytes
    assert np.array_equal(np.unique(systems, axis=0), systems)  # sorted distinct rows


def _least_member_by_bfs(n: int, maps: list[list[int]]) -> list[int]:
    adjacent: list[set[int]] = [set() for _ in range(n)]
    for img in maps:
        for x, y in enumerate(img):
            adjacent[x].add(y)
            adjacent[y].add(x)
    least = [-1] * n
    for seed in range(n):
        if least[seed] >= 0:
            continue
        least[seed] = seed
        frontier = [seed]
        while frontier:
            frontier = [y for x in frontier for y in adjacent[x] if least[y] < 0]
            for y in frontier:
                least[y] = seed
    return least


def test_components_match_plain_bfs():
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randint(0, 60)
        maps = []
        for _ in range(rng.randint(0, 3)):
            perm = list(range(n))
            rng.shuffle(perm)
            maps.append(perm)
            if rng.random() < 0.5:  # sometimes give the inverse too
                inverse = [0] * n
                for x, y in enumerate(perm):
                    inverse[y] = x
                maps.append(inverse)
        got = _components(n, [np.array(m, dtype=np.int64) for m in maps])
        assert got.tolist() == _least_member_by_bfs(n, maps), (trial, n, len(maps))


def test_components_long_cycle_is_fast():
    n = 100_000
    order = list(range(n))
    random.Random(11).shuffle(order)
    step = np.empty(n, dtype=np.int64)
    step[order] = np.roll(order, -1)  # one cycle through every point, forward only
    t0 = time.monotonic()
    got = _components(n, [step])
    assert time.monotonic() - t0 < 5.0
    assert not got.any()


def test_count_components_rigid_prime_five():
    G = AbelianGroup([5, 5])
    rep = count_components(G, _tau("0|5,5,5"), _tau("0|5,5,5"))
    assert rep.h == 1
    assert rep.total_pairs == 11520
    assert rep.orbit_sizes == [11520]


def test_count_components_prime_seven_orbit_profile():
    G = AbelianGroup([7, 7])
    rep = count_components(G, _tau("0|7,7,7"), _tau("0|7,7,7"))
    assert rep.h == 7
    assert rep.orbit_sizes == [145152, 145152, 145152, 145152, 72576, 48384, 24192]
    assert rep.total_pairs == 725760


def test_count_components_mixed_signature_pair():
    G = construct_group("Zn:2")
    rep = count_components(G, _tau("1|2,2"), _tau("2|"))
    assert rep.h == 1
    assert rep.total_pairs == 60


def test_count_components_trivial_group():
    G = construct_group("Zn:1")
    rep = count_components(G, _tau("2|"), _tau("2|"))
    assert rep.h == 1
    assert rep.total_pairs == 1


def test_count_components_alternating_cross_types():
    G = construct_group("Alt:5")
    rep = count_components(G, _tau("0|2,5,5"), _tau("0|3,3,3,3"))
    assert rep.h == 1
    assert rep.total_pairs == 388800


def _agreement_cases(q8_path):
    return [
        ("Zn:5,5", "0|5,5,5", "0|5,5,5"),
        ("Zn:2", "1|2,2", "2|"),
        ("Sym:3", "0|2,2,3", "0|2,2,3"),
        ("Sym:4", "0|2,3,4", "0|2,3,4"),  # systems on both sides, no disjoint pair
        ("Sym:4", "0|2,2,2,4", "1|3"),
        ("Sym:4", "0|3,4,4", "1|2,2"),
        (f"cayley:{q8_path}", "0|4,4,4", "2|"),
        ("Zn:1", "2|", "2|"),
    ]


XI_TWIST_CASES = [
    ("Zn:2,4", "0|2,2,4,4", "1|2,2,2,2", 2),  # 7 of (1|2,2,2,2)'s 13 moves dropped
    ("Sym:4", "0|2,2,2,4", "1|3,3", 2),  # 3 of (1|3,3)'s 7 moves dropped
]


def test_one_stage_agrees_with_two_stage(q8_path):
    cfg = EquivalenceConfig(representatives=True)
    for spec, t1, t2 in _agreement_cases(q8_path):
        G = construct_group(spec)
        a = count_components(G, _tau(t1), _tau(t2), cfg)
        b = count_components_one_stage(G, _tau(t1), _tau(t2), cfg)
        assert a.to_json_dict() == b.to_json_dict(), (spec, t1, t2)


def _one_stage_on_every_system(G, tau1, tau2, config):
    """The one-stage oracle on raw pairs: it lists every system of each side
    and acts with every move, every Inn generator and every Aut generator as
    index maps over a plain (class-free) _RowIndex, then the swap. The
    reference that the oracle's Inn(G)-class quotient is pinned to."""
    t1, t2 = tau1.with_sorted_periods(), tau2.with_sorted_periods()
    same_types = t1.canonical() == t2.canonical()
    sys1 = _systems(G, t1, config)
    sys2 = sys1 if same_types else _systems(G, t2, config)
    n2 = len(sys2)

    def sigma_rows(t, systems):
        rows = np.zeros((len(systems), G.order), dtype=bool)
        for k, ent in enumerate(systems.tolist()):
            rows[k, list(sigma_set(G, t.gprime, ent))] = True
        rows[:, G.identity] = False
        return rows

    sig1 = sigma_rows(t1, sys1)
    disjoint = _valid_cells(sig1, sig1 if same_types else sigma_rows(t2, sys2)).ravel()
    pair_ids = np.flatnonzero(disjoint)
    representatives = [] if config.representatives else None
    base = dict(group=G.name, type1=str(t1), type2=str(t2))
    if not len(pair_ids):
        return OrbitReport(
            **base, h=0, orbit_sizes=[], total_pairs=0, representatives=representatives
        )
    inn = inner_automorphisms(G)
    aut_maps = automorphism_group(G).generator_maps

    def side_maps(t, systems):
        locate = _RowIndex(systems, G.order)
        own = [locate(f(systems), "reference") for f in orbits._move_maps(G, t)]
        own += [locate(phi[systems], "reference") for phi in inn]
        return own, [locate(phi[systems], "reference") for phi in aut_maps]

    own1, aut1 = side_maps(t1, sys1)
    own2, aut2 = side_maps(t2, sys2)
    i, j = pair_ids // n2, pair_ids % n2
    flat = [img[i] * n2 + j for img in own1] + [i * n2 + img[j] for img in own2]
    flat += [a1[i] * n2 + a2[j] for a1, a2 in zip(aut1, aut2)]
    if same_types:
        flat.append(j * n2 + i)
    assert all(disjoint[f].all() for f in flat)
    root = _components(len(pair_ids), [np.searchsorted(pair_ids, f) for f in flat])
    seeds = np.flatnonzero(root == np.arange(len(pair_ids)))
    if representatives is not None:
        # the least pair over the ascending orderings in each orbit, ascending
        fiber = np.flatnonzero(_ascending(G, t1, sys1)[i] & _ascending(G, t2, sys2)[j])
        least = {}
        for pos in fiber.tolist():
            least.setdefault(int(root[pos]), pos)
        for seed in sorted(pair_ids[least[int(c)]] for c in seeds):
            representatives.append(
                {
                    "first": [G.element_label(e) for e in sys1[seed // n2].tolist()],
                    "second": [G.element_label(e) for e in sys2[seed % n2].tolist()],
                }
            )
    sizes = sorted(np.bincount(root)[seeds].tolist(), reverse=True)
    return OrbitReport(
        **base, h=len(seeds), orbit_sizes=sizes, total_pairs=len(pair_ids),
        representatives=representatives,
    )


@pytest.mark.parametrize("panel", ["two-route test", "verify", "xi-twists"])
def test_one_stage_over_inn_classes_matches_the_full_listing_oracle(panel, q8_path):
    if panel == "verify":
        cases = cli._two_route_panel()
    else:
        specs = _agreement_cases(q8_path) if panel == "two-route test" else XI_TWIST_CASES
        cases = [(construct_group(spec), t1, t2) for spec, t1, t2, *_ in specs]
    cfg = EquivalenceConfig(representatives=True)
    for G, t1, t2 in cases:
        want = _one_stage_on_every_system(G, _tau(t1), _tau(t2), cfg)
        got = count_components_one_stage(G, _tau(t1), _tau(t2), cfg)
        assert got.to_json_dict() == want.to_json_dict(), (G.name, t1, t2)


@pytest.mark.parametrize("spec, t1, t2, h", XI_TWIST_CASES)
def test_routes_agree_where_the_side_stage_drops_xi_twists(spec, t1, t2, h):
    # The oracle acts with every move, the side stage with generating_moves.
    G = construct_group(spec)
    tau2 = _tau(t2)
    assert len(generating_moves(tau2.gprime, tau2.r)) < len(available_moves(tau2.gprime, tau2.r))
    cfg = EquivalenceConfig(representatives=True)
    a = count_components(G, _tau(t1), tau2, cfg)
    b = count_components_one_stage(G, _tau(t1), tau2, cfg)
    assert a.h == h
    assert a.to_json_dict() == b.to_json_dict()


def test_swap_defaults_follow_type_equality():
    G = construct_group("Alt:5")
    rep = count_components(G, _tau("0|2,5,5"), _tau("0|3,3,3,3"))
    assert rep.h == 1  # no swap available, still one component
    G5 = AbelianGroup([5, 5])
    with_swap = count_components(G5, _tau("0|5,5,5"), _tau("0|5,5,5"))
    assert (with_swap.h, with_swap.total_pairs) == (1, 11520)


def _full_group_pair_orbits(G, tau1, tau2):
    """Sizes of the orbits of disjoint (tau1, tau2) pairs, by plain BFS under
    every move in both directions, every inner automorphism x -> g^-1 x g on
    each side, every element of Aut(G) and, for equal types, the swap."""
    inner = [tuple(G.conj(x, g) for x in G.elements()) for g in G.elements()]
    auts = _closure(G, automorphism_group(G).generator_maps)
    swap = tau1.canonical() == tau2.canonical()

    def side(tau):
        gp = tau.gprime
        moves = available_moves(gp, tau.r) if (gp, tau.r) != (0, 0) else []
        moves += [m.inverted() for m in moves]
        rows = _systems(G, tau, EquivalenceConfig())
        systems = list(map(tuple, rows.tolist()))
        images = [apply_move(G, gp, rows, m).tolist() for m in moves]  # one call per move
        steps = {
            ent: [tuple(img[i]) for img in images] + [tuple(phi[x] for x in ent) for phi in inner]
            for i, ent in enumerate(systems)
        }
        return steps, {ent: sigma_set(G, gp, ent) for ent in systems}

    steps1, sigma1 = side(tau1)
    steps2, sigma2 = side(tau2)
    pairs = {
        (a, b) for a in sigma1 for b in sigma2 if sigma1[a] & sigma2[b] == {G.identity}
    }
    seen: set = set()
    sizes = []
    for start in sorted(pairs):
        if start in seen:
            continue
        seen.add(start)
        frontier = [start]
        size = 0
        while frontier:
            size += len(frontier)
            nxt = []
            for a, b in frontier:
                images = [(a2, b) for a2 in steps1[a]] + [(a, b2) for b2 in steps2[b]]
                images += [(tuple(phi[x] for x in a), tuple(phi[x] for x in b)) for phi in auts]
                if swap:
                    images.append((b, a))
                for pair in images:
                    assert pair in pairs
                    if pair not in seen:
                        seen.add(pair)
                        nxt.append(pair)
            frontier = nxt
        sizes.append(size)
    return sorted(sizes, reverse=True)


@pytest.mark.parametrize(
    "spec,t1,t2,h",
    [
        # no disjoint pair at all
        ("Sym:3", "0|2,2,3", "0|2,2,3", 0),
        ("Zn:3,3", "0|3,3,3", "0|3,3,3", 0),
        ("q8", "0|4,4,4", "0|4,4,4", 0),
        # disjoint pairs: non-abelian Inn, handle moves, the swap, several orbits
        ("Sym:3", "1|3", "1|2,2", 1),
        ("Alt:4", "0|3,3,3", "1|2", 1),
        ("Zn:3,3", "0|3,3,3,3", "0|3,3,3,3", 1),
        ("Zn:3,3", "1|", "1|", 2),
        ("Zn:2,2", "0|2,2,2,2", "2|", 2),
        ("Zn:2,4", "1|2,2", "1|2,2", 2),  # three orbits without the swap
        ("q8", "0|4,4,4", "2|", 1),
    ],
)
def test_generator_orbits_match_full_group_reference(spec, t1, t2, h, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    tau1, tau2 = _tau(t1), _tau(t2)
    sizes = _full_group_pair_orbits(G, tau1, tau2)
    assert len(sizes) == h
    for route in (count_components, count_components_one_stage):
        rep = route(G, tau1, tau2)
        assert (rep.h, rep.orbit_sizes, rep.total_pairs) == (h, sizes, sum(sizes))


def _frontier_bfs_count(G, tau1, tau2, config):
    """The pair stage as a frontier BFS over every valid label cell: cells
    (i, j) are flat ids i * L2 + j, and each orbit grows under the Aut
    generator label permutations (and the swap) from the least valid cell
    not yet reached. The reference the Aut quotient is pinned to."""
    t1, t2 = tau1.with_sorted_periods(), tau2.with_sorted_periods()
    same_types = t1.canonical() == t2.canonical()
    side1 = side_orbits(G, t1, config)
    side2 = side1 if same_types else side_orbits(G, t2, config)
    L2 = len(side2.leaders)

    def sigma(part):
        mat = np.zeros((len(part.leaders), G.order), dtype=bool)
        for i, label in enumerate(part.labels.tolist()):
            mat[i, list(sigma_set(G, part.tau.gprime, label))] = True
        return mat

    valid = _full_valid_cells(sigma(side1), sigma(side2))  # whole sets, identity included
    s1, s2 = side1.orbit_sizes, side2.orbit_sizes
    gens = automorphism_group(G).generator_maps
    perms1 = orbits._aut_label_perms(G, side1, gens)
    perms2 = orbits._aut_label_perms(G, side2, gens)
    total_pairs = sum(int(s1[i]) * int(s2[row].sum()) for i, row in enumerate(valid))
    valid_flat = valid.ravel()
    unseen = valid_flat.copy()
    sizes, representatives = [], []
    seed = 0
    while unseen[seed:].any():
        seed += int(np.argmax(unseen[seed:]))
        unseen[seed] = False
        frontier = np.array([seed], dtype=np.int64)
        members = [frontier]
        while frontier.size:
            fi, fj = frontier // L2, frontier % L2
            images = [p1[fi] * L2 + p2[fj] for p1, p2 in zip(perms1, perms2)]
            if same_types:
                images.append(fj * L2 + fi)
            nxt = np.unique(np.concatenate(images)) if images else frontier[:0]
            assert valid_flat[nxt].all()
            nxt = nxt[unseen[nxt]]
            unseen[nxt] = False
            frontier = nxt
            members.append(nxt)
        cells = np.concatenate(members)
        sizes.append(int(s1[cells // L2] @ s2[cells % L2]))
        i, j = divmod(seed, L2)
        representatives.append(
            {
                "first": [G.element_label(x) for x in side1.labels[i].tolist()],
                "second": [G.element_label(x) for x in side2.labels[j].tolist()],
            }
        )
    assert sum(sizes) == total_pairs
    return OrbitReport(
        G.name, str(t1), str(t2), len(sizes), sorted(sizes, reverse=True), total_pairs,
        representatives if config.representatives else None,
    )


AUT_QUOTIENT_PANEL = [
    ("Zn:5,5", "0|5,5,5", "0|5,5,5"),
    ("Zn:7,7", "0|7,7,7", "0|7,7,7"),
    ("Zn:11,11", "0|11,11,11", "0|11,11,11"),
    ("Zn:2,4", "0|2,2,4,4", "1|2,2"),  # three Aut orbits of side-1 labels
    ("Alt:4", "0|3,3,3,3", "1|2"),
    ("Zn:2,2", "0|2,2,2,2,2,2", "1|2,2"),
    ("Zn:3,3", "0|3,3,3,3", "0|3,3,3,3"),  # two Aut orbits joined by the swap
    ("Sym:4", "0|2,2,2,2,2,2", "0|3,4,4"),
]


@pytest.mark.parametrize("spec,t1,t2", AUT_QUOTIENT_PANEL)
def test_aut_quotient_matches_frontier_bfs(spec, t1, t2):
    G = construct_group(spec)
    cfg = EquivalenceConfig(representatives=True)
    want = _frontier_bfs_count(G, _tau(t1), _tau(t2), cfg).to_json_dict()
    assert count_components(G, _tau(t1), _tau(t2), cfg).to_json_dict() == want


def _dense_transversals(G, n, maps, perms):
    """The dense Schreier vector the pair stage kept before its tree: root,
    and one full element map u_x per label (rows grown breadth first)."""
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
    uinv = np.empty_like(u)
    np.put_along_axis(uinv, u, np.arange(G.order, dtype=u.dtype)[None, :], axis=1)
    return root, u, uinv


def _dense_stabilizer_gens(G, gens, maps, perms, root, u, uinv):
    """The distinct Schreier generators and (root, generator) pairs, from the dense rows."""
    n = len(root)
    gens = np.array(gens, dtype=np.intp)
    images = np.concatenate([uinv[perm[:, None], s[u[:, gens]]] for s, perm in zip(maps, perms)])
    moved = np.flatnonzero((images != gens).any(axis=1))
    _, first, which = np.unique(images[moved], axis=0, return_index=True, return_inverse=True)
    stab = np.array(
        [uinv[perms[t][x]][maps[t][u[x]]] for t, x in (divmod(int(r), n) for r in moved[first])],
        dtype=u.dtype,
    ).reshape(len(first), G.order)
    pairs = distinct(root[moved % n] * len(first) + which.ravel())
    return stab, pairs // len(first), pairs % len(first)


def _tree_matches_dense(G, tree, maps, perms) -> bool:
    """Do the tree's u_x and u_x^-1 rows, its Schreier-generator images and
    its stabilizer maps equal those of the dense transversals?"""
    n, gens = len(tree.root), G.generating_tuple()
    root, u, uinv = _dense_transversals(G, n, maps, perms)
    every = np.tile(np.arange(G.order, dtype=u.dtype), (n, 1))
    walked = tree.back(np.arange(n), every)
    checks = [
        np.array_equal(tree.root, root),
        np.array_equal(tree.ucols, u[:, list(gens)]),
        np.array_equal(walked, uinv),
        np.array_equal(np.argsort(walked, axis=1), u),
    ]
    for s, perm in zip(maps, perms):  # the Schreier-generator images on the gens columns
        dense = uinv[perm[:, None], s[u[:, list(gens)]]]
        checks.append(np.array_equal(tree.back(perm, s[tree.ucols]), dense))
    want = _dense_stabilizer_gens(G, gens, maps, perms, root, u, uinv)
    checks += [np.array_equal(a, b) for a, b in zip(tree.stabilizer_gens(), want)]
    return all(checks)


@pytest.mark.parametrize("spec,t1,t2", AUT_QUOTIENT_PANEL)
def test_schreier_tree_matches_dense_transversals(spec, t1, t2):
    G = construct_group(spec)
    side = side_orbits(G, _tau(t1))
    maps = automorphism_group(G).generator_maps
    perms = orbits._aut_label_perms(G, side, maps)
    tree = SchreierTree(_components(len(side.leaders), perms), maps, perms, G.generating_tuple())
    assert _tree_matches_dense(G, tree, maps, perms)


def test_schreier_tree_check_sees_a_swapped_edge():
    G = AbelianGroup([7, 7])
    side = side_orbits(G, _tau("0|7,7,7"))
    maps = automorphism_group(G).generator_maps
    perms = orbits._aut_label_perms(G, side, maps)
    tree = SchreierTree(_components(len(side.leaders), perms), maps, perms, G.generating_tuple())
    assert _tree_matches_dense(G, tree, maps, perms)
    a = int(np.flatnonzero(tree.via >= 0)[0])
    b = int(np.flatnonzero((tree.via >= 0) & (tree.via != tree.via[a]))[0])
    tree.via[[a, b]] = tree.via[[b, a]]  # two non-root labels now step by each other's map
    assert not _tree_matches_dense(G, tree, maps, perms)


def test_pair_stage_reads_only_root_and_sampled_rows(monkeypatch):
    G = AbelianGroup([7, 7])
    tau = _tau("0|7,7,7")
    labels = len(side_orbits(G, tau).leaders)
    rows = []
    real = orbits._valid_cells

    def counted(m1, m2):
        rows.append(len(m1))
        return real(m1, m2)

    monkeypatch.setattr(orbits, "_valid_cells", counted)
    assert count_components(G, tau, tau).h == 7
    assert rows[0] == 1  # Aut(G) is transitive on the labels: one root row
    assert sum(rows) <= 1 + 3 < labels


def test_planted_wrong_aut_order_fails_orbit_stabilizer(monkeypatch):
    G = AbelianGroup([5, 5])
    aut = automorphism_group(G)
    wrong = AutGroup(2 * aut.order, aut.generator_maps)
    monkeypatch.setattr(orbits, "automorphism_group", lambda G: wrong)
    with pytest.raises(AssertionError, match="orbit-stabilizer"):
        count_components(G, _tau("0|5,5,5"), _tau("0|5,5,5"))


def test_planted_bad_transversal_fails_the_root_check(monkeypatch):
    G = AbelianGroup([7, 7])

    class Shifted(SchreierTree):  # u_x and u_x^-1 now belong to label x - 1
        def __init__(self, *args):
            super().__init__(*args)
            self.ucols = np.roll(self.ucols, 1, axis=0)

        def back(self, x, z):
            return super().back((x - 1) % len(self.root), z)

    monkeypatch.setattr(orbits, "SchreierTree", Shifted)
    with pytest.raises(AssertionError, match="moves the root label"):
        count_components(G, _tau("0|7,7,7"), _tau("0|7,7,7"))


def test_planted_row_mismatch_fails_the_sampled_rows(monkeypatch):
    G = AbelianGroup([7, 7])
    real = orbits._valid_cells
    calls = []

    def flipped(m1, m2):
        got = real(m1, m2)
        calls.append(len(m1))
        if len(calls) == 2:  # the sampled rows, after the root rows
            got[0, 0] = not got[0, 0]
        return got

    monkeypatch.setattr(orbits, "_valid_cells", flipped)
    with pytest.raises(AssertionError, match="carried by its transversal"):
        count_components(G, _tau("0|7,7,7"), _tau("0|7,7,7"))


def test_count_components_writes_nothing_to_stderr(capsys):
    G = AbelianGroup([2, 2])
    t1, t2 = _tau("1|2,2"), _tau("2|")
    rep = count_components(G, t1, t2)
    assert (rep.h, rep.total_pairs) == (2, 7560)
    assert capsys.readouterr() == ("", "")
    assert component_bound_warning(G, t1, t2, rep.h) == (
        "h = 2 exceeds the bound |G|^(r1+r2-2) = 1 for Zn:2,2 (1|2,2) x (2|)"
    )


def test_scan_collects_the_component_bound_warning(capsys):
    result = scan_invariants([AbelianGroup([2, 2])], chi=2, q=3)
    assert capsys.readouterr() == ("", "")
    assert result.warnings == [
        "h = 2 exceeds the bound |G|^(r1+r2-2) = 1 for Zn:2,2 (1|2,2) x (2|)"
    ]


def test_two_stage_budget_guard():
    G = AbelianGroup([7, 7])
    cfg = EquivalenceConfig(max_systems=100)
    with pytest.raises(BudgetExceeded):
        count_components(G, _tau("0|7,7,7"), _tau("0|7,7,7"), cfg)


def test_one_stage_budget_guard_reports_requirement():
    G = AbelianGroup([11, 11])
    with pytest.raises(BudgetExceeded) as info:
        count_components_one_stage(G, _tau("0|11,11,11"), _tau("0|11,11,11"))
    assert info.value.required == 174_240_000


def test_one_stage_budget_counts_class_row_pairs(monkeypatch):
    # Sym:4 (0|2,2,2,4) x (1|3): 16 x 9 class rows, 82,944 raw pairs
    monkeypatch.setattr(orbits, "DEFAULT_ONE_STAGE_SCAN_BUDGET", 143)
    with pytest.raises(BudgetExceeded, match="144 class-row pairs") as info:
        count_components_one_stage(construct_group("Sym:4"), _tau("0|2,2,2,4"), _tau("1|3"))
    assert info.value.required == 144


@pytest.mark.parametrize("route", [count_components, count_components_one_stage])
def test_outer_automorphism_posing_as_inner_is_caught(route, q8, monkeypatch):
    inner = _closure(q8, inner_automorphisms(q8))
    maps = automorphism_group(q8).generator_maps
    outer = [phi for phi in maps if tuple(phi.tolist()) not in inner]
    assert outer  # Aut(Q8) = Sym:4 is not generated by Inn(Q8) = Zn:2,2
    monkeypatch.setattr(orbits, "inner_automorphisms", lambda G: np.array(outer[:1]))
    with pytest.raises(AssertionError, match="out of its class"):
        route(q8, _tau("0|4,4,4"), _tau("2|"))


def test_representatives_are_valid_disjoint_pairs():
    G = construct_group("Sym:3")
    cfg = EquivalenceConfig(representatives=True)
    rep = count_components(G, _tau("0|2,2,3"), _tau("0|2,2,3"), cfg)
    assert rep.representatives is not None
    assert len(rep.representatives) == rep.h
    label_to_index = {G.element_label(x): x for x in G.elements()}
    for pair in rep.representatives:
        ent1 = tuple(label_to_index[s] for s in pair[0])
        ent2 = tuple(label_to_index[s] for s in pair[1])
        for ent in (ent1, ent2):
            assert _system_valid(G, SignatureType(0, tuple(G.element_order(c) for c in ent)), ent)


def test_inn_lemma_exhaustive_small_cases():
    rep = verify_inn_lemma(construct_group("Sym:3"), _tau("0|2,2,3"))
    assert rep.passed and rep.counterexample is None
    rep = verify_inn_lemma(construct_group("Sym:4"), _tau("0|2,3,4"))
    assert rep.passed
    assert rep.systems_checked > 0
    with pytest.raises(UserInputError):
        verify_inn_lemma(construct_group("Sym:3"), _tau("1|2"))


def test_inn_lemma_reports_the_least_moved_system(monkeypatch):
    G = AbelianGroup([5, 5])
    tau = _tau("0|5,5,5")
    maps = automorphism_group(G).generator_maps
    part = side_orbits(G, tau)  # G is abelian: Inn(G) is trivial, so braid orbits only
    index = {ent: i for i, ent in enumerate(map(tuple, part.systems.tolist()))}
    moved = [
        (row, k)
        for k, phi in enumerate(maps)
        for ent, row in index.items()
        if part.orbit[index[tuple(phi[x] for x in ent)]] != part.orbit[row]
    ]
    row, k = min(moved)  # the least system, then the first map that moves it
    ent = part.systems[row].tolist()
    want = {
        "system": [G.element_label(x) for x in ent],
        "inner_image": [G.element_label(maps[k][x]) for x in ent],
    }
    monkeypatch.setattr(orbits, "inner_automorphisms", lambda G: maps)
    rep = verify_inn_lemma(G, tau)
    assert rep.passed is False
    assert rep.counterexample == want
    assert rep.systems_checked == len(index)


def test_admissible_type_pairs_census_fragments():
    pairs = admissible_type_pairs(construct_group("Zn:1"), chi=1, q=4)
    assert [(str(a), str(b)) for a, b in pairs] == [("2|", "2|")]
    pairs = admissible_type_pairs(construct_group("Zn:2"), chi=1, q=3)
    assert [(str(a), str(b)) for a, b in pairs] == [("1|2,2", "2|")]


def test_admissible_type_pairs_are_admissible(q8):
    specs = ("Sym:3", "Sym:4", "Alt:4", "Zn:2,2", "Zn:2,4", "Zn:2,2,2", "Alt:5")
    checked = 0
    for G in [*map(construct_group, specs), q8]:
        for chi in (1, 2, 3):
            for q in (0, 1, 2):
                for t1, t2 in admissible_type_pairs(G, chi, q):
                    (ok1, g1), (ok2, g2) = rh_admissible(G.order, t1), rh_admissible(G.order, t2)
                    assert ok1 and ok2
                    assert (g1 - 1) * (g2 - 1) == G.order * chi
                    assert t1.gprime + t2.gprime == q
                    checked += 1
    assert checked > 100


def test_scan_census_fragments():
    result = scan_invariants([construct_group("Zn:1")], chi=1, q=4)
    assert result.total_h == 1
    assert [(r.group, r.type1, r.type2, r.h) for r in result.rows] == [("Zn:1", "2|", "2|", 1)]
    result = scan_invariants([construct_group("Zn:2")], chi=1, q=3)
    assert result.total_h == 1
    assert [(r.group, r.type1, r.type2) for r in result.rows] == [("Zn:2", "1|2,2", "2|")]
    assert result.rows[0].g1 == 2 and result.rows[0].g2 == 3


def test_scan_rejects_bad_invariants():
    with pytest.raises(UserInputError):
        scan_invariants([construct_group("Zn:2")], chi=0, q=1)
    with pytest.raises(UserInputError):
        scan_invariants([construct_group("Zn:2")], chi=1, q=-1)


def test_estimate_candidates_guards_enumeration():
    G = AbelianGroup([11, 11])
    est = estimate_system_candidates(G, _tau("0|11,11,11"))
    assert est >= 120 * 120
    assert estimate_system_candidates(construct_group("Zn:1"), _tau("2|")) == 1
    # the six orderings of (2, 3, 4) in Sym:4: 72 + 54 + 72 + 48 + 54 + 48
    assert estimate_system_candidates(construct_group("Sym:4"), _tau("0|2,3,4")) == 348


def test_reports_are_deterministic():
    G = construct_group("Sym:4")
    a = count_components(G, _tau("0|2,3,4"), _tau("0|2,3,4"))
    b = count_components(G, _tau("0|2,3,4"), _tau("0|2,3,4"))
    assert a.to_json_dict() == b.to_json_dict()


def test_report_json_shape():
    G = construct_group("Zn:1")
    doc = count_components(G, _tau("2|"), _tau("2|")).to_json_dict()
    assert doc["h"] == 1
    assert doc["group"] == "Zn:1"
    assert doc["orbit_sizes"] == [1]
    assert doc["total_pairs"] == 1
    assert "type1" in doc and "type2" in doc
    assert "elapsed_ms" not in doc
