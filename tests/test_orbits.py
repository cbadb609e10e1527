from __future__ import annotations

import random
import time

import numpy as np
import pytest

from hurwitz_components.automorphisms import AutGroup, automorphism_group, inner_automorphisms
from hurwitz_components.errors import BudgetExceeded, UserInputError
from hurwitz_components.groups import AbelianGroup, construct_group
from hurwitz_components.moves import apply_move, available_moves
from hurwitz_components import orbits
from hurwitz_components.orbits import (
    EquivalenceConfig,
    OrbitReport,
    _RowIndex,
    _components,
    _systems,
    _images,
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
    SignatureType,
    enumerate_systems,
    rh_admissible,
    sigma_set,
    system_valid,
)
from test_automorphisms import _closure


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
    assert len(part.systems) == 18
    assert len(part.leaders) == 1


def test_side_orbits_accept_enumeration_as_row_list(monkeypatch):
    G = construct_group("Sym:4")
    tau = _tau("1|2,2")
    want = side_orbits(G, tau)
    monkeypatch.setattr(orbits, "enumerate_systems", lambda G, t: list(enumerate_systems(G, t)))
    got = side_orbits(G, tau)
    assert got.systems.dtype == want.systems.dtype
    for field in ("systems", "orbit", "leaders"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def _side_orbits_on_every_system(G, tau):
    """The side partition with every forward move and every Inn generator
    map acting on every system: the reference for side_orbits, which moves
    one system per Inn class."""
    canonical = tau.with_sorted_periods()
    systems = _systems(G, canonical, EquivalenceConfig())
    maps = orbits._move_maps(G, canonical) + orbits._element_maps(G, inner_automorphisms(G))
    root = _components(len(systems), _images(G, systems, maps, "reference"))
    is_leader = root == np.arange(len(systems))
    return systems, (np.cumsum(is_leader) - 1)[root], np.flatnonzero(is_leader)


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
    ],
)
def test_side_orbits_over_inn_classes_match_every_system(spec, text, q8, monkeypatch):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = _tau(text)
    systems, orbit, leaders = _side_orbits_on_every_system(G, tau)
    rows_per_call = []
    real = orbits.apply_move

    def counted(G, gp, rows, mv):
        rows_per_call.append(len(rows))
        return real(G, gp, rows, mv)

    monkeypatch.setattr(orbits, "apply_move", counted)
    part = side_orbits(G, tau)
    assert np.array_equal(part.systems, systems)
    assert np.array_equal(part.orbit, orbit)
    assert np.array_equal(part.leaders, leaders)
    classes = len(systems) // (G.order // len(G.center()))
    assert rows_per_call == [classes] * len(available_moves(tau.gprime, tau.r))


def test_side_orbits_refuse_inn_classes_of_the_wrong_size(monkeypatch):
    G = construct_group("Sym:4")
    inn = inner_automorphisms(G)
    assert len(inn) > 1
    monkeypatch.setattr(orbits, "inner_automorphisms", lambda G: inn[1:])
    with pytest.raises(AssertionError, match="do not all have 24 members"):
        side_orbits(G, _tau("0|2,3,4"))


def test_row_index_locates_rows_and_refuses_strangers():
    G = construct_group("Sym:3")
    systems = _systems(G, _tau("0|2,2,3"), EquivalenceConfig())
    locate = _RowIndex(systems, G.order)
    shuffled = np.random.default_rng(3).permutation(len(systems))
    assert locate(systems[shuffled], "Sym:3").tolist() == shuffled.tolist()
    with pytest.raises(AssertionError, match="left the system set"):
        list(_images(G, systems, [lambda rows: rows[:, ::-1]], "Sym:3 (0|2,2,3)"))


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
    collapse = tuple(G.identity for _ in G.elements())  # not an automorphism
    monkeypatch.setattr(orbits, "inner_automorphisms", lambda G: (collapse,))
    with pytest.raises(AssertionError, match="left the system set"):
        side_orbits(G, _tau("0|2,2,3"))


def test_valid_cells_in_row_blocks_match_one_product():
    rng = np.random.default_rng(9)
    m1 = rng.random((3000, 17)) < 0.2
    m2 = rng.random((700, 17)) < 0.2
    m1[:, 0] = m2[:, 0] = True  # the identity is in every Sigma
    whole = (m1.astype(np.float32) @ m2.astype(np.float32).T) == 1.0
    got = _valid_cells(m1, m2)
    assert got.any() and np.array_equal(got, whole)


@pytest.mark.parametrize("spec", ["Sym:4", "Alt:5", "q8", "Zn:5,5"])
def test_sigma_table_matches_sigma_set(spec, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    table = _sigma_rows(G)
    assert table.shape == (G.order, G.order)
    for x in G.elements():
        assert set(np.flatnonzero(table[x]).tolist()) == sigma_set(G, 0, (x,)), x


@pytest.mark.parametrize(
    "spec,text",
    [("Sym:4", "0|2,3,4"), ("Alt:5", "0|2,5,5"), ("q8", "1|2"), ("Zn:5,5", "0|5,5,5"), ("Zn:2,4", "2|")],
)
def test_sigma_matrix_rows_match_sigma_set(spec, text, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = _tau(text)
    part = side_orbits(G, tau)
    mat = _sigma_matrix(G, part)
    assert mat.shape == (len(part.leaders), G.order)
    for row, label in zip(mat, part.labels.tolist()):
        assert set(np.flatnonzero(row).tolist()) == sigma_set(G, tau.gprime, label)


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

    built = []
    real = orbits.side_orbits

    def counted(G, tau, config=None):
        built.append((id(G), tau.canonical()))
        return real(G, tau, config)

    monkeypatch.setattr(orbits, "side_orbits", counted)
    result = scan_invariants(catalog, chi=1, q=1)
    assert len(built) == distinct
    assert sorted((r.group, r.type1, r.type2, r.h) for r in result.rows) == want


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


def test_one_stage_agrees_with_two_stage(q8_path):
    cases = [
        ("Zn:5,5", "0|5,5,5", "0|5,5,5"),
        ("Zn:2", "1|2,2", "2|"),
        ("Sym:3", "0|2,2,3", "0|2,2,3"),
        ("Sym:4", "0|2,3,4", "0|2,3,4"),  # systems on both sides, no disjoint pair
        ("Sym:4", "0|2,2,2,4", "1|3"),
        ("Sym:4", "0|3,4,4", "1|2,2"),
        (f"cayley:{q8_path}", "0|4,4,4", "2|"),
        ("Zn:1", "2|", "2|"),
    ]
    cfg = EquivalenceConfig(representatives=True)
    for spec, t1, t2 in cases:
        G = construct_group(spec)
        a = count_components(G, _tau(t1), _tau(t2), cfg)
        b = count_components_one_stage(G, _tau(t1), _tau(t2), cfg)
        assert a.to_json_dict() == b.to_json_dict(), (spec, t1, t2)


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

    valid = _valid_cells(sigma(side1), sigma(side2))
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


@pytest.mark.parametrize(
    "spec,t1,t2",
    [
        ("Zn:5,5", "0|5,5,5", "0|5,5,5"),
        ("Zn:7,7", "0|7,7,7", "0|7,7,7"),
        ("Zn:11,11", "0|11,11,11", "0|11,11,11"),
        ("Zn:2,4", "0|2,2,4,4", "1|2,2"),  # three Aut orbits of side-1 labels
        ("Alt:4", "0|3,3,3,3", "1|2"),
        ("Zn:2,2", "0|2,2,2,2,2,2", "1|2,2"),
        ("Zn:3,3", "0|3,3,3,3", "0|3,3,3,3"),  # two Aut orbits joined by the swap
        ("Sym:4", "0|2,2,2,2,2,2", "0|3,4,4"),
    ],
)
def test_aut_quotient_matches_frontier_bfs(spec, t1, t2):
    G = construct_group(spec)
    cfg = EquivalenceConfig(representatives=True)
    want = _frontier_bfs_count(G, _tau(t1), _tau(t2), cfg).to_json_dict()
    assert count_components(G, _tau(t1), _tau(t2), cfg).to_json_dict() == want


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
    wrong = AutGroup(G, 2 * aut.order, aut.generator_maps)
    monkeypatch.setattr(orbits, "automorphism_group", lambda G: wrong)
    with pytest.raises(AssertionError, match="orbit-stabilizer"):
        count_components(G, _tau("0|5,5,5"), _tau("0|5,5,5"))


def test_planted_bad_transversal_fails_the_root_check(monkeypatch):
    G = AbelianGroup([7, 7])
    real = orbits._transversals

    def shifted(G, n, maps, perms):
        root, u = real(G, n, maps, perms)
        return root, np.roll(u, 1, axis=0)  # u_x now belongs to label x - 1

    monkeypatch.setattr(orbits, "_transversals", shifted)
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
            assert system_valid(G, SignatureType(0, tuple(G.element_order(c) for c in ent)), ent)


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
