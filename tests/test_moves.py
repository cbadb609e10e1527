from __future__ import annotations

import random

import numpy as np
import pytest

from hurwitz_components import orbits
from hurwitz_components.automorphisms import automorphism_group, inner_automorphisms
from hurwitz_components.errors import UserInputError
from hurwitz_components.groups import TABLE_LIMIT, construct_group, index_dtype
from hurwitz_components.moves import (
    MoveID,
    apply_move,
    available_moves,
    fiber_words,
    generating_moves,
)
from hurwitz_components.orbits import (
    EquivalenceConfig,
    _checked_move_images,
    _RowIndex,
    _systems,
    side_orbits,
    verify_inn_lemma,
)
from hurwitz_components.ramification import (
    SignatureType,
    enumerate_systems,
    long_relation_holds,
    sigma_masks,
)
from test_groups import element_order, generates


def sigma_set(G, gprime: int, entries: tuple[int, ...]) -> frozenset[int]:
    """Sigma of one system, a sequence of ints: the one-row case of sigma_masks."""
    return frozenset(np.flatnonzero(sigma_masks(G, gprime, [entries])[0]).tolist())


def _tuples(systems) -> list[tuple[int, ...]]:
    """The rows of a system array as tuples of Python ints."""
    return list(map(tuple, systems.tolist()))


def _sample(rng: random.Random, systems, k: int):
    """Every row of a system array, or k rows drawn by rng when there are more."""
    if len(systems) <= k:
        return systems
    return systems[rng.sample(range(len(systems)), k)]


SUITE_SHAPES = [
    ("Sym:4", 0, (2, 3, 4)),
    ("Sym:4", 0, (3, 4, 4)),
    ("Sym:4", 1, (2, 2)),
    ("Sym:4", 2, (3,)),
    ("Alt:5", 0, (2, 5, 5)),
    ("Alt:5", 0, (3, 3, 5)),
    ("Zn:8,8", 0, (8, 8, 8)),
    ("Zn:8,8", 1, (2, 2)),
    ("Zn:4,4", 2, ()),
    ("q8", 0, (4, 4, 4)),
    ("q8", 1, (2,)),
    ("q8", 2, ()),
]


def run_move_property_suite(q8_group, rng: random.Random, per_shape: int):
    """Apply every available move and its inverse to sampled systems and recheck invariants.

    Each move acts once on the whole sample array; the invariants are then
    checked row by row. Returns (distinct systems exercised, move
    applications, violations).
    """
    systems_seen = 0
    applications = 0
    violations: list[str] = []
    for spec, gp, periods in SUITE_SHAPES:
        G = q8_group if spec == "q8" else construct_group(spec)
        tau = SignatureType(gp, periods)
        if (gp, tau.r) == (0, 0):
            continue
        exact = enumerate_systems(G, tau)
        universe = set(_tuples(_systems(G, tau, EquivalenceConfig())))
        if not len(exact):
            violations.append(f"{spec} {tau}: no systems to test")
            continue
        sample = _sample(rng, exact, per_shape)
        systems_seen += len(sample)
        sigmas = [sigma_set(G, gp, ent) for ent in _tuples(sample)]
        moves = available_moves(gp, tau.r)
        moves += [mv.inverted() for mv in moves]
        order_multiset = sorted(periods)
        for mv in moves:
            out = apply_move(G, gp, sample, mv)
            applications += len(sample)
            where = f"{spec} {tau} {mv}"
            if out.shape != sample.shape:
                violations.append(f"{where}: system shape changed")
                continue
            for ent, sig in zip(_tuples(out), sigmas):
                branch_orders = sorted(element_order(G, c) for c in ent[2 * gp:])
                if branch_orders != order_multiset:
                    violations.append(f"{where}: period multiset changed")
                if not generates(G, ent):
                    violations.append(f"{where}: generation lost")
                if sigma_set(G, gp, ent) != sig:
                    violations.append(f"{where}: Sigma set changed")
                # moves act inside the unordered system universe
                if ent not in universe:
                    violations.append(f"{where}: image left the universe")
            broken = np.count_nonzero(~long_relation_holds(G, gp, out))
            violations += [f"{where}: long relation broken"] * broken
            back = apply_move(G, gp, out, mv.inverted())
            not_undone = np.count_nonzero((back != sample).any(axis=1))
            violations += [f"{where}: inverse does not undo"] * not_undone
    return systems_seen, applications, violations


@pytest.mark.parametrize("shape", [(0, 4), (1, 1), (1, 4), (2, 1), (2, 0)])
def test_column_moves_match_scalar_moves(shape, q8):
    """A move on a 40-row block (each column at once) equals the stack of its
    images of one system at a time, each a 1-row array."""
    gp, r = shape
    k = 2 * gp + r
    rng = np.random.default_rng(gp * 10 + r)
    for G in (construct_group("Sym:4"), q8, construct_group("Zn:1031")):
        rows = rng.integers(0, G.order, size=(40, k)).astype(np.int16)
        moves = available_moves(gp, r)
        for mv in moves + [m.inverted() for m in moves]:
            got = apply_move(G, gp, rows, mv)
            assert got.dtype == np.int16 and got.shape == rows.shape
            images = [apply_move(G, gp, rows[i : i + 1], mv) for i in range(len(rows))]
            assert all(img.dtype == np.int16 and img.shape == (1, k) for img in images)
            assert np.array_equal(got, np.concatenate(images)), (G.name, mv)
            empty = apply_move(G, gp, rows[:0], mv)
            assert empty.dtype == np.int16 and empty.shape == (0, k)


def test_move_id_string_grammar():
    ids = {
        "sigma:1": MoveID("sigma", 1),
        "delta:2": MoveID("delta", 2),
        "delta~:1": MoveID("delta~", 1),
        "tau:1": MoveID("tau", 1),
        "xi1:1,3": MoveID("xi1", 1, 3),
        "xi2:2,1": MoveID("xi2", 2, 1),
        "sigma:3'": MoveID("sigma", 3, inverse=True),
    }
    for text, move in ids.items():
        assert str(move) == text
    assert MoveID("sigma", 1).inverted() == MoveID("sigma", 1, inverse=True)
    assert str(MoveID("sigma", 1).inverted()) == "sigma:1'"


def test_available_moves_inventory():
    only_braids = available_moves(0, 4)
    assert [str(m) for m in only_braids] == ["sigma:1", "sigma:2", "sigma:3"]
    torus = available_moves(1, 1)
    assert [str(m) for m in torus] == ["delta:1", "delta~:1"]
    full = available_moves(2, 3)
    assert not any(m.inverse for m in full)
    assert len(set(full)) == len(full) == 2 * 2 + (2 - 1) + (3 - 1) + 2 * (2 * 3)
    with pytest.raises(UserInputError):
        available_moves(0, 0)


IDENTITY_SHAPES = [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 2)]


def _long_relation_rows(G, gp: int, r: int, n: int, rng) -> np.ndarray:
    """n random rows of shape (g', r) whose last branch entry is solved from
    the long relation c1...cr * prod_k [a_k, b_k] = 1."""
    rows = rng.integers(0, G.order, size=(n, 2 * gp + r)).astype(index_dtype(G.order))
    head = np.full(n, G.identity, dtype=rows.dtype)
    for c in rows[:, 2 * gp : -1].T:
        head = G.mul_array(head, c)
    handles = np.full(n, G.identity, dtype=rows.dtype)
    for k in range(gp):
        handles = G.mul_array(handles, G.comm(rows[:, 2 * k], rows[:, 2 * k + 1]))
    rows[:, -1] = G.mul_array(G.inv_array(head), G.inv_array(handles))
    assert long_relation_holds(G, gp, rows).all()
    return rows


@pytest.mark.parametrize("spec, n", [("Sym:6", 1000), ("Sym:7", 300)])
def test_dropped_xi_twists_are_words_in_the_generating_moves(spec, n):
    """The identities that let the side stage act with generating_moves, read
    left to right as the order of application:
    xi_{j,d} = (sigma_{d-1}', xi_{j,d-1}, sigma_{d-1}) for xi1 and xi2, and
    xi2_{j,d} = (delta_j', delta~_j', xi1_{j,d}, delta~_j, delta_j)."""
    G = construct_group(spec)
    assert (G.order <= TABLE_LIMIT) == (spec == "Sym:6")  # Sym:7 multiplies natively
    rng = np.random.default_rng(G.order)
    for gp, r in IDENTITY_SHAPES:
        rows = _long_relation_rows(G, gp, r, n, rng)

        def word(*moves):
            out = rows
            for mv in moves:
                out = apply_move(G, gp, out, mv)
            return out

        for j in range(1, gp + 1):
            delta, delta_t = MoveID("delta", j), MoveID("delta~", j)
            for d in range(1, r + 1):
                where = (spec, gp, r, j, d)
                if d >= 2:
                    s = MoveID("sigma", d - 1)
                    for kind in ("xi1", "xi2"):
                        conjugated = word(s.inverted(), MoveID(kind, j, d - 1), s)
                        assert np.array_equal(word(MoveID(kind, j, d)), conjugated), (kind, *where)
                xi1, xi2 = MoveID("xi1", j, d), MoveID("xi2", j, d)
                twisted = word(delta.inverted(), delta_t.inverted(), xi1, delta_t, delta)
                assert np.array_equal(word(xi2), twisted), ("xi2 from xi1", *where)


@pytest.mark.parametrize("gp, r", [(0, 4), (1, 0), (1, 1), (3, 0), *IDENTITY_SHAPES])
def test_generating_moves_drop_exactly_the_conjugate_xi_twists(gp, r):
    full, kept = available_moves(gp, r), generating_moves(gp, r)
    dropped = [m for m in full if m.kind == "xi2" or (m.kind == "xi1" and m.d >= 2)]
    assert kept == [m for m in full if m not in dropped]
    if gp >= 1 and r >= 1 and (gp, r) != (1, 1):
        assert len(full) == 3 * gp - 1 + (r - 1) + 2 * gp * r
        assert len(kept) == 4 * gp - 1 + (r - 1)
    else:  # no xi-twist to drop; (1, 1) lists only delta and delta~
        assert kept == full


def test_out_of_range_moves_rejected():
    G = construct_group("Sym:3")
    ent = enumerate_systems(G, SignatureType(0, (2, 2, 3)))[:1]
    with pytest.raises(UserInputError):
        apply_move(G, 0, ent, MoveID("sigma", 3))
    with pytest.raises(UserInputError):
        apply_move(G, 0, ent, MoveID("delta", 1))


def test_property_suite_smoke(q8, rng):
    systems, applications, violations = run_move_property_suite(q8, rng, per_shape=25)
    assert violations == []
    assert systems >= 200
    assert applications > systems


def test_braid_relations_are_map_identities():
    G = construct_group("Sym:3")
    tau = SignatureType(0, (2, 2, 3, 3))
    s1, s2, s3 = MoveID("sigma", 1), MoveID("sigma", 2), MoveID("sigma", 3)
    systems = enumerate_systems(G, tau)
    assert len(systems)

    def word(*moves):
        rows = systems
        for mv in moves:
            rows = apply_move(G, 0, rows, mv)
        return rows

    assert np.array_equal(word(s1, s2, s1), word(s2, s1, s2))
    assert np.array_equal(word(s1, s3), word(s3, s1))


def test_moves_commute_with_automorphisms(rng, q8):
    for G in (construct_group("Sym:4"), construct_group("Zn:8,8"), q8):
        maps = automorphism_group(G).generator_maps
        tau = SignatureType(1, (2, 2)) if G.order > 8 else SignatureType(0, (4, 4, 4))
        systems = enumerate_systems(G, tau)
        if not len(systems):
            continue
        sample = _sample(rng, systems, 15)
        moves = available_moves(tau.gprime, tau.r)
        moves += [mv.inverted() for mv in moves]
        for phi in map(np.asarray, maps):
            mapped = phi[sample]
            for mv in moves:
                lhs = phi[apply_move(G, tau.gprime, sample, mv)]
                rhs = apply_move(G, tau.gprime, mapped, mv)
                assert np.array_equal(lhs, rhs)


def _word(G, gp, rows, word):
    """The images of rows under a word of moves, applied left to right."""
    for mv in word:
        rows = apply_move(G, gp, rows, mv)
    return rows


def _pass_over(G, tau):
    """The checked move pass of every system over tau's ascending ordering,
    with the Inn generators stacked on its sample: the images of each word
    of fiber_words, as system indices."""
    systems = _systems(G, tau, EquivalenceConfig(), fiber=True)
    inn = inner_automorphisms(G)
    return systems, inn, _checked_move_images(G, tau, systems, inn, _RowIndex(systems, G.order))


def test_checked_move_pass_accepts_valid_systems():
    shapes = [("Sym:3", 0, (2, 2, 3)), ("Sym:4", 0, (2, 3, 4)), ("Sym:4", 1, (2, 3))]
    for spec, gp, periods in shapes:
        G = construct_group(spec)
        systems, _, images = _pass_over(G, SignatureType(gp, periods))
        words = fiber_words(gp, periods)
        assert any(len(word) > 1 for word in words)  # a block-pair braid
        images = list(images)
        assert len(images) == len(words)
        for img, word in zip(images, words):
            assert np.array_equal(systems[img], _word(G, gp, systems, word))


@pytest.mark.parametrize(
    "spec, gp, periods",
    [
        ("Sym:4", 0, (2, 3, 4)),
        ("Sym:5", 0, (2, 2, 3, 3, 5)),
        ("Sym:4", 1, (2, 2, 3)),
        ("Sym:3", 2, (2, 2, 3)),
        ("Sym:4", 1, (3,)),
    ],
)
def test_fiber_words_keep_the_ascending_ordering(spec, gp, periods):
    """Each word takes systems over the ascending ordering of the periods to
    systems over it, and its reversed word of inverse moves undoes it."""
    G = construct_group(spec)
    rows = enumerate_systems(G, SignatureType(gp, periods))
    assert len(rows)
    words = fiber_words(gp, periods)
    blocks = len(set(periods))
    assert sum(len(word) > 1 for word in words) == blocks * (blocks - 1) // 2
    assert len([w for w in words if w[0].kind == "xi1" and w[0].d > 1]) == gp * (blocks - 1)
    for word in words:
        out = _word(G, gp, rows, word)
        assert (G.orders[out[:, 2 * gp :]] == periods).all(), word
        assert long_relation_holds(G, gp, out).all(), word
        back = _word(G, gp, out, tuple(mv.inverted() for mv in reversed(word)))
        assert np.array_equal(back, rows), word


def test_checked_move_pass_refuses_rows_that_break_the_long_relation():
    G = construct_group("Sym:3")
    tau = SignatureType(0, (2, 2, 3))
    systems = _systems(G, tau, EquivalenceConfig())
    # A reversed system has the same entries; keep those whose product c1 c2 c3 != 1.
    reversed_rows = systems[:, ::-1]
    broken = reversed_rows[~long_relation_holds(G, 0, reversed_rows)]
    assert len(broken)
    images = _checked_move_images(G, tau, broken, (), _RowIndex(systems, G.order))
    with pytest.raises(AssertionError, match="left the system set"):
        next(images)


def test_checked_move_pass_applies_each_move_and_its_inverse_once(monkeypatch):
    # each word acts once, a move at a time, on the stacked rows, and its
    # reversed word of inverse moves once on the sample's images
    G = construct_group("Sym:4")
    tau = SignatureType(1, (2, 3))
    words = fiber_words(1, (2, 3))
    assert any(len(word) > 1 for word in words)
    calls = []
    real = orbits.apply_move

    def counted(G, gp, rows, mv):
        calls.append((mv, len(rows)))
        return real(G, gp, rows, mv)

    monkeypatch.setattr(orbits, "apply_move", counted)
    systems, inn, images = _pass_over(G, tau)
    assert len(list(images)) == len(words)
    assert len(inn) and len(systems) > 20
    stacked = len(systems) + len(inn) * 20
    assert calls == [
        call
        for word in words
        for call in [(mv, stacked) for mv in word] + [(mv.inverted(), 20) for mv in word[::-1]]
    ]


def _plant(monkeypatch, planted):
    """Route orbits' moves through planted(real, G, gp, rows, mv)."""
    real = orbits.apply_move
    monkeypatch.setattr(orbits, "apply_move", lambda *args: planted(real, *args))


def _refused_by_both_routes(G, periods, match):
    """side_orbits and verify_inn_lemma on G's (0|periods) both raise AssertionError.

    On (0|3,4,4) sigma:2 is a word of its own; on (0|2,3,4) every word is a
    block-pair braid (fiber_words)."""
    for route in (side_orbits, verify_inn_lemma):
        with pytest.raises(AssertionError, match=match):
            route(G, SignatureType(0, periods))


def test_a_move_that_conjugates_by_a_non_central_element_is_refused(monkeypatch):
    # Such a "move" keeps the long relation, generation and every Sigma set,
    # but does not commute with Inn(G), which the side stage relies on.
    G = construct_group("Sym:4")
    g = next(x for x in G.elements() if x not in G.center())
    conj = np.array([G.conj(x, g) for x in G.elements()])
    planted_move = MoveID("sigma", 2)

    def planted(real, G, gp, rows, mv):
        return conj[rows].astype(rows.dtype) if mv == planted_move else real(G, gp, rows, mv)

    _plant(monkeypatch, planted)
    _refused_by_both_routes(G, (3, 4, 4), "move sigma:2 does not commute")


def test_a_wrong_inverse_formula_is_refused(monkeypatch):
    # The "inverse" applies the forward move again, which a braid twist is not.
    def planted(real, G, gp, rows, mv):
        return real(G, gp, rows, mv.inverted() if mv.inverse else mv)

    _plant(monkeypatch, planted)
    G = construct_group("Sym:4")
    _refused_by_both_routes(G, (3, 4, 4), "sigma:2' does not undo move sigma:2 ")
    # the reversed word of inverses of the block-pair braid sigma_1^2
    _refused_by_both_routes(G, (2, 3, 4), "sigma:1' sigma:1' does not undo move sigma:1 sigma:1 ")


def test_a_move_whose_images_leave_the_system_set_is_refused(monkeypatch):
    # Swapping c2 and c3 without conjugating is its own inverse and commutes
    # with Inn(G), but breaks the long relation (and, on (0|2,3,4), inside
    # the block-pair braid sigma_2' sigma_1 sigma_1 sigma_2, the sorted periods).
    def planted(real, G, gp, rows, mv):
        return rows[:, [0, 2, 1]] if mv.i == 2 else real(G, gp, rows, mv)

    _plant(monkeypatch, planted)
    G = construct_group("Sym:4")
    _refused_by_both_routes(G, (3, 4, 4), "left the system set")
    _refused_by_both_routes(G, (2, 3, 4), "left the system set")
