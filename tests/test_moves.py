from __future__ import annotations

import random

import numpy as np
import pytest

from hurwitz_components import moves
from hurwitz_components.automorphisms import automorphism_group, inner_automorphisms
from hurwitz_components.errors import UserInputError
from hurwitz_components.groups import construct_group
from hurwitz_components.moves import (
    MoveID,
    apply_move,
    available_moves,
    convention_self_check,
)
from hurwitz_components.orbits import EquivalenceConfig, _systems, side_orbits
from hurwitz_components.ramification import (
    SignatureType,
    enumerate_systems,
    long_relation_holds,
    sigma_set,
)

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
                branch_orders = sorted(G.element_order(c) for c in ent[2 * gp:])
                if branch_orders != order_multiset:
                    violations.append(f"{where}: period multiset changed")
                if not G.generates(ent):
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


def test_convention_self_check_accepts_valid_samples():
    G = construct_group("Sym:3")
    systems = enumerate_systems(G, SignatureType(0, (2, 2, 3)))
    convention_self_check(G, 0, 3, systems)


def test_convention_self_check_rejects_broken_samples():
    G = construct_group("Sym:3")
    systems = enumerate_systems(G, SignatureType(0, (2, 2, 3)))
    # A reversed system has the same entries; keep those whose product c1 c2 c3 != 1.
    reversed_rows = systems[:, ::-1]
    broken = reversed_rows[~long_relation_holds(G, 0, reversed_rows)]
    assert len(broken)
    with pytest.raises(AssertionError, match="breaks the long relation"):
        convention_self_check(G, 0, 3, broken)


def test_convention_self_check_applies_each_move_once_with_inner_maps(monkeypatch):
    G = construct_group("Sym:4")
    systems = enumerate_systems(G, SignatureType(1, (2, 2)))[:20]
    inner = inner_automorphisms(G)
    assert inner
    calls = []
    real = moves.apply_move

    def counted(G, gp, rows, mv):
        calls.append((mv, len(rows)))
        return real(G, gp, rows, mv)

    monkeypatch.setattr(moves, "apply_move", counted)
    convention_self_check(G, 1, 2, systems, inner)
    forward = available_moves(1, 2)
    stacked = len(systems) * (1 + len(inner))
    assert calls == [(mv, stacked) for mv in forward + [mv.inverted() for mv in forward]]


def test_a_move_that_conjugates_by_a_non_central_element_is_refused(monkeypatch):
    # Such a "move" keeps the long relation, generation and every Sigma set,
    # but does not commute with Inn(G), which the side stage relies on.
    G = construct_group("Sym:4")
    g = next(x for x in G.elements() if x not in G.center())
    conj = np.array([G.conj(x, g) for x in G.elements()])
    planted_move = MoveID("sigma", 2)
    real = moves.apply_move

    def planted(G, gp, rows, mv):
        return conj[rows].astype(rows.dtype) if mv == planted_move else real(G, gp, rows, mv)

    monkeypatch.setattr(moves, "apply_move", planted)
    with pytest.raises(AssertionError, match="move sigma:2 does not commute"):
        side_orbits(G, SignatureType(0, (2, 3, 4)))
