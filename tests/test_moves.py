from __future__ import annotations

import random

import numpy as np
import pytest

from hurwitz_components.automorphisms import automorphism_group
from hurwitz_components.errors import UserInputError
from hurwitz_components.groups import construct_group
from hurwitz_components.moves import (
    MoveID,
    apply_move,
    available_moves,
    convention_self_check,
)
from hurwitz_components.orbits import EquivalenceConfig, _systems
from hurwitz_components.ramification import (
    SignatureType,
    enumerate_systems,
    long_relation_holds,
    sigma_set,
)

def _tuples(systems) -> list[tuple[int, ...]]:
    """The rows of a system array as tuples of Python ints."""
    return list(map(tuple, systems.tolist()))


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

    Returns (distinct systems exercised, move applications, violations).
    """
    systems_seen = 0
    applications = 0
    violations: list[str] = []
    for spec, gp, periods in SUITE_SHAPES:
        G = q8_group if spec == "q8" else construct_group(spec)
        tau = SignatureType(gp, periods)
        if (gp, tau.r) == (0, 0):
            continue
        exact = set(_tuples(enumerate_systems(G, tau)))
        universe = set(_tuples(_systems(G, tau, EquivalenceConfig())))
        if not exact:
            violations.append(f"{spec} {tau}: no systems to test")
            continue
        ordered = sorted(exact)
        sample = ordered if len(ordered) <= per_shape else rng.sample(ordered, per_shape)
        moves = available_moves(gp, tau.r)
        moves += [mv.inverted() for mv in moves]
        order_multiset = sorted(periods)
        for ent in sample:
            systems_seen += 1
            sig = sigma_set(G, gp, ent)
            for mv in moves:
                out = apply_move(G, gp, ent, mv)
                applications += 1
                branch_orders = sorted(G.element_order(c) for c in out[2 * gp:])
                if branch_orders != order_multiset:
                    violations.append(f"{spec} {tau} {mv}: period multiset changed")
                if not long_relation_holds(G, gp, out):
                    violations.append(f"{spec} {tau} {mv}: long relation broken")
                if not G.generates(out):
                    violations.append(f"{spec} {tau} {mv}: generation lost")
                if sigma_set(G, gp, out) != sig:
                    violations.append(f"{spec} {tau} {mv}: Sigma set changed")
                if apply_move(G, gp, out, mv.inverted()) != ent:
                    violations.append(f"{spec} {tau} {mv}: inverse does not undo")
        # moves act inside the unordered system universe
        for ent in sample[: min(10, len(sample))]:
            for mv in moves:
                if apply_move(G, gp, ent, mv) not in universe:
                    violations.append(f"{spec} {tau} {mv}: image left the universe")
    return systems_seen, applications, violations


@pytest.mark.parametrize("shape", [(0, 4), (1, 1), (1, 4), (2, 1), (2, 0)])
def test_column_moves_match_scalar_moves(shape, q8):
    gp, r = shape
    rng = np.random.default_rng(gp * 10 + r)
    for G in (construct_group("Sym:4"), q8):
        rows = rng.integers(0, G.order, size=(40, 2 * gp + r)).astype(np.int16)
        moves = available_moves(gp, r)
        for mv in moves + [m.inverted() for m in moves]:
            got = apply_move(G, gp, rows, mv)
            assert got.dtype == np.int16 and got.shape == rows.shape
            want = [apply_move(G, gp, ent, mv) for ent in map(tuple, rows.tolist())]
            assert list(map(tuple, got.tolist())) == want, (G.name, mv)
            assert all(type(x) is int for x in want[0])
        assert apply_move(G, gp, rows[:0], moves[0]).shape == (0, 2 * gp + r)


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
    ent = _tuples(enumerate_systems(G, SignatureType(0, (2, 2, 3))))[0]
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
    systems = _tuples(enumerate_systems(G, tau))
    assert systems

    def word(ent, moves):
        for mv in moves:
            ent = apply_move(G, 0, ent, mv)
        return ent

    for ent in systems:
        assert word(ent, (s1, s2, s1)) == word(ent, (s2, s1, s2))
        assert word(ent, (s1, s3)) == word(ent, (s3, s1))


def test_moves_commute_with_automorphisms(rng, q8):
    for G in (construct_group("Sym:4"), construct_group("Zn:8,8"), q8):
        maps = automorphism_group(G).generator_maps
        tau = SignatureType(1, (2, 2)) if G.order > 8 else SignatureType(0, (4, 4, 4))
        systems = sorted(_tuples(enumerate_systems(G, tau)))
        if not systems:
            continue
        sample = systems if len(systems) <= 15 else rng.sample(systems, 15)
        moves = available_moves(tau.gprime, tau.r)
        moves += [mv.inverted() for mv in moves]
        for ent in sample:
            for phi in maps:
                mapped = tuple(phi[x] for x in ent)
                for mv in moves:
                    lhs = tuple(phi[x] for x in apply_move(G, tau.gprime, ent, mv))
                    rhs = apply_move(G, tau.gprime, mapped, mv)
                    assert lhs == rhs


def test_convention_self_check_accepts_valid_samples():
    G = construct_group("Sym:3")
    systems = _tuples(enumerate_systems(G, SignatureType(0, (2, 2, 3))))
    convention_self_check(G, 0, 3, systems)


def test_convention_self_check_rejects_broken_samples():
    G = construct_group("Sym:3")
    systems = sorted(_tuples(enumerate_systems(G, SignatureType(0, (2, 2, 3)))))
    # A reversed system has the same entries; keep those whose product c1 c2 c3 != 1.
    broken = [tuple(reversed(ent)) for ent in systems]
    broken = [ent for ent in broken if not long_relation_holds(G, 0, ent)]
    assert broken
    with pytest.raises(AssertionError):
        convention_self_check(G, 0, 3, broken)
