from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from hurwitz_components import ramification
from hurwitz_components.errors import UserInputError
from hurwitz_components.groups import AbelianGroup, construct_group, index_dtype
from hurwitz_components.orbits import EquivalenceConfig, _systems
from hurwitz_components.ramification import (
    SignatureType,
    candidate_tuples,
    curve_genus,
    enumerate_systems,
    fraction_to_json,
    is_beauville,
    long_relation_holds,
    long_relation_value,
    period_multisets_with_angle_sum,
    rh_admissible,
    sigma_masks,
    sigma_set,
    surface_invariants,
)
from test_groups import scalar_closure, scalar_inv, scalar_mul
from test_moves import SUITE_SHAPES


def _system_valid(G, tau: SignatureType, entries: tuple[int, ...]) -> bool:
    """Whether one system (a sequence of ints) has exact type tau, satisfies
    the long relation and generates G: the brute-force reference for
    enumerate_systems."""
    if len(entries) != 2 * tau.gprime + tau.r:
        return False
    branch = entries[2 * tau.gprime :]
    if any(G.element_order(c) != m for c, m in zip(branch, tau.periods)):
        return False
    if not long_relation_holds(G, tau.gprime, np.array([entries], dtype=np.intp))[0]:
        return False
    return len(scalar_closure(G, entries)) == G.order


def test_type_parse_and_str_roundtrip():
    for text in ("0|5,5,5", "2|", "1|2,2", "0|2,3,4"):
        assert str(SignatureType.parse(text)) == text
    tau = SignatureType.parse(" 1 | 3 , 2 ")
    assert (tau.gprime, tau.periods) == (1, (3, 2))
    assert tau.canonical() == (1, (2, 3))
    assert tau.orderings() == [(2, 3), (3, 2)]


@pytest.mark.parametrize(
    "periods", [(), (2,), (3, 2), (3, 2, 2), (2, 3, 3, 4), (5, 2, 5, 2, 7), (4, 4, 2, 2, 3, 3)]
)
def test_orderings_are_the_distinct_permutations_in_order(periods):
    assert SignatureType(0, periods).orderings() == sorted(set(permutations(periods)))


def test_orderings_of_equal_periods_is_one_ordering():
    # twelve equal periods: 12! permutations, one ordering
    assert SignatureType(0, (2,) * 12).orderings() == [(2,) * 12]


@pytest.mark.parametrize("text", ["5,5,5", "-1|2", "0|1", "0|2,x", "a|2"])
def test_type_parse_rejects_garbage(text):
    with pytest.raises(UserInputError):
        SignatureType.parse(text)


def test_long_relation_explicit_symmetric_case():
    G = construct_group("Sym:3")
    c1 = G.index_of((1, 0, 2))
    c2 = G.index_of((0, 2, 1))
    prod = G.mul_array(c1, c2)
    rows = np.array([(c1, c2, G.inv_array(prod)), (c1, c2, prod)], dtype=np.int16)
    assert long_relation_value(G, 0, rows)[0] == G.identity
    holds = long_relation_holds(G, 0, rows)
    assert holds.shape == (2,) and holds[0]
    assert not holds[1] or prod == G.inv_array(prod)


def test_long_relation_with_handles():
    G = construct_group("Sym:4")
    a, b = 5, 9
    comm = G.comm(a, b)
    rows = np.array([(a, b, G.inv_array(comm))], dtype=np.int16)
    assert long_relation_holds(G, 1, rows).all()


def _scalar_long_relation(G, gprime: int, rows: list[list[int]]) -> list[int]:
    """c1...cr * prod_k a_k b_k a_k^-1 b_k^-1 of each row, folded one product at a time."""
    mul, inv = scalar_mul(G), scalar_inv(G)
    values = []
    for ent in rows:
        acc = G.identity
        for x in ent[2 * gprime :]:
            acc = mul(acc, x)
        for a, b in zip(ent[0 : 2 * gprime : 2], ent[1 : 2 * gprime : 2]):
            for x in (a, b, inv(a), inv(b)):
                acc = mul(acc, x)
        values.append(acc)
    return values


@pytest.mark.parametrize("spec,gp,periods", SUITE_SHAPES + [("Zn:1031", 0, (1031, 1031))])
def test_long_relation_rows_match_scalar_fold(spec, gp, periods, q8):
    # Zn:1031 is above TABLE_LIMIT, so its products take the per-element path.
    G = q8 if spec == "q8" else construct_group(spec)
    systems = enumerate_systems(G, SignatureType(gp, periods))
    k = systems.shape[1]
    random_rows = np.random.default_rng(k).integers(0, G.order, size=(300, k)).astype(systems.dtype)
    for rows in (systems, random_rows):
        value = long_relation_value(G, gp, rows)
        assert value.shape == (len(rows),)
        assert value.tolist() == _scalar_long_relation(G, gp, rows.tolist())
        assert np.array_equal(long_relation_holds(G, gp, rows), value == G.identity)
    assert len(systems) and long_relation_holds(G, gp, systems).all()
    if periods:  # with branch entries, random rows are mostly not relations
        assert np.count_nonzero(long_relation_holds(G, gp, random_rows)) < len(random_rows) // 2


def test_enumerate_matches_brute_force_filter():
    G = construct_group("Sym:3")
    tau = SignatureType(0, (2, 2, 3))
    got = set(map(tuple, enumerate_systems(G, tau).tolist()))
    want = {
        ent
        for ent in product(G.elements(), repeat=3)
        if _system_valid(G, tau, ent)
    }
    assert got == want
    assert len(got) == 6
    assert len(enumerate_systems(G, tau)) == 6


@pytest.mark.parametrize(
    "spec,text",
    [
        ("Sym:3", "0|2,2,3"),
        ("Sym:4", "1|3"),  # g' = 1, r = 1
        ("Alt:4", "0|3,3,3"),
        ("Alt:4", "1|2"),
        ("Zn:2,4", "2|"),  # r = 0
        ("Zn:2,4", "1|2,2"),
        ("q8", "0|4,4,4"),
        ("q8", "1|2"),
        ("Zn:5,5", "0|5,5,5"),
    ],
)
def test_enumerate_array_matches_product_reference(spec, text, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = SignatureType.parse(text)
    got = enumerate_systems(G, tau)
    k = 2 * tau.gprime + tau.r
    want = [
        ent for ent in product(G.elements(), repeat=k) if _system_valid(G, tau, ent)
    ]  # product order is lexicographic
    assert got.dtype == np.int16 and got.shape == (len(want), k)
    assert want and list(map(tuple, got.tolist())) == want


@pytest.mark.parametrize(
    "spec,texts",
    [
        ("Sym:4", ("0|3,4,4", "0|2,3,4", "1|3", "0|4,3,2")),
        ("Zn:5,5", ("1|", "0|5,5,5")),
    ],
)
def test_enumerations_on_one_join_table_match_product_reference(spec, texts):
    # One group object, so later types read joins that earlier ones filled.
    G = construct_group(spec)
    for text in texts:
        tau = SignatureType.parse(text)
        k = 2 * tau.gprime + tau.r
        want = [ent for ent in product(G.elements(), repeat=k) if _system_valid(G, tau, ent)]
        assert want and enumerate_systems(G, tau).tolist() == list(map(list, want))


@pytest.mark.parametrize(
    "spec,text",
    [
        ("Alt:5", "0|2,5,5"),
        ("Sym:4", "1|3"),
        ("Sym:5", "0|2,4,5"),
        ("q8", "0|4,4,4"),
        ("Zn:5,5", "0|5,5,5"),
        ("Zn:2,4", "2|"),
    ],
)
def test_generation_closes_joins_only_for_prefixes_of_finished_rows(spec, text, q8_path):
    # A fresh group, so its join table holds only what this enumeration met:
    # the subgroups that the prefixes of rows passing the long relation and
    # the branch orders generate, whether or not the rows generate G.
    G = construct_group(f"cayley:{q8_path}" if spec == "q8" else spec)
    tau = SignatureType.parse(text)
    slots = [G.elements()] * (2 * tau.gprime) + [
        [x for x in G.elements() if G.element_order(x) == m] for m in tau.periods
    ]
    rows = np.array(list(product(*slots)), dtype=np.intp)
    rows = rows[long_relation_holds(G, tau.gprime, rows)]
    prefixes = {frozenset(row[:i]) for row in rows.tolist() for i in range(len(row) + 1)}
    want = {scalar_closure(G, prefix) for prefix in prefixes}
    enumerate_systems(G, tau)
    got = [frozenset(m.tolist()) for m in G.subgroup_joins().members]
    assert len(got) == len(set(got)) and set(got) == want


def test_enumerate_without_tables_uses_native_arithmetic():
    G = construct_group("Zn:1031")  # order above TABLE_LIMIT: no tables
    got = enumerate_systems(G, SignatureType(0, (1031, 1031)))
    assert got.tolist() == [[x, G.inv_array(x)] for x in range(1, 1031)]
    assert len(enumerate_systems(construct_group("Sym:7"), SignatureType(0, (2, 2)))) == 0


def _enumerate_one_lead_per_block(G, tau, inn_classes):
    """enumerate_systems as it ran before multi-lead blocks: one block per
    value of the leading free entry, kept as the reference."""
    gp, r = tau.gprime, tau.r
    dtype = index_dtype(G.order)
    slots = ramification._free_slots(G, tau, inn_classes)
    classes = G.inner_classes() if inn_classes else None
    joins = G.subgroup_joins()
    blocks = [np.zeros((0, 2 * gp + r), dtype=dtype)]
    for lead in range(len(slots[0])) if slots else [None]:
        rows = np.zeros((1, 0), dtype=dtype)
        acc = np.full(1, G.identity, dtype=dtype)
        for level, values in enumerate(slots):
            if level == 0:
                values = values[lead : lead + 1]
            rows = np.concatenate(
                [np.repeat(rows, len(values), axis=0), np.tile(values, len(rows))[:, None]],
                axis=1,
            )
            acc = np.repeat(acc, len(values))
            x = rows[:, level]
            if level >= 2 * gp:
                acc = G.mul_array(acc, x)
            elif level % 2:
                acc = G.mul_array(acc, G.comm(rows[:, level - 1], x))
        if r:
            last = G.inv_array(acc)
            keep = G.orders[last] == tau.periods[-1]
            rows = np.concatenate([rows[keep], last[keep, None]], axis=1)
        else:
            rows = rows[acc == G.identity]
        rows = rows[joins.generates(rows)]
        if classes is not None and len(rows):
            rows = rows[(classes.least_conjugates(rows) == rows).all(axis=1)]
        blocks.append(rows)
    return np.concatenate(blocks)


@pytest.mark.parametrize(
    "spec, text",
    [
        ("Zn:1", "2|"),  # r = 0
        ("q8", "0|4,4,4"),
        ("q8", "1|2"),
        ("Zn:2,4", "1|2,2"),
        ("Zn:7,7", "0|7,7,7"),
        ("Zn:1031", "0|1031,1031"),  # no multiplication table
        ("Sym:4", "1|2,2"),
        ("Sym:4", "0|2,2,3,4"),
    ],
)
@pytest.mark.parametrize("inn_classes", [False, True])
def test_multi_lead_blocks_match_one_lead_per_block(spec, text, inn_classes, q8, monkeypatch):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = SignatureType.parse(text)
    want = _enumerate_one_lead_per_block(G, tau, inn_classes)
    slots = ramification._free_slots(G, tau, inn_classes)
    leads = len(slots[0]) if slots else 1
    per_lead = candidate_tuples(G, tau, inn_classes) // leads
    # one lead per block; blocks of about a third of the leads, so block
    # ends fall inside the run of leads; and the default
    for block_rows in (1, per_lead * max(1, leads // 3) + 1, ramification.BLOCK_ROWS):
        monkeypatch.setattr(ramification, "BLOCK_ROWS", block_rows)
        got = enumerate_systems(G, tau, inn_classes=inn_classes)
        assert got.dtype == want.dtype and np.array_equal(got, want), block_rows
    assert len(want)


def test_enumerations_of_one_group_share_its_join_table(monkeypatch):
    tau = SignatureType(0, (3, 4, 4))
    fresh = [enumerate_systems(construct_group("Sym:4"), SignatureType(0, o)) for o in tau.orderings()]
    G = construct_group("Sym:4")
    joins = G.subgroup_joins()
    closed = []
    real = joins._close
    monkeypatch.setattr(joins, "_close", lambda h, y: closed.append((h, y)) or real(h, y))
    first = [enumerate_systems(G, SignatureType(0, o)) for o in tau.orderings()]
    assert G.subgroup_joins() is joins and len(joins.members) > 1
    assert closed  # the first enumerations fill the table
    closed.clear()
    again = [enumerate_systems(G, SignatureType(0, o)) for o in tau.orderings()]
    assert closed == []  # every join is already in the group's table
    for a, b, c in zip(fresh, first, again):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def _sigma_by_conjugation(G, gprime, entries):
    """Sigma as first defined: every conjugate of every power of a branch entry."""
    out = {G.identity}
    elems = np.arange(G.order)
    for c in entries[2 * gprime :]:
        for y in G.closure([c]).tolist():
            out.update(G.conj(y, elems).tolist())
    return frozenset(out)


# Every census group (Q8 as its Cayley table), Sym:5 and Alt:7, with a g' = 0
# and a g' = 1 type each; Alt:7's rows are its Inn-class rows.
SIGMA_MASK_CASES = [
    ("Sym:3", "0|2,2,3"), ("Sym:3", "1|3"),
    ("Sym:4", "0|2,3,4"), ("Sym:4", "1|3"),
    ("Alt:4", "0|2,3,3"), ("Alt:4", "1|2"),
    ("Zn:2,2", "0|2,2,2"), ("Zn:2,2", "1|2,2"),
    ("Zn:2,4", "0|2,4,4"), ("Zn:2,4", "1|4,4"),
    ("Zn:2,2,2", "0|2,2,2,2"), ("Zn:2,2,2", "1|2,2"),
    ("q8", "0|4,4,4"), ("q8", "1|2"),
    ("Alt:5", "0|2,5,5"), ("Alt:5", "1|3"),
    ("Sym:5", "0|2,4,5"), ("Sym:5", "1|2"),
    ("Alt:7", "0|5,5,7"), ("Alt:7", "1|2"),
]


def _sigma_mask_rows(G, tau):
    """At most about 200 systems of tau, spread over its enumeration."""
    systems = enumerate_systems(G, tau, inn_classes=G.order > 120)
    assert len(systems)
    return systems[:: max(1, len(systems) // 200)]


def _masks_differ(G, tau, systems):
    """The first system whose sigma_masks row is not its _sigma_by_conjugation
    set, or None."""
    masks = sigma_masks(G, tau.gprime, systems)
    assert masks.shape == (len(systems), G.order)
    for row, ent in zip(masks, systems.tolist()):
        if set(np.flatnonzero(row).tolist()) != _sigma_by_conjugation(G, tau.gprime, ent):
            return ent
    return None


@pytest.mark.parametrize("spec,text", SIGMA_MASK_CASES)
def test_sigma_masks_match_conjugation_closure(spec, text, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = SignatureType.parse(text)
    assert _masks_differ(G, tau, _sigma_mask_rows(G, tau)) is None


def test_sigma_masks_without_conjugates_fail_on_sym4(monkeypatch):
    """Control: with no Inn(G) classes every element is its own class, so
    the class rows hold only each entry's own powers; the pin must fail."""
    G = construct_group("Sym:4")
    tau = SignatureType.parse("0|2,3,4")
    systems = _sigma_mask_rows(G, tau)
    assert _masks_differ(G, tau, systems) is None
    monkeypatch.setattr(G, "inner_classes", lambda: None)
    assert _masks_differ(G, tau, systems) is not None


@pytest.mark.parametrize("spec,text", [("Sym:4", "0|2,3,4"), ("q8", "1|2"), ("Zn:2,4", "1|4,4")])
def test_sigma_set_is_the_one_row_case_of_sigma_masks(spec, text, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = SignatureType.parse(text)
    systems = _sigma_mask_rows(G, tau)
    masks = sigma_masks(G, tau.gprime, systems)
    for row, ent in zip(masks, systems.tolist()):
        assert sigma_set(G, tau.gprime, ent) == frozenset(np.flatnonzero(row).tolist())
    assert sigma_masks(G, tau.gprime, systems[:0]).shape == (0, G.order)
    assert sigma_set(G, 0, ()) == {G.identity}


@pytest.mark.parametrize("spec,text", [("Sym:4", "0|2,3,4"), ("Alt:5", "0|2,5,5"), ("q8", "1|2")])
def test_sigma_set_matches_conjugation_closure(spec, text, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    tau = SignatureType.parse(text)
    systems = enumerate_systems(G, tau).tolist()
    assert systems
    for ent in systems:
        assert sigma_set(G, tau.gprime, ent) == _sigma_by_conjugation(G, tau.gprime, ent)


def test_enumerate_known_counts():
    G = AbelianGroup([5, 5])
    tau = SignatureType(0, (5, 5, 5))
    assert len(enumerate_systems(G, tau)) == 480
    assert len(enumerate_systems(construct_group("Zn:1"), SignatureType(2, ()))) == 1
    # no element of order 7: no candidate at all
    assert enumerate_systems(construct_group("Sym:4"), SignatureType(0, (7, 7, 7))).shape == (0, 3)


def test_enumerate_unordered_unions_orderings():
    G = construct_group("Sym:3")
    tau = SignatureType(0, (2, 3, 2))
    per_order = sum(len(enumerate_systems(G, SignatureType(0, o))) for o in tau.orderings())
    assert len(_systems(G, tau, EquivalenceConfig())) == per_order == 18


def test_sigma_set_abelian_is_union_of_cyclic_subgroups():
    G = AbelianGroup([4, 4])
    entries = (G.encode((1, 0)), G.encode((0, 1)), G.encode((3, 3)))
    sig = sigma_set(G, 0, entries)
    want = set()
    for c in entries:
        want |= set(G.closure([c]).tolist())
    assert sig == frozenset(want)


def test_sigma_set_closes_under_conjugation():
    G = construct_group("Sym:4")
    entries = (1, 2, 3)
    sig = sigma_set(G, 0, entries)
    for x in sig:
        for g in G.elements():
            assert G.conj(x, g) in sig


def test_disjointness_is_symmetric_and_detects_overlap():
    G = AbelianGroup([5, 5])
    s1 = sigma_set(G, 0, (G.encode((1, 0)), G.encode((0, 1)), G.encode((4, 4))))
    s2 = sigma_set(G, 0, (G.encode((1, 2)), G.encode((1, 4)), G.encode((3, 4))))
    assert s1 & s2 == {G.identity} and s2 & s1 == {G.identity}
    assert s1 & s1 != {G.identity}
    overlap = sigma_set(G, 0, (G.encode((1, 1)), G.encode((1, 2)), G.encode((3, 2))))
    assert s1 & overlap != {G.identity}


def test_curve_genus_and_rh_admissible():
    assert curve_genus(25, SignatureType(0, (5, 5, 5))) == 6
    assert curve_genus(6, SignatureType(0, (2, 2, 3))) == 0
    ok, g = rh_admissible(25, SignatureType(0, (5, 5, 5)))
    assert ok and g == 6
    ok, g = rh_admissible(6, SignatureType(0, (2, 2, 3)))
    assert not ok
    ok, g = rh_admissible(2, SignatureType(1, (2, 2)))
    assert ok and g == 2


def test_surface_invariants_product_quotient():
    inv = surface_invariants(2, SignatureType(1, (2, 2)), SignatureType(2, ()))
    doc = inv.to_json_dict()
    assert (doc["g1"], doc["g2"]) == (2, 3)
    assert (doc["chi"], doc["q"], doc["pg"], doc["ksq"], doc["e"]) == (1, 3, 3, 8, 4)


def test_surface_invariants_rigid_case():
    inv = surface_invariants(25, SignatureType(0, (5, 5, 5)), SignatureType(0, (5, 5, 5)))
    doc = inv.to_json_dict()
    assert (doc["g1"], doc["g2"]) == (6, 6)
    assert (doc["chi"], doc["q"], doc["pg"], doc["ksq"], doc["e"]) == (1, 0, 0, 8, 4)
    assert is_beauville(SignatureType(0, (5, 5, 5)), SignatureType(0, (5, 5, 5)))
    assert not is_beauville(SignatureType(1, (2, 2)), SignatureType(0, (5, 5, 5)))


def test_period_multisets_with_angle_sum():
    # 3 * (1 - 1/5) = 12/5 picks out the triple (5, 5, 5)
    got = period_multisets_with_angle_sum((2, 3, 5), Fraction(12, 5))
    assert (5, 5, 5) in got
    for ms in got:
        assert sum(Fraction(1) - Fraction(1, m) for m in ms) == Fraction(12, 5)


def test_fraction_to_json():
    assert fraction_to_json(Fraction(8)) == 8
    assert fraction_to_json(Fraction(701, 9)) == "701/9"
    assert fraction_to_json(Fraction(-3, 2)) == "-3/2"

