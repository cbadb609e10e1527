from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from hurwitz_components import groups
from hurwitz_components.abelian import _rank_mod_p
from hurwitz_components.errors import UserInputError
from hurwitz_components.groups import (
    AbelianGroup,
    CayleyGroup,
    Group,
    InnerClasses,
    PermutationGroup,
    SubgroupJoins,
    TABLE_LIMIT,
    construct_group,
    distinct,
    distinct_rows,
    index_dtype,
    invariant_factors,
    prime_factorization,
)
from hurwitz_components.ramification import SignatureType, enumerate_systems


def scalar_mul(G: Group):
    """x * y one pair at a time, as a Python int: up to TABLE_LIMIT an entry
    of the table Group.mul_array gives, read once into nested lists; past it
    one Group.mul_array call."""
    if G.order > TABLE_LIMIT:
        return lambda x, y: G.mul_array(x, y).item()
    elems = np.arange(G.order)
    table = G.mul_array(elems[:, None], elems).tolist()
    return lambda x, y: table[x][y]


def scalar_inv(G: Group):
    """x^-1 one element at a time, as a Python int, from Group.inv_array."""
    return G.inv_array(np.arange(G.order)).tolist().__getitem__


def scalar_closure(G: Group, gens, mul=None) -> frozenset[int]:
    """<gens> by a breadth-first search with one scalar product at a time
    (scalar_mul unless mul is given): the reference for closure, the
    one-row case of the Group.closures that SubgroupJoins runs."""
    mul = mul or scalar_mul(G)
    seen = {G.identity}
    reached = [G.identity]
    for x in reached:  # grows while it is walked
        for g in gens:
            z = mul(x, g)
            if z not in seen:
                seen.add(z)
                reached.append(z)
    return frozenset(seen)


# One-element and one-row forms of the group's array calls, for the tests
# only: the package itself works on whole arrays.


def closure(G: Group, gens, start=()) -> np.ndarray:
    """The sorted members of the subgroup that gens generate together with
    start, the members of a subgroup: the one-row case of Group.closures."""
    seen = np.zeros((1, G.order), dtype=bool)
    seen[0, G.identity] = True
    seen[0, np.asarray(start, dtype=np.intp)] = True
    G.closures(seen, np.asarray(gens, dtype=np.intp)[None, :], G.order)
    return seen[0].nonzero()[0].astype(index_dtype(G.order))


def generates(G: Group, gens) -> bool:
    return len(closure(G, gens)) == G.order


def element_order(G: Group, x: int) -> int:
    return G.orders.item(x)


def conjugacy_class(G: Group, x: int) -> frozenset[int]:
    """{g^-1 x g : g in G}: x's class in inner_classes(); {x} when G is abelian."""
    classes = G.inner_classes()
    if classes is None:
        return frozenset([x])
    return frozenset(np.flatnonzero(classes.least == classes.least[x]).tolist())


def plain_mul(G: Group):
    """x * y in plain Python from the backend's own data: image tuples composed
    as y(x(i)), or residue vectors added modulo the moduli. A Cayley group has
    only its document table."""
    if isinstance(G, PermutationGroup):
        data = [G.perm(x) for x in G.elements()]
        compose = lambda p, q: tuple(q[i] for i in p)  # noqa: E731
    elif isinstance(G, AbelianGroup):
        data = [G.vector(x) for x in G.elements()]
        compose = lambda u, v: tuple((a + b) % m for a, b, m in zip(u, v, G.moduli))  # noqa: E731
    else:
        return G._table.item
    index = {d: x for x, d in enumerate(data)}
    return lambda x, y: index[compose(data[x], data[y])]


@pytest.mark.parametrize("spec", ["Sym:7", "Zn:37,37", "Sym:4", "Zn:5,5", "q8"])
def test_array_arithmetic_matches_scalar(spec, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    assert (G.order > TABLE_LIMIT) == (spec in ("Sym:7", "Zn:37,37"))
    rng = np.random.default_rng(G.order)
    x = rng.integers(0, G.order, size=(20, 10)).astype(np.int16)
    y = rng.integers(0, G.order, size=(20, 10)).astype(np.int16)
    prod, inv = G.mul_array(x, y), G.inv_array(x)
    assert prod.dtype == inv.dtype == np.int16 and prod.shape == inv.shape == x.shape
    mul = plain_mul(G)
    pairs = zip(x.ravel().tolist(), y.ravel().tolist())
    assert prod.ravel().tolist() == [mul(a, b) for a, b in pairs]
    assert all(mul(a, b) == G.identity for a, b in zip(x.ravel().tolist(), inv.ravel().tolist()))
    g = int(y[0, 0])
    assert G.mul_array(x, g).tolist() == [[mul(a, g) for a in row] for row in x.tolist()]
    assert G.mul_array(x[:0], y[:0]).shape == (0, 10)


def test_construct_group_parses_each_backend(q8_path):
    assert construct_group("Zn:6").order == 6
    assert construct_group("Sym:4").order == 24
    assert construct_group("Alt:5").order == 60
    assert construct_group(f"cayley:{q8_path}").order == 8


@pytest.mark.parametrize(
    "spec",
    ["Zn:", "Zn:0", "Zn:5x", "Sym:", "Sym:-1", "Alt:two", "nope:3", "Zn"],
)
def test_construct_group_rejects_bad_specs(spec):
    with pytest.raises(UserInputError):
        construct_group(spec)


def test_invariant_factor_normalization():
    assert AbelianGroup([2, 3]).moduli == (6,)
    assert AbelianGroup([4, 2]).moduli == (2, 4)
    assert AbelianGroup([6, 10]).moduli == (2, 30)
    assert AbelianGroup([1, 5]).moduli == (5,)
    assert invariant_factors((2, 2, 3)) == (2, 6)


def test_abelian_encode_vector_roundtrip():
    G = AbelianGroup([4, 12])
    assert G.moduli == (4, 12)
    for x in G.elements():
        assert G.encode(G.vector(x)) == x
    assert G.mul_array(G.encode((1, 2)), G.encode((3, 11))) == G.encode((0, 1))


def test_mul_convention_applies_left_factor_first():
    G = PermutationGroup("Sym", 3)
    x = G.index_of((1, 0, 2))
    y = G.index_of((0, 2, 1))
    composite = G.perm(G.mul_array(x, y).item())
    # apply x then y: 0 -> 1 -> 2
    assert composite[0] == 2


def test_group_identities_hold_on_samples(rng, q8):
    for G in (construct_group("Sym:4"), construct_group("Zn:2,4"), q8):
        elems = list(G.elements())
        mul, inv = G.mul_array, G.inv_array
        for _ in range(200):
            x, y, g = (rng.choice(elems) for _ in range(3))
            assert mul(x, G.identity) == x
            assert mul(inv(x), x) == G.identity
            assert G.conj(x, g) == mul(mul(inv(g), x), g)
            assert inv(mul(x, y)) == mul(inv(y), inv(x))
            assert G.conj(mul(x, y), g) == mul(G.conj(x, g), G.conj(y, g))


def test_element_order_matches_brute_force(q8):
    for spec in ("Zn:12", "Sym:4", "Alt:4", "Zn:2,4,8", "q8", "Zn:37,37", "Sym:7"):
        G = q8 if spec == "q8" else construct_group(spec)
        mul = scalar_mul(G)
        for x in G.elements():
            k, acc = 1, x
            while acc != G.identity:
                acc = mul(acc, x)
                k += 1
            assert element_order(G, x) == k


def test_cyclic_subgroup():
    G = construct_group("Zn:12")
    assert len(closure(G, [1])) == 12
    assert closure(G, [4]).tolist() == [0, 4, 8]


def test_closure_and_generates():
    G = construct_group("Sym:4")
    t = G.index_of((1, 0, 2, 3))
    c = G.index_of((1, 2, 3, 0))
    assert closure(G, [t]).tolist() == sorted({G.identity, t})
    assert generates(G, (t, c))
    assert not generates(G, (t,))
    # started from the members of a subgroup H, the closure is <H, gens>
    H = closure(G, [c])
    assert closure(G, [c, t], start=H).tolist() == closure(G, [t, c]).tolist()
    assert closure(G, [], start=H).tolist() == H.tolist()


def _is_abelian(G: Group) -> bool:
    return len(G.center()) == G.order


def test_center_sizes(q8):
    assert len(construct_group("Zn:8").center()) == 8
    assert len(construct_group("Sym:3").center()) == 1
    assert len(q8.center()) == 2
    assert _is_abelian(q8) is False


def _abelian_cayley_group() -> CayleyGroup:
    """Z/4 x Z/6 as a Cayley table, so the generic (non-abelian-backend) code runs."""
    pairs = [(a, b) for a in range(4) for b in range(6)]
    index = {v: i for i, v in enumerate(pairs)}
    doc = {
        "order": len(pairs),
        "labels": [f"{a},{b}" for a, b in pairs],
        "table": [[index[(a + c) % 4, (b + d) % 6] for c, d in pairs] for a, b in pairs],
    }
    return CayleyGroup(doc)


# a type per group whose enumeration closes joins below the whole group
_JOIN_TYPES = {"Sym:4": "0|2,3,4", "Sym:5": "0|2,4,5", "Alt:5": "0|2,5,5", "Zn:5,5": "0|5,5,5"}


def _assert_array_path_matches_table(G: Group, T: Group) -> None:
    """G multiplies by its backend's product, T (the same group) by its table:
    products, inverses, conjugates, Inn(G) classes, centralizers and joins agree."""
    assert G._products is None and T._products is not None
    elems = np.arange(G.order)
    x, g = elems[:, None], elems[None, :]
    assert np.array_equal(G.mul_array(x, g), T._products)
    assert np.array_equal(G.inv_array(elems), T._inverses)
    assert np.array_equal(G.conj(x, g), T.conj(x, g))
    classes, want = G.inner_classes(), T.inner_classes()
    assert (classes is None) == (want is None)
    if classes is not None:
        for name in ("least", "conjugator", "centralizers", "centralizer_order", "centralizer_at"):
            assert np.array_equal(getattr(classes, name), getattr(want, name)), name
    tau = SignatureType.parse(_JOIN_TYPES[G.name])
    assert np.array_equal(enumerate_systems(G, tau), enumerate_systems(T, tau))
    joins, want = G.subgroup_joins(), T.subgroup_joins()
    assert len(joins.members) == len(want.members) > 2
    assert all(np.array_equal(a, b) for a, b in zip(joins.members, want.members))
    assert np.array_equal(joins.table, want.table)


@pytest.mark.parametrize(
    "spec",
    ["Sym:4", "Sym:4-native", "Sym:5-native", "Alt:5", "Alt:5-native", "Zn:5,5-native",
     "q8", "Zn:2,4", "cayley-abelian"],
)
def test_classes_and_center_match_full_group_definitions(spec, q8):
    # conjugacy classes and the center are read from the generating tuple;
    # pin them to the definitions over every element of G
    G = {"q8": q8, "cayley-abelian": _abelian_cayley_group()}.get(spec)
    G = G or construct_group(spec.removesuffix("-native"))
    ref = G  # the products for the definitions
    if spec.endswith("-native"):  # the backend's product, as used past TABLE_LIMIT
        G._products = G._inverses = None
        ref = construct_group(G.name)
        _assert_array_path_matches_table(G, ref)
    elems = list(G.elements())
    assert generates(G, G.generating_tuple())
    x, g = np.array(elems)[:, None], np.array(elems)[None, :]
    mul, inv = scalar_mul(ref), scalar_inv(ref)
    conj = [[mul(mul(inv(b), a), b) for b in elems] for a in elems]
    assert G.conj(x, g).tolist() == conj
    for x in elems:
        assert conjugacy_class(G, x) == frozenset(conj[x])
    assert G.center() == tuple(
        z for z in elems if all(mul(z, x) == mul(x, z) for x in elems)
    )
    assert _is_abelian(G) == (spec in ("Zn:2,4", "Zn:5,5-native", "cayley-abelian"))


def _conj_by_products(G: Group, x, g) -> np.ndarray:
    """g^-1 x g as two products and an inverse: Group.conj before its table."""
    return G.mul_array(G.mul_array(G.inv_array(g), x), g)


@pytest.mark.parametrize("spec", ["Sym:3", "Sym:4", "Sym:5", "Alt:4", "Alt:5", "q8"])
def test_conjugation_table_matches_three_products(spec, q8):
    # up to TABLE_LIMIT, conj is one gather from a table built on first use
    G = q8 if spec == "q8" else construct_group(spec)
    x, g = np.arange(G.order)[:, None], np.arange(G.order)
    want = _conj_by_products(G, x, g)
    got = G.conj(x, g)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert G._conjugates.shape == (G.order, G.order) and not G._conjugates.flags.writeable
    assert G.conj(int(x[-1, 0]), int(g[1])) == want[-1, 1]


def test_conjugation_past_the_table_limit_reads_products():
    G = construct_group("Sym:7")
    rng = np.random.default_rng(7)
    x, g = rng.integers(0, G.order, size=(2, 50))
    mul, inv = plain_mul(G), scalar_inv(G)
    want = [mul(mul(inv(b), a), b) for a, b in zip(x.tolist(), g.tolist())]
    assert G.conj(x, g).tolist() == want
    assert G._conjugates is None


def _two_pass_least_conjugates(classes: InnerClasses, rows: np.ndarray) -> np.ndarray:
    """InnerClasses.least_conjugates before its one-pass form, on
    three-product conjugation: every row conjugated by its lead's
    conjugator, then again by the centralizer element that its columns pick."""
    G = classes.G

    def conj(x, g):
        return _conj_by_products(G, x, g)

    out = conj(rows, classes.conjugator[rows[:, 0]][:, None])
    assert (out[:, 0] == classes.least[rows[:, 0]]).all()
    central = len(G.center())
    pairs = classes.centralizer_order[out[:, 0]]
    ends = np.cumsum(pairs)
    cuts = distinct(np.searchsorted(ends, np.arange(0, ends[-1], 1 << 18), side="right"))
    for lo, hi in zip(cuts.tolist(), cuts[1:].tolist() + [len(out)]):
        block = out[lo:hi]
        count = pairs[lo:hi]
        row = np.repeat(np.arange(hi - lo), count)
        first = np.cumsum(count) - count
        start = np.repeat(classes.centralizer_at[block[:, 0]] - first, count)
        g = classes.centralizers[np.arange(len(row)) + start]
        for col in block[:, 1:].T:
            if len(row) == (hi - lo) * central:
                break
            value = conj(col[row], g)
            keep = value == np.minimum.reduceat(value, first)[row]
            first = (np.cumsum(keep) - keep)[first]
            row, g = row[keep], g[keep]
        out[lo:hi] = conj(block, g[first][:, None])
    return out


@pytest.mark.parametrize("spec, width", [("Sym:4", 4), ("Alt:5", 5), ("q8", 3)])
def test_one_pass_least_conjugates_match_the_two_pass_routine(spec, width, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    classes = G.inner_classes()
    rng = np.random.default_rng(G.order)
    for size in (1, 7, 500, 60_000):
        rows = rng.integers(0, G.order, size=(size, width)).astype(np.int16)
        got = classes.least_conjugates(rows)
        assert got.dtype == np.int16 and np.array_equal(got, _two_pass_least_conjugates(classes, rows))
    # the last call spans more than one chunk of 2^18 pairs
    assert classes.centralizer_order[classes.least[rows[:, 0]]].sum() > 1 << 18


def _burnside_generates(G: AbelianGroup, gens) -> bool:
    """A tuple generates a finite abelian group iff it spans G/pG for every
    prime p dividing the exponent (Burnside basis theorem)."""
    vecs = [G.vector(g) for g in gens]
    for p in prime_factorization(G.moduli[-1]) if G.moduli else ():
        cols = [i for i, m in enumerate(G.moduli) if m % p == 0]
        if _rank_mod_p([[v[i] % p for i in cols] for v in vecs], p) != len(cols):
            return False
    return True


@pytest.mark.parametrize(
    "spec,size",
    [("Zn:1", 1), ("Zn:12", 2), ("Zn:2,4", 2), ("Zn:3,9", 2), ("Zn:6,10", 2), ("Zn:2,2,2", 3)],
)
def test_abelian_generates_matches_burnside_rank(spec, size):
    G = construct_group(spec)
    tuples = [()] + list(itertools.product(G.elements(), repeat=size))
    got = [generates(G, gens) for gens in tuples]
    assert got == [_burnside_generates(G, gens) for gens in tuples]
    assert True in got and (False in got or G.order == 1)  # both verdicts are exercised


def test_orders_present():
    assert construct_group("Alt:5").orders_present() == (1, 2, 3, 5)


@pytest.mark.parametrize(
    "values",
    [[], [7], [3, 1, 3, 3, 0], np.array([5, -2, 5, 9], dtype=np.int16),
     np.array([[1 << 40, 3], [3, 0]], dtype=np.int64)],
    ids=["empty", "one", "repeated", "int16", "int64"],
)
def test_distinct_matches_unique(values):
    values = np.asarray(values, dtype=getattr(values, "dtype", np.intp))
    got, want = distinct(values), np.unique(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (200, 1), (200, 3), (5, 0)])
def test_distinct_rows_match_unique(shape):
    rows = np.random.default_rng(shape[0] + shape[1]).integers(0, 4, size=shape).astype(np.int16)
    first, which = distinct_rows(rows)
    _, want_first, want_which = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(first, want_first) and np.array_equal(which, want_which.ravel())
    assert np.array_equal(rows[first][which], rows)


def test_cayley_labels_roundtrip(q8):
    labels = {q8.element_label(x) for x in q8.elements()}
    assert labels == {"1", "-1", "i", "-i", "j", "-j", "k", "-k"}
    assert q8.element_label(q8.identity) == "1"


def test_cayley_rejects_broken_tables(tmp_path, q8_path):
    doc = json.loads(q8_path.read_text())
    bad = dict(doc)
    bad["table"] = [row[:] for row in doc["table"]]
    bad["table"][3][4] = bad["table"][3][5]  # breaks cancellation
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(UserInputError):
        construct_group(f"cayley:{path}")
    for missing in ("order", "labels", "table"):
        poked = {k: v for k, v in doc.items() if k != missing}
        path.write_text(json.dumps(poked))
        with pytest.raises(UserInputError):
            construct_group(f"cayley:{path}")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"order": True, "labels": ["e"], "table": [[False]]}, "order must be a positive integer"),
        (
            {"order": 2, "labels": ["e", "a"], "table": [[0, True], [True, 0]]},
            r"entry \[0\]\[1\] = True not an index",
        ),
    ],
    ids=["order", "table-entry"],
)
def test_cayley_rejects_booleans(tmp_path, doc, message):
    # JSON true and false load as Python bools, which are ints
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(UserInputError, match=message):
        construct_group(f"cayley:{path}")


def test_cayley_order_limit_is_the_table_limit(tmp_path):
    # above TABLE_LIMIT a group keeps no table, and a Cayley group has no other products
    path = tmp_path / "big.json"
    for order, message in ((TABLE_LIMIT + 1, "order 1025 exceeds limit 1024"), (TABLE_LIMIT, "labels")):
        path.write_text(json.dumps({"order": order, "labels": [], "table": []}))
        with pytest.raises(UserInputError, match=message):
            construct_group(f"cayley:{path}")


def test_cayley_table_is_its_document(q8, q8_path):
    table = json.loads(q8_path.read_text())["table"]
    elems = np.arange(q8.order)
    assert q8.mul_array(elems[:, None], elems[None, :]).tolist() == table
    assert [[q8.mul_array(x, y).item() for y in q8.elements()] for x in q8.elements()] == table


def test_cayley_and_builtin_agree_on_quaternion_orders(q8):
    assert sorted(element_order(q8, x) for x in q8.elements()) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_permutation_index_roundtrip():
    G = construct_group("Sym:4")
    for x in G.elements():
        assert G.index_of(G.perm(x)) == x
    A = construct_group("Alt:4")
    assert all(_parity(A.perm(x)) == 0 for x in A.elements())


def _parity(perm: tuple[int, ...]) -> int:
    seen, swaps = set(), 0
    for start in range(len(perm)):
        if start in seen:
            continue
        length, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
            length += 1
        swaps += length - 1
    return swaps % 2


@pytest.mark.parametrize("kind", ["Sym", "Alt"])
@pytest.mark.parametrize("degree", range(1, 9))
def test_permutation_images_are_the_itertools_listing(kind, degree):
    # the rows are the lexicographic listing of every permutation (Sym) or of
    # the even ones (Alt), parity counted here cycle by cycle
    perms = itertools.permutations(range(degree))
    want = [list(p) for p in perms if kind == "Sym" or _parity(p) == 0]
    assert PermutationGroup(kind, degree).images.tolist() == want


def test_trivial_group():
    G = construct_group("Zn:1")
    assert G.order == 1
    assert G.mul_array(0, 0) == G.inv_array(0) == 0
    assert generates(G, ())


@pytest.mark.parametrize(
    "spec,texts",
    [
        ("Zn:7,7", ("0|7,7,7",)),
        ("Zn:2,4", ("0|2,4,4", "1|2,2", "2|")),
        ("Zn:2,2,2", ("0|2,2,2,2", "1|2,2")),
        ("Sym:4", ("0|2,3,4", "0|3,4,4", "1|2")),
        ("Alt:5", ("0|2,5,5", "0|3,3,5")),
        ("q8", ("0|4,4,4", "1|2")),
    ],
)
def test_join_table_names_plain_closures(spec, texts, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    for text in texts:
        enumerate_systems(G, SignatureType.parse(text))
    joins = G.subgroup_joins()
    subgroups = [frozenset(m.tolist()) for m in joins.members]
    assert len(set(subgroups)) == len(subgroups)
    for h, gens in enumerate(joins.gens):
        assert subgroups[h] == scalar_closure(G, gens) and joins.orders[h] == len(subgroups[h])
    filled = np.argwhere(joins.table[: len(subgroups)] >= 0).tolist()
    assert len(filled) > G.order
    for h, y in filled:
        assert subgroups[joins.table[h, y]] == scalar_closure(G, joins.gens[h] + (y,))


def test_one_join_fills_the_cosets_of_every_generator(monkeypatch):
    # <H, y^j> = <H, y> for every j prime to ord(y). On Zn:13,13 one join
    # call closes its pending keys together, in rounds of at most
    # CLOSURE_CELLS // 169 = 1,551 keys. The trivial subgroup joined with
    # the 97 leads of the first enumeration block is one round of 97 layered
    # closures, and their coset fills answer the leads of the second block.
    # A line joined with any of the 156 elements outside it is G by
    # Lagrange's theorem (no divisor of 169 lies between 13 and 169): its
    # 14 * 156 = 2,184 keys take two rounds and no closure. Closed one key at
    # a time, 28 joins took a closure here (336 filling only H y and y H).
    tau = SignatureType(0, (13, 13, 13))

    def enumerate_counting_rounds():
        G = construct_group("Zn:13,13")
        joins = G.subgroup_joins()
        batches, rows = [], []
        close, closures = joins._close, G.closures
        monkeypatch.setattr(joins, "_close", lambda h, y: batches.append(len(h)) or close(h, y))
        monkeypatch.setattr(
            G, "closures", lambda seen, gens, caps: rows.append(len(seen)) or closures(seen, gens, caps)
        )
        systems = enumerate_systems(G, tau)
        assert len(systems) == 168 * 156
        assert sorted(joins.orders[: len(joins.members)].tolist()) == [1] + [13] * 14 + [169]
        batches_before, rows_before = batches[:], rows[:]
        batches.clear(), rows.clear()
        assert np.array_equal(enumerate_systems(G, tau), systems)
        assert batches == rows == []  # every join is already in the group's table
        return batches_before, rows_before

    assert enumerate_counting_rounds() == ([97, 1551, 633], [97])
    # in rounds of 8 keys, the fills of each round answer the other keys
    # on its lines before the next round: 3 rounds of closures, not 13
    monkeypatch.setattr(groups, "CLOSURE_CELLS", 169 * 8)
    batches, rows = enumerate_counting_rounds()
    assert rows == [8, 8, 8] and sum(batches) == 24 + 2184


class _SequentialJoins:
    """SubgroupJoins as it ran before joins were closed in batches, kept as
    the reference: one key at a time, in ascending order, each skipped when
    an earlier key's coset fills answered it, else closed by a layered
    closure of its own unless Lagrange's theorem leaves only G."""

    def __init__(self, G: Group) -> None:
        self.G = G
        n = G.order
        self.divisors = [d for d in range(1, n + 1) if n % d == 0]
        self.members: list[np.ndarray] = []
        self.gens: list[tuple[int, ...]] = []
        self.ids: dict[bytes, int] = {}
        self.table = np.full((0, n), -1, dtype=np.int32)
        self._subgroup(np.array([G.identity], dtype=np.int64), ())

    def _subgroup(self, members: np.ndarray, gens: tuple[int, ...]) -> int:
        key = members.tobytes()
        if key not in self.ids:
            self.ids[key] = len(self.members)
            self.members.append(members)
            self.gens.append(gens)
            self.table = np.concatenate([self.table, np.full((1, self.G.order), -1, dtype=np.int32)])
            self.table[-1, members] = self.ids[key]
        return self.ids[key]

    def join(self, ids: np.ndarray, x: np.ndarray) -> np.ndarray:
        got = self.table[ids, x]
        todo = got < 0
        if todo.any():
            n = self.G.order
            for key in distinct(ids[todo].astype(np.int64) * n + x[todo]).tolist():
                h, y = divmod(key, n)
                if self.table[h, y] < 0:  # not filled by an earlier coset
                    self._close(h, y)
            got = self.table[ids, x]
        return got

    def _close(self, h: int, y: int) -> None:
        G = self.G
        H = self.members[h]
        gens = self.gens[h] + (y,)
        order = element_order(G, y)
        step = math.lcm(len(H), order)
        if any(len(H) < d < G.order and d % step == 0 for d in self.divisors):
            seen = np.zeros(G.order, dtype=bool)
            seen[H] = True
            frontier = H
            while frontier.size:  # one layer of products by the generators per round
                layer = np.zeros(G.order, dtype=bool)
                layer[G.mul_array(frontier[:, None], gens)] = True
                frontier = (layer > seen).nonzero()[0]
                seen |= layer
            members = seen.nonzero()[0]
        else:
            members = np.arange(G.order)
        got = self._subgroup(members, gens)
        powers, acc = [y], y
        for j in range(2, order):
            acc = G.mul_array(acc, y).item()
            if math.gcd(j, order) == 1:
                powers.append(acc)
        powers = np.array(powers)
        self.table[h, G.mul_array(H[:, None], powers)] = got
        self.table[h, G.mul_array(powers[:, None], H)] = got

    def generates(self, rows: np.ndarray) -> np.ndarray:
        ids = np.zeros(len(rows), dtype=np.int32)
        for x in rows.T:
            ids = self.join(ids, x)
        return np.array([len(self.members[i]) for i in ids.tolist()]) == self.G.order


def _batched_join_mismatches(G: Group, texts) -> list[str]:
    """Enumerate the types on a fresh G and compare its batched joins with
    _SequentialJoins: the generates mask of every block of finished rows,
    then every entry that either table filled, by the members it names."""
    joins, ref = G.subgroup_joins(), _SequentialJoins(G)
    blocks = []
    real = joins.generates
    joins.generates = lambda rows: blocks.append((rows, real(rows))) or blocks[-1][1]
    for text in texts:
        enumerate_systems(G, SignatureType.parse(text))
    assert any(got.any() for _, got in blocks)
    bad = [f"generates on {len(rows)} rows" for rows, got in blocks if not np.array_equal(got, ref.generates(rows))]
    for a, b in ((joins, ref), (ref, joins)):  # the entries a filled, read in b
        members = [m.astype(np.int64) for m in a.members]
        ids = [b._subgroup(m.astype(b.members[0].dtype), g) for m, g in zip(members, a.gens)]
        h, y = np.nonzero(a.table[: len(members)] >= 0)
        want = b.join(np.array(ids)[h], y)
        for i, j, u, v in zip(h.tolist(), y.tolist(), a.table[h, y].tolist(), want.tolist()):
            if not np.array_equal(members[u], b.members[v]):
                bad.append(f"<{members[i].tolist()}, {j}>")
    return bad


@pytest.mark.parametrize(
    "spec,texts",
    [
        ("Sym:4", ("1|2,2,3", "0|2,2,3,4")),
        ("Alt:5", ("0|2,5,5", "0|3,3,5")),
        ("q8", ("0|4,4,4", "1|2")),
        ("Zn:2,2,2", ("0|2,2,2,2", "1|2,2")),
        ("Zn:13,13", ("0|13,13,13",)),
        ("Sym:5-native", ("0|2,4,5", "0|3,4,4")),
    ],
)
def test_batched_joins_match_one_key_at_a_time(spec, texts, q8_path):
    G = construct_group(f"cayley:{q8_path}" if spec == "q8" else spec.removesuffix("-native"))
    if spec.endswith("-native"):  # the backend's product, as used past TABLE_LIMIT
        G._products = G._inverses = None
    assert _batched_join_mismatches(G, texts) == []


def test_batched_joins_see_a_cap_one_divisor_too_low(monkeypatch):
    # control: each cap lowered to the next divisor of |G| below it, so a
    # join that closes to a proper subgroup of the cap's order passes its
    # lowered cap and reads as G
    caps = SubgroupJoins.caps

    def lowered(self, h, y):
        got = caps(self, h, y)
        return np.where(got > 0, self.divisors[np.searchsorted(self.divisors, got) - 1], 0)

    monkeypatch.setattr(SubgroupJoins, "caps", lowered)
    assert _batched_join_mismatches(construct_group("Sym:4"), ("1|2,2,3", "0|2,2,3,4"))


def _elementwise_table(G: Group) -> np.ndarray:
    """The multiplication table in plain Python, one pair at a time (plain_mul)."""
    mul = plain_mul(G)
    return np.array([[mul(x, y) for y in G.elements()] for x in G.elements()])


def _assert_both_paths_match_elementwise_products(G: Group) -> None:
    want = _elementwise_table(G)
    assert np.array_equal(G._products, want)
    inverses = np.argmax(want == G.identity, axis=1)
    assert np.array_equal(G._inverses, inverses)
    elems = np.arange(G.order)
    G._products = G._inverses = None  # the backend's product, as used past TABLE_LIMIT
    assert np.array_equal(G.mul_array(elems[:, None], elems), want)
    assert np.array_equal(G.inv_array(elems), inverses)


@pytest.mark.parametrize("spec", ["Zn:1", "Zn:6,10", "Zn:2,4,8", "Zn:13,13"])
def test_abelian_table_matches_elementwise_products(spec):
    _assert_both_paths_match_elementwise_products(construct_group(spec))


@pytest.mark.parametrize("spec", ["Sym:1", "Sym:2", "Sym:4", "Alt:4", "Alt:5", "Sym:5"])
def test_permutation_table_matches_elementwise_products(spec):
    _assert_both_paths_match_elementwise_products(construct_group(spec))


def _reference_generating_tuple(G: Group) -> tuple[int, ...]:
    """Group._search_generating_tuple as it ran before it read the element
    orders: every closure a scalar breadth-first search."""
    if G.order == 1:
        return ()
    mul = plain_mul(G)
    elems = [x for x in G.elements() if x != G.identity]
    for d in (1, 2, 3):
        if math.comb(len(elems), d) > 100_000:
            break
        for combo in itertools.combinations(elems, d):
            if len(scalar_closure(G, combo, mul)) == G.order:
                return combo
    gens: list[int] = []
    closed = scalar_closure(G, gens, mul)
    while len(closed) < G.order:
        best, best_size = None, len(closed)
        for x in G.elements():
            if x in closed:
                continue
            size = len(scalar_closure(G, gens + [x], mul))
            if size > best_size:
                best, best_size = x, size
                if size == G.order:
                    break
        gens.append(best)
        closed = scalar_closure(G, gens, mul)
    return tuple(gens)


@pytest.mark.parametrize(
    "spec",
    ["Sym:3", "Sym:4", "Sym:5", "Sym:6", "Sym:7", "Alt:4", "Alt:5", "Alt:6", "Alt:7", "Alt:8",
     "q8", "psl27", "Zn:2,2", "Zn:2,4", "Zn:2,2,2", "Zn:2,2,2,2", "Zn:12"],
)
def test_generating_tuple_search_matches_reference(spec, q8, psl27, monkeypatch):
    # the abelian backend returns its unit vectors, so the shared search is
    # called directly there; it reads G.orders, which that backend overrides.
    # Zn:2,2,2,2 needs four generators, so its search ends in the greedy phase.
    G = {"q8": q8, "psl27": psl27}.get(spec) or construct_group(spec)
    want = _reference_generating_tuple(G)
    assert Group._search_generating_tuple(G) == want
    assert isinstance(G, AbelianGroup) or G.generating_tuple() == want
    monkeypatch.setattr(Group, "_chunk_rows", lambda self: iter(lambda: 1, None))  # one row per chunk
    assert Group._search_generating_tuple(G) == want


@pytest.mark.parametrize("spec", ["Zn:17,17", "Zn:19,19"])
def test_mul_array_scalar_times_small_index_array_matches_mul(spec):
    # y * |G| + h passes the int16 range for large y, so the flat index
    # must be computed in intp whatever the operands' dtypes are.
    G = construct_group(spec)
    H = np.arange(G.order, dtype=np.int16)
    for y in (113, G.order - 1):
        mul = plain_mul(G)
        assert G.mul_array(y, H).tolist() == [mul(y, h) for h in range(G.order)]
        assert G.mul_array(H, y).tolist() == [mul(h, y) for h in range(G.order)]
