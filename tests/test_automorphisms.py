from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
import sympy

from hurwitz_components import automorphisms
from hurwitz_components.automorphisms import (
    BACKTRACK_CANDIDATE_LIMIT,
    _backtracking_auts,
    _extend_automorphisms,
    _generating_subset,
    automorphism_group,
    inner_automorphisms,
)
from hurwitz_components.groups import AbelianGroup, construct_group, index_dtype
from hurwitz_components.orbits import side_orbits
from hurwitz_components.ramification import SignatureType
from test_groups import element_order, generates


def _closure(G, gens) -> set[tuple[int, ...]]:
    """Every map reachable from the identity map by composing with gens (BFS),
    each a tuple of ints."""
    gens = [np.asarray(g).tolist() for g in gens]
    frontier = {tuple(G.elements())}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for m in frontier:
            for g in gens:
                c = tuple(g[x] for x in m)  # m, then g
                if c not in seen:
                    seen.add(c)
                    nxt.add(c)
        frontier = nxt
    return seen


def _abelian_aut_order_oracle(moduli) -> int:
    """Closed-form |Aut| for a finite abelian group, prime by prime.

    For a p-group of type p^{e_1} <= ... <= p^{e_n} the order is
    prod_k (p^{d_k} - p^{k-1}) * prod_j p^{e_j (n - d_j)} * prod_i p^{(e_i - 1)(n - c_i + 1)}
    where d_k = max{l : e_l = e_k} and c_k = min{l : e_l = e_k}.
    """
    per_prime: dict[int, list[int]] = {}
    for m in moduli:
        for p, a in sympy.factorint(m).items():
            per_prime.setdefault(p, []).append(a)
    total = 1
    for p, exps in per_prime.items():
        e = sorted(exps)
        n = len(e)
        d = [max(l for l in range(1, n + 1) if e[l - 1] == e[k - 1]) for k in range(1, n + 1)]
        c = [min(l for l in range(1, n + 1) if e[l - 1] == e[k - 1]) for k in range(1, n + 1)]
        part = 1
        for k in range(1, n + 1):
            part *= p ** d[k - 1] - p ** (k - 1)
        for j in range(1, n + 1):
            part *= p ** (e[j - 1] * (n - d[j - 1]))
        for i in range(1, n + 1):
            part *= p ** ((e[i - 1] - 1) * (n - c[i - 1] + 1))
        total *= part
    return total


@pytest.mark.parametrize(
    "moduli",
    [(5,), (8,), (12,), (2, 2), (5, 5), (2, 4), (3, 9), (2, 2, 4), (4, 4), (2, 2, 2)],
)
def test_abelian_aut_order_matches_closed_form(moduli):
    G = AbelianGroup(list(moduli))
    assert automorphism_group(G).order == _abelian_aut_order_oracle(G.moduli)


def test_homocyclic_route_agrees_with_backtracking():
    # The family rules (GL_k(Z/n) and conjugation in Sym(n)) against the generic route.
    for spec in ("Zn:3,3", "Zn:4,4", "Zn:2,2,2", "Zn:5,5", "Sym:3", "Sym:4", "Sym:5", "Alt:4", "Alt:5"):
        G = construct_group(spec)
        fast = automorphism_group(G)
        slow = _backtracking_auts(G)
        closed = _closure(G, fast.generator_maps)
        assert len(closed) == fast.order == slow.order
        assert closed == _closure(G, slow.generator_maps)


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("Sym:1", 1),
        ("Sym:2", 1),
        ("Sym:3", 6),
        ("Sym:4", 24),
        ("Alt:3", 2),
        ("Alt:4", 24),
        ("Alt:5", 120),
        ("Zn:1", 1),
        ("Zn:5,5", 480),
    ],
)
def test_known_automorphism_group_orders(spec, expected):
    assert automorphism_group(construct_group(spec)).order == expected


def test_quaternion_aut_and_inn(q8):
    aut = automorphism_group(q8)
    assert aut.order == 24
    assert len(_closure(q8, inner_automorphisms(q8))) == 4


def test_inner_count_is_index_of_center(q8):
    for G in (*map(construct_group, ("Sym:3", "Sym:4", "Zn:9", "Alt:4")), q8):
        inn = {tuple(G.conj(x, g) for x in G.elements()) for g in G.elements()}
        closed = _closure(G, inner_automorphisms(G))
        assert closed == inn
        assert len(closed) == G.order // len(G.center())
    assert inner_automorphisms(construct_group("Zn:9")).shape == (0, 9)


def _is_automorphism(G, m) -> bool:
    m, elems = np.asarray(m), np.arange(G.order)
    if len(set(m.tolist())) != G.order or m[G.identity] != G.identity:
        return False
    return np.array_equal(m[G.mul_array(elems[:, None], elems)], G.mul_array(m[:, None], m))


def test_every_map_is_an_automorphism(q8):
    for G in (construct_group("Sym:4"), AbelianGroup([2, 4]), q8):
        aut = automorphism_group(G)
        closed = _closure(G, aut.generator_maps)
        assert len(closed) == aut.order
        for m in closed:
            assert _is_automorphism(G, m)


def test_generator_maps_close_to_full_group():
    G = AbelianGroup([5, 5])
    aut = automorphism_group(G)
    assert len(_closure(G, aut.generator_maps)) == aut.order == 480


def test_automorphisms_preserve_element_orders(rng):
    G = construct_group("Sym:4")
    aut = automorphism_group(G)
    for m in _closure(G, aut.generator_maps):
        for x in G.elements():
            assert element_order(G, m[x]) == element_order(G, x)


def test_minimal_generating_tuple(q8):
    for G in (construct_group("Sym:4"), construct_group("Alt:5"), q8, AbelianGroup([2, 2, 4])):
        gens = G.generating_tuple()
        assert generates(G, gens)
    assert construct_group("Zn:1").generating_tuple() == ()


def test_crt_collapses_aut():
    # Zn:2,3 is cyclic of order 6, so only inversion remains
    assert automorphism_group(AbelianGroup([2, 3])).order == math.prod([2])


def test_minimal_generating_tuple_is_searched_once_per_group(monkeypatch):
    G = construct_group("Sym:4")
    gens = G.generating_tuple()
    monkeypatch.setattr(G, "_search_generating_tuple", lambda: pytest.fail("searched again"))
    assert G.generating_tuple() is gens
    assert construct_group("Sym:4").generating_tuple() == gens  # a new group searches anew


def test_backtracking_refuses_generators_that_miss_maps(monkeypatch):
    # a kept set that closes to fewer maps than backtracking found is an error
    monkeypatch.setattr(automorphisms, "_generating_subset", lambda maps, gens: (len(maps) - 1, [0]))
    with pytest.raises(AssertionError):
        _backtracking_auts(AbelianGroup([2, 4]))


# -- the tuple builders the index-array builders replaced, kept as references --
def _tuple_distinct_maps(G, maps):
    ident = tuple(G.elements())
    return tuple(m for m in dict.fromkeys(maps) if m != ident)


def _tuple_inner_automorphisms(G):
    return _tuple_distinct_maps(
        G, (tuple(G.conj(x, g) for x in G.elements()) for g in G.generating_tuple())
    )


def _tuple_mat_to_map(G, mat):
    k = len(G.moduli)
    n = G.moduli[0]
    out = []
    for x in G.elements():
        v = G.vector(x)
        w = tuple(sum(v[i] * mat[i][j] for i in range(k)) % n for j in range(k))
        out.append(G.encode(w))
    return tuple(out)


def _tuple_homocyclic_maps(G):
    n, k = G.moduli[0], len(G.moduli)

    def elementary(i, j, entry):
        mat = [[int(r == c) for c in range(k)] for r in range(k)]
        mat[i][j] = entry
        return mat

    mats = [elementary(i, j, 1) for i in range(k) for j in range(k) if i != j]
    mats += [elementary(0, 0, u) for u in automorphisms._unit_generators(n)]
    return _tuple_distinct_maps(G, (_tuple_mat_to_map(G, m) for m in mats))


def _tuple_invert_map(m):
    out = [0] * len(m)
    for i, j in enumerate(m):
        out[j] = i
    return tuple(out)


def _tuple_conjugation_maps(G):
    n = G.degree
    transposition = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    maps = []
    for sigma in (transposition, cycle):
        sinv = _tuple_invert_map(sigma)
        maps.append(
            tuple(
                G.index_of(tuple(sigma[p[sinv[i]]] for i in range(n)))
                for p in map(G.perm, G.elements())
            )
        )
    return _tuple_distinct_maps(G, maps)


def _tuple_generating_subset(maps, gens):
    kept = []
    seen = {gens}
    for pos, s in enumerate(maps):
        if tuple(s[v] for v in gens) in seen:
            continue
        kept.append(pos)
        frontier = list(seen)
        while frontier:
            grown = []
            for t in frontier:
                for k in kept:
                    img = tuple(maps[k][v] for v in t)
                    if img not in seen:
                        seen.add(img)
                        grown.append(img)
            frontier = grown
    return len(seen), kept


def _extend_homomorphism(table, identity, gens, images) -> tuple[int, ...] | None:
    """Extend gens -> images to a map on all of G via BFS replay, one scalar
    product (an entry of the nested-list table) at a time; None if inconsistent.
    The route _extend_automorphisms replaced."""
    n = len(table)
    phi = [-1] * n
    phi[identity] = identity
    frontier = [identity]
    seen_count = 1
    while frontier:
        nxt = []
        for x in frontier:
            fx = phi[x]
            for g, img in zip(gens, images):
                y = table[x][g]
                fy = table[fx][img]
                if phi[y] == -1:
                    phi[y] = fy
                    nxt.append(y)
                    seen_count += 1
                elif phi[y] != fy:
                    return None
        frontier = nxt
    if seen_count != n:
        return None
    # Homomorphism property on generators extends to all products.
    for x in range(n):
        fx = phi[x]
        for g, img in zip(gens, images):
            if phi[table[x][g]] != table[fx][img]:
                return None
    if len(set(phi)) != n:
        return None
    return tuple(phi)


def _scalar_extensions(G, gens, images) -> list[tuple[int, ...]]:
    """The maps _extend_homomorphism finds for the rows of images, in row order."""
    elems = np.arange(G.order)
    table = G.mul_array(elems[:, None], elems).tolist()
    found = (_extend_homomorphism(table, G.identity, gens, row) for row in images.tolist())
    return [phi for phi in found if phi is not None]


def _order_matched_images(G):
    """The generating tuple and, one row per tuple of images of the same
    element orders, the candidate array _backtracking_auts extends."""
    gens = G.generating_tuple()
    order = G.orders.item
    candidates = [[x for x in G.elements() if order(x) == order(g)] for g in gens]
    return gens, np.array(list(product(*candidates)), dtype=np.intp)


def _tuple_backtracking_maps(G):
    gens, images = _order_matched_images(G)
    maps = _scalar_extensions(G, gens, images)
    _, kept = _tuple_generating_subset(maps, gens)
    return tuple(maps[k] for k in kept)


@pytest.mark.parametrize(
    "spec, route",
    [
        ("Zn:5,5", "homocyclic"),
        ("Zn:2,2,2", "homocyclic"),
        ("Zn:2,4", "backtracking"),
        ("Sym:3", "conjugation"),
        ("Sym:4", "conjugation"),
        ("Alt:4", "conjugation"),
        ("Alt:5", "conjugation"),
        ("q8", "backtracking"),
    ],
)
def test_map_arrays_equal_the_tuple_builders_row_for_row(spec, route, q8):
    G = q8 if spec == "q8" else construct_group(spec)
    reference = {
        "homocyclic": _tuple_homocyclic_maps,
        "conjugation": _tuple_conjugation_maps,
        "backtracking": _tuple_backtracking_maps,
    }[route]
    for got, want in (
        (inner_automorphisms(G), _tuple_inner_automorphisms(G)),
        (automorphism_group(G).generator_maps, reference(G)),
    ):
        assert got.shape == (len(want), G.order)
        assert got.dtype == index_dtype(G.order)
        assert got.tolist() == [list(m) for m in want]


def test_abelian_inner_maps_build_no_conjugation_table():
    G = construct_group("Zn:13,13")
    maps = inner_automorphisms(G)
    assert maps.shape == (0, 169) and maps.dtype == index_dtype(G.order)
    assert G._conjugates is None
    assert len(inner_automorphisms(construct_group("Sym:4"))) == 2


def test_inner_maps_are_built_once_per_group(monkeypatch):
    G = construct_group("Sym:4")
    built = []
    real = automorphisms._distinct_maps
    monkeypatch.setattr(
        automorphisms, "_distinct_maps", lambda G, maps: built.append(len(maps)) or real(G, maps)
    )
    side_orbits(G, SignatureType.parse("0|2,3,4"))
    maps = inner_automorphisms(G)
    assert built == [len(G.generating_tuple())]
    side_orbits(G, SignatureType.parse("1|2,2"))  # a second side on the same group
    assert built == [len(G.generating_tuple())] and inner_automorphisms(G) is maps
    assert not maps.flags.writeable
    assert maps.tolist() == [list(m) for m in _tuple_inner_automorphisms(G)]


@pytest.mark.parametrize(
    "spec",
    ["q8", "Zn:2,4", "Zn:3,9", "Zn:2,2,4", "Zn:2,8", "Zn:4,8", "Sym:3", "Sym:4", "Alt:4",
     "Alt:5", "Zn:5,5", "Zn:5,25"],
)
def test_array_extension_matches_the_scalar_reference_row_for_row(spec, q8):
    # every order-matched candidate at once; Zn:5,25 has 2,400 candidates, past
    # BACKTRACK_CANDIDATE_LIMIT, so its array goes to the routine directly
    G = q8 if spec == "q8" else construct_group(spec)
    gens, images = _order_matched_images(G)
    assert (len(images) > BACKTRACK_CANDIDATE_LIMIT) == (spec == "Zn:5,25")
    got = _extend_automorphisms(G, gens, images)
    assert got.dtype == index_dtype(G.order)
    assert got.tolist() == [list(phi) for phi in _scalar_extensions(G, gens, images)]
    assert len(got) == (2000 if spec == "Zn:5,25" else automorphism_group(G).order)


def test_array_extension_lists_aut_of_alt6():
    # 7,200 candidates past the limit (the scalar reference takes over a second):
    # 1,440 maps, whose kept generators are automorphisms that close to 1,440
    G = construct_group("Alt:6")
    gens, images = _order_matched_images(G)
    maps = _extend_automorphisms(G, gens, images)
    assert len(images) == 7200 and len(maps) == 1440
    order, kept = _generating_subset(maps, gens)
    assert order == 1440
    assert all(_is_automorphism(G, m) for m in maps[kept])


def test_array_extension_drops_maps_that_are_not_bijections():
    # Zn:2,4 on its unit vectors: each of the 12 order-matched image pairs
    # respects the relations, so its map passes the generator check, but only
    # 8 of them are onto; (0,2), (0,1) sends both generators into <(0,1)>
    G = construct_group("Zn:2,4")
    gens, images = _order_matched_images(G)
    assert gens == (G.encode((1, 0)), G.encode((0, 1))) and len(images) == 12
    maps = _extend_automorphisms(G, gens, images)
    assert len(maps) == 8
    assert [G.encode((0, 2)), G.encode((0, 1))] not in maps[:, list(gens)].tolist()


def test_array_extension_drops_bijections_that_are_not_homomorphisms():
    # Sym:3 on its tuple (1, 2) with all 36 image pairs, orders unmatched: only
    # the 6 pairs of distinct transpositions give automorphisms. Along the
    # spanning tree, 6 other pairs, such as (3, 1), fill bijections, which only
    # the generator check rejects
    G = construct_group("Sym:3")
    gens = G.generating_tuple()
    images = np.array(list(product(G.elements(), repeat=2)), dtype=np.intp)
    assert gens == (1, 2)
    maps = _extend_automorphisms(G, gens, images)
    transpositions = np.flatnonzero(G.orders == 2).tolist()
    assert maps[:, list(gens)].tolist() == [
        [a, b] for a in transpositions for b in transpositions if a != b
    ]
    assert maps.tolist() == [list(phi) for phi in _scalar_extensions(G, gens, images)]


def test_psl27_cayley_table_aut_by_backtracking(psl27):
    # PSL(2,7) has outer automorphisms: |Aut| = 336 from 1,176 candidates
    G = psl27
    gens, images = _order_matched_images(G)
    assert len(images) == 1176 <= BACKTRACK_CANDIDATE_LIMIT
    listing = _extend_automorphisms(G, gens, images)
    assert listing.tolist() == [list(phi) for phi in _scalar_extensions(G, gens, images)]
    aut = _backtracking_auts(G)
    assert aut.order == len(listing) == 336
    assert _closure(G, aut.generator_maps) == set(map(tuple, listing.tolist()))
    assert aut.generator_maps.tolist() == [list(m) for m in _tuple_backtracking_maps(G)]
