"""Automorphism groups and inner automorphisms, held by generators.

An automorphism is represented as an element map: a row m of length |G|
with m[x] = phi(x). A set of maps is one 2-D index array of shape
(maps, |G|) and dtype index_dtype(|G|), so a map acts on a whole array
of systems as the gather m[systems]. A group acting on a finite set has
the same orbits whether every element or only a generating set is
applied (the inverse of a map is one of its powers), so no automorphism
group is ever listed in full: AutGroup holds |Aut(G)| and an array of
generator maps, and consumers act with those generators alone. The one
place that inverts maps is SchreierTree: the pair stage's walks up its
tree apply the inverses of the generator maps.

Generators come from the standard generating sets where the group is a
known family (Seress, Permutation Group Algorithms, ch. 4):

* homocyclic (Z/n)^k: Aut = GL_k(Z/n), generated by the elementary
  transvections I + e_ij (i != j) and diag(u, 1, ..., 1) for u in a
  generating set of (Z/n)^x; |Aut| comes from the closed formula;
* Sym(n) and Alt(n) of order > 3, n != 6: Aut = Sym(n) acting by
  conjugation, generated by the transposition (0 1) and the n-cycle
  (0 1 ... n-1).

Every other group (Cayley tables, non-homocyclic abelian groups, degree
6, and the permutation groups of order at most 3) goes through a search
over images of the group's generating tuple (Group.generating_tuple;
Holt, Eick and O'Brien, Handbook of Computational Group Theory):
every tuple of same-order images is one row of a candidate array, all
rows are extended to maps together along one spanning tree of the Cayley
graph, and gathers keep the rows that are automorphisms. That route is
also the reference the family rules are tested against. Inn(G) is
conjugation by the same tuple.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceeded
from .groups import AbelianGroup, Group, PermutationGroup, distinct, distinct_rows, index_dtype
from .groups import prime_factorization

BACKTRACK_CANDIDATE_LIMIT = 2000


@dataclass
class AutGroup:
    """The automorphism group of a backend group, as its order and generators.

    generator_maps holds one element map per row, shape (maps, |G|) and
    dtype index_dtype(|G|). The rows generate Aut(G) and never include the
    identity map, so a trivial Aut(G) has none. The whole group is
    reachable by closure.
    """

    order: int
    generator_maps: np.ndarray


def _distinct_maps(G: Group, maps: np.ndarray) -> np.ndarray:
    """The rows of maps in first-seen order, without repeats or the identity map."""
    first = np.sort(distinct_rows(maps)[0])
    return maps[first[(maps[first] != np.arange(G.order)).any(axis=1)]]


def inner_automorphisms(G: Group) -> np.ndarray:
    """Generators of Inn(G), one map per row: x -> g^-1 x g for g in the
    generating tuple.

    Identity maps and repeats are dropped, so an abelian group has none; it
    conjugates nothing (and builds no conjugation table, Group.conj). The
    maps are built on the first call for a group and kept on it, read-only.
    """
    if G._inner_maps is None:
        if len(G.center()) == G.order:
            G._inner_maps = np.empty((0, G.order), dtype=index_dtype(G.order))
        else:
            g = np.array(G.generating_tuple(), dtype=np.intp)[:, None]
            G._inner_maps = _distinct_maps(G, G.conj(np.arange(G.order), g))
        G._inner_maps.flags.writeable = False
    return G._inner_maps


def automorphism_group(G: Group) -> AutGroup:
    """Aut(G), built on the first call for a group and kept on it, its maps
    read-only. A BudgetExceeded refusal is not kept: each call raises it again."""
    if G._aut is None:
        if isinstance(G, AbelianGroup) and len(set(G.moduli)) == 1:
            aut = _homocyclic_auts(G)
        # Aut(G) is Sym(n) acting by conjugation except at degree 6 and on the
        # cyclic groups of order at most 3: Sym(1), Sym(2) and Alt(1), ..., Alt(3).
        elif isinstance(G, PermutationGroup) and G.degree != 6 and G.order > 3:
            aut = _conjugation_auts(G)
        else:
            aut = _backtracking_auts(G)
        aut.generator_maps.flags.writeable = False
        G._aut = aut
    return G._aut


# -- abelian homocyclic (Z/n)^k: GL_k(Z/n) ------------------------------
def _unit_generators(n: int) -> list[int]:
    """A generating set of the units mod n, by closure on integers.

    The unit group is not cyclic for n = 8, 12, ..., so one generator may not do.
    """
    gens: list[int] = []
    closed = {1}
    for u in range(2, n):
        if math.gcd(u, n) != 1 or u in closed:
            continue
        gens.append(u)
        powers = {1}
        x = u
        while x != 1:
            powers.add(x)
            x = x * u % n
        closed = {a * b % n for a in closed for b in powers}
    return gens


def _homocyclic_auts(G: AbelianGroup) -> AutGroup:
    """Aut((Z/n)^k) = GL_k(Z/n), acting on row vectors.

    Z/n is a finite (so semilocal) ring, hence SL_k(Z/n) is generated by the
    elementary transvections, and diag(u, 1, ..., 1) supplies every determinant.
    """
    n = G.moduli[0]
    k = len(G.moduli)

    def elementary(i: int, j: int, entry: int) -> list[list[int]]:
        mat = [[int(r == c) for c in range(k)] for r in range(k)]
        mat[i][j] = entry
        return mat

    mats = [elementary(i, j, 1) for i in range(k) for j in range(k) if i != j]
    mats += [elementary(0, 0, u) for u in _unit_generators(n)]
    order = 1
    for p, e in prime_factorization(n).items():
        order *= p ** ((e - 1) * k * k) * math.prod(p**k - p**i for i in range(k))
    # An index is the dot product of its vector with the indices of the unit
    # vectors, so vectors and images are read off by integer arithmetic.
    place = np.array([G.encode(e) for e in np.eye(k, dtype=np.int64).tolist()])
    vectors = np.arange(G.order)[:, None] // place % n
    images = vectors @ np.array(mats, dtype=np.int64).reshape(-1, k, k) % n @ place
    return AutGroup(order, _distinct_maps(G, images.astype(index_dtype(G.order))))


# -- Sym(n), Alt(n), n != 6: conjugation inside Sym(n) -------------------
def _conjugation_auts(G: PermutationGroup) -> AutGroup:
    n = G.degree
    maps = []
    transposition = np.array([1, 0] + list(range(2, n)))
    for sigma in (transposition, np.roll(np.arange(n), -1)):  # (0 1), (0 1 ... n-1)
        # the conjugate sigma o p o sigma^-1 of each permutation p
        maps.append(G.indices_of(sigma[G.images[:, np.argsort(sigma)]]))
    return AutGroup(math.factorial(n), _distinct_maps(G, np.array(maps, index_dtype(G.order))))


# -- every other group: images of the generating tuple -------------------
def _extend_automorphisms(G: Group, gens: tuple[int, ...], images: np.ndarray) -> np.ndarray:
    """The element maps, in row order, of the rows of images (candidates, k)
    whose gens[t] -> images[:, t] extends to an automorphism of G.

    A breadth-first spanning tree of G's Cayley graph on gens writes each
    new element y of a layer as x * gens[t] for an x of the layer before, so
    every candidate's map phi is filled a layer at a time, one product for
    all rows. A row is kept iff phi is a bijection and phi(x gens[t]) =
    phi(x) images[t] for every x and t, which makes it a homomorphism.
    """
    n, k = G.order, len(gens)
    phi = np.empty((len(images), n), dtype=index_dtype(n))
    phi[:, G.identity] = G.identity
    reached = np.zeros(n, dtype=bool)
    reached[G.identity] = True
    layer = np.array([G.identity])
    while layer.size:
        products = G.mul_array(layer[:, None], gens).ravel()  # layer[i] * gens[t] at i * k + t
        edge = np.full(n, -1)
        edge[products] = np.arange(products.size)  # one tree edge into each product
        new = np.flatnonzero((edge >= 0) & ~reached)
        reached[new] = True
        e = edge[new]
        phi[:, new] = G.mul_array(phi[:, layer[e // k]], images[:, e % k])
        layer = new
    bijective = (np.sort(phi, axis=1) == np.arange(n)).all(axis=1)
    phi, images = phi[bijective], images[bijective]
    keep = np.ones(len(phi), dtype=bool)
    for t, step in enumerate(G.mul_array(np.arange(n)[:, None], gens).T):  # x -> x * gens[t]
        keep &= (phi[:, step] == G.mul_array(phi, images[:, t, None])).all(axis=1)
    return phi[keep]


def _backtracking_auts(G: Group) -> AutGroup:
    gens = G.generating_tuple()
    candidates = [np.flatnonzero(G.orders == G.orders[g]).tolist() for g in gens]
    total = math.prod(len(c) for c in candidates)
    if total > BACKTRACK_CANDIDATE_LIMIT:
        raise BudgetExceeded(
            f"Aut({G.name}) backtracking needs {total} candidate tuples "
            f"(> {BACKTRACK_CANDIDATE_LIMIT})",
            required=total,
        )
    images = np.array(list(product(*candidates)), dtype=np.intp)  # (total, k), one row per candidate
    maps = _extend_automorphisms(G, gens, images)
    order, kept = _generating_subset(maps, gens)
    if order != len(maps):
        raise AssertionError(f"Aut({G.name}): the kept maps generate {order} of {len(maps)}")
    return AutGroup(order, maps[kept])


def _generating_subset(maps: np.ndarray, gens: tuple[int, ...]) -> tuple[int, list[int]]:
    """|<maps>| and the positions of the rows of maps that enlarge the group
    of the ones kept before them, a generating set without redundant members.

    Closure runs on the images of the generating tuple gens, which fix an
    automorphism, since (s o h)(g) = s(h(g)): the kept rows act on a whole
    frontier of image tuples as one gather.
    """
    cols = list(gens)
    kept: list[int] = []
    seen = {gens}
    for pos, s in enumerate(maps):
        if tuple(s[cols].tolist()) in seen:
            continue
        kept.append(pos)
        acting = maps[kept]
        grown = seen
        while grown:
            frontier = np.array(list(grown), dtype=np.intp)
            images = acting[:, frontier].reshape(-1, len(cols))
            grown = set(map(tuple, images.tolist())) - seen
            seen |= grown
    return len(seen), kept


class SchreierTree:
    """Schreier vectors of the blocks (orbits) of maps acting on labels by
    perms, rooted at each block's least label (Seress, §4.1). Grown breadth
    first, a map t sending x to a new label y sets parent[y] = x and via[y] =
    t (-1 at a root), so u_y = maps[t] o u_x sends root[y] to y. A map is
    fixed by its images of gens: u_x is kept on those columns only (ucols).
    """

    def __init__(self, root: np.ndarray, maps: np.ndarray, perms: list, gens: tuple[int, ...]):
        n, self.root, self.maps = len(root), root, maps
        self.perms = np.array(perms, dtype=np.intp).reshape(len(maps), n)
        self.parent, self.via, self.depth = np.arange(n), np.full(n, -1), np.zeros(n, np.intp)
        self.ucols = np.empty((n, len(gens)), dtype=maps.dtype)
        reached = root == np.arange(n)
        frontier = np.flatnonzero(reached)
        self.ucols[frontier] = gens
        while frontier.size and not reached.all():
            grown = []
            for t, (s, perm) in enumerate(zip(maps, self.perms)):
                img = perm[frontier]
                new = ~reached[img]
                img, x = img[new], frontier[new]
                self.parent[img], self.via[img], self.depth[img] = x, t, self.depth[x] + 1
                self.ucols[img] = s[self.ucols[x]]
                reached[img] = True
                grown.append(img)
            frontier = np.concatenate(grown)
        self.inverses = np.argsort(maps, axis=1).astype(maps.dtype) if self.depth.any() else None

    def back(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """u_x^-1(z) row by row: level d steps the queries of depth >= d up."""
        depth = self.depth[x]
        if not depth.any():
            return z
        order = np.argsort(-depth, kind="stable")
        x, z, out = x[order], z[order], np.empty_like(z)
        for end in np.searchsorted(-depth[order], -np.arange(1, depth.max() + 1), side="right"):
            z[:end] = self.inverses[self.via[x[:end], None], z[:end]]
            x[:end] = self.parent[x[:end]]
        out[order] = z
        return out

    def stabilizer_gens(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct Schreier generators u_{s(x)}^-1 o s o u_x != 1 of each
        Stab(root[x]), as full maps, and the (root, generator) pairs that
        occur, sorted by root. Those that are 1 on gens never walk the tree."""
        maps, ucols = self.maps, self.ucols
        moved = [(s[ucols] != ucols[perm]).any(axis=1) for s, perm in zip(maps, self.perms)]
        ts, xs = np.nonzero(np.reshape(moved, self.perms.shape))
        ys = self.perms[ts, xs]
        images = self.back(ys, maps[ts[:, None], ucols[xs]])  # told apart by these
        first, which = distinct_rows(images)
        ar = np.tile(np.arange(maps.shape[1], dtype=maps.dtype), (len(first), 1))
        u = np.argsort(self.back(xs[first], ar), axis=1)  # u_x, the inverse of u_x^-1
        stab = self.back(ys[first], maps[ts[first, None], u])
        pairs = distinct(self.root[xs] * len(first) + which)
        return stab, pairs // len(first), pairs % len(first)
