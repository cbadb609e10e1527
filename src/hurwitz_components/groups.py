"""Finite group backends: abelian products, Sym/Alt permutation groups, Cayley tables.

Elements are integer indices 0..order-1 in a fixed canonical encoding per
backend: lexicographic residue vectors (abelian), lexicographic image tuples
(permutations), table order (Cayley). Each backend defines its product once,
on index arrays (Group._products_of and _inverses_of): digit arithmetic
(abelian), a gather of image rows and a search of their keys (permutations),
the document table (Cayley). Up to TABLE_LIMIT a group also holds the table
that product gives on the full grid, an (order, order) index array, and the
inverses read from it; index arrays are then multiplied and inverted by
gathers on the table, and conjugated by a gather on a conjugation table
built from it on first use. Past the limit the same calls go to the backend's
product. Element orders are one array too, built on first use.
"""
from __future__ import annotations

import hashlib
import json
import math
from functools import cached_property
from itertools import combinations, islice, permutations
from pathlib import Path

import numpy as np

from .errors import UserInputError

# Full multiplication/inverse tables are built up to this order; larger groups
# multiply index arrays by their backend's product (Cayley documents stop here).
TABLE_LIMIT = 1024

MAX_PERM_DEGREE = 8

# Closures run together on a (rows, order) bool matrix of at most about this
# many cells: subgroup joins in rounds of CLOSURE_CELLS // order keys; the
# generating-tuple search hands those joins chunks of up to a 32nd of that.
CLOSURE_CELLS = 1 << 18


def index_dtype(order: int):
    """The narrowest signed integer dtype that holds every element index."""
    return np.int16 if order <= 32767 else np.int32  # 32767 is the int16 maximum


def distinct(a) -> np.ndarray:
    """The sorted distinct values of an array, by one sort and an adjacent-difference
    mask. np.unique's plain form imports numpy.ma on first use, which costs more
    than the sorts of a whole count."""
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the distinct rows of a 2-D array in ascending order, the index of
    each one's first occurrence, and for every row the index of its
    distinct row: np.unique(a, axis=0, return_index=True,
    return_inverse=True)[1:], by one stable lexsort over the columns and an
    adjacent-row comparison."""
    order = np.lexsort(a.T[::-1]) if a.size else np.arange(len(a))
    ranked = a[order]
    head = np.ones(len(a), dtype=bool)
    head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(len(a), dtype=np.intp)
    which[order] = np.cumsum(head) - 1
    return order[head], which


def _components(n: int, images) -> np.ndarray:
    """For each index in range(n), the least index of its orbit under the maps.

    The maps (int index arrays) are taken one at a time, so images may be a
    generator. Root hooking plus pointer jumping: every edge x -> img[x]
    whose ends have different roots hooks the larger root onto the smaller,
    then pointers jump until every tree is a star; this repeats until no
    edge of the map joins two roots. Merging never splits a class, so the
    edges of earlier maps stay inside one class. Edges are used in both
    directions, so the classes are the orbits of the group the maps
    generate, and the maps need not include their inverses.
    """
    root = np.arange(n, dtype=np.int64)
    for img in images:
        while True:
            other = root[img]
            cut = root != other
            if not cut.any():
                break
            a, b = root[cut], other[cut]
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while True:
                jumped = root[root]
                if (jumped == root).all():
                    break
                root = jumped
    return root


def prime_factorization(n: int) -> dict[int, int]:
    """Map prime -> exponent for n >= 1."""
    if n < 1:
        raise UserInputError(f"cannot factor {n}: must be >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(moduli: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Normalize a product of cyclic groups to its divisor chain d1 | d2 | ... | dt.

    Standard redistribution: for each prime, sort its prime-power contributions
    descending; the i-th largest contributions across primes multiply into the
    i-th invariant factor from the top.
    """
    per_prime: dict[int, list[int]] = {}
    for m in moduli:
        if m < 1:
            raise UserInputError(f"modulus {m} invalid: must be >= 1")
        for p, e in prime_factorization(m).items():
            per_prime.setdefault(p, []).append(e)
    t = max((len(v) for v in per_prime.values()), default=0)
    chain_desc = []
    for i in range(t):
        f = 1
        for p, exps in per_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                f *= p ** exps_sorted[i]
        chain_desc.append(f)
    return tuple(reversed(chain_desc))


class Group:
    """Base class: index arithmetic by the backend's product, tabled up to TABLE_LIMIT."""

    backend = "generic"

    def __init__(self) -> None:
        self._products = self._inverses = None
        if self.order <= TABLE_LIMIT:
            elems = np.arange(self.order)
            table = self.mul_array(elems[:, None], elems)  # the backend's product
            self._products = table
            self._inverses = np.argmax(table == self.identity, axis=1).astype(table.dtype)
        self._conjugates: np.ndarray | None = None  # the conjugation table, built by conj
        self._center: tuple[int, ...] | None = None
        self._joins: SubgroupJoins | None = None
        self._inner_classes: InnerClasses | None = None
        self._inner_maps: np.ndarray | None = None  # set by automorphisms.inner_automorphisms
        self._aut = None  # the AutGroup kept by automorphisms.automorphism_group
        self._sigma_rows: np.ndarray | None = None  # set by orbits._sigma_rows
        self._generating_tuple: tuple[int, ...] | None = None

    # -- backend hooks -------------------------------------------------
    def _products_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise x * y of intp index arrays, broadcast together."""
        raise NotImplementedError

    def _inverses_of(self, x: np.ndarray) -> np.ndarray:
        """Elementwise inverse of an intp index array."""
        raise NotImplementedError

    def element_label(self, x: int) -> str:
        raise NotImplementedError

    # -- arithmetic ----------------------------------------------------
    def mul_array(self, x, y) -> np.ndarray:
        """Elementwise x * y of index arrays (or ints), broadcast together."""
        # Both operands go to intp first, so no index can wrap in y's dtype.
        x, y = np.asarray(x, dtype=np.intp), np.asarray(y, dtype=np.intp)
        if self._products is None:
            return self._products_of(x, y).astype(index_dtype(self.order))
        return self._products.take(x * self.order + y)  # entry x * |G| + y holds x * y

    def inv_array(self, x) -> np.ndarray:
        """Elementwise inverse of an index array (or int)."""
        if self._inverses is None:
            x = np.asarray(x, dtype=np.intp)
            return self._inverses_of(x).astype(index_dtype(self.order))
        return self._inverses[x]

    def conj(self, x, g) -> np.ndarray:
        """Elementwise g^-1 x g of index arrays (or ints), broadcast together."""
        if self._products is None:
            return self.mul_array(self.mul_array(self.inv_array(g), x), g)
        if self._conjugates is None:  # built on the first call, kept read-only
            elems = np.arange(self.order)
            left = self._products[self._inverses, elems[:, None]]  # g^-1 x at (x, g)
            self._conjugates = self._products[left, elems]
            self._conjugates.flags.writeable = False
        x, g = np.asarray(x, dtype=np.intp), np.asarray(g, dtype=np.intp)
        return self._conjugates.take(x * self.order + g)  # entry x * |G| + g holds g^-1 x g

    def comm(self, a, b) -> np.ndarray:
        """Elementwise a b a^-1 b^-1 of index arrays (or ints)."""
        inverses = self.mul_array(self.inv_array(a), self.inv_array(b))
        return self.mul_array(self.mul_array(a, b), inverses)

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def orders(self) -> np.ndarray:
        """The order of every element, indexed by element."""
        # Each element not yet back at the identity is multiplied by itself
        # once more per round, so it costs as many products as its order.
        orders = np.zeros(self.order, dtype=np.int64)
        pending = acc = np.arange(self.order, dtype=index_dtype(self.order))
        k = 1
        while pending.size:
            done = acc == self.identity
            orders[pending[done]] = k
            pending, acc = pending[~done], acc[~done]
            acc = self.mul_array(acc, pending)
            k += 1
        return orders

    def element_order(self, x: int) -> int:
        return self.orders.item(x)

    def orders_present(self) -> tuple[int, ...]:
        return tuple(distinct(self.orders).tolist())

    def conjugacy_class(self, x: int) -> frozenset[int]:
        """{g^-1 x g : g in G}: x's class in inner_classes(); {x} when G is abelian."""
        classes = self.inner_classes()
        if classes is None:
            return frozenset([x])
        return frozenset(np.flatnonzero(classes.least == classes.least[x]).tolist())

    def closure(self, gens, start=()) -> np.ndarray:
        """The sorted members of the subgroup that gens generate together with
        start, the members of a subgroup: the one-row case of closures."""
        seen = np.zeros((1, self.order), dtype=bool)
        seen[0, self.identity] = True
        seen[0, np.asarray(start, dtype=np.intp)] = True
        self.closures(seen, np.asarray(gens, dtype=np.intp)[None, :], self.order)
        return seen[0].nonzero()[0].astype(index_dtype(self.order))

    def closures(self, seen: np.ndarray, gens: np.ndarray, caps) -> np.ndarray:
        """Grow each row of a (k, |G|) bool matrix, in place, to its members
        times every product of its row of a (k, m) generator array, which is
        the subgroup those generate when the members lie in it (Seress,
        Permutation Group Algorithms, section 4.1), and return each row's
        member count. The rows grow one layer per round: every element a row
        reached in the last round times each of its generators, one
        mul_array. A row whose count passes its cap (an int or one per row)
        stops there (Lagrange stop: a caller that knows no subgroup between
        the cap and G can hold the row reads it as G)."""
        n = self.order
        flat = seen.reshape(-1)
        counts = np.count_nonzero(seen, axis=1)
        frontier = np.flatnonzero(flat)  # row * |G| + element
        while frontier.size:
            row = frontier // n
            reached = self.mul_array((frontier - row * n)[:, None], gens[row]) + (row * n)[:, None]
            reached = reached.ravel()
            frontier = distinct(reached[~flat[reached]])
            flat[frontier] = True
            counts += np.bincount(frontier // n, minlength=len(seen))
            frontier = frontier[(counts <= caps)[frontier // n]]
        return counts

    def generates(self, gens) -> bool:
        return len(self.closure(gens)) == self.order

    def generating_tuple(self) -> tuple[int, ...]:
        """A short generating tuple of G, searched once and kept. Inn(G), the
        conjugacy classes and the center are all read from it."""
        if self._generating_tuple is None:
            self._generating_tuple = self._search_generating_tuple()
        return self._generating_tuple

    def _search_generating_tuple(self) -> tuple[int, ...]:
        """The first generating tuple of the least size d in index order, for
        d <= 3 while there are at most 100,000 d-subsets; past that, a greedy
        tuple. G is cyclic iff some element has order |G|, and the first pick
        of the greedy loop is the first element of greatest order (the largest
        closure of one element), so both are read off the element orders.
        The candidates of each step are joined together, in chunks of
        _chunk_rows, through the group's subgroup_joins table, the one that
        enumeration reads next."""
        n = self.order
        if n == 1:
            return ()
        if self.orders.max() == n:
            return (int(np.argmax(self.orders)),)
        joins = self.subgroup_joins()
        elems = [x for x in self.elements() if x != self.identity]
        for d in (2, 3):
            if math.comb(len(elems), d) > 100_000:
                break
            combos = combinations(elems, d)
            for rows in self._chunk_rows():
                chunk = np.array(list(islice(combos, rows)), dtype=np.intp).reshape(-1, d)
                if not chunk.size:
                    break
                whole = np.flatnonzero(joins.generates(chunk))
                if whole.size:
                    return tuple(chunk[whole[0]].tolist())
        # Greedy fallback: always terminates, possibly non-minimal.
        gens = [int(np.argmax(self.orders))]
        h = joins.join(np.zeros(1, dtype=np.intp), np.array(gens)).item()
        while joins.orders[h] < n:
            outside = np.flatnonzero(joins.table[h] != h)
            best, best_h, at = None, h, 0
            for rows in self._chunk_rows():
                chunk = outside[at : at + rows]
                at += rows
                got = joins.join(np.full(len(chunk), h), chunk)
                i = int(np.argmax(joins.orders[got]))
                if joins.orders[got[i]] > joins.orders[best_h]:  # the first x of the largest join
                    best, best_h = int(chunk[i]), got[i].item()
                if joins.orders[best_h] == n or at >= len(outside):
                    break
            gens.append(best)
            h = best_h
        return tuple(gens)

    def _chunk_rows(self):
        """Row counts 1, 2, 4, ... for the searches, up to a 32nd of
        CLOSURE_CELLS // |G|: the rows of a chunk past its first generating
        one are wasted, and each grows to about half of G before it stops.
        From Sym:7 (order 5040) up a chunk is one row, which beat any larger
        chunk there; below, chunks cut the search 2-7x against one row."""
        rows, most = 1, max(1, CLOSURE_CELLS // 32 // self.order)
        while True:
            yield min(rows, most)
            rows *= 2

    def subgroup_joins(self) -> SubgroupJoins:
        """The table of subgroup joins <H, x>, built on first use and kept."""
        if self._joins is None:
            self._joins = SubgroupJoins(self)
        return self._joins

    def inner_classes(self) -> InnerClasses | None:
        """The conjugacy tables of InnerClasses, built on first use and kept;
        None for an abelian group, where every Inn(G) class is one tuple."""
        if self._inner_classes is None and len(self.center()) < self.order:
            self._inner_classes = InnerClasses(self)
        return self._inner_classes

    def center(self) -> tuple[int, ...]:
        """The elements that commute with each member of the generating tuple,
        one gather comparison per generator."""
        if self._center is None:
            elems = np.arange(self.order)
            gens = np.array(self.generating_tuple(), dtype=np.intp)[:, None]
            commutes = self.mul_array(elems, gens) == self.mul_array(gens, elems)
            self._center = tuple(np.flatnonzero(commutes.all(axis=0)).tolist())
        return self._center

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} order={self.order}>"


class SubgroupJoins:
    """Ids of the subgroups of one group that tuples of its elements generate.

    Id 0 is the trivial subgroup. Each subgroup keeps its members (a sorted
    index array), its order and a short generating tuple; the ids of the
    joins <H, y> are kept in a dense table, filled on demand as generates
    folds join over the columns of finished systems. The group keeps one
    (Group.subgroup_joins), so every enumeration of its systems reuses the
    joins of the ones before. One join call finds its pending joins
    together, in rounds of CLOSURE_CELLS // |G| keys (H, y), without
    listing any <H, y> element by element:

    * Lagrange shortcut: |<H, y>| is a multiple of lcm(|H|, ord y) that
      divides |G| and exceeds |H|. The largest such divisor below |G| is the
      key's cap; when there is none, the join is G and takes no closure.
    * Layered closure: each other key of a round is one row of
      Group.closures, started from the members of H and y, with the
      generators of H plus y. A row whose count passes its cap is G and
      stops growing.
    * Coset fills: <H, a y^j> = <H, y^j a> = <H, y> for every a in H and
      every j prime to ord(y), since y is then a power of y^j. So each
      closed key fills the row of H on the cosets H y^j and y^j H of every
      generator y^j of <y>, which answers most keys of later rounds, and a
      new subgroup K fills its own row on K with its id.
    """

    def __init__(self, G: Group) -> None:
        self.G = G
        n = G.order
        self.divisors = np.array([d for d in range(1, n) if n % d == 0], dtype=np.int64)
        self.members: list[np.ndarray] = []
        self.gens: list[tuple[int, ...]] = []
        self.ids: dict[bytes, int] = {}
        self.orders = np.zeros(1, dtype=np.int64)
        self.table = np.full((1, n), -1, dtype=np.int32)
        self._subgroup(np.array([G.identity], dtype=index_dtype(n)), ())

    def join(self, ids: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The id of <H, x> for each subgroup id H and element x."""
        got = self.table[ids, x]
        todo = got < 0
        if todo.any():
            n = self.G.order
            keys = distinct(ids[todo].astype(np.int64) * n + x[todo])
            rows = max(1, CLOSURE_CELLS // n)
            while True:
                keys = keys[self.table[keys // n, keys % n] < 0]  # not filled by earlier rounds
                if not keys.size:
                    break
                self._close(keys[:rows] // n, keys[:rows] % n)
                keys = keys[rows:]
            got = self.table[ids, x]
        return got

    def caps(self, h: np.ndarray, y: np.ndarray) -> np.ndarray:
        """For each key (H, y), the largest divisor of |G| below |G| that
        exceeds |H| and is a multiple of lcm(|H|, ord y); 0 if there is none."""
        order = self.orders[h][:, None]
        step = np.lcm(order, self.G.orders[y][:, None])
        fits = (self.divisors > order) & (self.divisors % step == 0)
        return np.where(fits, self.divisors, 0).max(axis=1, initial=0)

    def _close(self, h: np.ndarray, y: np.ndarray) -> None:
        """Find <H, y> for each key (y not in H) and write it to the table."""
        caps = self.caps(h, y)
        got = np.empty(len(h), dtype=np.int32)
        shortcut = caps == 0
        if shortcut.any():
            n, i = self.G.order, shortcut.argmax()
            whole = np.arange(n, dtype=index_dtype(n))
            got[shortcut] = self._subgroup(whole, self.gens[h[i]] + (y.item(i),))
        if not shortcut.all():
            closed = ~shortcut
            got[closed] = self._closed_joins(h[closed], y[closed], caps[closed])
        self.table[h, y] = got

    def _closed_joins(self, h: np.ndarray, y: np.ndarray, caps: np.ndarray) -> np.ndarray:
        """The ids of <H, y> by one layered closure of all the keys, each
        distinct member row added once; then the row of H is filled on H y^j
        and y^j H for every j prime to ord(y), one pair of mul_array calls
        per j over the members of all the keys."""
        G = self.G
        n = G.order
        seen = self.table[h] == h[:, None]
        key, member = np.nonzero(seen)  # every key's members of H
        seen[np.arange(len(h)), y] = True
        gens = [self.gens[i] + (j,) for i, j in zip(h.tolist(), y.tolist())]
        width = max(map(len, gens))
        padded = np.array([g + (G.identity,) * (width - len(g)) for g in gens], dtype=np.intp)
        whole = G.closures(seen, padded, caps) > caps
        packed = np.packbits(seen, axis=1)
        got = np.empty(len(h), dtype=np.int32)
        found: dict[bytes | None, int] = {}  # None stands for G
        for i, g in enumerate(gens):
            row = None if whole[i] else packed[i].tobytes()
            if row not in found:
                members = np.arange(n) if whole[i] else np.flatnonzero(seen[i])
                found[row] = self._subgroup(members.astype(index_dtype(n)), g)
            got[i] = found[row]
        orders = G.orders[y]
        power = y
        for j in range(1, int(orders.max())):
            live = ((j < orders) & (np.gcd(j, orders) == 1))[key]
            at, a = key[live], member[live]
            self.table[h[at], G.mul_array(a, power[at])] = got[at]
            self.table[h[at], G.mul_array(power[at], a)] = got[at]
            power = G.mul_array(power, y)
        return got

    def _subgroup(self, members: np.ndarray, gens: tuple[int, ...]) -> int:
        """The id of the subgroup with these sorted members, added if new."""
        key = members.tobytes()
        got = self.ids.get(key)
        if got is None:
            got = len(self.gens)
            self.ids[key] = got
            self.members.append(members)
            self.gens.append(gens)
            if got == len(self.table):
                self.table = np.concatenate([self.table, np.full_like(self.table, -1)])
                self.orders = np.concatenate([self.orders, np.zeros_like(self.orders)])
            self.orders[got] = len(members)
            self.table[got, members] = got
        return got

    def generates(self, rows: np.ndarray) -> np.ndarray:
        """Whether each row of a 2-D index array generates the whole group."""
        ids = np.zeros(len(rows), dtype=np.int32)
        for x in rows.T:
            ids = self.join(ids, x)
        return self.orders[ids] == self.G.order


class InnerClasses:
    """Least members of Inn(G) classes of element tuples, for a non-abelian G.

    Its walk over the conjugacy classes is the group's only one. Per
    element x it keeps least[x], the least member of the conjugacy class of
    x, and conjugator[x], an element g with g^-1 x g = least[x] (Group.conj).
    The centralizer C(c) of each class minimum c is the slice of
    centralizers (sorted members, all centralizers end to end) that starts
    at centralizer_at[c] and holds centralizer_order[c] elements. Every
    conjugate of a tuple (x1, ..., xk) whose lead entry is c = least[x1] is
    the conjugate of (x1, ..., xk)^conjugator[x1] by an element of C(c), so
    the least conjugate of the tuple is the least of those |C(c)|.
    """

    def __init__(self, G: Group) -> None:
        self.G = G
        n = G.order
        elems = np.arange(n)
        gens = np.array(G.generating_tuple(), dtype=np.intp)
        least = np.full(n, -1, dtype=np.int64)
        reach = np.empty(n, dtype=index_dtype(n))  # h with h^-1 least[x] h = x
        for c in range(n):  # each class is walked from its least member
            if least[c] >= 0:
                continue
            least[c], reach[c] = c, G.identity
            frontier = np.array([c])
            while frontier.size:
                z = G.conj(frontier[:, None], gens).ravel()
                h = G.mul_array(reach[frontier][:, None], gens).ravel()
                z, first = np.unique(z, return_index=True)
                new = least[z] < 0
                frontier = z[new]
                least[frontier], reach[frontier] = c, h[first[new]]
        self.least = least.astype(reach.dtype)
        self.conjugator = G.inv_array(reach)
        minima = distinct(least)
        members = [np.flatnonzero(G.mul_array(c, elems) == G.mul_array(elems, c)) for c in minima]
        sizes = np.array([len(m) for m in members])
        self.centralizers = np.concatenate(members)
        self.centralizer_order = np.zeros(n, dtype=np.int64)
        self.centralizer_order[minima] = sizes
        self.centralizer_at = np.zeros(n, dtype=np.int64)
        self.centralizer_at[minima] = np.cumsum(sizes) - sizes

    def least_conjugates(self, rows: np.ndarray) -> np.ndarray:
        """The lexicographically least conjugate of each row of a 2-D index array.

        Each row is paired with every element c of its lead's class
        minimum's centralizer, as the conjugator g = t c, where t is the
        lead's conjugator: one product per pair. The columns of the input
        rows are read in turn: a pair stays while its conjugate ties with
        the least value of its row in every column read. Conjugates by one
        coset of Z(G) are equal, so the rows are decided once |Z(G)| pairs
        per row are left, and each row is conjugated once, by its chosen g.
        Rows go in chunks of about 2^18 pairs.
        """
        if not rows.size:
            return rows.copy()
        G = self.G
        out = np.empty(rows.shape, dtype=index_dtype(G.order))
        lead = self.least[rows[:, 0]]
        conjugator = self.conjugator[rows[:, 0]]
        central = len(G.center())
        pairs = self.centralizer_order[lead]
        ends = np.cumsum(pairs)
        cuts = distinct(np.searchsorted(ends, np.arange(0, ends[-1], 1 << 18), side="right"))
        for lo, hi in zip(cuts.tolist(), cuts[1:].tolist() + [len(out)]):
            block = rows[lo:hi]
            count = pairs[lo:hi]
            row = np.repeat(np.arange(hi - lo), count)
            first = np.cumsum(count) - count  # the first pair of each row
            start = np.repeat(self.centralizer_at[lead[lo:hi]] - first, count)
            g = G.mul_array(conjugator[lo:hi][row], self.centralizers[np.arange(len(row)) + start])
            for col in block[:, 1:].T:
                if len(row) == (hi - lo) * central:
                    break
                value = G.conj(col[row], g)
                keep = value == np.minimum.reduceat(value, first)[row]
                first = (np.cumsum(keep) - keep)[first]  # each row keeps a pair
                row, g = row[keep], g[keep]
            out[lo:hi] = G.conj(block, g[first][:, None])
        if (out[:, 0] != lead).any():
            raise AssertionError(f"a conjugator of {G.name} misses its class minimum")
        return out


class AbelianGroup(Group):
    """Direct product of cyclic groups, normalized to the divisor chain."""

    backend = "abelian"

    def __init__(self, moduli) -> None:
        moduli = tuple(int(m) for m in moduli)
        for m in moduli:
            if m < 1:
                raise UserInputError(f"modulus {m} invalid: must be >= 1")
        self.moduli = invariant_factors(moduli)
        self.order = math.prod(self.moduli) if self.moduli else 1
        self.identity = 0
        self.name = "Zn:" + (",".join(str(m) for m in self.moduli) or "1")
        t = len(self.moduli)
        strides = [1] * t
        for i in range(t - 2, -1, -1):
            strides[i] = strides[i + 1] * self.moduli[i + 1]
        self._strides = tuple(strides)
        super().__init__()

    @property
    def rank(self) -> int:
        """Minimal number of generators d(G)."""
        return len(self.moduli)

    def encode(self, vec) -> int:
        idx = 0
        for x, m, s in zip(vec, self.moduli, self._strides):
            idx += (x % m) * s
        return idx

    def vector(self, x: int) -> tuple[int, ...]:
        return tuple(x // s % m for m, s in zip(self.moduli, self._strides))

    # Digit i of index x is x // strides[i] mod moduli[i]: the digits above it
    # add multiples of moduli[i] to x // strides[i], so sums need no decoding.
    def _products_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.intp)
        for m, s in zip(self.moduli, self._strides):
            out += (x // s + y // s) % m * s
        return out

    def _inverses_of(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for m, s in zip(self.moduli, self._strides):
            out += -(x // s) % m * s
        return out

    def element_label(self, x: int) -> str:
        return "(" + ",".join(str(a) for a in self.vector(x)) + ")"

    @cached_property
    def orders(self) -> np.ndarray:
        # The order of a vector is the lcm over coordinates of m / gcd(m, a).
        moduli = np.array(self.moduli, dtype=np.int64)
        V = np.arange(self.order)[:, None] // np.array(self._strides, dtype=np.int64) % moduli
        return np.lcm.reduce(moduli // np.gcd(moduli, V), axis=1, initial=1)

    def _search_generating_tuple(self) -> tuple[int, ...]:
        return self._strides  # the unit vector e_i encodes to strides[i]


def cycle_notation(perm: tuple[int, ...]) -> str:
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        parts.append("(" + " ".join(str(k) for k in cyc) + ")")
    return "".join(parts) or "()"


class PermutationGroup(Group):
    """Full symmetric or alternating group on degree points.

    Permutations compose left-to-right: (x*y)(i) = y(x(i)). Row x of the
    (order, degree) image array is the image tuple of x. The rows are sorted,
    so their base-degree keys are too, and a permutation is found among them
    by a search of its key.
    """

    backend = "permutation"

    def __init__(self, kind: str, degree: int) -> None:
        if kind not in ("Sym", "Alt"):
            raise UserInputError(f"unknown permutation group kind {kind!r}")
        if degree < 1:
            raise UserInputError(f"degree {degree} invalid: must be >= 1")
        if degree > MAX_PERM_DEGREE:
            raise UserInputError(
                f"degree {degree} too large: permutation backend supports <= {MAX_PERM_DEGREE}"
            )
        self.kind = kind
        self.degree = degree
        # itertools lists the permutations in lexicographic order
        images = np.array(list(permutations(range(degree))), dtype=np.int8).reshape(-1, degree)
        if kind == "Alt":  # the even ones: an even number of inversions
            i, j = np.triu_indices(degree, 1)
            images = images[np.count_nonzero(images[:, i] > images[:, j], axis=1) % 2 == 0]
        self.images = images
        self._place = degree ** np.arange(degree - 1, -1, -1)
        self._keys = self.images @ self._place
        self.order = len(self.images)
        self.name = f"{kind}:{degree}"
        self.identity = self.index_of(tuple(range(degree)))
        super().__init__()

    def perm(self, x: int) -> tuple[int, ...]:
        return tuple(self.images[x].tolist())

    def indices_of(self, images: np.ndarray) -> np.ndarray:
        """The index of each member of G, given as a row of an (..., degree)
        array of images."""
        return np.searchsorted(self._keys, images @ self._place)

    def index_of(self, perm: tuple[int, ...]) -> int:
        if sorted(perm) == list(range(self.degree)):
            x = self.indices_of(np.array(perm)).item()
            if x < self.order and self.perm(x) == tuple(perm):
                return x
        raise UserInputError(f"permutation {perm} not in {self.name}")

    def _products_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # (x*y)(i) = y(x(i)): one gather of the image rows of y at the images of x
        return self.indices_of(self.images[y[..., None], self.images[x]])

    def _inverses_of(self, x: np.ndarray) -> np.ndarray:
        return self.indices_of(np.argsort(self.images[x], axis=-1))

    def element_label(self, x: int) -> str:
        return cycle_notation(self.perm(x))


class CayleyGroup(Group):
    """Group given by an explicit multiplication table document.

    Document fields: order (int), labels (list of unique strings), table
    (order x order list of 0-based indices, row = left factor). The four
    group axioms are validated at load; violations raise UserInputError
    naming the first violated axiom.
    """

    backend = "cayley"

    def __init__(self, doc: dict, source: str = "<memory>") -> None:
        self.source = source
        order, labels, table = self._validate(doc, source)
        self.order = order
        self.labels = labels
        self.identity = self._find_identity(table, order, source)
        self._check_inverses(table, order, self.identity, source)
        self._table = np.array(table, dtype=index_dtype(order))
        self._check_associativity(self._table, order, source)
        canon = json.dumps(
            {"order": order, "labels": labels, "table": table},
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
        self.name = f"cayley:{digest}"
        super().__init__()

    @staticmethod
    def _validate(doc: dict, source: str):
        if not isinstance(doc, dict):
            raise UserInputError(f"{source}: cayley document must be an object")
        for key in ("order", "labels", "table"):
            if key not in doc:
                raise UserInputError(f"{source}: cayley document missing field {key!r}")
        order = doc["order"]
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise UserInputError(f"{source}: order must be a positive integer, not {order!r}")
        if order > TABLE_LIMIT:  # products are read from the table only
            raise UserInputError(f"{source}: order {order} exceeds limit {TABLE_LIMIT}")
        labels = doc["labels"]
        if (
            not isinstance(labels, list)
            or len(labels) != order
            or not all(isinstance(s, str) for s in labels)
            or len(set(labels)) != order
        ):
            raise UserInputError(f"{source}: labels must be {order} unique strings")
        table = doc["table"]
        if not isinstance(table, list) or len(table) != order:
            raise UserInputError(
                f"{source}: cayley table violates group axiom: closure (table must be {order}x{order})"
            )
        for i, row in enumerate(table):
            if not isinstance(row, list) or len(row) != order:
                raise UserInputError(
                    f"{source}: cayley table violates group axiom: closure (row {i} has wrong length)"
                )
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
                    raise UserInputError(
                        f"{source}: cayley table violates group axiom: closure "
                        f"(entry [{i}][{j}] = {v!r} not an index in 0..{order - 1})"
                    )
        return order, list(labels), [list(row) for row in table]

    @staticmethod
    def _find_identity(table, order, source) -> int:
        for e in range(order):
            if all(table[e][x] == x and table[x][e] == x for x in range(order)):
                return e
        raise UserInputError(f"{source}: cayley table violates group axiom: identity")

    @staticmethod
    def _check_inverses(table, order, e, source) -> None:
        for x in range(order):
            if e not in table[x]:
                raise UserInputError(
                    f"{source}: cayley table violates group axiom: inverses (no right inverse for {x})"
                )
            if not any(table[y][x] == e for y in range(order)):
                raise UserInputError(
                    f"{source}: cayley table violates group axiom: inverses (no left inverse for {x})"
                )

    @staticmethod
    def _check_associativity(table, order, source) -> None:
        for z in range(order):
            col = table[:, z]
            left = col[table]        # (x*y)*z
            right = table[:, col]    # x*(y*z)
            if not np.array_equal(left, right):
                bad = np.argwhere(left != right)[0]
                x, y = int(bad[0]), int(bad[1])
                raise UserInputError(
                    f"{source}: cayley table violates group axiom: associativity "
                    f"(({x}*{y})*{z} != {x}*({y}*{z}))"
                )

    @classmethod
    def from_path(cls, path: str | Path) -> "CayleyGroup":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise UserInputError(f"cannot read cayley file {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UserInputError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        return cls(doc, source=str(path))

    def _products_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._table[x, y]  # the validated document table

    def element_label(self, x: int) -> str:
        return self.labels[x]


def construct_group(spec: str) -> Group:
    """Parse a group spec: Zn:<n1>,<n2>,... | Sym:<n> | Alt:<n> | cayley:<path>."""
    if not isinstance(spec, str) or ":" not in spec:
        raise UserInputError(
            f"bad group spec {spec!r}: expected Zn:<n1>,..., Sym:<n>, Alt:<n>, or cayley:<path>"
        )
    head, _, rest = spec.partition(":")
    if head == "Zn":
        parts = rest.split(",")
        moduli = []
        for pos, tok in enumerate(parts, start=1):
            tok = tok.strip()
            if not tok.isdigit():
                raise UserInputError(
                    f"bad group spec {spec!r}: modulus #{pos} ({tok!r}) is not a positive integer"
                )
            moduli.append(int(tok))
        return AbelianGroup(moduli)
    if head in ("Sym", "Alt"):
        tok = rest.strip()
        if not tok.isdigit():
            raise UserInputError(f"bad group spec {spec!r}: degree {tok!r} is not a positive integer")
        return PermutationGroup(head, int(tok))
    if head == "cayley":
        return CayleyGroup.from_path(rest)
    raise UserInputError(f"bad group spec {spec!r}: unknown backend {head!r}")

