"""Closed-form counts and existence tests for abelian groups.

Three independent routes live here:

* theta(n): the exact rational formula predicting the component count for
  (Z/n)^2 with triple type (n,n,n), gcd(n,6) = 1;
* quadruple machinery: the normalized parameter space (a,b,c,d) with its
  residual symmetry, giving a direct class count as the groups._components
  of the symmetry's maps on quadruple ids (the orbit routine of the engine);
* existence: the five-clause divisor-chain criterion, cross-checked by a
  from-scratch searcher over atom footprints.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, UserInputError
from .groups import AbelianGroup, _components, prime_factorization


# ---------------------------------------------------------------------------
# closed-form counting for G = (Z/n)^2, type (0 | n,n,n), gcd(n,6) = 1


def _require_beauville_modulus(n: int) -> None:
    if n < 5 or math.gcd(n, 6) != 1:
        raise UserInputError(f"modulus must be >= 5 and coprime to 6, got {n}")


def n_count(n: int) -> int:
    """Closed form for the number of valid quadruples mod n."""
    _require_beauville_modulus(n)
    total = 1
    for p, k in prime_factorization(n).items():
        total *= p ** (4 * k - 4) * (p - 1) * (p - 2) * (p - 3) * (p - 4)
    return total


def quadruple_valid_mask(n: int) -> np.ndarray:
    """Boolean mask over all (a,b,c,d) in (Z/n)^4, flattened C-order."""
    _require_beauville_modulus(n)
    v = np.arange(n, dtype=np.int64)
    unit = np.gcd(v, n) == 1
    a = v[:, None, None, None]
    b = v[None, :, None, None]
    c = v[None, None, :, None]
    d = v[None, None, None, :]
    ok = (
        unit[a]
        & unit[b]
        & unit[c]
        & unit[d]
        & unit[(a - b) % n]
        & unit[(a + c) % n]
        & unit[(c - d) % n]
        & unit[(b + d) % n]
        & unit[(a + c - b - d) % n]
        & unit[(a * d - b * c) % n]
    )
    return ok.reshape(-1)


def quadruple_count(n: int) -> int:
    """Enumerative count of valid quadruples; must equal n_count(n)."""
    return int(quadruple_valid_mask(n).sum())


def theta_parts(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four summands of the closed-form count, as exact rationals."""
    _require_beauville_modulus(n)
    fac = prime_factorization(n)
    t1 = Fraction(n**4)
    for p in fac:
        t1 *= Fraction(p - 1, p) * Fraction(p - 2, p) * Fraction(p - 3, p) * Fraction(p - 4, p)
    t2 = Fraction(1)
    t3 = Fraction(1)
    t4 = Fraction(1)
    for p, k in fac.items():
        pe2 = Fraction(p ** (2 * k))
        if p % 4 == 1:
            t2 *= pe2 * Fraction(p - 1, p) * Fraction(p - 2, p)
        else:
            t2 *= pe2 * Fraction(p - 1, p) * Fraction(p - 4, p)
        t3 *= pe2 * Fraction(p - 3, p) * Fraction(p - 5, p)
        t4 *= Fraction(0) if p % 3 == 2 else Fraction(2)
    return t1, t2, t3, t4


def theta(n: int) -> Fraction:
    """Predicted component count for ((Z/n)^2; (n,n,n), (n,n,n))."""
    t1, t2, t3, t4 = theta_parts(n)
    return (t1 + 4 * t2 + 6 * t3 + 12 * t4) / 72


def theta_is_integral(n: int) -> bool:
    return theta(n).denominator == 1


def sandwich_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Lower and upper bounds N/72 <= h <= N/6."""
    N = n_count(n)
    return Fraction(N, 72), Fraction(N, 6)


# ---------------------------------------------------------------------------
# quadruple classes: the residual symmetry on normalized pairs

SIX_RENORMALIZERS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((-1, 0), (-1, 1)),
    ((1, -1), (0, -1)),
    ((-1, 1), (-1, 0)),
    ((0, -1), (1, -1)),
)


def quadruple_classes(n: int) -> tuple[int, list[int]]:
    """Class count and class sizes of valid quadruples under the residual
    symmetry: column permutations, the six renormalizers, and the side swap.

    A quadruple is its C-order id in (Z/n)^4. Each symmetry maps the valid
    ids to an array of image ids, built one map at a time (all nine at once
    double the peak memory) and located among the valid ids by one
    searchsorted; the classes are the _components of those maps."""
    ids = np.flatnonzero(quadruple_valid_mask(n))
    a, b, c, d = (ids // n**k % n for k in (3, 2, 1, 0))

    def pack(w, x, y, z):
        return ((w % n * n + x % n) * n + y % n) * n + z % n

    def images():
        # column transpositions generating the S3 on (x1, x2, x3 = -x1-x2)
        yield pack(c, d, a, b)
        yield pack(a, b, -a - c, -b - d)
        # renormalizers act on both columns simultaneously
        for (p, q), (r, s) in SIX_RENORMALIZERS:
            yield pack(p * a + q * b, r * a + s * b, p * c + q * d, r * c + s * d)
        # swap: the inverse matrix carries the standard triple to the other side
        inverse = np.array([pow(u, -1, n) if math.gcd(u, n) == 1 else 0 for u in range(n)])
        det_inv = inverse[(a * d - b * c) % n]
        yield pack(det_inv * d, -det_inv * b, -det_inv * c, det_inv * a)

    def locate(img):
        at = np.minimum(np.searchsorted(ids, img), len(ids) - 1)
        if (ids[at] != img).any():
            raise AssertionError("symmetry image is not a valid quadruple")
        return at

    sizes = np.bincount(_components(len(ids), map(locate, images())))
    sizes = np.sort(sizes[sizes > 0])[::-1]
    return len(sizes), sizes.tolist()


# ---------------------------------------------------------------------------
# existence criterion: five clauses on the invariant-factor chain


@dataclass
class AbelianProfile:
    """Invariant factors d_1 | d_2 | ... | d_t with the out-of-range
    conventions n_i = 1 and l_i(p) = 0 for i <= 0."""

    chain: tuple[int, ...]

    @classmethod
    def from_group(cls, G: AbelianGroup) -> AbelianProfile:
        return cls(tuple(m for m in G.moduli if m > 1))

    @property
    def t(self) -> int:
        return len(self.chain)

    def n(self, i: int) -> int:
        if i < 1:
            return 1
        return self.chain[i - 1]

    def l(self, i: int, p: int) -> int:
        n = self.n(i)
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v


@dataclass
class AdmitsReport:
    admits: bool
    clauses: list[dict]

    def to_json_dict(self) -> dict:
        return {"admits": self.admits, "clauses": self.clauses}


def admits_unmixed_abelian(profile: AbelianProfile, r1: int, r2: int) -> AdmitsReport:
    """Five-clause test: does the group admit an unmixed pair of sizes (r1, r2)?"""
    if r1 < 3 or r2 < 3:
        raise UserInputError("both sizes must be at least 3")
    t = profile.t
    clauses: list[dict] = []

    def add(name: str, holds: bool) -> bool:
        clauses.append({"clause": name, "holds": holds})
        return holds

    ok = add("group is nontrivial", t >= 1)
    ok &= add("r1,r2 >= t+1", r1 >= t + 1 and r2 >= t + 1)
    ok &= add("n_t = n_{t-1}", profile.n(t) == profile.n(t - 1))
    three_binds = profile.l(t - 1, 3) > profile.l(t - 2, 3)
    ok &= add(
        "if l_{t-1}(3) > l_{t-2}(3) then r1,r2 >= 4",
        (not three_binds) or (r1 >= 4 and r2 >= 4),
    )
    ok &= add("l_{t-1}(2) = l_{t-2}(2)", profile.l(t - 1, 2) == profile.l(t - 2, 2))
    two_binds = profile.l(t - 2, 2) > profile.l(t - 3, 2)
    ok &= add(
        "if l_{t-2}(2) > l_{t-3}(2) then r1,r2 >= 5 and not both odd",
        (not two_binds) or (r1 >= 5 and r2 >= 5 and not (r1 % 2 == 1 and r2 % 2 == 1)),
    )
    return AdmitsReport(bool(ok), clauses)


# ---------------------------------------------------------------------------
# from-scratch existence search (the oracle for the criterion above)
#
# Reductions used, all elementary:
#   * a length-r system has r nonzero entries with zero sum; its span equals
#     the span of the first r-1 entries, so each side needs rank <= r_i - 1;
#   * Sigma sets of abelian systems are unions of cyclic subgroups, and two
#     subgroups meet trivially iff they share no prime-order subgroup (atom);
#   * everything splits over the primary decomposition, with slot coverage
#     requiring the per-prime nonzero-entry counts to sum to at least r;
#   * a p-group is generated exactly when the mod-p images span its Frattini
#     quotient F_p^rank, and a multiset's sum and span do not depend on the
#     order of its entries. So which entry counts k admit a system is one
#     reachable-state DP over (sum, span) pairs (_achievable_counts), with
#     no search tree.

BRUTE_FORCE_SUBSET_LIMIT = 2_000_000
MULTI_PRIME_ATOM_LIMIT = 12


def _primary_chains(chain: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {}
    for m in chain:
        for p, k in prime_factorization(m).items():
            out.setdefault(p, []).append(p**k)
    return {p: tuple(sorted(v)) for p, v in out.items()}


def _ravel(coords: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Indices, in itertools.product order, of coordinate rows (last axis)."""
    return np.ravel_multi_index(tuple(np.moveaxis(coords, -1, 0)), dims)


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Gaussian elimination rank over F_p."""
    rows = [r[:] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(a * inv) % p for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


class _PrimaryGroup:
    """A p-group Z/q_1 x ... x Z/q_s with atom bookkeeping.

    Elements are indexed in itertools.product order, so the zero is 0. The
    DP tables are built on first use, per instance.
    """

    def __init__(self, p: int, chain: tuple[int, ...]):
        self.p = p
        self.chain = chain
        self.rank = len(chain)
        self.order = math.prod(chain)
        self.elements = list(itertools.product(*[range(q) for q in chain]))
        self.zero = tuple(0 for _ in chain)
        self.atom_of: dict[tuple[int, ...], int] = {}
        atoms: dict[tuple[int, ...], int] = {}
        for v in self.elements:
            if v == self.zero:
                continue
            o = self._order(v)
            a = tuple((x * (o // p)) % q for x, q in zip(v, chain))
            canon = min(
                tuple((k * x) % q for x, q in zip(a, chain)) for k in range(1, p)
            )
            if canon not in atoms:
                atoms[canon] = len(atoms)
            self.atom_of[v] = atoms[canon]
        self.atom_count = len(atoms)
        self.nonzero = [v for v in self.elements if v != self.zero]
        # atoms[i] is the atom of elements[i]; the zero gets atom_count
        self.atoms = np.array([self.atom_of.get(v, self.atom_count) for v in self.elements])

    def _order(self, v: tuple[int, ...]) -> int:
        return math.lcm(*[q // math.gcd(x, q) for x, q in zip(v, self.chain)]) if any(v) else 1

    def add(self, a, b):
        return tuple((x + y) % q for x, y, q in zip(a, b, self.chain))

    def spans(self, vs) -> bool:
        # generation of an abelian p-group is exactly spanning its Frattini
        # quotient, which is coordinatewise reduction mod p
        return _rank_mod_p([[x % self.p for x in v] for v in vs], self.p) == self.rank

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        """add_table[i, j] is the index of elements[i] + elements[j]."""
        coords = np.array(self.elements)
        return _ravel((coords[:, None] + coords[None]) % self.chain, self.chain)

    @functools.cached_property
    def span_tables(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(join, reduce, full) over the subspaces of F_p^rank, by index, with
        0 the zero subspace: join[V, w] is the index of V + <w> for each
        vector w, reduce[i] the vector of elements[i] mod p, and full the
        index of the whole space."""
        p, dims = self.p, (self.p,) * self.rank
        vecs = np.array(list(itertools.product(range(p), repeat=self.rank)))
        n = len(vecs)
        vsum = _ravel((vecs[:, None] + vecs[None]) % p, dims)
        lines = _ravel((np.arange(p)[:, None, None] * vecs[None]) % p, dims)
        index: dict[bytes, int] = {}
        members: list[np.ndarray] = []

        def intern(mask: np.ndarray) -> int:
            key = mask.tobytes()
            if key not in index:
                index[key] = len(members)
                members.append(np.flatnonzero(mask))
            return index[key]

        intern(np.arange(n) == 0)
        join = []
        while len(join) < len(members):
            # V + <w> = {v + c w}: one membership row per vector w
            masks = np.zeros((n, n), dtype=bool)
            masks[np.arange(n), vsum[members[len(join)][:, None, None], lines]] = True
            join.append([intern(mask) for mask in masks])
        return np.array(join), _ravel(np.array(self.elements) % p, dims), index[np.ones(n, bool).tobytes()]


def _achievable_counts(
    gp: _PrimaryGroup, allowed_atoms: frozenset[int], r_max: int
) -> frozenset[int]:
    """Which k <= r_max admit k nonzero entries with atoms inside
    allowed_atoms, zero sum, spanning the whole p-group.

    S_k, the (sum, span of the mod-p images) pairs of k-entry multisets, is
    {(s + e, span + <e mod p>) : (s, span) in S_{k-1}, e allowed}, from
    S_0 = {(0, 0)}; k is achievable iff (0, whole space) lies in S_k. A
    pair is held as sum * (number of subspaces) + span.
    """
    join, reduce, full = gp.span_tables
    allowed = np.zeros(gp.atom_count + 1, dtype=bool)
    allowed[list(allowed_atoms)] = True
    elems = np.flatnonzero(allowed[gp.atoms])
    n_spans = len(join)
    next_sum = gp.add_table[:, elems] * n_spans
    next_span = join[:, reduce[elems]]
    reached = np.zeros(gp.order * n_spans, dtype=bool)
    reached[0] = True
    out = []
    for k in range(1, r_max + 1):
        s, span = np.divmod(np.flatnonzero(reached), n_spans)
        reached = np.zeros_like(reached)
        reached[next_sum[s] + next_span[span]] = True
        if reached[full]:
            out.append(k)
    return frozenset(out)


def _quick_yes(gp: _PrimaryGroup, r1: int, r2: int) -> bool:
    """Constructive attempt: build side-1 systems around spanning tuples and
    check the complementary atoms support a side-2 system. Only ever
    returns a sound True."""
    atoms = frozenset(range(gp.atom_count))
    tried: set[frozenset[int]] = set()
    # spanning tuples: the coordinate generators plus lexicographic variants
    units = []
    for i in range(gp.rank):
        v = [0] * gp.rank
        v[i] = 1
        units.append(tuple(v))
    candidates = [tuple(units)]
    for v in gp.nonzero[:40]:
        alt = list(units)
        alt[-1] = v
        if gp.spans(alt):
            candidates.append(tuple(alt))
    for base in candidates:
        for pad in gp.nonzero[:20]:
            entries = list(base) + [pad] * (r1 - 1 - len(base))
            if len(entries) != r1 - 1:
                continue
            total = gp.zero
            for v in entries:
                total = gp.add(total, v)
            last = tuple((-x) % q for x, q in zip(total, gp.chain))
            if last == gp.zero:
                continue
            entries.append(last)
            fp = frozenset(gp.atom_of[v] for v in entries)
            if fp in tried:
                continue
            tried.add(fp)
            if len(tried) > 60:
                return False
            if r2 in _achievable_counts(gp, atoms - fp, r2):
                return True
    return False


def _single_prime_admits(gp: _PrimaryGroup, r1: int, r2: int) -> bool:
    """Scan minimal feasible footprints by size; the sides pair up iff two of
    them (one per size budget) are disjoint."""
    if _quick_yes(gp, r1, r2) or (r1 != r2 and _quick_yes(gp, r2, r1)):
        return True
    n_subsets = sum(
        math.comb(gp.atom_count, k)
        for k in range(1, min(max(r1, r2), gp.atom_count) + 1)
    )
    if n_subsets > BRUTE_FORCE_SUBSET_LIMIT:
        raise BudgetExceeded(
            f"existence search needs {n_subsets} atom subsets for p = {gp.p}",
            required=n_subsets,
        )
    min1: list[frozenset[int]] = []
    min2: list[frozenset[int]] = min1 if r1 == r2 else []
    passes = ((r1, min1, min2),) if r1 == r2 else ((r1, min1, min2), (r2, min2, min1))
    for size in range(1, min(max(r1, r2), gp.atom_count) + 1):
        for combo in itertools.combinations(range(gp.atom_count), size):
            fs = frozenset(combo)
            for r, mine, other in passes:
                if size > r or any(m <= fs for m in mine):
                    continue
                if r not in _achievable_counts(gp, fs, r):
                    continue
                mine.append(fs)
                if any(not (fs & o) for o in other):
                    return True
    return False


def brute_force_admits(chain: tuple[int, ...], r1: int, r2: int) -> bool:
    """Exhaustive existence search, independent of the five-clause test."""
    if r1 < 3 or r2 < 3:
        raise UserInputError("both sizes must be at least 3")
    chain = tuple(m for m in chain if m > 1)
    if not chain:
        return False
    primary = _primary_chains(chain)
    for pc in primary.values():
        if len(pc) > min(r1, r2) - 1:
            return False
        # a rank-1 primary part is cyclic: its unique minimal subgroup lies
        # inside every generating set's Sigma, so the two sides always collide
        if len(pc) == 1:
            return False
    groups = {p: _PrimaryGroup(p, pc) for p, pc in primary.items()}

    if len(groups) == 1:
        return _single_prime_admits(next(iter(groups.values())), r1, r2)

    # Multiple primes: the surviving groups are tiny, so enumerate every
    # atom split per prime and combine the achievable nonzero-entry counts.
    per_prime: list[set[tuple[int, int]]] = []
    for p, gp in sorted(groups.items()):
        if gp.atom_count > MULTI_PRIME_ATOM_LIMIT:
            raise BudgetExceeded(
                f"existence search over 2^{gp.atom_count} atom splits for p = {p}",
                required=2**gp.atom_count,
            )
        full = 2**gp.atom_count - 1
        subsets = (frozenset(a for a in range(gp.atom_count) if bits >> a & 1) for bits in range(full + 1))
        counts = [_achievable_counts(gp, s, max(r1, r2)) for s in subsets]
        best: set[tuple[int, int]] = set()
        for bits in range(1, full):
            k1 = [k for k in counts[bits] if k <= r1]
            k2 = [k for k in counts[full ^ bits] if k <= r2]
            if k1 and k2:
                best.add((max(k1), max(k2)))
        if not best:
            return False
        per_prime.append(best)

    # slot coverage: per side the nonzero counts must sum to at least r
    for pick in itertools.product(*per_prime):
        if sum(k1 for k1, _ in pick) >= r1 and sum(k2 for _, k2 in pick) >= r2:
            return True
    return False
