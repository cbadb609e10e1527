from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hurwitz_components import abelian
from hurwitz_components.abelian import (
    SIX_RENORMALIZERS,
    AbelianProfile,
    _achievable_counts,
    _PrimaryGroup,
    admits_unmixed_abelian,
    brute_force_admits,
    n_count,
    quadruple_classes,
    quadruple_count,
    quadruple_valid_mask,
    sandwich_bounds,
    theta,
    theta_is_integral,
    theta_parts,
)
from hurwitz_components.errors import BudgetExceeded, UserInputError
from hurwitz_components.groups import AbelianGroup

KNOWN_THETA = {
    5: Fraction(1),
    7: Fraction(7),
    11: Fraction(701, 9),
    13: Fraction(538, 3),
    25: Fraction(225),
    35: Fraction(132),
}

KNOWN_N = {5: 24, 7: 360, 11: 5040, 13: 11880, 25: 15000, 35: 8640}


@pytest.mark.parametrize("n", sorted(KNOWN_THETA))
def test_theta_known_values(n):
    assert theta(n) == KNOWN_THETA[n]
    assert theta_is_integral(n) == (KNOWN_THETA[n].denominator == 1)


@pytest.mark.parametrize("n", sorted(KNOWN_N))
def test_n_count_closed_form_vs_enumeration(n):
    assert n_count(n) == KNOWN_N[n]
    assert quadruple_count(n) == KNOWN_N[n]


def test_theta_parts_recombine():
    for n in (5, 7, 11, 25, 35, 49):
        t1, t2, t3, t4 = theta_parts(n)
        assert (t1 + 4 * t2 + 6 * t3 + 12 * t4) / 72 == theta(n)


def test_sandwich_bounds_frame_theta_when_integral():
    for n in (5, 7, 25, 35):
        lo, hi = sandwich_bounds(n)
        assert lo == Fraction(n_count(n), 72)
        assert hi == Fraction(n_count(n), 6)
        assert lo <= theta(n) <= hi


@pytest.mark.parametrize("n", [4, 6, 10, 15, 21, 1])
def test_theta_rejects_bad_modulus(n):
    with pytest.raises(UserInputError):
        theta(n)
    with pytest.raises(UserInputError):
        quadruple_count(n)


def test_quadruple_classes_match_enumerated_components():
    # class counts at the first four valid moduli, and the two composite
    # moduli where the closed form is integral
    expected = {5: 1, 7: 7, 11: 79, 13: 178}
    for n, h in expected.items():
        count, sizes = quadruple_classes(n)
        assert count == h
        assert sum(sizes) == n_count(n)
        assert sizes == sorted(sizes, reverse=True)


def test_quadruple_class_count_equals_theta_at_composite_moduli():
    for n in (25, 35):
        count, sizes = quadruple_classes(n)
        assert count == theta(n)
        assert sum(sizes) == n_count(n)


def _bfs_quadruple_classes(n: int, swap: bool = True) -> tuple[int, list[int]]:
    """The class count by a breadth-first search over a set of packed ids,
    one quadruple at a time: the reference the array routine is pinned to.
    swap=False drops the side swap from the symmetry."""
    valid = set(np.flatnonzero(quadruple_valid_mask(n)).tolist())

    def mat_apply(m, x):
        return ((m[0][0] * x[0] + m[0][1] * x[1]) % n, (m[1][0] * x[0] + m[1][1] * x[1]) % n)

    def unpack(q):
        d = q % n
        q //= n
        c = q % n
        q //= n
        b = q % n
        return q // n, b, c, d

    def pack(a, b, c, d):
        return ((a * n + b) * n + c) * n + d

    def neighbors(q):
        a, b, c, d = unpack(q)
        out = [pack(c, d, a, b), pack(a, b, (-a - c) % n, (-b - d) % n)]
        for m in SIX_RENORMALIZERS:
            out.append(pack(*mat_apply(m, (a, b)), *mat_apply(m, (c, d))))
        if swap:
            det_inv = pow((a * d - b * c) % n, -1, n)
            out.append(
                pack((det_inv * d) % n, (-det_inv * b) % n, (-det_inv * c) % n, (det_inv * a) % n)
            )
        return out

    seen: set[int] = set()
    sizes = []
    for seed in sorted(valid):
        if seed in seen:
            continue
        seen.add(seed)
        frontier, size = [seed], 0
        while frontier:
            size += len(frontier)
            nxt = []
            for q in frontier:
                for nb in neighbors(q):
                    if nb not in seen:
                        assert nb in valid, "symmetry image is not a valid quadruple"
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        sizes.append(size)
    return len(sizes), sorted(sizes, reverse=True)


@pytest.mark.parametrize("n", [5, 7, 11, 13, 17, 19, 25, 35])
def test_quadruple_classes_match_the_breadth_first_search(n):
    assert quadruple_classes(n) == _bfs_quadruple_classes(n)


@pytest.mark.parametrize("n, without_swap", [(7, 12), (11, 150)])
def test_the_breadth_first_search_without_the_swap_differs(n, without_swap):
    # the control for the pin above: the swap is the one image whose loss
    # changes the classes, so a search that drops it must disagree
    count, _ = _bfs_quadruple_classes(n, swap=False)
    assert count == without_swap != quadruple_classes(n)[0]


def _renormalizer_matrices() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Derive the residual matrices from first principles.

    Normalizing the first system to the standard triple (e1, e2, -e1-e2)
    leaves the choices of ordered basis pair from that triple; the matrix
    sending a chosen pair back to (e1, e2) is the inverse of its column
    matrix. There are exactly six.
    """
    e1, e2 = (1, 0), (0, 1)
    e3 = (-1, -1)
    triple = [e1, e2, e3]
    out = []
    for u, v in itertools.permutations(triple, 2):
        col = ((u[0], v[0]), (u[1], v[1]))
        det = col[0][0] * col[1][1] - col[0][1] * col[1][0]
        if det not in (1, -1):
            continue
        inv_det = det  # det is +-1 so it is its own inverse
        adj = ((col[1][1], -col[0][1]), (-col[1][0], col[0][0]))
        m = tuple(tuple(inv_det * adj[i][j] for j in range(2)) for i in range(2))
        out.append(m)
    return out


def test_renormalizers_derived_from_triple_permutations():
    assert set(_renormalizer_matrices()) == set(SIX_RENORMALIZERS)
    assert len(SIX_RENORMALIZERS) == 6


def test_profile_conventions():
    prof = AbelianProfile((2, 6, 6))
    assert prof.t == 3
    assert prof.n(0) == 1 and prof.n(-2) == 1
    assert prof.n(3) == 6
    assert prof.l(0, 2) == 0
    assert prof.l(3, 3) == 1
    assert prof.l(1, 2) == 1


CRITERION_ANCHORS = [
    ((5,), 3, 3, False),
    ((5, 5), 3, 3, True),
    ((5, 5), 5, 4, True),
    ((3, 3), 3, 3, False),
    ((3, 3), 4, 4, True),
    ((2, 2, 2), 5, 5, False),
    ((2, 2, 2, 2), 5, 5, True),
    ((3, 3, 3, 3), 5, 5, True),
    ((6, 6), 3, 3, False),
    ((6, 6), 5, 5, False),
    ((2, 2, 4), 5, 5, False),
    ((4, 4), 4, 4, False),
    ((4, 4), 5, 5, False),
    ((2, 4), 5, 5, False),
]


@pytest.mark.parametrize("chain,r1,r2,want", CRITERION_ANCHORS)
def test_admits_criterion_anchors(chain, r1, r2, want):
    assert admits_unmixed_abelian(AbelianProfile(chain), r1, r2).admits is want


@pytest.mark.parametrize("chain,r1,r2,want", CRITERION_ANCHORS)
def test_brute_force_matches_anchors(chain, r1, r2, want):
    assert brute_force_admits(chain, r1, r2) is want


def test_admits_report_names_failing_clause():
    rep = admits_unmixed_abelian(AbelianProfile((5,)), 3, 3)
    assert not rep.admits
    failing = [c["clause"] for c in rep.clauses if not c["holds"]]
    assert "n_t = n_{t-1}" in failing
    doc = rep.to_json_dict()
    assert set(doc) == {"admits", "clauses"}


def test_admits_requires_reasonable_sizes():
    with pytest.raises(UserInputError):
        admits_unmixed_abelian(AbelianProfile((5, 5)), 2, 3)
    with pytest.raises(UserInputError):
        brute_force_admits((5, 5), 3, 2)


def test_trivial_group_never_admits():
    assert not admits_unmixed_abelian(AbelianProfile(()), 3, 3).admits
    assert not brute_force_admits((1, 1), 4, 4)


def test_brute_force_budget_guard():
    # a rank-4 part at p = 2 alongside another prime exceeds the split budget
    with pytest.raises(BudgetExceeded):
        brute_force_admits((2, 2, 2, 2, 3, 3, 3, 3), 5, 5)


def test_criterion_profile_from_group_normalizes():
    prof = AbelianProfile.from_group(AbelianGroup([3, 2, 2, 3]))
    assert prof.chain == (6, 6)


def test_criterion_vs_search_random_sample(rng):
    # moderate seeded sweep; the exhaustive sweep runs in the acceptance suite
    pool = [
        (2, 2), (2, 4), (3, 3), (5, 5), (7, 7), (2, 2, 2), (2, 2, 4),
        (2, 4, 4), (3, 3, 3), (2, 2, 2, 2), (2, 6, 6), (10, 10), (2, 2, 6),
        (3, 3, 9), (4, 8), (2, 8), (9, 9), (5, 25), (2, 2, 8), (6, 6),
    ]
    for chain in rng.sample(pool, 12):
        prof = AbelianProfile.from_group(AbelianGroup(list(chain)))
        for r1, r2 in ((3, 3), (4, 5), (5, 5)):
            want = brute_force_admits(chain, r1, r2)
            got = admits_unmixed_abelian(prof, r1, r2).admits
            assert want == got, (chain, r1, r2)


def test_rank_six_is_refused_before_any_search(monkeypatch):
    # rank 6 > r - 1: no p-group is built, so neither are the 2,825 subspaces of F_2^6
    monkeypatch.setattr(abelian, "_PrimaryGroup", lambda p, chain: pytest.fail("built a p-group"))
    assert brute_force_admits((2,) * 6, 5, 5) is False


# -- the reachable-state DP against the depth-first search it replaced ------


def _ref_mod_p_reduce(basis, v, p):
    row = list(v)
    for pc, br in basis:
        if row[pc] % p:
            f = (row[pc] * pow(br[pc], -1, p)) % p
            row = [(a - f * b) % p for a, b in zip(row, br)]
    piv = next((i for i, a in enumerate(row) if a % p), None)
    if piv is None:
        return None
    return basis + [(piv, row)]


def _ref_suffix_sums(gp, elems, r):
    # sums[pos][k]: totals of k entries drawn non-decreasingly from elems[pos:]
    sums = [[set() for _ in range(r + 1)] for _ in range(len(elems) + 1)]
    for pos in range(len(elems) + 1):
        sums[pos][0].add(gp.zero)
    for pos in range(len(elems) - 1, -1, -1):
        for k in range(1, r + 1):
            acc = set(sums[pos + 1][k])
            for s in sums[pos][k - 1]:
                acc.add(gp.add(s, elems[pos]))
            sums[pos][k] = acc
    return sums


def _ref_has_system(gp, allowed_atoms, r):
    """Depth-first search over non-decreasing r-tuples, pruned by suffix sums
    and by the rank still reachable."""
    elems = [v for v in gp.nonzero if gp.atom_of[v] in allowed_atoms]
    if not elems or not gp.spans(elems):
        return False
    p = gp.p
    sums = _ref_suffix_sums(gp, elems, r)
    reduced = [[x % p for x in v] for v in elems]

    def dfs(pos, count, total, basis):
        left = r - count
        if left == 0:
            return total == gp.zero and len(basis) == gp.rank
        if len(basis) + left < gp.rank:
            return False
        need = tuple((-x) % q for x, q in zip(total, gp.chain))
        if need not in sums[pos][left]:
            return False
        for i in range(pos, len(elems)):
            ext = _ref_mod_p_reduce(basis, reduced[i], p)
            if dfs(i, count + 1, gp.add(total, elems[i]), ext if ext else basis):
                return True
        return False

    return dfs(0, 0, gp.zero, [])


# Every primary group criterion 5's loop searches (rank 2-4, order <= 100),
# except (4, 4, 4), where the reference search alone takes half a minute.
SEARCHED_PRIMARY = [
    (2, 2), (2, 4), (2, 8), (2, 16), (2, 32), (4, 4), (4, 8), (4, 16), (8, 8),
    (3, 3), (3, 9), (3, 27), (9, 9), (5, 5), (7, 7),
    (2, 2, 2), (2, 2, 4), (2, 2, 8), (2, 2, 16), (2, 4, 4), (2, 4, 8), (3, 3, 3), (3, 3, 9),
    (2, 2, 2, 2), (2, 2, 2, 4), (2, 2, 2, 8), (2, 2, 4, 4), (3, 3, 3, 3),
]


def test_achievable_counts_match_reference_search():
    rng = random.Random(20261018)
    outcomes = set()
    for chain in SEARCHED_PRIMARY:
        gp = _PrimaryGroup(next(p for p in (2, 3, 5, 7) if chain[0] % p == 0), chain)
        atoms = list(range(gp.atom_count))
        atom_sets = [frozenset(atoms)] + [
            frozenset(rng.sample(atoms, rng.randint(gp.rank, max(gp.rank, gp.atom_count // 2)))) for _ in range(2)
        ]
        for r in (3, 4, 5):
            if gp.rank > r - 1:
                continue
            for allowed in atom_sets:
                want = _ref_has_system(gp, allowed, r)
                assert (r in _achievable_counts(gp, allowed, r)) == want, (chain, sorted(allowed), r)
                outcomes.add(want)
    assert outcomes == {True, False}
