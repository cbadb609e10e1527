"""Signature types, generator systems, Sigma sets, and surface invariants.

A system of generators is a flat sequence of element indices
(a1, b1, ..., ag', bg', c1, ..., cr) subject to the long relation
c1...cr * prod_k [a_k, b_k] = identity. A system is only ever a row of
ints: enumerate_systems returns all systems of a type (or the least
member of each Inn(G) class, or only the class-sorted systems) as one
2-D array with a system per row, built with numpy gathers on the group's
table, a block of leads at a time, and tested for generation once per
finished row by the group's subgroup joins, and long_relation_value /
long_relation_holds evaluate every row of such an array at once; so does
sigma_masks, one bool row over G per system for its Sigma set. Two
systems are disjoint when their Sigma sets meet only in the identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UserInputError
from .groups import Group, distinct, index_dtype

BLOCK_ROWS = 1 << 14  # rows per enumerate_systems block: as many leads as fit


@dataclass(frozen=True)
class SignatureType:
    """Type (g' | m1,...,mr): quotient-curve genus plus branching orders."""

    gprime: int
    periods: tuple[int, ...]

    def __post_init__(self):
        if self.gprime < 0:
            raise UserInputError(f"type {self}: g' must be >= 0")
        object.__setattr__(self, "periods", tuple(int(m) for m in self.periods))
        for m in self.periods:
            if m < 2:
                raise UserInputError(f"type {self}: period {m} invalid, must be >= 2")

    @property
    def r(self) -> int:
        return len(self.periods)

    def canonical(self) -> tuple[int, tuple[int, ...]]:
        return (self.gprime, tuple(sorted(self.periods)))

    def with_sorted_periods(self) -> "SignatureType":
        """The same unordered type with its periods in ascending order."""
        return SignatureType(self.gprime, tuple(sorted(self.periods)))

    def orderings(self) -> list[tuple[int, ...]]:
        """Distinct orderings of the period multiset, lexicographically: next
        permutation from the ascending order, so each is built once."""
        p = sorted(self.periods)
        out = [tuple(p)]
        while True:
            i = len(p) - 2
            while i >= 0 and p[i] >= p[i + 1]:
                i -= 1
            if i < 0:
                return out
            j = len(p) - 1
            while p[j] <= p[i]:
                j -= 1
            p[i], p[j] = p[j], p[i]
            p[i + 1 :] = reversed(p[i + 1 :])
            out.append(tuple(p))

    def __str__(self) -> str:
        return f"{self.gprime}|" + ",".join(str(m) for m in self.periods)

    @staticmethod
    def parse(text: str) -> "SignatureType":
        if "|" not in text:
            raise UserInputError(
                f"bad type spec {text!r}: expected \"<gprime>|<m1>,<m2>,...\" (e.g. \"0|5,5,5\", \"2|\")"
            )
        left, _, right = text.partition("|")
        left = left.strip()
        if not left.isdigit():
            raise UserInputError(f"bad type spec {text!r}: g' part {left!r} is not a non-negative integer")
        right = right.strip()
        if not right:
            return SignatureType(int(left), ())
        periods = []
        for pos, tok in enumerate(right.split(","), start=1):
            tok = tok.strip()
            if not tok.isdigit():
                raise UserInputError(
                    f"bad type spec {text!r}: period #{pos} ({tok!r}) is not a positive integer"
                )
            periods.append(int(tok))
        return SignatureType(int(left), tuple(periods))


def long_relation_value(G: Group, gprime: int, rows: np.ndarray) -> np.ndarray:
    """c1...cr * prod_k [a_k, b_k] of every row of a 2-D system array, one
    element per row; each must equal the identity."""
    acc = np.full(len(rows), G.identity, dtype=index_dtype(G.order))
    for c in rows[:, 2 * gprime :].T:
        acc = G.mul_array(acc, c)
    for k in range(gprime):
        acc = G.mul_array(acc, G.comm(rows[:, 2 * k], rows[:, 2 * k + 1]))
    return acc


def long_relation_holds(G: Group, gprime: int, rows: np.ndarray) -> np.ndarray:
    """Whether each row of a 2-D system array satisfies the long relation."""
    return long_relation_value(G, gprime, rows) == G.identity


def _free_slots(G: Group, tau: SignatureType, inn_classes: bool) -> list[np.ndarray]:
    """The values of each free entry (a1, b1, ..., ag', bg', c1, ..., c_{r-1}):
    every element for a handle entry, the elements of its period's order for
    a branch entry. With inn_classes, for a non-abelian G, the lead (first)
    entry takes only the least member of each conjugacy class."""
    elems = np.arange(G.order, dtype=index_dtype(G.order))
    gp, r = tau.gprime, tau.r
    slots = [elems] * (2 * gp) + [elems[G.orders == m] for m in tau.periods[: max(r - 1, 0)]]
    classes = G.inner_classes() if inn_classes and slots else None
    if classes is not None:
        slots[0] = slots[0][classes.least[slots[0]] == slots[0]]
    return slots


def candidate_tuples(G: Group, tau: SignatureType, inn_classes: bool = False) -> int:
    """How many tuples enumerate_systems(G, tau, inn_classes) expands before
    filtering: the product of the sizes of the free entries' value sets (the
    last branch entry is solved from the long relation)."""
    return math.prod(len(values) for values in _free_slots(G, tau, inn_classes))


def enumerate_systems(
    G: Group, tau: SignatureType, inn_classes: bool = False, class_sorted: bool = False
) -> np.ndarray:
    """Every system of exact (ordered) type tau, one per row, lexicographically;
    with inn_classes, only the least member of each Inn(G) class; with
    class_sorted, only the class-sorted systems (Group.class_keys).

    Free entries (a1, b1, ..., ag', bg', c1, ..., c_{r-1}) are expanded one
    slot at a time, in blocks of as many consecutive leading-slot values as
    fit in BLOCK_ROWS rows (every lead expands as many), so memory stays
    near one block. Each row carries only its entries and the running
    product K = prod_k [a_k, b_k] times c1 ... c_j. The last branch entry
    is solved from the long relation as (K c1 ... c_{r-1})^-1 and filtered
    on its order; for r = 0 the relation K = 1 is checked instead. With
    class_sorted, a prefix is dropped as soon as a branch entry's key falls
    below the one before it, and the solved entry is filtered the same way.
    Of the finished rows, one SubgroupJoins.generates call keeps those that
    generate G, so no join is closed for a prefix that the filters discard.

    With inn_classes and G non-abelian, the lead takes only conjugacy-class
    minima c (every Inn class has members with lead c, and they are the
    conjugates by C(c)), and a generating row is kept when it is its own
    least conjugate. Inn(G) acts freely on generating systems, so the C(c)
    orbits of the generating rows with lead c all have |C(c)|/|Z(G)| rows,
    |C(c)| = |G| over the size of the class of c, counted in
    InnerClasses.least; a lead whose count disagrees raises AssertionError.
    Conjugation keeps each entry's class, so class sorting keeps whole Inn
    classes and the count holds on the class-sorted rows too.
    """
    gp, r = tau.gprime, tau.r
    dtype = index_dtype(G.order)
    orders = G.orders
    keys = G.class_keys if class_sorted else None
    slots = _free_slots(G, tau, inn_classes)
    classes = G.inner_classes() if inn_classes else None
    joins = G.subgroup_joins()
    step = max(1, BLOCK_ROWS // max(1, math.prod(len(values) for values in slots[1:])))
    blocks = [np.zeros((0, 2 * gp + r), dtype=dtype)]
    for start in range(0, len(slots[0]) if slots else 1, step):
        rows = np.zeros((1, 0), dtype=dtype)
        acc = np.full(1, G.identity, dtype=dtype)
        for level, values in enumerate(slots):
            if level == 0:
                values = values[start : start + step]
            rows = np.concatenate(
                [np.repeat(rows, len(values), axis=0), np.tile(values, len(rows))[:, None]],
                axis=1,
            )
            acc = np.repeat(acc, len(values))
            if keys is not None and level > 2 * gp:
                keep = keys[rows[:, level]] >= keys[rows[:, level - 1]]
                if not keep.all():
                    rows, acc = rows[keep], acc[keep]
            x = rows[:, level]
            if level >= 2 * gp:
                acc = G.mul_array(acc, x)
            elif level % 2:
                acc = G.mul_array(acc, G.comm(rows[:, level - 1], x))
        if r:
            last = G.inv_array(acc)
            keep = orders[last] == tau.periods[-1]
            if keys is not None and r > 1:
                keep &= keys[last] >= keys[rows[:, -1]]
            rows = np.concatenate([rows[keep], last[keep, None]], axis=1)
        else:
            rows = rows[acc == G.identity]
        rows = rows[joins.generates(rows)]
        if classes is not None and len(rows):
            found = np.bincount(rows[:, 0], minlength=G.order)
            rows = rows[(classes.least_conjugates(rows) == rows).all(axis=1)]
            kept = np.bincount(rows[:, 0], minlength=G.order)
            class_size = np.bincount(classes.least, minlength=G.order)
            for c in np.flatnonzero(found).tolist():
                size = G.order // class_size[c] // len(G.center())
                if found[c] != kept[c] * size:
                    raise AssertionError(
                        f"{found[c]} systems of {G.name} {tau} with lead {c} do not split "
                        f"into {kept[c]} orbits of {size} under C({c})"
                    )
        blocks.append(rows)
    return np.concatenate(blocks)


def sigma_masks(G: Group, gprime: int, systems) -> np.ndarray:
    """Bool matrix (rows, |G|) marking Sigma(V) of each row V of a 2-D system
    array, the identity included: the cyclic subgroups of the conjugates of
    its branch entries, as (g^-1 c g)^k = g^-1 c^k g. Each conjugacy class
    among the entries gets one row, the union of <y> over its members y
    (InnerClasses.least; one element each in an abelian G), by one mul_array
    per power over every class's members at once; a system's row ORs its
    entries' class rows, one gather per branch column."""
    branch = np.asarray(systems, dtype=np.intp)[:, 2 * gprime :]
    classes = G.inner_classes()
    least = np.arange(G.order) if classes is None else classes.least
    keys = distinct(least[branch])
    members = np.flatnonzero(np.isin(least, keys))
    row, power = np.searchsorted(keys, least[members]), members
    table = np.zeros((len(keys), G.order), dtype=bool)
    while members.size:
        table[row, power] = True
        live = power != G.identity
        members, row, power = members[live], row[live], power[live]
        power = G.mul_array(power, members)
    out = np.zeros((len(branch), G.order), dtype=bool)
    out[:, G.identity] = True
    for col in branch.T:
        out |= table[np.searchsorted(keys, least[col])]
    return out


def curve_genus(group_order: int, tau: SignatureType) -> Fraction:
    """g with 2g - 2 = |G| (2g' - 2 + sum(1 - 1/m_i)), exact."""
    s = sum(Fraction(1) - Fraction(1, m) for m in tau.periods)
    return 1 + Fraction(group_order, 2) * (2 * tau.gprime - 2 + s)


def rh_admissible(group_order: int, tau: SignatureType) -> tuple[bool, Fraction]:
    """Whether the covering-curve genus is an integer >= 2, plus the genus."""
    g = curve_genus(group_order, tau)
    return (g.denominator == 1 and g >= 2), g


@dataclass(frozen=True)
class SurfaceInvariants:
    g1: int
    g2: int
    chi: Fraction
    ksq: Fraction
    e: Fraction
    q: int
    pg: Fraction
    mu1: Fraction | None
    mu2: Fraction | None

    def to_json_dict(self) -> dict:
        return {k: v if v is None else fraction_to_json(v) for k, v in vars(self).items()}


def fraction_to_json(fr: Fraction):
    """Exact rendering: integer when integral, else the string 'num/den'."""
    if fr.denominator == 1:
        return int(fr)
    return f"{fr.numerator}/{fr.denominator}"


def surface_invariants(
    group_order: int, tau1: SignatureType, tau2: SignatureType
) -> SurfaceInvariants:
    genera = []
    for tau in (tau1, tau2):
        ok, g = rh_admissible(group_order, tau)
        if not ok:
            raise UserInputError(
                f"type {tau} not admissible for order {group_order}: genus {g} must be an integer >= 2"
            )
        genera.append(int(g))
    g1, g2 = genera
    chi = Fraction((g1 - 1) * (g2 - 1), group_order)
    q = tau1.gprime + tau2.gprime
    mus = []
    for tau in (tau1, tau2):
        if tau.r == 3 and tau.gprime == 0:
            mus.append(sum(Fraction(1, m) for m in tau.periods))
        else:
            mus.append(None)
    return SurfaceInvariants(
        g1=g1,
        g2=g2,
        chi=chi,
        ksq=8 * chi,
        e=4 * chi,
        q=q,
        pg=chi - 1 + q,
        mu1=mus[0],
        mu2=mus[1],
    )


def is_beauville(tau1: SignatureType, tau2: SignatureType) -> bool:
    return tau1.gprime == 0 and tau2.gprime == 0 and tau1.r == 3 and tau2.r == 3


def period_multisets_with_angle_sum(allowed_orders, target: Fraction) -> list[tuple[int, ...]]:
    """Non-decreasing period tuples m_i >= 2 from allowed_orders with
    sum(1 - 1/m_i) equal to target exactly, in lexicographic order.

    Scaled by L, the lcm of the allowed orders, each term is the integer
    L - L/m and the target is target * L; a target * L that is not an
    integer has no tuple."""
    allowed = sorted({m for m in allowed_orders if m >= 2})
    scale = math.lcm(*allowed)
    terms = [scale - scale // m for m in allowed]  # ascending, as the m are
    total = Fraction(target) * scale
    out: list[tuple[int, ...]] = []

    def rec(start_idx: int, remaining: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for i in range(start_idx, len(allowed)):
            if terms[i] > remaining:
                break
            rec(i, remaining - terms[i], acc + (allowed[i],))

    if total.denominator == 1 and total >= 0:
        rec(0, int(total), ())
    return out
