"""Hurwitz moves on generator systems.

Implements the mapping-class-group action on systems
(a1, b1, ..., ag', bg', c1, ..., cr): braid half-twists sigma_h on the
branch entries, Dehn twists delta_j / delta~_j / tau_k on the hyperbolic
entries, and the xi-twists linking both. Every move is an invertible
transformation preserving the long relation, the unordered type,
generation, and the Sigma set.

Move ids are addressable as strings: "sigma:1", "delta:2", "delta~:1",
"tau:1", "xi1:1,3", "xi2:2,1", with suffix "'" for the inverse direction.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import UserInputError
from .groups import Group
from .ramification import SignatureType, long_relation_holds

_KINDS = ("sigma", "delta", "delta~", "tau", "xi1", "xi2")


def _seq(G: Group, items) -> int:
    """The product of items, evaluated left to right."""
    acc = G.identity
    for x in items:
        acc = G.mul(acc, x)
    return acc


@dataclass(frozen=True)
class MoveID:
    kind: str
    i: int
    d: int | None = None
    inverse: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UserInputError(f"unknown move kind {self.kind!r}")
        if (self.kind in ("xi1", "xi2")) != (self.d is not None):
            raise UserInputError(f"move {self.kind} index arity wrong")

    def inverted(self) -> "MoveID":
        return replace(self, inverse=not self.inverse)

    def __str__(self) -> str:
        idx = f"{self.i},{self.d}" if self.d is not None else str(self.i)
        return f"{self.kind}:{idx}" + ("'" if self.inverse else "")

    @staticmethod
    def parse(text: str) -> "MoveID":
        s = text.strip()
        inverse = s.endswith("'")
        if inverse:
            s = s[:-1]
        if ":" not in s:
            raise UserInputError(f"bad move id {text!r}: expected kind:index")
        kind, _, idx = s.partition(":")
        if kind not in _KINDS:
            raise UserInputError(f"bad move id {text!r}: unknown kind {kind!r}")
        parts = [p.strip() for p in idx.split(",")]
        if kind in ("xi1", "xi2"):
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise UserInputError(f"bad move id {text!r}: expected {kind}:<j>,<d>")
            return MoveID(kind, int(parts[0]), int(parts[1]), inverse)
        if len(parts) != 1 or not parts[0].isdigit():
            raise UserInputError(f"bad move id {text!r}: expected {kind}:<index>")
        return MoveID(kind, int(parts[0]), None, inverse)


def available_moves(gprime: int, r: int) -> list[MoveID]:
    """The forward mapping-class-group generators for systems of shape (g', r).

    Each move permutes a finite set of systems, so its inverse is one of its
    powers and adds no orbit; the inverses stay addressable via inverted().
    """
    if gprime == 0 and r == 0:
        raise UserInputError("no moves defined for the degenerate shape (g', r) = (0, 0)")
    if gprime == 0:
        return [MoveID("sigma", h) for h in range(1, r)]
    if (gprime, r) == (1, 1):
        return [MoveID("delta", 1), MoveID("delta~", 1)]
    moves = [MoveID("delta", j) for j in range(1, gprime + 1)]
    moves += [MoveID("delta~", j) for j in range(1, gprime + 1)]
    moves += [MoveID("tau", k) for k in range(1, gprime)]
    moves += [MoveID("sigma", h) for h in range(1, r)]
    moves += [MoveID("xi1", j, d) for j in range(1, gprime + 1) for d in range(1, r + 1)]
    moves += [MoveID("xi2", j, d) for j in range(1, gprime + 1) for d in range(1, r + 1)]
    return moves


def _check_range(cond: bool, move: MoveID, gprime: int, r: int) -> None:
    if not cond:
        raise UserInputError(f"move {move} out of range for shape (g', r) = ({gprime}, {r})")


def _transport(G: Group, gprime: int, entries, j: int, d: int) -> int:
    """V = (c_{d+1} ... c_r) * prod_{k<j} [a_k, b_k]."""
    items = list(entries[2 * gprime + d : ])
    for k in range(j - 1):
        items.append(G.comm(entries[2 * k], entries[2 * k + 1]))
    return _seq(G, items)


def apply_move(G: Group, gprime: int, entries: tuple[int, ...], move: MoveID) -> tuple[int, ...]:
    r = len(entries) - 2 * gprime
    out = list(entries)
    kind, inv = move.kind, move.inverse

    if kind == "sigma":
        h = move.i
        _check_range(1 <= h <= r - 1, move, gprime, r)
        p = 2 * gprime + (h - 1)
        x, y = entries[p], entries[p + 1]
        if not inv:
            out[p] = y
            out[p + 1] = _seq(G, [G.inv(y), x, y])
        else:
            out[p] = _seq(G, [x, y, G.inv(x)])
            out[p + 1] = x
        return tuple(out)

    if kind == "delta":
        j = move.i
        _check_range(1 <= j <= gprime, move, gprime, r)
        a, b = entries[2 * (j - 1)], entries[2 * (j - 1) + 1]
        out[2 * (j - 1)] = _seq(G, [a, G.inv(b)]) if not inv else _seq(G, [a, b])
        return tuple(out)

    if kind == "delta~":
        j = move.i
        _check_range(1 <= j <= gprime, move, gprime, r)
        a, b = entries[2 * (j - 1)], entries[2 * (j - 1) + 1]
        out[2 * (j - 1) + 1] = _seq(G, [b, a]) if not inv else _seq(G, [b, G.inv(a)])
        return tuple(out)

    if kind == "tau":
        k = move.i
        _check_range(1 <= k <= gprime - 1, move, gprime, r)
        ia, ib = 2 * (k - 1), 2 * (k - 1) + 1
        ia1, ib1 = 2 * k, 2 * k + 1
        a_k, b_k = entries[ia], entries[ib]
        a_k1, b_k1 = entries[ia1], entries[ib1]
        eta = _seq(G, [G.inv(b_k), a_k1, b_k1, G.inv(a_k1)])
        if not inv:
            out[ia] = _seq(G, [a_k, G.inv(eta)])
            out[ib] = _seq(G, [eta, b_k, G.inv(eta)])
            out[ia1] = _seq(G, [eta, a_k1])
        else:
            # eta is invariant under the forward move, so it can be read
            # off the current entries to run the closed-form inverse.
            out[ia] = _seq(G, [a_k, eta])
            out[ib] = _seq(G, [G.inv(eta), b_k, eta])
            out[ia1] = _seq(G, [G.inv(eta), a_k1])
        return tuple(out)

    if kind in ("xi1", "xi2"):
        j, d = move.i, move.d
        _check_range(1 <= j <= gprime and 1 <= d <= r, move, gprime, r)
        ia, ib = 2 * (j - 1), 2 * (j - 1) + 1
        ic = 2 * gprime + (d - 1)
        a, b, cd = entries[ia], entries[ib], entries[ic]
        v = _transport(G, gprime, entries, j, d)
        vinv = G.inv(v)
        if kind == "xi1":
            if not inv:
                chi = _seq(G, [vinv, cd, v])
                eps = _seq(G, [cd, v, a, b, G.inv(a), vinv])
                out[ia] = _seq(G, [chi, a])
                out[ic] = _seq(G, [eps, cd, G.inv(eps)])
            else:
                w = _seq(G, [v, a, b, G.inv(a), vinv])
                cd_old = _seq(G, [G.inv(w), cd, w])
                chi = _seq(G, [vinv, cd_old, v])
                out[ia] = _seq(G, [G.inv(chi), a])
                out[ic] = cd_old
        else:
            if not inv:
                chi = _seq(G, [vinv, cd, v])
                eps_prime = _seq(G, [cd, v, G.comm(a, b), G.inv(a), vinv])
                out[ib] = _seq(G, [G.inv(a), chi, a, b])
                out[ic] = _seq(G, [eps_prime, cd, G.inv(eps_prime)])
            else:
                m = _seq(G, [v, G.comm(a, b), G.inv(a), vinv])
                cd_old = _seq(G, [G.inv(m), cd, m])
                chi = _seq(G, [vinv, cd_old, v])
                out[ib] = _seq(G, [G.inv(a), G.inv(chi), a, b])
                out[ic] = cd_old
        return tuple(out)

    raise UserInputError(f"unknown move kind {kind!r}")


def apply_word(G: Group, gprime: int, entries: tuple[int, ...], word) -> tuple[int, ...]:
    for m in word:
        entries = apply_move(G, gprime, entries, m)
    return entries


def convention_self_check(G: Group, gprime: int, r: int, samples) -> None:
    """Assert that every move and its inverse keep the long relation on the samples.

    samples: iterable of entry tuples already satisfying the long relation.
    Raises AssertionError on the first violation.
    """
    if (gprime, r) == (0, 0):
        return
    moves = available_moves(gprime, r)
    moves += [m.inverted() for m in moves]
    for entries in samples:
        for m in moves:
            if not long_relation_holds(G, gprime, apply_move(G, gprime, entries, m)):
                raise AssertionError(
                    f"move {m} breaks the long relation on {G.name} system {entries}"
                )
