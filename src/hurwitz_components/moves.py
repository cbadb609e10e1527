"""Hurwitz moves on generator systems.

Implements the mapping-class-group action on systems
(a1, b1, ..., ag', bg', c1, ..., cr): braid half-twists sigma_h on the
branch entries, Dehn twists delta_j / delta~_j / tau_k on the hyperbolic
entries, and the xi-twists linking both. Every move is an invertible
transformation preserving the long relation, the unordered type,
generation, and the Sigma set.

Move ids print as "sigma:1", "delta:2", "delta~:1", "tau:1", "xi1:1,3",
"xi2:2,1", with suffix "'" for the inverse direction.

apply_move takes a 2-D array with one system per row and returns the
array of images. The move formulas run on whole columns through the
group's numpy gathers (G.mul_array, G.inv_array, G.comm), so a move acts
on every system of a side in one call; one system is a 1-row array.
Each side checks its moves as they act (orbits._checked_move_images).

Two lists of forward moves: available_moves is every generator above, and
generating_moves drops the xi-twists that are words in the kept moves. An
orbit depends only on the group the moves generate. fiber_words builds,
from generating_moves, words of moves that generate the stabilizer of the
ascending ordering of a side's periods; the two-stage side stage
(orbits.side_orbits) acts with them on the systems over that ordering. The
one-stage oracle (orbits._move_maps), verify's move audit and the property
tests keep available_moves on every ordering, so the oracle's agreement
tests both reductions.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import UserInputError
from .groups import Group

_KINDS = ("sigma", "delta", "delta~", "tau", "xi1", "xi2")


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


def generating_moves(gprime: int, r: int) -> list[MoveID]:
    """available_moves without xi1_{j,d} for d >= 2 and without any xi2.

    The dropped twists are words in the kept moves. Read each word left to
    right, as the order of application:

    * xi_{j,d} = (sigma_{d-1}', xi_{j,d-1}, sigma_{d-1}), for xi1 and xi2;
    * xi2_{j,d} = (delta_j', delta~_j', xi1_{j,d}, delta~_j, delta_j).

    Point-pushing twists around different punctures are conjugate by braid
    half-twists (the Birman exact sequence), which is the first identity;
    both hold as map identities on rows that satisfy the long relation
    (tests/test_moves.py). So the kept moves generate the same group and
    have the same orbits. For g' >= 1 and r >= 1 the list shrinks from
    3g' - 1 + (r - 1) + 2g'r moves to 4g' - 1 + (r - 1); (1, 1) lists no
    xi-twist and keeps its delta and delta~, and shapes with g' = 0 or
    r = 0 have no xi-twist to drop.
    """
    return [m for m in available_moves(gprime, r) if m.kind != "xi2" and m.d in (None, 1)]


def fiber_words(gprime: int, periods: tuple[int, ...]) -> list[tuple[MoveID, ...]]:
    """Words of moves that generate the stabilizer H of an ascending ordering
    of periods, each read left to right as the order of application.

    The moves act on the orderings of the periods through their image in
    S_r, so H is the preimage of the Young subgroup of the blocks of equal
    periods, a mixed braid group (L. Manfredini, "Some subgroups of Artin's
    braid group", Topology Appl. 1997; J. Birman, Braids, Links, and Mapping
    Class Groups, 1974, for the pure braids A_ij). Its words:

    * each move of generating_moves but the sigma_h that cross a boundary
      between blocks (the handle moves fix every branch entry's order);
    * for blocks a < b, the pure braid A_{e,s} of the last point e of a and
      the first point s of b: sigma_e^2 after the braid that brings s next
      to e, (sigma_{s-1}', ..., sigma_{e+1}', sigma_e, sigma_e, sigma_{e+1},
      ..., sigma_{s-1});
    * for g' >= 1, xi1_{j,s} at the first point s of each later block
      (generating_moves keeps xi1_{j,1}).

    Shapes with one block keep generating_moves, so (1, 1) keeps its delta
    and delta~; (0, 0) has no word.
    """
    r = len(periods)
    if (gprime, r) == (0, 0):
        return []
    starts = [h for h in range(1, r + 1) if h == 1 or periods[h - 2] != periods[h - 1]]
    ends = [s - 1 for s in starts[1:]] + [r]
    words = [
        (m,) for m in generating_moves(gprime, r) if m.kind != "sigma" or m.i + 1 not in starts
    ]
    for a, e in enumerate(ends):
        for s in starts[a + 1 :]:
            down = [MoveID("sigma", h, inverse=True) for h in range(s - 1, e, -1)]
            up = [MoveID("sigma", h) for h in range(e + 1, s)]
            words.append((*down, MoveID("sigma", e), MoveID("sigma", e), *up))
    words += [(MoveID("xi1", j, s),) for s in starts[1:] for j in range(1, gprime + 1)]
    return words


def _check_range(cond: bool, move: MoveID, gprime: int, r: int) -> None:
    if not cond:
        raise UserInputError(f"move {move} out of range for shape (g', r) = ({gprime}, {r})")


def _seq(G: Group, items):
    """The product of index columns (or ints), evaluated left to right."""
    if not items:
        return G.identity
    acc = items[0]
    for x in items[1:]:
        acc = G.mul_array(acc, x)
    return acc


def _transport(G: Group, gprime: int, entries, j: int, d: int):
    """V = (c_{d+1} ... c_r) * prod_{k<j} [a_k, b_k]."""
    items = list(entries[2 * gprime + d : ])
    for k in range(j - 1):
        items.append(G.comm(entries[2 * k], entries[2 * k + 1]))
    return _seq(G, items)


def apply_move(G: Group, gprime: int, rows: np.ndarray, move: MoveID) -> np.ndarray:
    """The image of every row of a 2-D array of systems, as a new array."""
    return np.stack(_move(G, gprime, list(rows.T), move), axis=1)


def _move(G: Group, gprime: int, entries: list, move: MoveID) -> list:
    """The image columns of one move, from the columns of a system array."""
    seq, inv = partial(_seq, G), G.inv_array
    r = len(entries) - 2 * gprime
    out = list(entries)
    kind, backward = move.kind, move.inverse

    if kind == "sigma":
        h = move.i
        _check_range(1 <= h <= r - 1, move, gprime, r)
        p = 2 * gprime + (h - 1)
        x, y = entries[p], entries[p + 1]
        if not backward:
            out[p] = y
            out[p + 1] = seq([inv(y), x, y])
        else:
            out[p] = seq([x, y, inv(x)])
            out[p + 1] = x
        return out

    if kind == "delta":
        j = move.i
        _check_range(1 <= j <= gprime, move, gprime, r)
        a, b = entries[2 * (j - 1)], entries[2 * (j - 1) + 1]
        out[2 * (j - 1)] = seq([a, inv(b)]) if not backward else seq([a, b])
        return out

    if kind == "delta~":
        j = move.i
        _check_range(1 <= j <= gprime, move, gprime, r)
        a, b = entries[2 * (j - 1)], entries[2 * (j - 1) + 1]
        out[2 * (j - 1) + 1] = seq([b, a]) if not backward else seq([b, inv(a)])
        return out

    if kind == "tau":
        k = move.i
        _check_range(1 <= k <= gprime - 1, move, gprime, r)
        ia, ib = 2 * (k - 1), 2 * (k - 1) + 1
        ia1, ib1 = 2 * k, 2 * k + 1
        a_k, b_k = entries[ia], entries[ib]
        a_k1, b_k1 = entries[ia1], entries[ib1]
        eta = seq([inv(b_k), a_k1, b_k1, inv(a_k1)])
        if not backward:
            out[ia] = seq([a_k, inv(eta)])
            out[ib] = seq([eta, b_k, inv(eta)])
            out[ia1] = seq([eta, a_k1])
        else:
            # eta is invariant under the forward move, so it can be read
            # off the current entries to run the closed-form inverse.
            out[ia] = seq([a_k, eta])
            out[ib] = seq([inv(eta), b_k, eta])
            out[ia1] = seq([inv(eta), a_k1])
        return out

    if kind in ("xi1", "xi2"):
        j, d = move.i, move.d
        _check_range(1 <= j <= gprime and 1 <= d <= r, move, gprime, r)
        ia, ib = 2 * (j - 1), 2 * (j - 1) + 1
        ic = 2 * gprime + (d - 1)
        a, b, cd = entries[ia], entries[ib], entries[ic]
        v = _transport(G, gprime, entries, j, d)
        vinv = inv(v)
        if kind == "xi1":
            if not backward:
                chi = seq([vinv, cd, v])
                eps = seq([cd, v, a, b, inv(a), vinv])
                out[ia] = seq([chi, a])
                out[ic] = seq([eps, cd, inv(eps)])
            else:
                w = seq([v, a, b, inv(a), vinv])
                cd_old = seq([inv(w), cd, w])
                chi = seq([vinv, cd_old, v])
                out[ia] = seq([inv(chi), a])
                out[ic] = cd_old
        else:
            if not backward:
                chi = seq([vinv, cd, v])
                eps_prime = seq([cd, v, G.comm(a, b), inv(a), vinv])
                out[ib] = seq([inv(a), chi, a, b])
                out[ic] = seq([eps_prime, cd, inv(eps_prime)])
            else:
                m = seq([v, G.comm(a, b), inv(a), vinv])
                cd_old = seq([inv(m), cd, m])
                chi = seq([vinv, cd_old, v])
                out[ib] = seq([inv(a), inv(chi), a, b])
                out[ic] = cd_old
        return out

    raise UserInputError(f"unknown move kind {kind!r}")
