"""Weight-preserving bijections onto overpartition classes.

Three families, all sharing one shape: peel a structural statistic off each
part, record what was peeled as overlined magnitudes (via conjugation or
marked positions), and invert by adding the statistic back.  Inputs are
decreasing partitions; outputs are Overpartition values.  Every map validates
its input and its own output, so a partition outside the intended domain
fails loudly instead of producing garbage.

Each forward map is a single pass from the smallest part upward.  The pass
computes the statistic, shifts each part, builds the overlines directly and
checks input and output with a few comparisons per part as it goes: a part
must clear the least value the part below leaves it.  A failed comparison
only clears a flag.  When the flag is down the map runs its diagnostic, the
step-by-step checks in their original order (``_require_strict``, the
forbidden-chain loop, ``_require_parity``), which raises the ValueError
naming the first fault, so an invalid input gets the message it would get
from a map that checked everything before computing.  The inverse maps
check first and compute after.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .partitions import Overpartition, Partition, conjugate, pointwise_add


class HVariant(Enum):
    OE = "oe"
    EO = "eo"


class GVariant(Enum):
    GG = "gg"
    LG = "lg"


def _require_strict(seq, gap: int, what: str) -> None:
    for i, p in enumerate(seq):
        if p < 1:
            raise ValueError(f"{what}: entry {p} at position {i} is not positive")
        if i and seq[i - 1] - p < gap:
            raise ValueError(
                f"{what}: entries {seq[i - 1]}, {p} violate the minimum gap {gap}"
            )


def _require_parity(seq, parity: int, what: str) -> None:
    for p in seq:
        if p % 2 != parity:
            raise ValueError(f"{what}: entry {p} has the wrong parity")


# ---------------------------------------------------------------------------
# f: distinct parts -> alternating-parity parts with overlines bounded by length
# ---------------------------------------------------------------------------


def map_f(parts: Partition) -> Overpartition:
    """Subtract the change-count statistic of the parity deviation word.

    Read the parts in increasing order; position j should hold a part
    congruent to j mod 2.  The statistic t starts at the first deviation bit
    and steps up by one wherever the bit changes; it is subtracted pointwise,
    and its conjugate becomes the overlined magnitudes: t first reaching v
    at the part with j parts below it overlines k - j.
    """
    k = len(parts)
    mu: list[int] = []
    over: list[int] = []
    ok = True
    need = low = 1  # least next input part, least next output part
    t = 0
    agree = 1  # 1 - deviation bit of the part below; bit 0 before any part
    for j, p in enumerate(reversed(parts)):
        if p < need:
            ok = False
        need = p + 1
        if (p ^ j) & 1 != agree:
            agree ^= 1
            t += 1
            over.append(k - j)
        q = p - t
        if q < low:
            ok = False
        low = q + 1
        mu.append(q)
    mu.reverse()
    if not ok:
        _diagnose_f(parts, mu)
    return Overpartition(tuple(mu), tuple(over))


def _diagnose_f(parts: Partition, mu: list[int]) -> None:
    _require_strict(parts, 1, "map f input")
    _require_strict(mu, 1, "map f output")


def inverse_f(op: Overpartition) -> Partition:
    mu, over = op
    _require_strict(mu, 1, "inverse f parts")
    for j, p in enumerate(mu[::-1]):
        if (p - (j + 1)) % 2:
            raise ValueError(
                f"inverse f parts: {p} at increasing position {j + 1} breaks the parity pattern"
            )
    lam = pointwise_add(mu, conjugate(over))
    _require_strict(lam, 1, "inverse f result")
    return lam


# ---------------------------------------------------------------------------
# h: gap-2 parts -> single-parity parts plus conjugated residue
# ---------------------------------------------------------------------------


def map_h(parts: Partition, variant: HVariant) -> Overpartition:
    """Flatten a gap-2 partition onto one parity.

    ell_j counts the adjacent (odd, even) pairs for OE, (even, odd) for EO,
    at positions j and later.  Each part sheds 2*ell_j, then one more if its
    parity is still wrong; the shed amounts form a weakly decreasing sequence
    whose conjugate is overlined: a shed amount first reaching v at the
    part with j parts below it overlines k - j.  Under EO the last entry can
    reach zero: the empty slot is dropped and its existence is signalled by
    the largest overline exceeding the remaining length by one.
    """
    k = len(parts)
    oe = variant is HVariant.OE
    target = 1 if oe else 0
    pi: list[int] = []
    over: list[int] = []
    ok = True
    need = 1  # least next input part
    low = 1 if oe else 0  # least next output part; EO may empty the bottom slot
    ell = shed = 0
    wrong_below = 0  # 1: the part below is off the target parity
    for j, p in enumerate(reversed(parts)):
        if p < need:
            ok = False
        need = p + 2
        wrong = (p & 1) ^ target
        if wrong_below and not wrong:
            ell += 1
        wrong_below = wrong
        v = 2 * ell + wrong
        if v > shed:
            over += [k - j] * (v - shed)
        elif v < shed:
            ok = False
        shed = v
        q = p - v
        if q < low or q & 1 != target:
            ok = False
        low = q + 2
        pi.append(q)
    pi.reverse()
    if not ok:
        _diagnose_h(parts, pi, variant)
    if pi and pi[-1] == 0:
        pi.pop()
    return Overpartition(tuple(pi), tuple(over))


def _diagnose_h(parts: Partition, pi: list[int], variant: HVariant) -> None:
    _require_strict(parts, 2, "map h input")
    vstar = [p - q for p, q in zip(parts, pi)]
    for i in range(1, len(vstar)):
        if vstar[i] > vstar[i - 1]:
            raise ValueError("map h shed amounts are not weakly decreasing")
    if pi and pi[-1] == 0:
        if variant is HVariant.OE:
            raise ValueError("map h produced an empty slot outside the EO variant")
        pi = pi[:-1]
    _require_strict(pi, 2, "map h output")
    _require_parity(pi, 1 if variant is HVariant.OE else 0, "map h output")


def inverse_h(op: Overpartition, variant: HVariant) -> Partition:
    pi, over = op
    target = 1 if variant is HVariant.OE else 0
    _require_strict(pi, 2, "inverse h parts")
    _require_parity(pi, target, "inverse h parts")
    slots = list(pi)
    if variant is HVariant.EO and over and over[0] == len(pi) + 1:
        slots.append(0)
    lam = pointwise_add(slots, conjugate(over))
    _require_strict(lam, 2, "inverse h result")
    return lam


# ---------------------------------------------------------------------------
# g: gap-2 parts with a forbidden even (or odd) chain -> marked single parity
# ---------------------------------------------------------------------------


def map_g(parts: Partition, variant: GVariant) -> Overpartition:
    """Mark the parts of the minority parity and straighten the rest.

    T flags even parts for GG, odd parts for LG.  Part j loses its flag and
    twice the number of flagged parts below it; flagged positions are
    remembered as overlines 2j-1.  Under LG the bottom part can straighten
    to zero, in which case the slot is dropped and the largest overline
    equals twice the remaining length plus one.
    """
    k = len(parts)
    lg = variant is GVariant.LG
    marked = 1 if lg else 0
    tau: list[int] = []
    over: list[int] = []
    ok = True
    # least next input part: two above the part below, three above a flagged
    # one, since a flagged part two below would close a forbidden chain
    need = 1
    low = 0 if lg else 1  # least next output part; LG may empty the bottom slot
    flagged = 0
    for j, p in enumerate(reversed(parts)):
        if p < need:
            ok = False
        if p & 1 == marked:
            q = p - 1 - 2 * flagged
            flagged += 1
            over.append(2 * (k - j) - 1)
            need = p + 3
        else:
            q = p - 2 * flagged
            need = p + 2
        if q < low or q & 1 == marked:
            ok = False
        low = q + 2
        tau.append(q)
    tau.reverse()
    if not ok:
        _diagnose_g(parts, tau, variant)
    if tau and tau[-1] == 0:
        tau.pop()
    return Overpartition(tuple(tau), tuple(over))


def _diagnose_g(parts: Partition, tau: list[int], variant: GVariant) -> None:
    _require_strict(parts, 2, "map g input")
    marked = 0 if variant is GVariant.GG else 1
    for i in range(len(parts) - 1):
        if parts[i] % 2 == marked and parts[i] - parts[i + 1] == 2:
            raise ValueError(
                f"map g input: parts {parts[i]}, {parts[i + 1]} form a forbidden chain"
            )
    if tau and tau[-1] == 0:
        if variant is GVariant.GG:
            raise ValueError("map g produced an empty slot outside the LG variant")
        tau = tau[:-1]
    _require_strict(tau, 2, "map g output")
    _require_parity(tau, 1 - marked, "map g output")


def inverse_g(op: Overpartition, variant: GVariant) -> Partition:
    tau, over = op
    marked = 0 if variant is GVariant.GG else 1
    _require_strict(tau, 2, "inverse g parts")
    _require_parity(tau, 1 - marked, "inverse g parts")
    slots = list(tau)
    if variant is GVariant.LG and over and over[0] == 2 * len(tau) + 1:
        slots.append(0)
    k = len(slots)
    flagged = set()
    for v in over:
        if v % 2 == 0:
            raise ValueError(f"inverse g overline {v} must be odd")
        j = (v + 1) // 2
        if j > k:
            raise ValueError(f"inverse g overline {v} points past position {k}")
        flagged.add(j - 1)
    T = [1 if j in flagged else 0 for j in range(k)]
    suffix = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix[j] = suffix[j + 1] + T[j]
    lam = tuple(slots[j] + T[j] + 2 * suffix[j + 1] for j in range(k))
    _require_strict(lam, 2, "inverse g result")
    return lam


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


# each variant is bound by a module-level function, which pickles by name,
# rather than by a keyword partial, which builds a keyword dict on every call


def map_h_oe(parts: Partition) -> Overpartition:
    return map_h(parts, HVariant.OE)


def inverse_h_oe(op: Overpartition) -> Partition:
    return inverse_h(op, HVariant.OE)


def map_h_eo(parts: Partition) -> Overpartition:
    return map_h(parts, HVariant.EO)


def inverse_h_eo(op: Overpartition) -> Partition:
    return inverse_h(op, HVariant.EO)


def map_g_gg(parts: Partition) -> Overpartition:
    return map_g(parts, GVariant.GG)


def inverse_g_gg(op: Overpartition) -> Partition:
    return inverse_g(op, GVariant.GG)


def map_g_lg(parts: Partition) -> Overpartition:
    return map_g(parts, GVariant.LG)


def inverse_g_lg(op: Overpartition) -> Partition:
    return inverse_g(op, GVariant.LG)


@dataclass(frozen=True)
class BijectionSpec:
    forward: Callable[[Partition], Overpartition]
    inverse: Callable[[Overpartition], Partition]
    source: str
    target: str


MAPS: dict[str, BijectionSpec] = {
    "f": BijectionSpec(map_f, inverse_f, "d", "e-over"),
    "h-oe": BijectionSpec(map_h_oe, inverse_h_oe, "rr1", "rr1-over"),
    "h-eo": BijectionSpec(map_h_eo, inverse_h_eo, "rr1", "rr1star-over"),
    "g-gg": BijectionSpec(map_g_gg, inverse_g_gg, "gg1", "gg1-over"),
    "g-lg": BijectionSpec(map_g_lg, inverse_g_lg, "lg1", "lg1-over"),
}


def registered_map_ids() -> list[str]:
    return sorted(MAPS)


def get_map(map_id: str) -> BijectionSpec:
    try:
        return MAPS[map_id]
    except KeyError:
        raise ValueError(
            f"unknown map {map_id!r}; registered: {', '.join(registered_map_ids())}"
        ) from None
