"""Constraint-driven enumeration and counting of partition and overpartition classes.

Classes are declarative: a PartitionClass restricts parts (parity, least part,
gap, residues, smallest part, no consecutive evens or odds under a gap >= 2),
an OverpartitionClass adds rules for which magnitudes may carry an overline,
with caps that may depend on the number of non-overlined parts.

Enumeration is one prefix walk per class, bounded by total weight: parts are
added one at a time, largest first, only while they fit under the bound, and
every prefix that passes the closing checks (the allowed smallest parts, an
odd smallest part for the alternating parity pattern) is itself a member of
its own weight.  So one pass with an explicit stack yields ``(weight,
member)`` for every weight up to the bound.  A single weight is the same walk
bounded at that weight, building only the members that reach it, and an
overpartition class walks its base once and attaches the overline sets.
The almost-self-conjugate partitions are the class ``d`` walk at half the
weight, read as the top rows of their Frobenius symbols.

Each class builds its walk steps once, lazily on its first walk
(``_compile_walk``): the residue filter is the only check made per candidate
part, the allowed smallest parts are the close check, the least drop to the
next part is the gap (at least 3 below a part of a forbidden consecutive
parity) or the SLATER121_PATTERN alternation, and under a parity rule the
candidates step down by two from the highest one of the right parity.  At a
single weight n the walk places a part only if the prefix plus the heaviest
tail under its next bound can still reach n; when that bound is the part's
own drop, no smaller part at that level can either, and the level ends.
These steps are the walk's own code: ``matches_partition``, the count tables
and the test oracles read the class fields each in their own way.

Counting does not walk: ``count_sequence`` fills a table by part size,
keeping the last few layers of dense rows by weight and number of parts, up to
the count where no overline cap binds, and folds in the overline sets by
Horner over that count.  Its cost is polynomial in the weight, and it shares
only the class dataclasses and the overline admissibility rule with the
generators, so a count checked against an enumeration is a check of two
routes.  The almost-self-conjugate partitions and the Stembridge pairs are
counted from a knapsack over the distinct entries of their Frobenius symbols.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from operator import add
from typing import Iterator

from .partitions import Overpartition, Partition, partition_from_frobenius, FrobeniusSymbol


class Parity(Enum):
    ANY = "any"
    ALL_ODD = "all-odd"
    ALL_EVEN = "all-even"
    # smallest part odd, then parities alternate upward
    ALTERNATING_FROM_ODD_SMALLEST = "alternating-from-odd-smallest"
    # strict descent at odd positions, weak at even: l1 > l2 >= l3 > l4 >= ...
    SLATER121_PATTERN = "slater121-pattern"


# a Parity member lookup costs 148 ns, a module name 14 (CPython 3.11)
_ODD = Parity.ALL_ODD
_EVEN = Parity.ALL_EVEN
_ALTERNATING = Parity.ALTERNATING_FROM_ODD_SMALLEST
_SLATER = Parity.SLATER121_PATTERN


@dataclass(frozen=True)
class PartitionClass:
    """Parts >= min_part whose neighbours differ by >= min_gap (1: distinct)."""

    parity: Parity = Parity.ANY
    min_part: int = 1
    min_gap: int = 0
    forbid_consecutive_evens: bool = False
    forbid_consecutive_odds: bool = False
    smallest_part_in: frozenset[int] | None = None
    residue_filter: tuple[int, frozenset[int]] | None = None

    def __post_init__(self) -> None:
        if self.min_part < 1:
            raise ValueError(f"min_part must be at least 1, got {self.min_part}")
        if self.min_gap < 0:
            raise ValueError(f"min_gap must be nonnegative, got {self.min_gap}")
        if (self.forbid_consecutive_evens or self.forbid_consecutive_odds) and self.min_gap < 2:
            raise ValueError(f"a forbidden consecutive pair needs min_gap >= 2, got {self.min_gap}")
        if self.residue_filter is not None and self.residue_filter[0] < 1:
            raise ValueError(f"a residue modulus must be at least 1, got {self.residue_filter[0]}")

    @cached_property
    def _walk_steps(self) -> tuple:
        return _compile_walk(self)


@dataclass(frozen=True)
class OverlineRule:
    """One admissibility rule for overlined magnitudes.

    A rule applies to a magnitude v when low <= v <= high (high None means
    open-ended).  An overlined magnitude is admissible iff at least one rule
    applies to it and it satisfies the residue and cap constraints of every
    rule that applies.  ``cap`` is affine in the count r of non-overlined
    parts: v <= slope*r + intercept, slope >= 0, so caps never shrink as r grows.
    """

    low: int = 1
    high: int | None = None
    residue: tuple[int, frozenset[int]] | None = None
    cap: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.residue is not None and self.residue[0] < 1:
            raise ValueError(f"a residue modulus must be at least 1, got {self.residue[0]}")
        if self.cap is not None and self.cap[0] < 0:
            raise ValueError(f"a cap slope must be nonnegative, got {self.cap[0]}")


@dataclass(frozen=True)
class OverpartitionClass:
    base: PartitionClass
    rules: tuple[OverlineRule, ...]


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def matches_partition(cls: PartitionClass, parts: Partition) -> bool:
    """Re-check a canonical decreasing partition against the class, from scratch."""
    for i, p in enumerate(parts):
        if p < cls.min_part:
            return False
        if i and parts[i - 1] - p < cls.min_gap:
            return False
        if cls.parity is _ODD and p % 2 == 0:
            return False
        if cls.parity is _EVEN and p % 2 == 1:
            return False
        if cls.residue_filter is not None:
            modulus, allowed = cls.residue_filter
            if p % modulus not in allowed:
                return False
    if cls.parity is _ALTERNATING:
        increasing = parts[::-1]
        for j, p in enumerate(increasing):
            if (p - (j + 1)) % 2 != 0:
                return False
    if cls.parity is _SLATER:
        for j in range(len(parts) - 1):
            if j % 2 == 0 and parts[j] <= parts[j + 1]:
                return False
    part_set = set(parts)
    if cls.forbid_consecutive_evens:
        if any(p % 2 == 0 and p + 2 in part_set for p in part_set):
            return False
    if cls.forbid_consecutive_odds:
        if any(p % 2 == 1 and p + 2 in part_set for p in part_set):
            return False
    if cls.smallest_part_in is not None:
        if not parts or parts[-1] not in cls.smallest_part_in:
            return False
    return True


def _admissible(rules: tuple[OverlineRule, ...], v: int, r: int) -> bool:
    applies = False
    for rule in rules:
        if v < rule.low or (rule.high is not None and v > rule.high):
            continue
        applies = True
        if rule.residue is not None:
            modulus, allowed = rule.residue
            if v % modulus not in allowed:
                return False
        if rule.cap is not None:
            slope, intercept = rule.cap
            if v > slope * r + intercept:
                return False
    return applies


def matches_overpartition(cls: OverpartitionClass, op: Overpartition) -> bool:
    if not matches_partition(cls.base, op.parts):
        return False
    r = len(op.parts)
    for i, v in enumerate(op.overlined):
        if i and op.overlined[i - 1] <= v:
            return False
        if not _admissible(cls.rules, v, r):
            return False
    return True


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _compile_walk(cls: PartitionClass) -> tuple:
    """The prefix walk's own steps for one class, built once on its first walk.

    - ``part_ok(p)``: the residue filter, or None when the class has none.
    - ``close_ok(p)``: whether a prefix ending in ``p`` is a member (an
      allowed smallest part, an odd smallest part under the alternating
      pattern), or None when every prefix is one.
    - ``drops``: the least drop from a part to the next, indexed by the
      parity of the part (a gap of at least 3 below a part of a forbidden
      consecutive parity) or, when ``by_position``, of its 1-based position
      (SLATER121_PATTERN without a gap: strict after odd positions, weak
      after even ones).
    - ``parity``: the parity every part must have (ALL_ODD, ALL_EVEN), and
      ``alternate``: each part has the other parity than the one above it
      (ALTERNATING_FROM_ODD_SMALLEST: "the j-th part from below is j mod 2"
      is "neighbours alternate in parity and the smallest part is odd").
      Either way the candidates below a part step down by two from the
      highest one of the right parity.
    """
    part_ok = None
    if cls.residue_filter is not None:
        modulus, residues = cls.residue_filter
        part_ok = lambda p: p % modulus in residues
    alternate = cls.parity is _ALTERNATING
    allowed = cls.smallest_part_in
    if allowed is None:
        close_ok = (lambda p: p & 1 == 1) if alternate else None
    else:
        close_ok = (lambda p: p & 1 == 1 and p in allowed) if alternate else allowed.__contains__
    gap = cls.min_gap
    if cls.parity is _SLATER and gap == 0:
        drops, by_position = (0, 1), True
    else:
        # a forbidden pair needs a gap >= 2, so p + 2 could only be the part
        # just above p: below a part of the forbidden parity, drop at least 3
        forbidden = (cls.forbid_consecutive_evens, cls.forbid_consecutive_odds)
        drops, by_position = tuple(max(gap, 3) if f else gap for f in forbidden), False
    parity = 1 if cls.parity is _ODD else 0 if cls.parity is _EVEN else None
    return part_ok, close_ok, drops, by_position, parity, alternate


def _descend(cls: PartitionClass, bound: int, low: int = 0) -> Iterator[tuple[int, Partition]]:
    # parts are placed largest first; stack[i] is the next part to try after
    # the first i parts, so the walk needs no recursion and no second frame.
    # Only members of weight low..bound are built.
    part_ok, close_ok, drops, by_position, parity, alternate = cls._walk_steps
    min_part = cls.min_part
    # a part that leaves its prefix short of low is not placed when even the
    # heaviest tail under the next bound b, b + (b - gap) + ... down to
    # min_part, cannot make up the rest (no pruning without a gap)
    gap = cls.min_gap if low else 0
    stride = 1 if parity is None and not alternate else 2
    top_stride = 1 if alternate else stride
    chosen: list[int] = []
    weight = 0
    if low == 0 and cls.smallest_part_in is None:
        yield 0, ()
    stack = [bound if parity is None else bound - ((bound ^ parity) & 1)]
    while stack:
        p = stack[-1]
        step = stride if chosen else top_stride
        if part_ok is not None:
            while p >= min_part and not part_ok(p):
                p -= step
        if p < min_part:
            stack.pop()
            if chosen:
                weight -= chosen.pop()
            continue
        stack[-1] = p - step
        placed = weight + p
        top = p - drops[(len(chosen) + 1 if by_position else p) & 1]
        b = bound - placed
        if top < b:
            b = top
        if parity is not None:
            b -= (b ^ parity) & 1
        elif alternate:
            b -= (b ^ p ^ 1) & 1
        if gap and placed < low:
            m = (b - min_part) // gap + 1 if b >= min_part else 0
            if placed + m * b - gap * m * (m - 1) // 2 < low:
                if top <= bound - placed:
                    # b is p's own drop, so every smaller p falls short too
                    stack[-1] = 0
                continue
        chosen.append(p)
        if placed >= low and (close_ok is None or close_ok(p)):
            yield placed, tuple(chosen)
        if b >= min_part:
            weight = placed
            stack.append(b)
        else:  # no part fits below p
            chosen.pop()


def iter_partitions_upto(bound: int, cls: PartitionClass) -> Iterator[tuple[int, Partition]]:
    """(weight, member) for every member of weight <= bound, in one prefix walk.

    Each prefix the walk builds is itself a candidate member, so every node
    is visited once for all weights together.  Members come unsorted.
    """
    if bound < 0:
        raise ValueError("weight must be nonnegative")
    return _descend(cls, bound)


def iter_partitions(n: int, cls: PartitionClass) -> Iterator[Partition]:
    """Every member of weight n, unsorted, from the same walk bounded at n."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    return (parts for _, parts in _descend(cls, n, low=n))


def _iter_overlines(rules: tuple[OverlineRule, ...], total: int, r: int) -> Iterator[tuple[int, ...]]:
    def rec(remaining: int, max_v: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        for v in range(min(remaining, max_v), 0, -1):
            if _admissible(rules, v, r):
                acc.append(v)
                yield from rec(remaining - v, v - 1, acc)
                acc.pop()

    yield from rec(total, total, [])


def iter_overpartitions(n: int, cls: OverpartitionClass) -> Iterator[Overpartition]:
    # one walk of the base class; the overline sets for each (weight, number
    # of parts) are listed once and shared by every base that needs them
    overlines: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for m, base in iter_partitions_upto(n, cls.base):
        key = (n - m, len(base))
        if key not in overlines:
            overlines[key] = list(_iter_overlines(cls.rules, *key))
        for ov in overlines[key]:
            yield Overpartition(base, ov)


# ---------------------------------------------------------------------------
# counting by weight tables, independent of the generators above
# ---------------------------------------------------------------------------

# phase of an alternating-parity class before its first (largest) part
_ANY_PARITY = 2


def _base_rows(cls: PartitionClass, top: int, parts_cap: int) -> list[list[int]]:
    """rows[r][m]: members of weight m <= top with r parts (row parts_cap: or more).

    Filled by part size b, outermost, as Π 1/(1 - q^b) is built factor by
    factor (Andrews, *The Theory of Partitions*, ch. 1).  ``layer[phase][r]``
    counts by weight the tails of r parts <= b after a part that left
    ``phase``: the parity of the number of parts placed (SLATER121_PATTERN)
    or of the next part (ALTERNATING_FROM_ODD_SMALLEST).  A tail lacks b or
    is b and a tail from ``step`` layers below, the empty one only if b may
    be smallest; under a gap >= 2 a forbidden pair is a drop of at least 3.
    A drop of 0 into the same phase reads the layer being built; its last
    row, reading itself, is divided by 1 - q^b.  Rows past the most parts
    that fit are left out.
    """
    slater = cls.parity is _SLATER
    alternating = cls.parity is _ALTERNATING
    phases = (0, 1, _ANY_PARITY) if alternating else (0, 1) if slater else (0,)
    forbidden = (cls.forbid_consecutive_evens, cls.forbid_consecutive_odds)
    last = max(parts_cap, 1)

    def fits(p: int, smallest: bool) -> bool:
        """The rules on a part that do not depend on the parts above it."""
        if (cls.parity is _ODD and p % 2 == 0) or (cls.parity is _EVEN and p % 2 == 1):
            return False
        if cls.residue_filter is not None:
            modulus, allowed = cls.residue_filter
            if p % modulus not in allowed:
                return False
        if smallest and alternating and p % 2 == 0:
            return False
        if smallest and cls.smallest_part_in is not None:
            return p in cls.smallest_part_in
        return True

    def advance(p: int, phase: int) -> tuple[int, int]:
        """The least drop to the next part, and the next phase, once p is placed."""
        step = cls.min_gap
        if slater:
            step, phase = (max(step, 1) if phase == 0 else step), phase ^ 1
        elif alternating:
            phase = (p % 2) ^ 1
        if forbidden[p % 2]:
            step = max(step, 3)
        return step, phase

    depth = max(cls.min_gap, 3 if any(forbidden) else 1)
    layers = deque([{phase: [[1] + [0] * top] for phase in phases}] * depth, maxlen=depth)
    for b in range(cls.min_part, top + 1):
        below = layers[-1]
        if not fits(b, smallest=False):
            layers.append(below)
            continue
        phase_ok = (b % 2, _ANY_PARITY) if alternating else phases
        lowest = 0 if fits(b, smallest=True) else 1
        layer: dict[int, list[list[int]]] = {}
        # phases that cannot take b are copied first: a drop of 0 may read them
        for phase in sorted(phases, key=phase_ok.__contains__):
            rows = layer[phase] = below[phase][:]
            if phase not in phase_ok:
                continue
            step, next_phase = advance(b, phase)
            source = layer[next_phase] if step == 0 else layers[-step][next_phase]
            # when source is rows, this loop also reads the rows it appends
            for r, row in enumerate(source):
                if source is rows and r == last:
                    rows[last] = row = row[:]
                    for residue in range(min(b, top + 1 - b)):
                        row[residue::b] = accumulate(row[residue::b])
                    break
                fitting = row[:top + 1 - b]
                if r >= lowest and any(fitting):
                    j = min(r + 1, last)
                    rows += [[0] * (top + 1)] * (j + 1 - len(rows))
                    rows[j] = rows[j][:b] + list(map(add, rows[j][b:], fitting))
        layers.append(layer)

    tails = layers[-1][_ANY_PARITY if alternating else 0][1:]
    rows = [[int(cls.smallest_part_in is None)] + [0] * top] + tails
    return [list(map(sum, zip(*rows)))] if parts_cap == 0 else rows


def _overpartition_fold(cls: OverpartitionClass, top: int) -> list[int]:
    """Class sizes at weights 0..top: Σ_r B_r Π_{v in A(r)} (1 + q^v), folded by Horner.

    B_r counts base partitions with r parts, A(r) the admissible overlines.
    A(r) only grows with r, so the sum is O_0 (B_0 + P_1 (B_1 + ...)), P_r
    bringing in the magnitudes first admissible at r.  Rows past the least r
    at which no cap binds below top are kept as one.
    """
    caps = [-((rule.cap[1] - top) // rule.cap[0])
            for rule in cls.rules if rule.cap is not None and rule.cap[0] > 0]
    rows = _base_rows(cls.base, top, min(max([0, *caps]), top))
    first: list[list[int]] = [[] for _ in range(len(rows) + 1)]
    for v in range(1, top + 1):
        r = bisect_left(range(len(rows)), True, key=lambda k: _admissible(cls.rules, v, k))
        first[r].append(v)
    counts = [0] * (top + 1)
    for r in range(len(rows) - 1, -1, -1):
        counts = list(map(add, counts, rows[r]))
        for v in first[r]:
            counts[v:] = map(add, counts[v:], counts[:-v])
    return counts


# ---------------------------------------------------------------------------
# Frobenius symbols: almost-self-conjugate partitions and Stembridge pairs
# ---------------------------------------------------------------------------


def iter_almost_self_conjugate(n: int) -> Iterator[Partition]:
    """Partitions whose Frobenius top row is the bottom row plus one, unsorted.

    A symbol (b+1 ; b) over distinct b >= 0 weighs 2*sum(b+1), so its top
    rows b+1 are a distinct-parts partition of n/2: the members come from
    the class ``d`` walk at n/2.  At n=0 the empty partition is yielded,
    which is the counting convention used by the identity harness; the
    standalone predicate still rejects the empty partition.
    """
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n % 2:
        return iter(())
    return (
        partition_from_frobenius(FrobeniusSymbol(top, tuple(a - 1 for a in top)))
        for top in iter_partitions(n // 2, PARTITION_CLASSES["d"])
    )


STEMBRIDGE_VARIANTS = ("gg1", "gg2", "lg1", "lg2")


def _frobenius_table(top: int, lo: int, extra: int) -> tuple[list[list[int]], list[list[int]]]:
    """Sets of distinct Frobenius entries e >= lo, each weighing 2e + extra.

    A symbol (a;a) weighs the sum of 2a+1 over its entries and (b+1;b) the
    sum of 2b+2, so a class of symbols is a 0/1 knapsack over its entries.
    They go in one at a time in increasing order, giving for weights <= top:

    - ``rows[d][w]``: the sets of d entries with weight w;
    - ``largest[i][w]``: the sets whose largest entry is lo + i, which is the
      table just before that entry goes in, shifted by its weight.
    """
    rows = [[1] + [0] * top]
    largest: list[list[int]] = []
    for c in range(2 * lo + extra, top + 1, 2):
        below = [sum(column) for column in zip(*rows)]
        largest.append([0] * c + below[:top + 1 - c])
        # a row for one more entry only once the last row holds a set
        if any(rows[-1]):
            rows.append([0] * (top + 1))
        for d in range(len(rows) - 1, 0, -1):
            # rows[d - 1] is not yet updated for c, as d descends
            rows[d][c:] = map(add, rows[d][c:], rows[d - 1][:top + 1 - c])
    return rows, largest


def _pair_counts(variant: str, bound: int) -> list[int]:
    """Pairs (sigma, tau) of total weight n, for every n <= bound.

    sigma is self-conjugate; its largest part is its largest entry plus one,
    or 0 when it is empty.  For gg1/gg2, tau is self-conjugate (gg2 further
    requires no zero entry in tau's Frobenius symbol); for lg1/lg2, tau is
    almost-self-conjugate, with the empty tau admitted vacuously.  The largest
    part of sigma is at most tau's diagonal d, its number of entries, plus
    one for lg1.
    """
    _, sigma = _frobenius_table(bound, 0, 1)
    if variant in ("gg1", "gg2"):
        tau, _ = _frobenius_table(bound, 1 if variant == "gg2" else 0, 1)
    else:
        tau, _ = _frobenius_table(bound, 0, 2)
    # at_least[k][w]: the tau of weight w with diagonal k or more
    at_least = [tau[-1]]
    for row in reversed(tau[:-1]):
        at_least.append([x + y for x, y in zip(row, at_least[-1])])
    at_least.reverse()
    bonus = 1 if variant == "lg1" else 0
    pairs = [0] * (bound + 1)
    for largest, by_weight in enumerate([[1] + [0] * bound] + sigma):
        k = max(largest - bonus, 0)
        if k >= len(at_least):
            break
        for w, s in enumerate(by_weight):
            if s:
                for m, t in enumerate(at_least[k][:bound + 1 - w]):
                    pairs[w + m] += s * t
    return pairs


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _lebesgue_class(alpha: int, beta: int) -> OverpartitionClass:
    k = 4 * alpha + beta
    return OverpartitionClass(
        base=PartitionClass(min_gap=1, parity=_EVEN),
        rules=(
            OverlineRule(low=max(k, 1), residue=(2, frozenset({k % 2})), cap=(2, k - 2)),
            OverlineRule(low=1, high=k - 1, residue=(4, frozenset({(beta + 2) % 4}))),
        ),
    )


PARTITION_CLASSES: dict[str, PartitionClass] = {
    "d": PartitionClass(min_gap=1),
    "odd": PartitionClass(parity=_ODD),
    "rr1": PartitionClass(min_gap=2),
    "rr2": PartitionClass(min_gap=2, min_part=2),
    "gg1": PartitionClass(min_gap=2, forbid_consecutive_evens=True),
    "gg2": PartitionClass(min_gap=2, forbid_consecutive_evens=True, min_part=3),
    "dgg12": PartitionClass(
        min_gap=2, forbid_consecutive_evens=True, smallest_part_in=frozenset({1, 2})
    ),
    "lg1": PartitionClass(min_gap=2, forbid_consecutive_odds=True),
    "lg2": PartitionClass(min_gap=2, forbid_consecutive_odds=True, min_part=2),
    "mod5-14": PartitionClass(residue_filter=(5, frozenset({1, 4}))),
    "mod5-23": PartitionClass(residue_filter=(5, frozenset({2, 3}))),
    "mod8-147": PartitionClass(residue_filter=(8, frozenset({1, 4, 7}))),
    "mod8-345": PartitionClass(residue_filter=(8, frozenset({3, 4, 5}))),
    "mod8-156": PartitionClass(residue_filter=(8, frozenset({1, 5, 6}))),
    "mod8-237": PartitionClass(residue_filter=(8, frozenset({2, 3, 7}))),
    "distinct-mod4-012": PartitionClass(min_gap=1, residue_filter=(4, frozenset({0, 1, 2}))),
    "distinct-mod4-023": PartitionClass(min_gap=1, residue_filter=(4, frozenset({0, 2, 3}))),
    "distinct-even": PartitionClass(min_gap=1, parity=_EVEN),
    "distinct-odd-least1": PartitionClass(min_gap=1, parity=_ODD, smallest_part_in=frozenset({1})),
}
for _k in range(1, 6):
    PARTITION_CLASSES[f"dk:k={_k}"] = PartitionClass(min_gap=1, min_part=_k)

OVERPARTITION_CLASSES: dict[str, OverpartitionClass] = {
    "over": OverpartitionClass(PartitionClass(), (OverlineRule(),)),
    "e-over": OverpartitionClass(
        PartitionClass(min_gap=1, parity=_ALTERNATING),
        (OverlineRule(cap=(1, 0)),),
    ),
    "rr1-over": OverpartitionClass(
        PartitionClass(min_gap=1, parity=_ODD), (OverlineRule(cap=(1, 0)),)
    ),
    "rr1star-over": OverpartitionClass(
        PartitionClass(min_gap=1, parity=_EVEN), (OverlineRule(cap=(1, 1)),)
    ),
    "rr2-over": OverpartitionClass(
        PartitionClass(min_gap=1, parity=_EVEN), (OverlineRule(cap=(1, 0)),)
    ),
    "gg1-over": OverpartitionClass(
        PartitionClass(min_gap=1, parity=_ODD),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, -1)),),
    ),
    "gg2-over": OverpartitionClass(
        PartitionClass(min_gap=1, parity=_ODD, min_part=3),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, -1)),),
    ),
    "dgg12-over": OverpartitionClass(
        PartitionClass(min_gap=1, parity=_ODD, smallest_part_in=frozenset({1})),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, -1)),),
    ),
    "lg1-over": OverpartitionClass(
        PartitionClass(min_gap=1, parity=_EVEN),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, 1)),),
    ),
    "lg2-over": OverpartitionClass(
        PartitionClass(min_gap=1, parity=_EVEN),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, 0)),),
    ),
    "slater121-over": OverpartitionClass(
        PartitionClass(parity=_SLATER),
        (OverlineRule(residue=(2, frozenset({0})), cap=(2, -1)),),
    ),
}
for _k in range(1, 6):
    OVERPARTITION_CLASSES[f"dk-over:k={_k}"] = OverpartitionClass(
        PartitionClass(min_gap=1, min_part=_k),
        (OverlineRule(high=_k - 1),),
    )

LEBESGUE_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (a, b) for a in range(4) for b in (-1, 0, 1, 2) if 4 * a + b != 0
)
for _a, _b in LEBESGUE_PAIRS:
    OVERPARTITION_CLASSES[f"lebesgue:a={_a},b={_b}"] = _lebesgue_class(_a, _b)

_SPECIAL_CLASSES = ("almost-sc",)
_PAIR_CLASSES = tuple(f"stembridge:{v}" for v in STEMBRIDGE_VARIANTS)


def registered_class_ids() -> list[str]:
    return sorted(
        list(PARTITION_CLASSES)
        + list(OVERPARTITION_CLASSES)
        + list(_SPECIAL_CLASSES)
        + list(_PAIR_CLASSES)
    )


def _unknown(class_id: str) -> ValueError:
    return ValueError(
        f"unknown class {class_id!r}; registered: {', '.join(registered_class_ids())}"
    )


def class_kind(class_id: str) -> str:
    if class_id in PARTITION_CLASSES:
        return "partition"
    if class_id in OVERPARTITION_CLASSES:
        return "overpartition"
    if class_id in _SPECIAL_CLASSES:
        return "special"
    if class_id in _PAIR_CLASSES:
        return "pairs"
    raise _unknown(class_id)


def enumerate_class(class_id: str, n: int):
    """All members of the class at weight n.

    Order is decreasing lexicographic on the part sequence; overpartitions
    with equal parts are tie-broken by increasing overline tuple, so the
    plain partition precedes its overlined variants.
    """
    kind = class_kind(class_id)
    if kind == "partition":
        return sorted(iter_partitions(n, PARTITION_CLASSES[class_id]), reverse=True)
    if kind == "overpartition":
        out = sorted(iter_overpartitions(n, OVERPARTITION_CLASSES[class_id]),
                     key=lambda op: op.overlined)
        out.sort(key=lambda op: op.parts, reverse=True)
        return out
    if class_id == "almost-sc":
        return sorted(iter_almost_self_conjugate(n), reverse=True)
    raise ValueError(f"class {class_id!r} is count-only and cannot be enumerated")


def partitions_upto(class_id: str, bound: int) -> Iterator[tuple[int, Partition]]:
    """(weight, member) for every member of a partition class up to bound, unsorted."""
    if class_kind(class_id) != "partition":
        raise ValueError(f"class {class_id!r} is not a partition class")
    return iter_partitions_upto(bound, PARTITION_CLASSES[class_id])


def count_sequence(class_id: str, bound: int) -> list[int]:
    """Class sizes at every weight 0..bound.

    Partition and overpartition classes are counted from layered tables by
    part size (``_base_rows``) with a Horner fold of the overline sets over
    the number of parts (``_overpartition_fold``).  They never call the
    generators, so comparing a count with an enumeration compares two routes.
    ``almost-sc`` and the pair classes are counted from knapsack tables over
    Frobenius entries (``_frobenius_table``), which share no code with
    ``_base_rows`` or with ``iter_almost_self_conjugate``.
    """
    kind = class_kind(class_id)
    if bound < 0:
        raise ValueError("weight must be nonnegative")
    if kind == "partition":
        return _base_rows(PARTITION_CLASSES[class_id], bound, 0)[0]
    if kind == "overpartition":
        return _overpartition_fold(OVERPARTITION_CLASSES[class_id], bound)
    if class_id == "almost-sc":
        rows, _ = _frobenius_table(bound, 0, 2)
        return [sum(column) for column in zip(*rows)]
    return _pair_counts(class_id.split(":", 1)[1], bound)


def count_class(class_id: str, n: int) -> int:
    return count_sequence(class_id, n)[n]


def matches(class_id: str, obj) -> bool:
    """Independent membership re-check for enumerable classes."""
    kind = class_kind(class_id)
    if kind == "partition":
        return matches_partition(PARTITION_CLASSES[class_id], obj)
    if kind == "overpartition":
        return matches_overpartition(OVERPARTITION_CLASSES[class_id], obj)
    raise ValueError(f"class {class_id!r} has no membership predicate")
