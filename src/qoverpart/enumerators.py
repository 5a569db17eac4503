"""Constraint-driven enumeration and counting of partition and overpartition classes.

Classes are declarative: a PartitionClass restricts parts (parity, gaps,
residues, forced or forbidden members), an OverpartitionClass adds rules for
which magnitudes may carry an overline, with caps that may depend on the
number of non-overlined parts.

Enumeration is one prefix walk per class, bounded by total weight: parts are
added one at a time, largest first, only while they fit under the bound, and
every prefix that passes the closing checks (a required part, the allowed
smallest parts, an odd smallest part for the alternating parity pattern) is
itself a member of its own weight.  So one pass with an explicit stack yields
``(weight, member)`` for every weight up to the bound.  A single weight is the
same walk bounded at that weight, building only the members that reach it,
and an overpartition class walks its base once and attaches the overline
sets.

Counting does not walk: ``count_sequence`` fills one weight table per class,
counting base partitions by weight and number of parts, and convolves it with
a knapsack over the admissible overline sets for each number of parts.  Its
cost is polynomial in the weight, and it shares only the class dataclasses and
the overline admissibility rule with the generators, so a count checked against
an enumeration is a check of two routes.  The almost-self-conjugate partitions
and the Stembridge pairs are counted the same way, from a knapsack over the
distinct entries of their Frobenius symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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


@dataclass(frozen=True)
class PartitionClass:
    distinct: bool = False
    parity: Parity = Parity.ANY
    min_part: int = 1
    min_gap: int = 0
    forbid_consecutive_evens: bool = False
    forbid_consecutive_odds: bool = False
    smallest_part_in: frozenset[int] | None = None
    must_contain: frozenset[int] = frozenset()
    residue_filter: tuple[int, frozenset[int]] | None = None


@dataclass(frozen=True)
class OverlineRule:
    """One admissibility rule for overlined magnitudes.

    A rule applies to a magnitude v when low <= v <= high (high None means
    open-ended).  An overlined magnitude is admissible iff at least one rule
    applies to it and it satisfies the residue and cap constraints of every
    rule that applies.  ``cap`` is affine in the count r of non-overlined
    parts: v <= slope*r + intercept.
    """

    low: int = 1
    high: int | None = None
    residue: tuple[int, frozenset[int]] | None = None
    cap: tuple[int, int] | None = None


@dataclass(frozen=True)
class OverpartitionClass:
    base: PartitionClass
    rules: tuple[OverlineRule, ...]


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def matches_partition(cls: PartitionClass, parts: Partition) -> bool:
    """Re-check a canonical decreasing partition against the class, from scratch."""
    gap = max(cls.min_gap, 1 if cls.distinct else 0)
    for i, p in enumerate(parts):
        if p < cls.min_part:
            return False
        if i and parts[i - 1] - p < gap:
            return False
        if cls.parity is Parity.ALL_ODD and p % 2 == 0:
            return False
        if cls.parity is Parity.ALL_EVEN and p % 2 == 1:
            return False
        if cls.residue_filter is not None:
            modulus, allowed = cls.residue_filter
            if p % modulus not in allowed:
                return False
    if cls.parity is Parity.ALTERNATING_FROM_ODD_SMALLEST:
        increasing = parts[::-1]
        for j, p in enumerate(increasing):
            if (p - (j + 1)) % 2 != 0:
                return False
    if cls.parity is Parity.SLATER121_PATTERN:
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
    if not set(cls.must_contain) <= part_set:
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


def _part_ok(cls: PartitionClass, p: int, chosen: list[int]) -> bool:
    # a Parity member lookup costs more than the test it guards (about
    # 200 ns on CPython 3.11), so ANY parity, the common case, pays for one
    parity = cls.parity
    if parity is not Parity.ANY:
        if parity is Parity.ALL_ODD:
            if p % 2 == 0:
                return False
        elif parity is Parity.ALL_EVEN:
            if p % 2 == 1:
                return False
        elif parity is Parity.ALTERNATING_FROM_ODD_SMALLEST:
            # "j-th part from below is j mod 2" is "neighbours alternate in
            # parity and the smallest part is odd"; _close_ok checks the
            # smallest part
            if chosen and (chosen[-1] - p) % 2 == 0:
                return False
    if cls.residue_filter is not None:
        modulus, allowed = cls.residue_filter
        if p % modulus not in allowed:
            return False
    if cls.forbid_consecutive_evens and p % 2 == 0 and p + 2 in chosen:
        return False
    if cls.forbid_consecutive_odds and p % 2 == 1 and p + 2 in chosen:
        return False
    return True


def _close_ok(cls: PartitionClass, chosen: list[int]) -> bool:
    if cls.must_contain and not set(cls.must_contain) <= set(chosen):
        return False
    if cls.smallest_part_in is not None:
        if not chosen or chosen[-1] not in cls.smallest_part_in:
            return False
    if chosen and chosen[-1] % 2 == 0 and cls.parity is Parity.ALTERNATING_FROM_ODD_SMALLEST:
        return False
    return True


def _next_bound(cls: PartitionClass, p: int, position: int) -> int:
    if cls.parity is Parity.SLATER121_PATTERN:
        # position is the 1-based index of p; descent is strict after odd
        # positions and weak after even ones
        return p - 1 if position % 2 == 1 else p
    return p - max(cls.min_gap, 1 if cls.distinct else 0)


def _descend(cls: PartitionClass, bound: int, low: int = 0) -> Iterator[tuple[int, Partition]]:
    # parts are placed largest first; stack[i] is the next part to try after
    # the first i parts, so the walk needs no recursion and no second frame.
    # Only members of weight low..bound are built.
    chosen: list[int] = []
    weight = 0
    if low == 0 and _close_ok(cls, chosen):
        yield 0, ()
    stack = [bound]
    while stack:
        p = stack[-1]
        while p >= cls.min_part and not _part_ok(cls, p, chosen):
            p -= 1
        if p < cls.min_part:
            stack.pop()
            if chosen:
                weight -= chosen.pop()
            continue
        stack[-1] = p - 1
        chosen.append(p)
        weight += p
        if weight >= low and _close_ok(cls, chosen):
            yield weight, tuple(chosen)
        stack.append(min(_next_bound(cls, p, len(chosen)), bound - weight))


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


def _add_rows(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, x in enumerate(b):
        out[i] += x
    return out


def _base_table(cls: PartitionClass, top: int) -> list[list[int]]:
    """B[m][r]: members of weight m with r parts, for every m <= top.

    Parts are placed largest first.  ``tables[rem][bound, near, phase, seen]``
    counts, by number of parts, the ways to place the weight ``rem`` still
    missing with parts <= bound, given what was placed so far:

    - ``near`` bit i says bound + i is already a part.  Only the forbidden
      consecutive-even/odd rules read it (is p + 2 a part?), so it stays 0
      for other classes.
    - ``phase`` is, for SLATER121_PATTERN, the parity of the number of parts
      placed (a part at an odd position is followed by a strictly smaller
      one).  For ALTERNATING_FROM_ODD_SMALLEST it is the parity the next part
      must have: counted from the smallest part, the j-th part is j mod 2
      exactly when neighbours alternate in parity and the smallest is odd.
    - ``seen`` has one bit per must_contain part already placed.

    An entry either skips ``bound`` (bound - 1 is the new limit) or places it,
    so each one costs two lookups into entries of smaller (rem, bound).
    """
    gap = max(cls.min_gap, 1 if cls.distinct else 0)
    slater = cls.parity is Parity.SLATER121_PATTERN
    alternating = cls.parity is Parity.ALTERNATING_FROM_ODD_SMALLEST
    near_bits = 0b111 if cls.forbid_consecutive_evens or cls.forbid_consecutive_odds else 0
    must_bit = {p: 1 << i for i, p in enumerate(sorted(cls.must_contain))}
    full = (1 << len(must_bit)) - 1
    lowest = max(cls.min_part, 1)
    phases = (0, 1, _ANY_PARITY) if alternating else (0, 1) if slater else (0,)
    # the near values that lowering the bound and placing parts can reach
    # (with a gap of 2 or more only 0 and 0b100)
    steps = {gap, max(gap, 1)} if slater else {gap}
    nears = {0}
    pending = [0]
    while pending:
        near = pending.pop()
        for after in [(near << 1) & near_bits] + [((near | 1) << s) & near_bits for s in steps]:
            if after not in nears:
                nears.add(after)
                pending.append(after)
    states = [(near, phase, seen) for near in sorted(nears)
              for phase in phases for seen in range(full + 1)]

    def fits(p: int, smallest: bool) -> bool:
        """The rules on a part that do not depend on the parts above it."""
        if cls.parity is Parity.ALL_ODD and p % 2 == 0:
            return False
        if cls.parity is Parity.ALL_EVEN and p % 2 == 1:
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
        if slater:
            return (max(gap, 1) if phase == 0 else gap), phase ^ 1
        if alternating:
            return gap, (p % 2) ^ 1
        return gap, phase

    tables: list[dict[tuple[int, int, int, int], list[int]]] = [{} for _ in range(top + 1)]

    def lookup(rem: int, bound: int, near: int, phase: int, seen: int) -> list[int]:
        if rem == 0:
            return [1] if seen == full else []
        if bound > rem:
            near = (near << (bound - rem)) & near_bits
            bound = rem
        if bound < lowest:
            return []
        return tables[rem][bound, near, phase, seen]

    for rem in range(1, top + 1):
        table = tables[rem]
        for p in range(lowest, rem + 1):
            placeable = fits(p, smallest=p == rem)
            pair_rule = (cls.forbid_consecutive_evens and p % 2 == 0
                         or cls.forbid_consecutive_odds and p % 2 == 1)
            phase_ok = (p % 2, _ANY_PARITY) if alternating else phases
            for near, phase, seen in states:
                # p left out: the limit drops to p - 1
                row = lookup(rem, p - 1, (near << 1) & near_bits, phase, seen)
                if placeable and not (pair_rule and near & 0b100) and phase in phase_ok:
                    step, next_phase = advance(p, phase)
                    rest = lookup(rem - p, p - step, ((near | 1) << step) & near_bits,
                                  next_phase, seen | must_bit.get(p, 0))
                    if rest:
                        row = _add_rows(row, [0] + rest)
                table[p, near, phase, seen] = row

    start = _ANY_PARITY if alternating else 0
    empty = [1] if not cls.must_contain and cls.smallest_part_in is None else []
    return [empty] + [lookup(m, m, 0, start, 0) for m in range(1, top + 1)]


def _overpartition_counts(cls: OverpartitionClass, top: int) -> list[int]:
    """Class sizes at weights 0..top as sum over m, r of B[m][r] * O_r[n - m].

    O_r[w] counts the distinct admissible overline sets of weight w when the
    base partition has r parts.  Admissibility depends only on (v, r), so the
    values of r that admit the same magnitudes share one knapsack, and their
    base columns are summed before the convolution.
    """
    base = _base_table(cls.base, top)
    columns: dict[tuple[int, ...], list[int]] = {}
    for r in range(max(map(len, base), default=0)):
        allowed = tuple(v for v in range(1, top + 1) if _admissible(cls.rules, v, r))
        column = columns.setdefault(allowed, [0] * (top + 1))
        for m, row in enumerate(base):
            if r < len(row):
                column[m] += row[r]
    counts = [0] * (top + 1)
    for allowed, column in columns.items():
        overlines = [1] + [0] * top
        for v in allowed:
            for w in range(top, v - 1, -1):
                overlines[w] += overlines[w - v]
        for m, b in enumerate(column):
            if b:
                for w in range(top - m + 1):
                    counts[m + w] += b * overlines[w]
    return counts


# ---------------------------------------------------------------------------
# Frobenius symbols: almost-self-conjugate partitions and Stembridge pairs
# ---------------------------------------------------------------------------


def iter_almost_self_conjugate(n: int) -> Iterator[Partition]:
    """Partitions whose Frobenius top row is the bottom row plus one.

    Walks symbols (b_i+1 ; b_i) directly: weight is 2d + 2*sum(b) over
    strictly decreasing b_1 > ... > b_d >= 0.  At n=0 the empty partition is
    yielded, which is the counting convention used by the identity harness;
    the standalone predicate still rejects the empty partition.
    """
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n % 2:
        return iter(())

    def rec(remaining_half: int, prev: int, acc: list[int]) -> Iterator[Partition]:
        # each new entry b adds (b + 1) to the half-weight
        if remaining_half == 0:
            bottom = tuple(acc)
            top = tuple(b + 1 for b in bottom)
            yield partition_from_frobenius(FrobeniusSymbol(top, bottom))
            return
        for b in range(min(prev - 1, remaining_half - 1), -1, -1):
            acc.append(b)
            yield from rec(remaining_half - b - 1, b, acc)
            acc.pop()

    return rec(n // 2, n // 2 + 1, [])


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
            fewer, row = rows[d - 1], rows[d]
            for w in range(top, c - 1, -1):
                row[w] += fewer[w - c]
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
        base=PartitionClass(distinct=True, parity=Parity.ALL_EVEN),
        rules=(
            OverlineRule(low=max(k, 1), residue=(2, frozenset({k % 2})), cap=(2, k - 2)),
            OverlineRule(low=1, high=k - 1, residue=(4, frozenset({(beta + 2) % 4}))),
        ),
    )


_ODD = Parity.ALL_ODD
_EVEN = Parity.ALL_EVEN

PARTITION_CLASSES: dict[str, PartitionClass] = {
    "d": PartitionClass(distinct=True),
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
    "distinct-mod4-012": PartitionClass(distinct=True, residue_filter=(4, frozenset({0, 1, 2}))),
    "distinct-mod4-023": PartitionClass(distinct=True, residue_filter=(4, frozenset({0, 2, 3}))),
    "distinct-even": PartitionClass(distinct=True, parity=_EVEN),
    "distinct-odd-least1": PartitionClass(distinct=True, parity=_ODD, must_contain=frozenset({1})),
}
for _k in range(1, 6):
    PARTITION_CLASSES[f"dk:k={_k}"] = PartitionClass(distinct=True, min_part=_k)

OVERPARTITION_CLASSES: dict[str, OverpartitionClass] = {
    "over": OverpartitionClass(PartitionClass(), (OverlineRule(),)),
    "e-over": OverpartitionClass(
        PartitionClass(distinct=True, parity=Parity.ALTERNATING_FROM_ODD_SMALLEST),
        (OverlineRule(cap=(1, 0)),),
    ),
    "rr1-over": OverpartitionClass(
        PartitionClass(distinct=True, parity=_ODD), (OverlineRule(cap=(1, 0)),)
    ),
    "rr1star-over": OverpartitionClass(
        PartitionClass(distinct=True, parity=_EVEN), (OverlineRule(cap=(1, 1)),)
    ),
    "rr2-over": OverpartitionClass(
        PartitionClass(distinct=True, parity=_EVEN), (OverlineRule(cap=(1, 0)),)
    ),
    "gg1-over": OverpartitionClass(
        PartitionClass(distinct=True, parity=_ODD),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, -1)),),
    ),
    "gg2-over": OverpartitionClass(
        PartitionClass(distinct=True, parity=_ODD, min_part=3),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, -1)),),
    ),
    "dgg12-over": OverpartitionClass(
        PartitionClass(distinct=True, parity=_ODD, must_contain=frozenset({1})),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, -1)),),
    ),
    "lg1-over": OverpartitionClass(
        PartitionClass(distinct=True, parity=_EVEN),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, 1)),),
    ),
    "lg2-over": OverpartitionClass(
        PartitionClass(distinct=True, parity=_EVEN),
        (OverlineRule(residue=(2, frozenset({1})), cap=(2, 0)),),
    ),
    "slater121-over": OverpartitionClass(
        PartitionClass(parity=Parity.SLATER121_PATTERN),
        (OverlineRule(residue=(2, frozenset({0})), cap=(2, -1)),),
    ),
}
for _k in range(1, 6):
    OVERPARTITION_CLASSES[f"dk-over:k={_k}"] = OverpartitionClass(
        PartitionClass(distinct=True, min_part=_k),
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

    Partition and overpartition classes are counted from weight tables
    (``_base_table``, ``_overpartition_counts``) that never call the
    generators, so comparing a count with an enumeration compares two routes.
    ``almost-sc`` and the pair classes are counted from knapsack tables over
    Frobenius entries (``_frobenius_table``), which read only the weight
    rules of the symbols and share no code with ``_base_table`` or with
    ``iter_almost_self_conjugate``.
    """
    kind = class_kind(class_id)
    if bound < 0:
        raise ValueError("weight must be nonnegative")
    if kind == "partition":
        return [sum(row) for row in _base_table(PARTITION_CLASSES[class_id], bound)]
    if kind == "overpartition":
        return _overpartition_counts(OVERPARTITION_CLASSES[class_id], bound)
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
