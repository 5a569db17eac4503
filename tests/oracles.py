"""Brute-force oracles, written against the raw definitions.

Everything here enumerates without pruning and filters with independent
predicates, sharing no code with the package generators.  Slow on purpose:
these exist so the fast paths have something dumb and trustworthy to be
compared against.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, mul, sub

from qoverpart.bijections import GVariant, HVariant
from qoverpart.enumerators import (
    OverpartitionClass,
    PartitionClass,
    Parity,
    _admissible,
)
from qoverpart.partitions import Overpartition, conjugate, partition, t_of_binary
from qoverpart.series import (
    STALL_GUARD,
    LaurentSeries,
    _guard_step,
    _net_binomials,
)


def partitions_of(n, max_part=None):
    """All weakly decreasing positive tuples summing to n."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def overpartitions_of(n):
    """All (parts, overlined) pairs with total weight n.

    Overlined magnitudes form a strictly decreasing tuple and contribute to
    the weight alongside the ordinary parts.
    """
    for over_weight in range(n + 1):
        overs = [p for p in partitions_of(over_weight) if is_distinct(p)]
        for parts in partitions_of(n - over_weight):
            for over in overs:
                yield parts, over


def is_distinct(parts):
    return len(set(parts)) == len(parts)


def all_odd(parts):
    return all(p % 2 == 1 for p in parts)


def all_even(parts):
    return all(p % 2 == 0 for p in parts)


def gap_at_least_2(parts):
    return all(parts[i] - parts[i + 1] >= 2 for i in range(len(parts) - 1))


def no_consecutive_evens(parts):
    s = set(parts)
    return not any(p % 2 == 0 and p + 2 in s for p in s)


def no_consecutive_odds(parts):
    s = set(parts)
    return not any(p % 2 == 1 and p + 2 in s for p in s)


def count_d(n):
    return sum(1 for p in partitions_of(n) if is_distinct(p))


def count_odd(n):
    return sum(1 for p in partitions_of(n) if all_odd(p))


def count_rr1(n):
    return sum(1 for p in partitions_of(n) if gap_at_least_2(p))


def count_rr2(n):
    return sum(1 for p in partitions_of(n) if gap_at_least_2(p) and (not p or p[-1] > 1))


def count_gg1(n):
    return sum(
        1 for p in partitions_of(n) if gap_at_least_2(p) and no_consecutive_evens(p)
    )


def count_gg2(n):
    return sum(
        1
        for p in partitions_of(n)
        if gap_at_least_2(p) and no_consecutive_evens(p) and (not p or p[-1] >= 3)
    )


def count_lg1(n):
    return sum(
        1 for p in partitions_of(n) if gap_at_least_2(p) and no_consecutive_odds(p)
    )


def count_lg2(n):
    return sum(
        1
        for p in partitions_of(n)
        if gap_at_least_2(p) and no_consecutive_odds(p) and (not p or p[-1] >= 2)
    )


def count_distinct_odd_least1(n):
    return sum(
        1
        for p in partitions_of(n)
        if is_distinct(p) and all_odd(p) and p and p[-1] == 1
    )


def product_prefix(factor_gen, limit):
    """Coefficients 0..limit of a product of (1 + c*q^e) binomials.

    ``factor_gen`` yields (c, e) pairs with positive nondecreasing
    exponents; generation stops once e exceeds the limit.
    """
    coeffs = [0] * (limit + 1)
    coeffs[0] = 1
    for c, e in factor_gen:
        if e > limit:
            break
        for i in range(limit, e - 1, -1):
            coeffs[i] += c * coeffs[i - e]
    return coeffs


def neg_q_q_prefix(limit):
    """Coefficients of (-q;q)_infinity, the distinct-parts product."""
    return product_prefix(((1, e) for e in range(1, limit + 1)), limit)


# -- list kernels --------------------------------------------------------------
# The series expansion on a dense coefficient list, one Python-level pass per
# binomial: the reference the packed kernels of ``qoverpart.series`` are
# compared against.  It shares only the net-binomial decomposition and the
# stall guard with the package.


def multiply_binomial(c: list[int], sign: int, e: int) -> None:
    """c <- c * (1 - sign*q^e) in place, kept to len(c) coefficients; e >= 1."""
    if e < len(c):
        c[e:] = map(sub if sign == 1 else add, c[e:], c[:-e])


def divide_binomial(c: list[int], sign: int, e: int) -> None:
    """c <- c / (1 - sign*q^e) in place, kept to len(c) coefficients; e >= 1.

    Each coefficient gains sign times the one e places below it, already
    divided.  Short steps run a prefix sum over each residue class mod e; long
    steps add whole blocks of e coefficients.
    """
    n = len(c)
    if e >= n:
        return
    if e * e >= n:
        op = add if sign == 1 else sub
        for k in range(e, n, e):
            c[k:k + e] = map(op, c[k:k + e], c[k - e:k])
    elif sign == 1:
        for r in range(e):
            c[r::e] = accumulate(c[r::e])
    else:
        # 1/(1 + q^e) = (1 - q^e) / (1 - q^2e)
        multiply_binomial(c, 1, e)
        divide_binomial(c, 1, 2 * e)


def _apply_net_powers(c: list[int], powers: dict[tuple[int, int], int]) -> None:
    """c <- c * prod (1 - sign*q^e)^p in place over the (sign, e): p entries."""
    for (sign, e), p in powers.items():
        kernel = multiply_binomial if p > 0 else divide_binomial
        for _ in range(abs(p)):
            kernel(c, sign, e)


def list_apply_inverse_factors(series, factors):
    """``series.apply_inverse_factors`` on a dense coefficient list."""
    order = series.order
    m, coef, powers = _net_binomials(factors, series.offset, order)
    c = list(series.coeffs)
    c.extend(repeat(0, order - m + 1 - len(c)))
    _apply_net_powers(c, powers)
    return LaurentSeries(m, c if coef == 1 else map(mul, c, repeat(coef)), order)


def _list_split_terms(exponent, factors, order, start):
    """(m, coef, {(sign, e): change in net power}) for each term of a family."""
    terms = []
    held: dict[tuple[int, int], int] = {}
    last_min = None
    stall = 0
    n = start
    while True:
        m, coef, powers = _net_binomials(factors(n), exponent(n), order)
        if m > order:
            break
        stall = _guard_step(last_min, m, stall, STALL_GUARD)
        last_min = m
        terms.append((m, coef, {
            key: powers.get(key, 0) - held.get(key, 0)
            for key in held.keys() | powers.keys()
        }))
        held = powers
        n += 1
    return terms


def list_expand_term_family(terms, order, constant=0, scale=1):
    """``series.expand_term_family`` with its running body on a dense list."""
    body: list[int] = []
    total: list[int] | None = None
    lo = 0
    for m, coef, changed in terms:
        if total is None:
            lo = min(m, 0)
            total = [0] * (order - lo + 1)
            body = [1] + [0] * (order - m)
        del body[order - m + 1:]
        _apply_net_powers(body, dict(changed))
        if coef:
            term = body if coef == 1 else map(mul, body, repeat(coef))
            total[m - lo:] = map(add, total[m - lo:], term)
    if total is None:
        total = [0] * (order + 1)
    if scale != 1:
        total[:] = map(mul, total, repeat(scale))
    total[-lo] += constant
    return LaurentSeries(lo, total, order)


def list_sum_term_family(exponent, factors, order, start=0, constant=0, scale=1):
    """``series.sum_term_family`` with its running body on a dense list."""
    terms = _list_split_terms(exponent, factors, order, start)
    return list_expand_term_family(terms, order, constant, scale)


# -- Frobenius-symbol walks ---------------------------------------------------
# The reference walk for the Stembridge pair counts: list every symbol with
# its statistics, then assemble the pairs of one weight n from scratch.


def self_conjugate_stats(max_w, min_entry=0):
    """(weight, largest part, diagonal) for self-conjugate partitions.

    Symbols are (a ; a); each entry a contributes 2a+1 to the weight and the
    first entry fixes the largest part a+1.  The empty partition is included.
    """
    rows = [(0, 0, 0)]

    def rec(w, prev, largest, d):
        for a in range(min(prev - 1, (max_w - w - 1) // 2), min_entry - 1, -1):
            nw = w + 2 * a + 1
            rows.append((nw, largest, d + 1))
            rec(nw, a, largest, d + 1)

    for a1 in range((max_w - 1) // 2, min_entry - 1, -1):
        w = 2 * a1 + 1
        rows.append((w, a1 + 1, 1))
        rec(w, a1, a1 + 1, 1)
    return rows


def almost_self_conjugate_stats(max_w):
    """(weight, diagonal) for almost-self-conjugate partitions, empty included."""
    rows = [(0, 0)]

    def rec(w, prev, d):
        for b in range(min(prev - 1, (max_w - w - 2) // 2), -1, -1):
            nw = w + 2 * b + 2
            rows.append((nw, d + 1))
            rec(nw, b, d + 1)

    rec(0, max_w, 0)
    return rows


def stembridge_pairs_by_stats(n, variant):
    """Pairs (sigma, tau) of total weight n, from the two stats walks.

    sigma is self-conjugate.  For gg1/gg2, tau is self-conjugate (gg2 further
    requires no zero entry in tau's Frobenius symbol); for lg1/lg2, tau is
    almost-self-conjugate, with the empty tau admitted vacuously.  The largest
    part of sigma is bounded by tau's diagonal, plus one for lg1.
    """
    sigma_by_weight = {}
    for w, largest, _ in self_conjugate_stats(n):
        by_largest = sigma_by_weight.setdefault(w, {})
        by_largest[largest] = by_largest.get(largest, 0) + 1
    if variant in ("gg1", "gg2"):
        tau_rows = [
            (w, d)
            for w, _, d in self_conjugate_stats(n, min_entry=1 if variant == "gg2" else 0)
        ]
    else:
        tau_rows = almost_self_conjugate_stats(n)
    tau_by_weight = {}
    for w, d in tau_rows:
        by_diagonal = tau_by_weight.setdefault(w, {})
        by_diagonal[d] = by_diagonal.get(d, 0) + 1
    bonus = 1 if variant == "lg1" else 0
    total = 0
    for w, by_largest in sigma_by_weight.items():
        tc = tau_by_weight.get(n - w)
        if not tc:
            continue
        for largest, count in by_largest.items():
            total += count * sum(c for d, c in tc.items() if largest <= d + bonus)
    return total


# -- the dictionary count tables ----------------------------------------------
# The reference for the layered tables in ``qoverpart.enumerators``: the
# package's earlier counting route, kept unchanged.  A table keyed
# (rem, bound, phase) sums its rows by number of parts one entry at a time, in
# O(n^3) memory, and is convolved with one overline knapsack per group of
# values of r.  Like the layered tables, it reads the class dataclasses and
# ``_admissible`` from the package, and nothing else.

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

    Parts are placed largest first.  ``tables[rem][bound, phase]`` counts, by
    number of parts, the ways to place the weight ``rem`` still missing with
    parts <= bound, given what was placed so far.  ``phase`` is, for
    SLATER121_PATTERN, the parity of the number of parts placed (a part at an
    odd position is followed by a strictly smaller one).  For
    ALTERNATING_FROM_ODD_SMALLEST it is the parity the next part must have:
    counted from the smallest part, the j-th part is j mod 2 exactly when
    neighbours alternate in parity and the smallest is odd.

    A forbidden consecutive pair needs a gap of 2 or more, so p + 2 can only
    be a part as the one just above p: after a part of the forbidden parity
    the next one drops by at least 3.

    An entry either skips ``bound`` (bound - 1 is the new limit) or places it,
    so each one costs two lookups into entries of smaller (rem, bound).
    """
    slater = cls.parity is Parity.SLATER121_PATTERN
    alternating = cls.parity is Parity.ALTERNATING_FROM_ODD_SMALLEST
    phases = (0, 1, _ANY_PARITY) if alternating else (0, 1) if slater else (0,)

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
        step = cls.min_gap
        if slater:
            step, phase = (max(step, 1) if phase == 0 else step), phase ^ 1
        elif alternating:
            phase = (p % 2) ^ 1
        if (cls.forbid_consecutive_evens, cls.forbid_consecutive_odds)[p % 2]:
            step = max(step, 3)
        return step, phase

    tables: list[dict[tuple[int, int], list[int]]] = [{} for _ in range(top + 1)]

    def lookup(rem: int, bound: int, phase: int) -> list[int]:
        if rem == 0:
            return [1]
        if bound > rem:
            bound = rem
        if bound < cls.min_part:
            return []
        return tables[rem][bound, phase]

    for rem in range(1, top + 1):
        table = tables[rem]
        for p in range(cls.min_part, rem + 1):
            placeable = fits(p, smallest=p == rem)
            phase_ok = (p % 2, _ANY_PARITY) if alternating else phases
            for phase in phases:
                # p left out: the limit drops to p - 1
                row = lookup(rem, p - 1, phase)
                if placeable and phase in phase_ok:
                    step, next_phase = advance(p, phase)
                    rest = lookup(rem - p, p - step, next_phase)
                    if rest:
                        row = _add_rows(row, [0] + rest)
                table[p, phase] = row

    start = _ANY_PARITY if alternating else 0
    empty = [1] if cls.smallest_part_in is None else []
    return [empty] + [lookup(m, m, start) for m in range(1, top + 1)]


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


# -- the forward maps, step by step -------------------------------------------
# The reference for the single-pass maps in ``qoverpart.bijections``: the
# package's earlier forward maps, kept unchanged.  Each checks its whole
# input, then computes the statistic in its own pass, sorts and conjugates
# it into the overlines, and checks its whole output, so the first fault it
# names is the one the single-pass maps must name too.


def _require_strict(seq, gap, what):
    for i, p in enumerate(seq):
        if p < 1:
            raise ValueError(f"{what}: entry {p} at position {i} is not positive")
        if i and seq[i - 1] - p < gap:
            raise ValueError(
                f"{what}: entries {seq[i - 1]}, {p} violate the minimum gap {gap}"
            )


def _require_parity(seq, parity, what):
    for p in seq:
        if p % 2 != parity:
            raise ValueError(f"{what}: entry {p} has the wrong parity")


def map_f(parts):
    _require_strict(parts, 1, "map f input")
    inc = parts[::-1]
    bits = tuple((p - (j + 1)) % 2 for j, p in enumerate(inc))
    t = t_of_binary(bits)
    mu = tuple(p - t[j] for j, p in enumerate(inc))[::-1]
    _require_strict(mu, 1, "map f output")
    return Overpartition(mu, conjugate(partition(t)))


def map_h(parts, variant):
    _require_strict(parts, 2, "map h input")
    k = len(parts)
    lead = 1 if variant is HVariant.OE else 0
    target = lead
    marks = [
        1 if parts[i] % 2 == lead and parts[i + 1] % 2 != lead else 0
        for i in range(k - 1)
    ]
    ell = [0] * k
    for j in range(k - 2, -1, -1):
        ell[j] = ell[j + 1] + marks[j]
    pi = []
    for j, p in enumerate(parts):
        q = p - 2 * ell[j]
        q -= (q - target) % 2
        pi.append(q)
    vstar = [p - q for p, q in zip(parts, pi)]
    for i in range(1, len(vstar)):
        if vstar[i] > vstar[i - 1]:
            raise ValueError("map h shed amounts are not weakly decreasing")
    if pi and pi[-1] == 0:
        if variant is HVariant.OE:
            raise ValueError("map h produced an empty slot outside the EO variant")
        pi.pop()
    _require_strict(pi, 2, "map h output")
    _require_parity(pi, target, "map h output")
    return Overpartition(tuple(pi), conjugate(partition(vstar)))


def map_g(parts, variant):
    _require_strict(parts, 2, "map g input")
    marked = 0 if variant is GVariant.GG else 1
    for i in range(len(parts) - 1):
        if parts[i] % 2 == marked and parts[i] - parts[i + 1] == 2:
            raise ValueError(
                f"map g input: parts {parts[i]}, {parts[i + 1]} form a forbidden chain"
            )
    k = len(parts)
    T = [1 if p % 2 == marked else 0 for p in parts]
    suffix = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix[j] = suffix[j + 1] + T[j]
    tau = [parts[j] - T[j] - 2 * suffix[j + 1] for j in range(k)]
    over = tuple(2 * (j + 1) - 1 for j in range(k - 1, -1, -1) if T[j])
    if tau and tau[-1] == 0:
        if variant is GVariant.GG:
            raise ValueError("map g produced an empty slot outside the LG variant")
        tau.pop()
    _require_strict(tau, 2, "map g output")
    _require_parity(tau, 1 - marked, "map g output")
    return Overpartition(tuple(tau), over)


FORWARD_MAPS = {
    "f": map_f,
    "h-oe": lambda parts: map_h(parts, HVariant.OE),
    "h-eo": lambda parts: map_h(parts, HVariant.EO),
    "g-gg": lambda parts: map_g(parts, GVariant.GG),
    "g-lg": lambda parts: map_g(parts, GVariant.LG),
}
