"""Brute-force oracles, written against the raw definitions.

Everything here enumerates without pruning and filters with independent
predicates, sharing no code with the package generators.  Slow on purpose:
these exist so the fast paths have something dumb and trustworthy to be
compared against.
"""

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
