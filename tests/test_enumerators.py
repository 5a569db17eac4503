import pytest

from qoverpart.enumerators import (
    OVERPARTITION_CLASSES,
    PARTITION_CLASSES,
    OverlineRule,
    OverpartitionClass,
    PartitionClass,
    class_kind,
    count_class,
    count_sequence,
    enumerate_class,
    iter_overpartitions,
    iter_partitions,
    iter_partitions_upto,
    matches,
    matches_partition,
    partitions_upto,
    registered_class_ids,
)
from qoverpart.partitions import Overpartition, format_overpartition, weight
from qoverpart.series import (
    ProductFactor,
    apply_inverse_factors,
    monomial,
    one,
    pochhammer,
    sum_terms,
)

import oracles

PAIR_LIMIT = 12
DOUBLE_ENTRY_LIMIT = 30
COUNT_CONSISTENCY_LIMIT = 40
# the unrestricted overpartition class dwarfs every restricted one (enumerating
# it through 40 is ~6M objects), so its consistency check stops where the
# cost is still a few seconds
UNRESTRICTED_COUNT_LIMIT = 30
WALK_LIMIT = 22
PREFIX_WALK_LIMIT = 18

_partition_pool: dict[int, list[tuple[int, ...]]] = {}


def partitions_up_to(limit):
    for n in range(limit + 1):
        if n not in _partition_pool:
            _partition_pool[n] = list(oracles.partitions_of(n))
    return _partition_pool


# -- registry ----------------------------------------------------------------


def test_registry_shape():
    ids = registered_class_ids()
    assert len(ids) == 60
    assert ids == sorted(ids)
    kinds = [class_kind(i) for i in ids]
    assert kinds.count("partition") == 24
    assert kinds.count("overpartition") == 31
    assert kinds.count("special") == 1
    assert kinds.count("pairs") == 4


def test_unknown_class_lists_registered_ids():
    with pytest.raises(ValueError, match="unknown class 'nope'.*rr1"):
        count_class("nope", 3)
    with pytest.raises(ValueError, match="unknown class 'nope'.*rr1"):
        count_sequence("nope", 3)


@pytest.mark.parametrize("class_id", ["d", "over", "almost-sc", "stembridge:gg1"])
def test_counting_rejects_negative_weight(class_id):
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        count_sequence(class_id, -1)
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        count_class(class_id, -1)


@pytest.mark.parametrize("class_id", ["d", "over", "almost-sc"])
@pytest.mark.parametrize("n", [-1, -2])
def test_enumeration_rejects_negative_weight(class_id, n):
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        enumerate_class(class_id, n)


def test_pair_classes_are_count_only():
    assert class_kind("stembridge:gg1") == "pairs"
    with pytest.raises(ValueError, match="count-only"):
        enumerate_class("stembridge:gg1", 5)
    with pytest.raises(ValueError, match="no membership predicate"):
        matches("stembridge:gg1", (3, 1))


# -- frozen counts, regenerated from the brute-force oracles ------------------


def check_counts(class_id, oracle, frozen):
    computed = [count_class(class_id, n) for n in range(len(frozen))]
    from_oracle = [oracle(n) for n in range(len(frozen))]
    assert computed == frozen
    assert from_oracle == frozen


def test_distinct_counts():
    check_counts("d", oracles.count_d, [1, 1, 1, 2, 2, 3, 4, 5, 6, 8])


def test_odd_counts():
    check_counts("odd", oracles.count_odd, [1, 1, 1, 2, 2, 3, 4, 5, 6, 8])


def test_gap_two_counts():
    check_counts("rr1", oracles.count_rr1, [1, 1, 1, 1, 2, 2, 3, 3, 4])


def test_gap_two_least_two_counts():
    check_counts("rr2", oracles.count_rr2, [1, 0, 1, 1, 1, 1, 2, 2, 3])


def test_goellnitz_gordon_counts():
    check_counts("gg1", oracles.count_gg1, [1, 1, 1, 1, 2, 2, 2, 3, 4])
    check_counts("gg2", oracles.count_gg2, [1, 0, 0, 1, 1, 1, 1, 1, 2])


def test_lebesgue_gap_counts():
    check_counts("lg1", oracles.count_lg1, [1, 1, 1, 1, 1, 2, 3, 3, 3])
    check_counts("lg2", oracles.count_lg2, [1, 0, 1, 1, 1, 1, 2, 2, 2])


def test_distinct_odd_least_one_counts():
    check_counts(
        "distinct-odd-least1",
        oracles.count_distinct_odd_least1,
        [0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1],
    )


def test_overpartition_count_of_three():
    assert count_class("over", 3) == 8
    assert sum(1 for _ in oracles.overpartitions_of(3)) == 8


# -- weight tables against the generators ----------------------------------------


@pytest.mark.parametrize(
    "class_id",
    [i for i in registered_class_ids() if class_kind(i) in ("partition", "overpartition")],
)
def test_count_sequence_matches_a_walk_of_the_generator(class_id):
    if class_kind(class_id) == "partition":
        cls = PARTITION_CLASSES[class_id]
        walk = [sum(1 for _ in iter_partitions(n, cls)) for n in range(WALK_LIMIT + 1)]
    else:
        cls = OVERPARTITION_CLASSES[class_id]
        walk = [sum(1 for _ in iter_overpartitions(n, cls)) for n in range(WALK_LIMIT + 1)]
    assert count_sequence(class_id, WALK_LIMIT) == walk


@pytest.mark.parametrize("class_id", registered_class_ids())
def test_count_class_reads_the_sequence(class_id):
    limit = 12
    sequence = count_sequence(class_id, limit)
    assert len(sequence) == limit + 1
    assert [count_class(class_id, n) for n in range(limit)] == sequence[:limit]


def test_overpartition_sequence_matches_its_product_to_120():
    # (-q;q)_inf / (q;q)_inf, expanded by the series layer
    order = 120
    product = apply_inverse_factors(
        one(order),
        (ProductFactor(-1, 1, 1, 1), ProductFactor(1, 1, 1, -1)),
    )
    assert count_sequence("over", order) == product.prefix(order)


# -- the prefix walk against the filtered oracle ----------------------------------

# every partition class, and the base class of every overpartition class
# (the e-over base walks the alternating parity pattern largest first, as
# parities alternating between neighbours above an odd smallest part, while
# matches_partition checks it by position from below)
WALKED_CLASSES = {
    **PARTITION_CLASSES,
    **{f"{class_id} base": cls.base for class_id, cls in OVERPARTITION_CLASSES.items()},
}


@pytest.mark.parametrize("label", sorted(WALKED_CLASSES))
def test_prefix_walk_yields_each_member_once_at_its_weight(label):
    cls = WALKED_CLASSES[label]
    pool = partitions_up_to(PREFIX_WALK_LIMIT)
    walked = list(iter_partitions_upto(PREFIX_WALK_LIMIT, cls))
    assert len({parts for _, parts in walked}) == len(walked)
    assert all(w == sum(parts) for w, parts in walked)
    for n in range(PREFIX_WALK_LIMIT + 1):
        expected = sorted(p for p in pool[n] if matches_partition(cls, p))
        assert sorted(parts for w, parts in walked if w == n) == expected, (label, n)


def test_prefix_walk_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        iter_partitions_upto(-1, PARTITION_CLASSES["d"])
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        iter_partitions_upto(-1, OVERPARTITION_CLASSES["e-over"].base)
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        partitions_upto("d", -1)


def test_partitions_upto_takes_only_partition_classes():
    assert sorted(partitions_upto("d", 3)) == [
        (0, ()), (1, (1,)), (2, (2,)), (3, (2, 1)), (3, (3,))
    ]
    with pytest.raises(ValueError, match="not a partition class"):
        partitions_upto("over", 3)
    with pytest.raises(ValueError, match="unknown class"):
        partitions_upto("nope", 3)


# -- classical equinumerosities ------------------------------------------------


@pytest.mark.parametrize(
    "left,right",
    [
        ("d", "odd"),
        ("rr1", "mod5-14"),
        ("rr2", "mod5-23"),
        ("gg1", "mod8-147"),
        ("gg2", "mod8-345"),
        ("lg2", "mod8-237"),
    ],
)
def test_equinumerous_classes(left, right):
    for n in range(21):
        assert count_class(left, n) == count_class(right, n)


# -- enumeration vs independent predicate filtering ----------------------------


def partition_class_ids():
    return [i for i in registered_class_ids() if class_kind(i) == "partition"]


def overpartition_class_ids():
    return [i for i in registered_class_ids() if class_kind(i) == "overpartition"]


@pytest.mark.parametrize("class_id", partition_class_ids())
def test_partition_enumeration_matches_filtered_oracle(class_id):
    pool = partitions_up_to(DOUBLE_ENTRY_LIMIT)
    for n in range(DOUBLE_ENTRY_LIMIT + 1):
        members = enumerate_class(class_id, n)
        expected = [p for p in pool[n] if matches(class_id, p)]
        assert sorted(members) == sorted(expected)
        assert count_class(class_id, n) == len(members)
        assert all(weight(m) == n for m in members)


def test_overpartition_enumeration_matches_filtered_oracle():
    # one pass over the raw overpartitions of each weight, filtered through
    # all class predicates at once; the per-class generators must reproduce
    # exactly those members
    ids = overpartition_class_ids()
    for n in range(DOUBLE_ENTRY_LIMIT + 1):
        expected = {class_id: [] for class_id in ids}
        for parts, over in oracles.overpartitions_of(n):
            op = Overpartition(parts, over)
            for class_id in ids:
                if matches(class_id, op):
                    expected[class_id].append(op)
        for class_id in ids:
            members = enumerate_class(class_id, n)
            assert sorted(members) == sorted(expected[class_id]), (class_id, n)
            assert count_class(class_id, n) == len(members), (class_id, n)
            assert len(set(members)) == len(members), (class_id, n)
            assert all(weight(m) == n for m in members), (class_id, n)


def test_gap_two_pattern_classes_match_their_forbidden_difference_form():
    pool = partitions_up_to(DOUBLE_ENTRY_LIMIT)
    for n in range(DOUBLE_ENTRY_LIMIT + 1):
        for p in pool[n]:
            assert matches("gg1", p) == (
                oracles.gap_at_least_2(p) and oracles.no_consecutive_evens(p)
            )
            assert matches("lg1", p) == (
                oracles.gap_at_least_2(p) and oracles.no_consecutive_odds(p)
            )


@pytest.mark.parametrize(
    "class_id",
    [i for i in registered_class_ids() if class_kind(i) != "pairs"],
)
def test_count_agrees_with_enumeration_length(class_id):
    limit = (
        UNRESTRICTED_COUNT_LIMIT if class_id == "over" else COUNT_CONSISTENCY_LIMIT
    )
    for n in range(limit + 1):
        assert count_class(class_id, n) == len(enumerate_class(class_id, n))


def test_enumeration_order_contract():
    assert [format_overpartition(m) for m in enumerate_class("rr1-over", 4)] == [
        "3,1",
        "3,1~",
    ]
    assert [format_overpartition(m) for m in enumerate_class("over", 3)] == [
        "3",
        "2,1",
        "2,1~",
        "1,1,1",
        "1,1,1~",
        "1,2~",
        "2~,1~",
        "3~",
    ]


# -- affine overline caps --------------------------------------------------------


def overline_cap_count(n, slope, intercept):
    cls = OverpartitionClass(
        base=PartitionClass(),
        rules=(OverlineRule(cap=(slope, intercept)),),
    )
    return sum(1 for _ in iter_overpartitions(n, cls))


def test_overline_caps_grow_the_class_monotonically():
    intercepts = (0, 1, 2, 3, 5, 8, 13, 10**6)
    for n in range(26):
        counts = [overline_cap_count(n, 0, c) for c in intercepts]
        assert counts == sorted(counts)
        sloped = [overline_cap_count(n, s, 0) for s in (0, 1, 2, 10**6)]
        assert sloped == sorted(sloped)
        # an intercept past the weight is no constraint at all
        assert counts[-1] == count_class("over", n)


def test_overline_caps_match_the_filtered_oracle():
    for n in range(16):
        for c in (0, 1, 2, 3, 5):
            bounded = sum(
                1
                for parts, over in oracles.overpartitions_of(n)
                if all(v <= c for v in over)
            )
            assert overline_cap_count(n, 0, c) == bounded
            part_scaled = sum(
                1
                for parts, over in oracles.overpartitions_of(n)
                if all(v <= c * len(parts) for v in over)
            )
            assert overline_cap_count(n, c, 0) == part_scaled


# -- series cross-check -----------------------------------------------------------


def test_goellnitz_gordon_counts_match_their_series_sum():
    # sum over k of q^(k^2) * (-q;q^2)_k / (q^2;q^2)_k, expanded with the
    # series primitives, must reproduce the gap-two no-consecutive-evens
    # counts coefficient by coefficient
    order = 30
    terms = []
    k = 0
    while k * k <= order:
        term = monomial(1, k * k, order) * pochhammer(
            ProductFactor(-1, 1, 2, 1, k), order
        )
        term = apply_inverse_factors(
            term, (ProductFactor(1, 2, 2, -1, k),)
        )
        terms.append(term)
        k += 1
    total = sum_terms(terms, order)
    for n in range(order + 1):
        assert total.coeff(n) == count_class("gg1", n)


# -- the special class ---------------------------------------------------------


def transpose(p):
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def frobenius_rows(p):
    t = transpose(p)
    d = sum(1 for i, x in enumerate(p) if x >= i + 1)
    return (
        tuple(p[i] - (i + 1) for i in range(d)),
        tuple(t[i] - (i + 1) for i in range(d)),
    )


def test_almost_self_conjugate_enumeration_matches_frobenius_filter():
    # weight 0 admits the empty partition by convention
    assert enumerate_class("almost-sc", 0) == [()]
    counts = count_sequence("almost-sc", 20)
    for n in range(1, 21):
        members = enumerate_class("almost-sc", n)
        expected = []
        for p in oracles.partitions_of(n):
            top, bottom = frobenius_rows(p)
            if top and all(a == b + 1 for a, b in zip(top, bottom)):
                expected.append(p)
        assert sorted(members) == sorted(expected)
        assert counts[n] == len(members)


def test_almost_self_conjugate_counts_match_enumeration_to_40():
    counts = count_sequence("almost-sc", 40)
    assert counts == [len(enumerate_class("almost-sc", n)) for n in range(41)]


def test_almost_self_conjugate_matches_distinct_even_counts():
    assert count_sequence("almost-sc", 200) == count_sequence("distinct-even", 200)


# -- symbol pairs ---------------------------------------------------------------


def is_self_conjugate_raw(p):
    return p == transpose(p)


def diagonal(p):
    return sum(1 for i, x in enumerate(p) if x >= i + 1)


def brute_pair_count(n, variant):
    bonus = 1 if variant == "lg1" else 0
    total = 0
    for w in range(n + 1):
        sigmas = [s for s in oracles.partitions_of(w) if is_self_conjugate_raw(s)]
        taus = []
        for t in oracles.partitions_of(n - w):
            if variant in ("gg1", "gg2"):
                if not is_self_conjugate_raw(t):
                    continue
                if variant == "gg2" and t and 0 in frobenius_rows(t)[0]:
                    continue
            elif t:
                top, bottom = frobenius_rows(t)
                if not all(a == b + 1 for a, b in zip(top, bottom)):
                    continue
            taus.append(t)
        for s in sigmas:
            largest = s[0] if s else 0
            total += sum(1 for t in taus if largest <= diagonal(t) + bonus)
    return total


@pytest.mark.parametrize(
    "variant,frozen",
    [
        ("gg1", [1, 1, 1, 1, 2, 2, 2, 3, 4]),
        ("gg2", [1, 0, 0, 1, 1, 1, 1, 1, 2]),
        ("lg1", [1, 1, 1, 1, 1, 2, 3, 3, 3]),
        ("lg2", [1, 0, 1, 1, 1, 1, 2, 2, 2]),
    ],
)
def test_pair_counts_match_brute_force(variant, frozen):
    computed = count_sequence(f"stembridge:{variant}", PAIR_LIMIT)
    brute = [brute_pair_count(n, variant) for n in range(PAIR_LIMIT + 1)]
    assert computed == brute
    assert computed[: len(frozen)] == frozen


@pytest.mark.parametrize("variant", ["gg1", "gg2", "lg1", "lg2"])
def test_pair_tables_match_the_stats_walk_to_60(variant):
    walked = [oracles.stembridge_pairs_by_stats(n, variant) for n in range(61)]
    assert count_sequence(f"stembridge:{variant}", 60) == walked


def test_pair_count_of_seven():
    assert count_class("stembridge:gg1", 7) == 3


def test_pair_count_validation():
    with pytest.raises(ValueError, match="unknown class"):
        count_class("stembridge:xx", 5)
    with pytest.raises(ValueError, match="nonnegative"):
        count_class("stembridge:gg1", -1)
