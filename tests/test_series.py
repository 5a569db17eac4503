import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoverpart.series import (
    INFINITE,
    LaurentSeries,
    MIN_OFFSET,
    ProductFactor,
    apply_inverse_factors,
    monomial,
    one,
    pochhammer,
    sum_term_family,
    sum_terms,
    zero,
)

from oracles import (
    count_d,
    divide_binomial,
    list_apply_inverse_factors,
    list_sum_term_family,
    multiply_binomial,
    neg_q_q_prefix,
)


# -- canonical form ----------------------------------------------------------


def test_trims_zero_coefficients_at_both_ends():
    s = LaurentSeries(2, [0, 0, 5, 0, 7, 0, 0], 20)
    assert s.offset == 4
    assert s.coeffs == (5, 0, 7)


def test_coefficients_wholly_beyond_the_order_collapse_to_empty():
    assert LaurentSeries(2, [1, 1, 0], 0) == zero(0)


def test_all_zero_collapses_to_empty():
    s = LaurentSeries(3, [0, 0, 0], 10)
    assert s.is_zero
    assert s.coeffs == ()
    assert s.offset == 11
    assert s.min_exponent is None


def test_coefficients_beyond_order_are_dropped():
    s = LaurentSeries(8, [1, 1, 1, 1], 9)
    assert s.coeffs == (1, 1)
    assert s.coeff(9) == 1


def test_zero_one_monomial():
    assert zero(5).is_zero
    assert one(5).prefix(3) == [1, 0, 0, 0]
    m = monomial(4, -2, 5)
    assert m.min_exponent == -2
    assert m.coeff(-2) == 4
    assert m.coeff(0) == 0


def prefix_and_coefficients_one_by_one(s, hi):
    """``s.prefix(hi)`` and the coefficients read one at a time, or their errors."""
    outcomes = []
    for read in (lambda: s.prefix(hi), lambda: [s.coeff(n) for n in range(hi + 1)]):
        try:
            outcomes.append(read())
        except ValueError as exc:
            outcomes.append(str(exc))
    return outcomes


def test_prefix_equals_its_coefficients_one_by_one():
    rng = random.Random(11)
    for _ in range(400):
        order = rng.randint(0, 12)
        s = LaurentSeries(rng.randint(-2, 5), [rng.randint(-3, 3) for _ in range(8)], order)
        for hi in range(-1, order + 3):
            by_prefix, one_by_one = prefix_and_coefficients_one_by_one(s, hi)
            assert by_prefix == one_by_one, (s, hi)


def test_prefix_of_the_empty_series_and_below_the_offset():
    assert zero(6).prefix(6) == [0] * 7
    s = LaurentSeries(5, [2, 3], 10)
    assert s.prefix(3) == [0] * 4
    assert s.prefix(5) == [0, 0, 0, 0, 0, 2]
    assert LaurentSeries(-2, [1, 4, 9], 10).prefix(1) == [9, 0]


def test_prefix_past_the_order_raises_the_coefficient_error():
    for s in (LaurentSeries(2, [1, 1], 4), zero(4), LaurentSeries(-2, [1], 4)):
        with pytest.raises(ValueError, match=r"coefficient of q\^5 requested beyond "
                                             r"truncation order 4"):
            s.prefix(7)
        by_prefix, one_by_one = prefix_and_coefficients_one_by_one(s, 7)
        assert by_prefix == one_by_one


def test_offset_guard_rejects_runaway_laurent_tails():
    with pytest.raises(ValueError, match="Laurent guard"):
        LaurentSeries(MIN_OFFSET - 1, [1], 10)
    # the guard checks the canonical offset, not the raw one
    s = LaurentSeries(MIN_OFFSET - 3, [0, 0, 0, 1], 10)
    assert s.offset == MIN_OFFSET


def test_coeff_beyond_truncation_order_is_an_error():
    s = one(10)
    with pytest.raises(ValueError, match="beyond truncation order"):
        s.coeff(11)


def test_equality_includes_order():
    assert LaurentSeries(0, [1, 2], 10) == LaurentSeries(0, [1, 2], 10)
    assert LaurentSeries(0, [1, 2], 10) != LaurentSeries(0, [1, 2], 11)


# -- arithmetic --------------------------------------------------------------


def test_addition_aligns_offsets():
    a = LaurentSeries(-1, [1, 0, 3], 10)
    b = LaurentSeries(1, [2, 5], 10)
    c = a + b
    assert c.coeff_range(-1, 2) == [1, 0, 5, 5]


def test_subtraction_cancels_to_zero():
    a = LaurentSeries(2, [7, 1], 15)
    assert (a - a).is_zero


def test_multiplication_hand_case():
    # (1 + q)(1 - q) = 1 - q^2
    a = LaurentSeries(0, [1, 1], 10)
    b = LaurentSeries(0, [1, -1], 10)
    assert (a * b).prefix(3) == [1, 0, -1, 0]


def test_scalar_multiplication():
    a = LaurentSeries(1, [1, 2], 10)
    assert (3 * a).coeff_range(1, 2) == [3, 6]
    assert (a * -1).coeff_range(1, 2) == [-1, -2]


def test_order_mismatch_is_an_error():
    a = one(10)
    b = one(11)
    with pytest.raises(ValueError, match="truncation orders differ"):
        a + b
    with pytest.raises(ValueError, match="truncation orders differ"):
        a * b


def dict_of(s):
    return {s.offset + i: c for i, c in enumerate(s.coeffs) if c}


series_strategy = st.builds(
    LaurentSeries,
    st.integers(min_value=-5, max_value=5),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=8),
    st.just(30),
)


@settings(max_examples=200, deadline=None)
@given(series_strategy, series_strategy)
def test_multiplication_matches_naive_convolution(a, b):
    expected = {}
    for ea, ca in dict_of(a).items():
        for eb, cb in dict_of(b).items():
            if ea + eb <= 30:
                expected[ea + eb] = expected.get(ea + eb, 0) + ca * cb
    prod = a * b
    for n in range(-10, 31):
        assert prod.coeff(n) == expected.get(n, 0)
    if not a.is_zero and not b.is_zero and not prod.is_zero:
        assert prod.min_exponent >= a.min_exponent + b.min_exponent


coefficient_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=30)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-4, max_value=4),
    coefficient_lists,
    st.integers(min_value=-4, max_value=4),
    coefficient_lists,
    st.integers(min_value=0, max_value=20),
)
def test_product_is_exact_through_order_plus_the_lowest_negative_offset(
    offset_a, coeffs_a, offset_b, coeffs_b, order
):
    a = LaurentSeries(offset_a, coeffs_a, order)
    b = LaurentSeries(offset_b, coeffs_b, order)
    deep = order + 10
    reference = LaurentSeries(offset_a, coeffs_a, deep) * LaurentSeries(offset_b, coeffs_b, deep)
    exact = order + min(0, a.offset, b.offset)
    assert (a * b).coeff_range(-8, exact) == reference.coeff_range(-8, exact)


def test_negative_offset_product_loses_its_top_coefficients():
    # the q^5 coefficient of (q^-1 + 1) * (-q;q)_inf needs the symbol's q^6
    # coefficient, which order 5 has dropped
    symbol = ProductFactor(-1, 1, 1)
    cut = LaurentSeries(-1, [1, 1], 5) * pochhammer(symbol, 5)
    deep = LaurentSeries(-1, [1, 1], 9) * pochhammer(symbol, 9)
    assert cut.coeff_range(-1, 4) == deep.coeff_range(-1, 4)
    assert (cut.coeff(5), deep.coeff(5)) == (3, 7)


@settings(max_examples=100, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


# -- pochhammer expansion ----------------------------------------------------


def test_finite_pochhammer_hand_case():
    # (q;q)_3 = (1-q)(1-q^2)(1-q^3)
    s = pochhammer(ProductFactor(1, 1, 1, 1, 3), 10)
    assert s.prefix(6) == [1, -1, -1, 0, 1, 1, -1]


def test_pochhammer_sign_is_inside_the_symbol():
    # (-q;q)_2 = (1+q)(1+q^2)
    s = pochhammer(ProductFactor(-1, 1, 1, 1, 2), 10)
    assert s.prefix(3) == [1, 1, 1, 1]


def test_pochhammer_with_zero_shift_doubles():
    # (-1;q^2)_2 = (1+1)(1+q^2) = 2 + 2q^2
    s = pochhammer(ProductFactor(-1, 0, 2, 1, 2), 10)
    assert s.prefix(3) == [2, 0, 2, 0]


def test_pochhammer_negative_shift_gives_laurent_offset():
    # (-q^-1;q^2)_2 = (1+q^-1)(1+q)
    s = pochhammer(ProductFactor(-1, -1, 2, 1, 2), 10)
    assert s.min_exponent == -1
    assert s.coeff_range(-1, 1) == [1, 2, 1]


def test_infinite_pochhammer_counts_distinct_partitions():
    s = pochhammer(ProductFactor(-1, 1, 1), 60)
    assert s.prefix(60) == neg_q_q_prefix(60)
    # the polynomial oracle itself is pinned to direct enumeration
    for n in range(31):
        assert s.coeff(n) == count_d(n)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-1, max_value=1).filter(bool),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=5),
)
def test_pochhammer_splits_into_finite_head_and_tail(sign, shift, step, head):
    order = 40
    whole = pochhammer(ProductFactor(sign, shift, step), order)
    front = pochhammer(ProductFactor(sign, shift, step, 1, head), order)
    tail = pochhammer(ProductFactor(sign, shift + head * step, step), order)
    assert front * tail == whole


def test_negative_shift_split_agrees_away_from_the_truncation_edge():
    # a q^-1 head times the tail's trimmed top coefficient cannot be
    # recovered after splitting, so agreement stops |shift| below the order
    order = 40
    whole = pochhammer(ProductFactor(-1, -1, 1), order)
    front = pochhammer(ProductFactor(-1, -1, 1, 1, 1), order)
    tail = pochhammer(ProductFactor(-1, 0, 1), order)
    split = front * tail
    assert split.coeff_range(-1, order - 1) == whole.coeff_range(-1, order - 1)
    assert split.coeff(order) != whole.coeff(order)


def test_negative_shift_pochhammer_is_exact_at_its_order():
    # (-q^-1;q)_inf has a q^-1 * q^(order+1) term at q^order
    assert pochhammer(ProductFactor(-1, -1, 1), 40).coeff(40) == pochhammer(
        ProductFactor(-1, -1, 1), 41
    ).coeff(40)


def test_pochhammer_zero_length_is_one():
    assert pochhammer(ProductFactor(1, 1, 1, 1, 0), 10) == one(10)


def test_pochhammer_validation():
    with pytest.raises(ValueError, match="sign"):
        pochhammer(ProductFactor(2, 1, 1), 10)
    with pytest.raises(ValueError, match="step"):
        pochhammer(ProductFactor(1, 1, 0), 10)
    with pytest.raises(ValueError, match="length"):
        pochhammer(ProductFactor(1, 1, 1, 1, -2), 10)


# -- the reference list kernels ----------------------------------------------


def naive_multiply(c, sign, e):
    out = list(c)
    for i in range(e, len(c)):
        out[i] -= sign * c[i - e]
    return out


def naive_divide(c, sign, e):
    out = list(c)
    for i in range(e, len(out)):
        out[i] += sign * out[i - e]
    return out


# e against a length of 30: e*e below the length (residue classes), at or
# above it (blocks), e equal to or beyond the length (no change)
@pytest.mark.parametrize("e", [1, 2, 3, 5, 6, 7, 15, 29, 30, 31, 45])
@pytest.mark.parametrize("sign", [1, -1])
def test_kernels_match_naive_loops(sign, e):
    rng = random.Random(1000 * e + sign)
    for length in (30, rng.randrange(1, 60)):
        c = [rng.randint(-50, 50) for _ in range(length)]
        got = list(c)
        multiply_binomial(got, sign, e)
        assert got == naive_multiply(c, sign, e)
        got = list(c)
        divide_binomial(got, sign, e)
        assert got == naive_divide(c, sign, e)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=70),
    st.sampled_from((1, -1)),
    st.integers(min_value=1, max_value=80),
)
def test_divide_undoes_multiply(c, sign, e):
    got = list(c)
    multiply_binomial(got, sign, e)
    divide_binomial(got, sign, e)
    assert got == c


# -- inverse factors ---------------------------------------------------------


def test_inverse_product_gives_partition_numbers():
    # 1/(q;q)_inf generates all partitions
    spec = (ProductFactor(1, 1, 1, -1),)
    s = apply_inverse_factors(one(10), spec)
    assert s.prefix(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def geometric_inverse(factors, order):
    """1 / prod (1 - sign*q^e) for (sign, e) pairs."""
    spec = tuple(ProductFactor(sign, e, 1, -1, 1) for sign, e in factors)
    return apply_inverse_factors(one(order), spec)


def test_inverse_of_plus_sign_alternates():
    # 1/(1+q) = 1 - q + q^2 - ...
    s = geometric_inverse([(-1, 1)], 6)
    assert s.prefix(6) == [1, -1, 1, -1, 1, -1, 1]


def test_inverse_times_forward_is_identity():
    fwd = pochhammer(ProductFactor(1, 1, 1), 25)
    spec = (ProductFactor(1, 1, 1, -1),)
    assert apply_inverse_factors(fwd, spec) == one(25)


def test_inverse_factor_without_unit_constant_term_is_an_error():
    spec = (ProductFactor(1, 0, 2, -1),)
    with pytest.raises(ValueError, match="no unit constant term"):
        apply_inverse_factors(one(10), spec)


@pytest.mark.parametrize("shift", [0, -1])
def test_inverse_factor_without_unit_constant_term_is_refused_on_the_zero_series(shift):
    spec = (ProductFactor(1, shift, 1, -1),)
    with pytest.raises(ValueError, match="no unit constant term"):
        apply_inverse_factors(zero(10), spec)


def test_factor_power_must_be_a_unit():
    spec = (ProductFactor(1, 1, 1, 2),)
    with pytest.raises(ValueError, match="power"):
        apply_inverse_factors(one(10), spec)


def test_forward_factor_family_matches_pochhammer():
    spec = (ProductFactor(1, 1, 2, 1),)
    assert apply_inverse_factors(one(20), spec) == pochhammer(
        ProductFactor(1, 1, 2), 20
    )


inverse_factor_strategy = st.builds(
    ProductFactor,
    st.sampled_from((1, -1)),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.just(-1),
    st.one_of(st.just(INFINITE), st.integers(min_value=0, max_value=3)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(inverse_factor_strategy, min_size=1, max_size=3), series_strategy)
def test_inverse_factors_cancel_against_their_direct_expansion(factors, x):
    inverse = tuple(factors)
    forward = tuple(ProductFactor(f.sign, f.shift, f.step, 1, f.length) for f in factors)
    assert apply_inverse_factors(apply_inverse_factors(x, inverse), forward) == x


# -- the shared decomposition against a plain product -------------------------


def times_binomial(poly, sign, e, power, cap):
    """{exponent: coefficient} times (1 - sign*q^e)^power, dropping exponents above cap."""
    if power == 1:
        factor = [(0, 1), (e, -sign)]
    else:
        factor = [(k * e, sign**k) for k in range((cap - min(poly, default=0)) // e + 1)]
    out = {}
    for a, x in poly.items():
        for b, y in factor:
            if a + b <= cap:
                out[a + b] = out.get(a + b, 0) + x * y
    return out


def reference_product(factors, exponent, cap):
    """q^exponent * prod factors as {exponent: coefficient}, one binomial at a time.

    Exponents above cap are dropped as they appear; factors below pull no
    exponent down by more than 9, so the result is exact through cap - 10.
    """
    poly = {exponent: 1}
    for f in factors:
        j = 0
        while j < f.length and f.shift + j * f.step <= cap:
            poly = times_binomial(poly, f.sign, f.shift + j * f.step, f.power, cap)
            j += 1
    return poly


@st.composite
def product_factors(draw, length):
    """A family with sign +-1, shift -2..4 (power -1 only from shift 1), step 1..3."""
    shift = draw(st.integers(min_value=-2, max_value=4))
    power = draw(st.sampled_from((1, -1))) if shift >= 1 else 1
    return ProductFactor(
        draw(st.sampled_from((1, -1))), shift, draw(st.integers(min_value=1, max_value=3)),
        power, draw(length),
    )


finite_or_infinite = st.one_of(st.just(INFINITE), st.integers(min_value=0, max_value=4))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(product_factors(finite_or_infinite), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=30),
)
def test_product_expansion_matches_a_plain_product(factors, order):
    expected = reference_product(factors, 0, order + 10)
    m = sum(
        f.shift + j * f.step
        for f in factors
        for j in range(3)
        if j < f.length and f.shift + j * f.step < 0
    )
    lo = min(m, 0)
    got = apply_inverse_factors(one(order), tuple(factors))
    assert got.coeff_range(lo, order) == [expected.get(k, 0) for k in range(lo, order + 1)]


@settings(max_examples=100, deadline=None)
@given(
    product_factors(st.just(0)),
    product_factors(st.just(0)),
    st.integers(min_value=-3, max_value=2),
    st.integers(min_value=0, max_value=30),
)
def test_running_sum_matches_a_sum_of_plain_products(first, second, a, order):
    # families of n factors each lower a term by at most 6, so the lowest
    # exponent n*n + 4*n + a - 6 (a at n=0) grows strictly with n
    def factors(n):
        return tuple(
            ProductFactor(f.sign, f.shift, f.step, f.power, n) for f in (first, second)
        )

    cap = order + 10
    expected = {}
    n = 0
    while n * n + 4 * n + a - 6 <= cap:
        for k, x in reference_product(factors(n), n * n + 4 * n + a, cap).items():
            expected[k] = expected.get(k, 0) + x
        n += 1
    got = sum_term_family(lambda n: n * n + 4 * n + a, factors, order)
    lo = min(a, 0)
    assert got.coeff_range(lo, order) == [expected.get(k, 0) for k in range(lo, order + 1)]


# -- packed kernels against the list reference --------------------------------


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def factor_families(draw):
    """Up to three families, each from shift 1 possibly joined by its inverse.

    A family and its inverse cover the same binomials, so each of those has
    net power zero unless another family reaches it too.
    """
    families = draw(st.lists(product_factors(finite_or_infinite), max_size=3))
    for f in list(families):
        if f.shift >= 1 and draw(st.booleans()):
            families.append(ProductFactor(f.sign, f.shift, f.step, -f.power, f.length))
    return tuple(draw(st.permutations(families)))


huge = st.integers(min_value=-10**30, max_value=10**30)


@settings(max_examples=200, deadline=None)
@given(
    factor_families(),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=-5, max_value=5),
    st.lists(huge, min_size=1, max_size=8),
)
def test_packed_product_matches_the_list_reference(factors, order, offset, coeffs):
    x = LaurentSeries(offset, coeffs, order)
    got = outcome(apply_inverse_factors, x, factors)
    assert got == outcome(list_apply_inverse_factors, x, factors)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(product_factors(st.just(0)), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=2),
    huge,
    huge,
    st.integers(min_value=0, max_value=300),
)
def test_packed_sum_matches_the_list_reference(
    families, a, b, c, start, constant, scale, order
):
    # term n runs families of length n, n + 1, ...; an exponent that stalls
    # or falls must be refused by both with the same message
    def factors(n):
        return tuple(
            ProductFactor(f.sign, f.shift, f.step, f.power, n + k)
            for k, f in enumerate(families)
        )

    def exponent(n):
        return a * n * n + b * n + c

    args = (exponent, factors, order, start, constant, scale)
    assert outcome(sum_term_family, *args) == outcome(list_sum_term_family, *args)


# -- term summation ----------------------------------------------------------


def test_sum_terms_accumulates_until_empty():
    order = 12
    terms = (monomial(1, n * n, order) for n in range(50))
    s = sum_terms(terms, order)
    assert s.prefix(10) == [1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0]


def test_sum_terms_stops_at_first_empty_term():
    order = 8
    seen = []

    def gen():
        for n in range(100):
            seen.append(n)
            yield monomial(1, 3 * n, order)

    sum_terms(gen(), order)
    # q^9 truncates to nothing at order 8, so n=3 is the last term taken
    assert seen == [0, 1, 2, 3]


def test_sum_terms_rejects_decreasing_minimum_exponent():
    order = 10
    terms = [monomial(1, 4, order), monomial(1, 2, order)]
    with pytest.raises(ValueError, match="decreased"):
        sum_terms(terms, order)


def test_sum_terms_reports_stalled_families_as_divergent():
    order = 10
    terms = (monomial(1, 1, order) for _ in range(200))
    with pytest.raises(ValueError, match="divergent"):
        sum_terms(terms, order, guard=20)


def test_sum_terms_rejects_mismatched_truncation_order():
    with pytest.raises(ValueError, match="differs"):
        sum_terms([one(5)], 6)


# -- running-term sums -------------------------------------------------------


def test_running_sum_matches_term_by_term_expansion():
    # sum q^(n^2+n) (-q^-1;q^2)_n (-q^3;q^4)_1 / (q^2;q^2)_n, with a zero shift
    # family that doubles every term after the first
    order = 60

    def pochs(n):
        return (
            ProductFactor(-1, -1, 2, 1, n),
            ProductFactor(-1, 3, 4, 1, 1),
            ProductFactor(-1, 0, 1, 1, min(n, 1)),
        )

    def inverse(n):
        return (ProductFactor(1, 2, 2, -1, n), ProductFactor(1, 2 * n + 1, 1, 1, 1))

    deep = order + 40
    terms = []
    for n in range(12):
        t = monomial(1, n * n + n, deep)
        for p in pochs(n):
            t = t * pochhammer(p, deep)
        terms.append(apply_inverse_factors(t, inverse(n)))
    expected = sum_terms(terms, deep)
    got = sum_term_family(lambda n: n * n + n, lambda n: pochs(n) + inverse(n), order)
    assert got == LaurentSeries(expected.offset, expected.coeffs, order)


def test_running_sum_applies_scale_and_constant():
    s = sum_term_family(lambda n: n, lambda n: (), 5, start=1,
                        constant=1, scale=2)
    assert s.prefix(5) == [1, 2, 2, 2, 2, 2]


def test_running_sum_of_no_terms_is_the_constant():
    s = sum_term_family(lambda n: 10 + n, lambda n: (), 5, constant=3)
    assert s == monomial(3, 0, 5)


def test_running_sum_rejects_decreasing_minimum_exponent():
    with pytest.raises(ValueError, match="decreased from 4 to 3"):
        sum_term_family(lambda n: 4 - n, lambda n: (), 10)


def test_running_sum_reports_stalled_families_as_divergent():
    with pytest.raises(ValueError, match="stalled at minimum exponent 1 for more than 100"):
        sum_term_family(lambda n: 1, lambda n: (), 10)


def test_running_sum_rejects_an_inverse_factor_without_unit_constant_term():
    with pytest.raises(ValueError, match="inverse factor with exponent 0 has no unit"):
        sum_term_family(lambda n: n, lambda n: (ProductFactor(1, 0, 2, -1, n),), 10)


def test_running_sum_guards_its_laurent_offset():
    with pytest.raises(ValueError, match="Laurent guard"):
        sum_term_family(lambda n: n, lambda n: (ProductFactor(-1, -200, 1, 1, 1),), 10)
