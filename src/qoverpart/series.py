"""Truncated integer power series in one variable q, with Laurent offsets.

Everything is exact: coefficients are Python ints and the truncation order is
threaded explicitly through every operation.  A series knows the largest
exponent it is valid to, and combining series with different truncation orders
is an error rather than a guess.  Offsets may be negative (a few product
factors below start at q^-1 or q^-2) but are guarded so a runaway computation
fails loudly instead of allocating without bound.

Product sides and sum terms alike are q^a times families of binomials
(1 - sign*q^e)^(+-1), and both split through one decomposition: a monomial
q^m, an integer, and a power series with a unit constant term (each
negative-exponent factor is -sign*q^e times (1 - sign*q^-e)).  That series
is expanded Kronecker-packed: its coefficients of q^m .. q^order are the
w-bit slots of one Python int, X = sum c_i * 2^(i*w), so multiplying by a
binomial is one shift, one add and one mask, and dividing by one is a few
such doublings.  Evaluation at q = 2^w modulo 2^((top+1)*w) is a ring
homomorphism from Z[q]/(q^(top+1)), so intermediate slots may wrap freely;
only the final coefficients must fit a signed slot, and the slot width comes
from a proven coefficient bound (``_slot_width``).  Every coefficient through
the order is exact however far a negative shift pulls a term back.  A sum
side is built from one running term: stepping term n-1 to term n applies
only the binomials whose net power changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable

INFINITE = float("inf")

# The registered identities never need exponents below q^-2 per factor; a
# construction landing below this bound is a bug, not a bigger computation.
MIN_OFFSET = -128

# A term family whose minimum exponent stays put this many terms running is
# reported as divergent.
STALL_GUARD = 100


def _check_offset(offset: int) -> None:
    if offset < MIN_OFFSET:
        raise ValueError(
            f"series offset {offset} fell below the Laurent guard {MIN_OFFSET}"
        )


class LaurentSeries:
    """Immutable coefficients for q^offset .. q^order.

    ``coeffs[i]`` is the coefficient of ``q^(offset + i)``.  The stored form
    is canonical: no zero coefficient at either end, and the empty series is
    represented with ``offset == order + 1``.
    """

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs: Iterable[int], order: int):
        parts = list(coeffs)
        if offset + len(parts) - 1 > order:
            parts = parts[: max(order - offset + 1, 0)]
        while parts and parts[0] == 0:
            del parts[0]
            offset += 1
        while parts and parts[-1] == 0:
            del parts[-1]
        if not parts:
            offset = order + 1
        _check_offset(offset)
        self.offset: int = offset
        self.coeffs: tuple[int, ...] = tuple(parts)
        self.order: int = order

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_exponent(self) -> int | None:
        """Lowest exponent with a nonzero coefficient, or None if zero."""
        return self.offset if self.coeffs else None

    def _beyond_order(self, n: int) -> ValueError:
        return ValueError(
            f"coefficient of q^{n} requested beyond truncation order {self.order}"
        )

    def coeff(self, n: int) -> int:
        """Coefficient of q^n.  Asking beyond the truncation order is an error."""
        if n > self.order:
            raise self._beyond_order(n)
        i = n - self.offset
        if i < 0 or i >= len(self.coeffs):
            return 0
        return self.coeffs[i]

    def coeff_range(self, lo: int, hi: int) -> list[int]:
        """Coefficients of q^lo .. q^hi, cut from one slice of ``coeffs``."""
        width = hi - lo + 1
        if width <= 0:
            return []
        if hi > self.order:
            raise self._beyond_order(max(lo, self.order + 1))
        start = lo - self.offset
        head = min(max(-start, 0), width)
        body = list(self.coeffs[max(start, 0):max(start + width, 0)])
        return [0] * head + body + [0] * (width - head - len(body))

    def prefix(self, hi: int) -> list[int]:
        """Coefficients of q^0 .. q^hi."""
        return self.coeff_range(0, hi)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "LaurentSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check_compatible(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - lo + i] += c
        return LaurentSeries(lo, out, self.order)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.offset, [-c for c in self.coeffs], self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """The product, truncated at the shared order.

        It is exact only through q^(order + min(0, self.offset, other.offset)):
        above that, a negative offset in one factor would need coefficients
        of the other from beyond the order, which neither keeps.  So
        (q^-1 + 1) * (-q;q)_inf gives 3 at q^5 at order 5, where the true
        coefficient is 7.
        """
        if isinstance(other, int):
            return LaurentSeries(
                self.offset, [other * c for c in self.coeffs], self.order
            )
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            return zero(self.order)
        lo = self.offset + other.offset
        out = [0] * (self.order - lo + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            ea = self.offset + i
            jmax = min(len(other.coeffs), self.order - ea - other.offset + 1)
            for j in range(jmax):
                b = other.coeffs[j]
                if b:
                    out[ea + other.offset + j - lo] += a * b
        return LaurentSeries(lo, out, self.order)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.order == other.order
            and self.offset == other.offset
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.offset, self.coeffs, self.order))

    def __repr__(self) -> str:
        return f"LaurentSeries(offset={self.offset}, coeffs={self.coeffs}, order={self.order})"


def zero(order: int) -> LaurentSeries:
    return LaurentSeries(0, [], order)


def one(order: int) -> LaurentSeries:
    return LaurentSeries(0, [1], order)


def monomial(coefficient: int, exponent: int, order: int) -> LaurentSeries:
    """The series coefficient * q^exponent, truncated at ``order``."""
    return LaurentSeries(exponent, [coefficient], order)


@dataclass(frozen=True)
class ProductFactor:
    """One family of binomial factors (1 - sign*q^(shift + j*step))^power, j < length.

    With power +1 this is the q-Pochhammer symbol
    (sign * q^shift ; q^step)_length, ``sign`` being the sign inside the
    symbol: sign=-1 expands to factors (1 + q^(shift + j*step)) and sign=+1
    to (1 - q^(shift + j*step)).  Power -1 is the inverse of that symbol.
    """

    sign: int
    shift: int
    step: int
    power: int = 1
    length: int | float = INFINITE


def _family_exponents(f: ProductFactor) -> Iterable[int]:
    """The increasing exponents shift + j*step of one checked factor family."""
    if f.sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {f.sign}")
    if f.step < 1:
        raise ValueError(f"step must be >= 1, got {f.step}")
    if f.length is not INFINITE and (not isinstance(f.length, int) or f.length < 0):
        raise ValueError(f"length must be a nonnegative integer or INFINITE, got {f.length}")
    if f.power not in (1, -1):
        raise ValueError(f"factor power must be +1 or -1, got {f.power}")
    if f.length is INFINITE:
        return count(f.shift, f.step)
    return range(f.shift, f.shift + f.length * f.step, f.step)


def _no_unit_constant_term(e: int) -> ValueError:
    return ValueError(f"inverse factor with exponent {e} has no unit constant term")


def _net_binomials(
    families: tuple[ProductFactor, ...], exponent: int, order: int
) -> tuple[int, int, dict[tuple[int, int], int]]:
    """Split q^exponent * prod families into q^m, an integer coef and binomials.

    A factor (1 - sign*q^e) with e < 0 is -sign*q^e*(1 - sign*q^-e), and one
    with e = 0 is the integer 1 - sign, so the product is
    coef * q^m * prod (1 - sign*q^|e|)^p with m = exponent plus the sum of
    the negative exponents.  The binomials form a power series with a unit
    constant term, and ``powers`` maps each (sign, |e|), e != 0 and
    |e| <= order - m, to its net power p: expanding them on coefficients of
    q^m .. q^order is exact through q^order, whatever the negative exponents.
    An inverse factor with e <= 0 has no such expansion and is refused,
    whether or not the order reaches it.
    """
    m = exponent
    coef = 1
    for f in families:
        for e in _family_exponents(f):
            if e > 0:
                break
            if f.power == -1:
                raise _no_unit_constant_term(e)
            m += e
            coef *= -f.sign if e else 1 - f.sign
    _check_offset(m)
    top = order - m
    powers: dict[tuple[int, int], int] = {}
    for f in families:
        for e in _family_exponents(f):
            if e > top:
                break
            if e and abs(e) <= top:
                key = (f.sign, abs(e))
                powers[key] = powers.get(key, 0) + f.power
    return m, coef, powers


def _slot_width(magnitude: int, powers: dict[tuple[int, int], int], top: int) -> int:
    """Bits per slot, a multiple of 8, that hold every final coefficient signed.

    It bounds y * prod (1 - sign*q^e)^p over the ``powers`` entries, cut at
    q^top, for any y with sum |y_i| <= ``magnitude``; and so also a sum of
    such products whose sums |y_i| add up to at most ``magnitude`` and whose
    |p| at each binomial are at most those given.

    Proof.  Coefficientwise, |1 - sign*q^e| <= 1 + q^e <= F_e and
    |1/(1 - sign*q^e)| <= F_e, where F_e = 1/(1 - q^e) has nonnegative
    coefficients and constant term 1.  So the product is majorized by
    G = prod_e F_e^K_e, K_e the sum over both signs of |p| at e, and a
    larger K_e only enlarges G.  Each coefficient through q^top is then at
    most magnitude times the largest [q^n] G, n <= top.  Cauchy's bound
    [q^n] G <= G(r) / r^n, 0 < r < 1, with r = e^-t gives
    exp(t*top - sum_e K_e * log(1 - e^(-t*e))) for every n <= top and any
    t > 0; t = pi*sqrt(K/(6*top)), K the largest K_e, is near the saddle
    point of 1/(q;q)^K.  A slot then needs magnitude.bit_length() plus the
    bound's log2, rounded up, plus 2 bits of margin for the floating-point
    sum and 1 sign bit.
    """
    reach: dict[int, int] = {}
    for (_, e), p in powers.items():
        if p:
            reach[e] = reach.get(e, 0) + abs(p)
    log_bound = 0.0
    if reach:
        t = math.pi * math.sqrt(max(reach.values()) / (6 * top))
        log_bound = t * top - sum(k * math.log(-math.expm1(-t * e)) for e, k in reach.items())
    bits = magnitude.bit_length() + math.ceil(log_bound / math.log(2)) + 3
    return -(-bits // 8) * 8


def _pack(coeffs: tuple[int, ...], w: int) -> int:
    """sum coeffs[i] * 2^(i*w), by Horner's rule; slots may be negative."""
    x = 0
    for c in reversed(coeffs):
        x = (x << w) + c
    return x


def _unpack(x: int, w: int, slots: int) -> list[int]:
    """The signed w-bit slots 0 .. slots-1 of x taken modulo 2^(slots*w).

    Adding 2^(w-1) to every slot makes each one nonnegative, so no slot
    borrows from the next; flipping the same top bits back leaves each
    slot in two's complement.
    """
    size = w // 8
    bias = int.from_bytes((1 << (w - 1)).to_bytes(size, "little") * slots, "little")
    data = (((x + bias) & ((1 << slots * w) - 1)) ^ bias).to_bytes(slots * size, "little")
    return [int.from_bytes(data[i:i + size], "little", signed=True)
            for i in range(0, slots * size, size)]


def _apply_binomials(
    x: int, powers: Iterable[tuple[tuple[int, int], int]], top: int, w: int
) -> int:
    """x * prod (1 - sign*q^e)^p mod q^(top+1), on packed slots of w bits.

    ``powers`` holds ((sign, e), p) pairs.  1/(1 - q^e) is
    (1 + q^e)(1 + q^2e)(1 + q^4e)... up to the top slot, and 1/(1 + q^e) is
    (1 - q^e) / (1 - q^2e).
    """
    mask = (1 << (top + 1) * w) - 1
    x &= mask
    limit = top * w
    for (sign, e), p in powers:
        shift = e * w
        if shift > limit:
            continue
        for _ in range(abs(p)):
            if p > 0:
                x = (x - (x << shift) if sign == 1 else x + (x << shift)) & mask
            else:
                step = shift
                if sign == -1:
                    x = (x - (x << shift)) & mask
                    step *= 2
                while step <= limit:
                    x = (x + (x << step)) & mask
                    step <<= 1
    return x


def apply_inverse_factors(
    series: LaurentSeries, factors: tuple[ProductFactor, ...]
) -> LaurentSeries:
    """Multiply by a product of binomial factor families, powers +1 or -1.

    Power -1 families are expanded geometrically, e.g. 1/(1-q^k) =
    1 + q^k + q^2k + ... and 1/(1+q^k) = 1 - q^k + q^2k - ...; every such
    factor must have a unit constant term (exponent >= 1) or the expansion
    would not be a power series, and that is reported as an error.  The
    result is exact through q^order.
    """
    order = series.order
    m, coef, powers = _net_binomials(factors, series.offset, order)
    top = order - m
    if top < 0:
        return zero(order)
    w = _slot_width(abs(coef) * sum(map(abs, series.coeffs)), powers, top)
    x = _apply_binomials(_pack(series.coeffs, w), powers.items(), top, w)
    return LaurentSeries(m, _unpack(coef * x, w, top + 1), order)


def pochhammer(f: ProductFactor, order: int) -> LaurentSeries:
    """Expand one factor family, such as a Pochhammer symbol, as a truncated series.

    An INFINITE length stops at the first factor that cannot reach q^order.
    """
    return apply_inverse_factors(one(order), (f,))


def _guard_step(last_min: int | None, m: int, stall: int, guard: int) -> int:
    """The stall count after a term with minimum exponent m; raises on a bad family."""
    if last_min is None or m > last_min:
        return 0
    if m < last_min:
        raise ValueError(f"term minimum exponent decreased from {last_min} to {m}")
    if stall + 1 > guard:
        raise ValueError(
            f"term family stalled at minimum exponent {m} for more than "
            f"{guard} terms; divergent family?"
        )
    return stall + 1


def sum_terms(
    terms: Iterable[LaurentSeries], order: int, guard: int = STALL_GUARD
) -> LaurentSeries:
    """Sum a family of term series whose minimum exponents grow without bound.

    Summation stops at the first term that truncates to nothing (for the
    registered families that happens exactly when the term's true minimum
    exponent exceeds the truncation order).  A family whose minimum exponent
    fails to grow for more than ``guard`` consecutive terms is reported as
    divergent instead of looping forever.
    """
    total = zero(order)
    last_min: int | None = None
    stall = 0
    for t in terms:
        if t.order != order:
            raise ValueError(f"term truncation order {t.order} differs from {order}")
        m = t.min_exponent
        if m is None:
            break
        stall = _guard_step(last_min, m, stall, guard)
        last_min = m
        total = total + t
    return total


# One term of a decomposed sum: q^m, its integer coef, and the binomials
# (sign, e) whose net power changed from the term before, with the change,
# as an order-free set.
SumTerm = tuple[int, int, frozenset[tuple[tuple[int, int], int]]]


def decompose_term_family(
    exponent: Callable[[int], int],
    factors: Callable[[int], tuple[ProductFactor, ...]],
    order: int,
    start: int = 0,
) -> tuple[SumTerm, ...]:
    """Split each term of sum_{n >= start} q^exponent(n) * prod factors(n).

    Term n is coef * q^m * body, split by ``_net_binomials``; the body is
    kept as the change in net powers from term n-1, so two families that
    split into the same binomials give equal results.  The split stops at
    the first term whose lowest exponent m exceeds the order.  That exponent
    must not decrease from one term to the next, nor stay put for more than
    ``STALL_GUARD`` terms.
    """
    terms: list[SumTerm] = []
    held: dict[tuple[int, int], int] = {}
    last_min: int | None = None
    stall = 0
    n = start
    while True:
        m, coef, powers = _net_binomials(factors(n), exponent(n), order)
        if m > order:
            break
        stall = _guard_step(last_min, m, stall, STALL_GUARD)
        last_min = m
        changed = {}
        for key, _ in held.items() ^ powers.items():
            delta = powers.get(key, 0) - held.get(key, 0)
            if delta:
                changed[key] = delta
        terms.append((m, coef, frozenset(changed.items())))
        held = powers
        n += 1
    return tuple(terms)


def expand_term_family(
    terms: tuple[SumTerm, ...], order: int, constant: int = 0, scale: int = 1
) -> LaurentSeries:
    """constant + scale * the sum of decomposed terms, through q^order.

    The terms share one running body: stepping it from one term to the next
    multiplies or divides it by just the binomials whose net power changed,
    and it is kept to q^(order - m).  The slot width bounds the whole sum:
    |constant| + |scale| * sum |coef| times the bound for the largest |power|
    each binomial reaches.
    """
    if not terms:
        return LaurentSeries(0, [constant], order)
    held: dict[tuple[int, int], int] = {}
    reach: dict[tuple[int, int], int] = {}
    for _, _, changed in terms:
        for key, delta in changed:
            p = held[key] = held.get(key, 0) + delta
            reach[key] = max(reach.get(key, 0), abs(p))
    lo = min(terms[0][0], 0)
    magnitude = abs(constant) + abs(scale) * sum(abs(coef) for _, coef, _ in terms)
    w = _slot_width(magnitude, reach, order - terms[0][0])
    body = 1
    total = 0
    for m, coef, changed in terms:
        body = _apply_binomials(body, changed, order - m, w)
        if coef:
            total += coef * (body << (m - lo) * w)
    total = scale * total + (constant << -lo * w)
    return LaurentSeries(lo, _unpack(total, w, order - lo + 1), order)


def sum_term_family(
    exponent: Callable[[int], int],
    factors: Callable[[int], tuple[ProductFactor, ...]],
    order: int,
    start: int = 0,
    constant: int = 0,
    scale: int = 1,
) -> LaurentSeries:
    """constant + scale * sum_{n >= start} q^exponent(n) * prod factors(n).

    The family is split term by term (``decompose_term_family``) before any
    term is expanded (``expand_term_family``).
    """
    return expand_term_family(
        decompose_term_family(exponent, factors, order, start), order, constant, scale
    )
