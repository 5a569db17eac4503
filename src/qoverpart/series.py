"""Truncated integer power series in one variable q, with Laurent offsets.

Everything is exact: coefficients are Python ints and the truncation order is
threaded explicitly through every operation.  A series knows the largest
exponent it is valid to, and combining series with different truncation orders
is an error rather than a guess.  Offsets may be negative (a few product
factors below start at q^-1 or q^-2) but are guarded so a runaway computation
fails loudly instead of allocating without bound.

Products expand on a dense coefficient list with two in-place kernels,
multiply and divide by one binomial (1 - sign*q^e), each one C-level pass.
A sum side is built from one running term: stepping term n-1 to term n
applies only the binomials whose net power changed.  Each negative-exponent
factor (1 - sign*q^e) is kept as the monomial -sign*q^e times the power
series (1 - sign*q^-e), so the running term carries no Laurent tail: it is
cut at the precision its own lowest exponent leaves room for, and every
coefficient through the order is exact however far a negative shift pulls a
term back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, repeat
from operator import add, mul, neg, sub
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
            parts = parts[: order - offset + 1]
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


def multiply_binomial(c: list[int], sign: int, e: int) -> None:
    """c <- c * (1 - sign*q^e) in place, kept to len(c) coefficients; e >= 1."""
    if e < len(c):
        c[e:] = map(sub if sign == 1 else add, c[e:], c[:-e])


def divide_binomial(c: list[int], sign: int, e: int) -> None:
    """c <- c / (1 - sign*q^e) in place, kept to len(c) coefficients; e >= 1.

    Each coefficient gains sign times the one e places below it, already
    divided.  Short steps run a prefix sum over each residue class mod e; long
    steps add whole blocks of e coefficients, so either way the Python-level
    loop has at most about sqrt(len(c)) rounds.
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


def _expand_family(c: list[int], offset: int, order: int, f: ProductFactor) -> int:
    """Multiply the coefficients c of q^offset .. q^order in place by one family.

    A factor with a negative exponent e is -sign*q^e*(1 - sign*q^-e): it is
    applied as that positive binomial on a list padded by -e zeros at the
    top, and then lowers the offset by -e.  Returns the new offset.
    """
    sign = f.sign
    for e in _family_exponents(f):
        if e > order - offset:
            break
        if f.power == -1:
            if e < 1:
                raise _no_unit_constant_term(e)
            divide_binomial(c, sign, e)
        elif e > 0:
            multiply_binomial(c, sign, e)
        elif e == 0:
            c[:] = map(mul, c, repeat(1 - sign))
        else:
            _check_offset(offset + e)
            c.extend(repeat(0, -e))
            multiply_binomial(c, sign, -e)
            if sign == 1:
                c[:] = map(neg, c)
            offset += e
    return offset


def pochhammer(f: ProductFactor, order: int) -> LaurentSeries:
    """Expand one factor family, such as a Pochhammer symbol, as a truncated series.

    An INFINITE length stops at the first factor that cannot reach q^order.
    Negative-exponent factors come first in the symbol, while the product is
    still a polynomial, so the expansion is exact through q^order.
    """
    c = [1] + [0] * order
    offset = _expand_family(c, 0, order, f)
    return LaurentSeries(offset, c, order)


def apply_inverse_factors(
    series: LaurentSeries, factors: tuple[ProductFactor, ...]
) -> LaurentSeries:
    """Multiply by a product of binomial factor families, powers +1 or -1.

    Power -1 families are expanded geometrically, e.g. 1/(1-q^k) =
    1 + q^k + q^2k + ... and 1/(1+q^k) = 1 - q^k + q^2k - ...; every such
    factor must have a unit constant term (exponent >= 1) or the expansion
    would not be a power series, and that is reported as an error.
    """
    order = series.order
    offset = series.offset
    c = list(series.coeffs)
    c.extend(repeat(0, order - offset + 1 - len(c)))
    for f in factors:
        offset = _expand_family(c, offset, order, f)
    return LaurentSeries(offset, c, order)


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


def sum_term_family(
    exponent: Callable[[int], int],
    factors: Callable[[int], tuple[ProductFactor, ...]],
    order: int,
    start: int = 0,
    constant: int = 0,
    scale: int = 1,
) -> LaurentSeries:
    """constant + scale * sum_{n >= start} q^exponent(n) * prod factors(n).

    The terms share one running body.  Term n is
    coef * q^(exponent(n) + mass(n)) * body, where mass(n) is the sum of the
    negative factor exponents and the body is the product of the binomials
    (1 - sign*q^|e|), e != 0, taken with their net powers: each factor with
    e < 0 is -sign*q^e*(1 - sign*q^-e), and the e = 0 factors and the -sign
    parts multiply into the integer coef.  The body is a power series with a
    unit constant term, so stepping it from term n-1 to term n multiplies or
    divides it in place by just the binomials whose net power changed, each
    one pass, and keeping it to q^(order - exponent(n) - mass(n)) loses
    nothing: every coefficient is exact through q^order, whatever the
    negative exponents.

    Summation stops at the first term whose lowest exponent,
    exponent(n) + mass(n), exceeds the order.  That exponent must not
    decrease from one term to the next, nor stay put for more than
    ``STALL_GUARD`` terms.
    """
    body: list[int] = []
    held: dict[tuple[int, int], int] = {}
    total: list[int] | None = None
    lo = 0
    last_min: int | None = None
    stall = 0
    n = start
    while True:
        families = factors(n)
        mass = 0
        for f in families:
            for e in _family_exponents(f):
                if e > 0:
                    break
                if f.power == -1:
                    raise _no_unit_constant_term(e)
                mass += e
        m = exponent(n) + mass
        if m > order:
            break
        stall = _guard_step(last_min, m, stall, STALL_GUARD)
        last_min = m
        if total is None:
            _check_offset(m)
            lo = min(m, 0)
            total = [0] * (order - lo + 1)
            body = [1] + [0] * (order - m)
        del body[order - m + 1:]

        powers: dict[tuple[int, int], int] = {}
        for f in families:
            for e in _family_exponents(f):
                if e > order - m:
                    break
                key = (f.sign, e)
                powers[key] = powers.get(key, 0) + f.power
        coef = 1
        for (sign, e), p in powers.items():
            if e < 0:
                coef *= (-sign) ** p
            elif e == 0:
                coef *= (1 - sign) ** p
        for key in held.keys() | powers.keys():
            sign, e = key
            change = powers.get(key, 0) - held.get(key, 0)
            if e and change:
                step_body = multiply_binomial if change > 0 else divide_binomial
                for _ in range(abs(change)):
                    step_body(body, sign, abs(e))
        held = powers
        if coef:
            term = body if coef == 1 else map(mul, body, repeat(coef))
            total[m - lo:] = map(add, total[m - lo:], term)
        n += 1
    if total is None:
        total = [0] * (order + 1)
    if scale != 1:
        total[:] = map(mul, total, repeat(scale))
    total[-lo] += constant
    return LaurentSeries(lo, total, order)
