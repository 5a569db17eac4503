"""Partitions, overpartitions, Frobenius symbols, and small combinatorial maps.

A partition is a tuple of positive ints in weakly decreasing order.  An
overpartition carries an extra strictly decreasing tuple of overlined
magnitudes; a magnitude may be overlined at most once, independently of how
often it occurs non-overlined.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

Partition = tuple[int, ...]


class Overpartition(NamedTuple):
    parts: tuple[int, ...]
    overlined: tuple[int, ...]


class FrobeniusSymbol(NamedTuple):
    top: tuple[int, ...]
    bottom: tuple[int, ...]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def partition(parts: Iterable[int]) -> Partition:
    """Canonical partition: sorted decreasing, zeros dropped, negatives rejected."""
    out = sorted((p for p in parts if p != 0), reverse=True)
    if out and out[-1] < 0:
        raise ValueError("partition parts must be positive")
    return tuple(out)


def check_partition(parts: tuple[int, ...]) -> None:
    for i, p in enumerate(parts):
        if p < 1:
            raise ValueError(f"part {p} at position {i} is not positive")
        if i and parts[i - 1] < p:
            raise ValueError("parts are not weakly decreasing")


def overpartition(parts: Iterable[int], overlined: Iterable[int] = ()) -> Overpartition:
    p = partition(parts)
    ov = sorted(overlined, reverse=True)
    for i, v in enumerate(ov):
        if v < 1:
            raise ValueError("overlined magnitudes must be positive")
        if i and ov[i - 1] == v:
            raise ValueError(f"magnitude {v} overlined twice")
    return Overpartition(p, tuple(ov))


def weight(obj) -> int:
    if isinstance(obj, Overpartition):
        return sum(obj.parts) + sum(obj.overlined)
    return sum(obj)


# ---------------------------------------------------------------------------
# conjugation and Frobenius symbols
# ---------------------------------------------------------------------------


def conjugate(parts: Partition) -> Partition:
    """Transpose of the Ferrers diagram."""
    if not parts:
        return ()
    out = []
    k = len(parts)
    for j in range(1, parts[0] + 1):
        while k and parts[k - 1] < j:
            k -= 1
        out.append(k)
    return tuple(out)


def diagonal_length(parts: Partition) -> int:
    """Size of the Durfee square: the number of i with parts[i] >= i+1."""
    d = 0
    for i, p in enumerate(parts):
        if p >= i + 1:
            d = i + 1
        else:
            break
    return d


def frobenius_of(parts: Partition) -> FrobeniusSymbol:
    d = diagonal_length(parts)
    conj = conjugate(parts)
    top = tuple(parts[i] - (i + 1) for i in range(d))
    bottom = tuple(conj[i] - (i + 1) for i in range(d))
    return FrobeniusSymbol(top, bottom)


def partition_from_frobenius(symbol: FrobeniusSymbol) -> Partition:
    """Rebuild the partition whose Frobenius symbol is given.

    Both rows must be strictly decreasing, nonnegative, and equally long.
    """
    top, bottom = symbol
    if len(top) != len(bottom):
        raise ValueError("Frobenius rows have different lengths")
    for row in (top, bottom):
        for i, a in enumerate(row):
            if a < 0:
                raise ValueError("Frobenius entries must be nonnegative")
            if i and row[i - 1] <= a:
                raise ValueError("Frobenius rows must be strictly decreasing")
    d = len(top)
    rows = [top[i] + i + 1 for i in range(d)]
    # conjugating the column lengths gives every row; those past d lie
    # below the Durfee square
    rows += conjugate(tuple(b + j + 1 for j, b in enumerate(bottom)))[d:]
    return partition(rows)


def is_self_conjugate(parts: Partition) -> bool:
    return parts == conjugate(parts)


def is_almost_self_conjugate(parts: Partition) -> bool:
    """Frobenius top row exceeds the bottom row by exactly 1 in every column.

    The empty partition has no columns and does not qualify.
    """
    if not parts:
        return False
    top, bottom = frobenius_of(parts)
    return all(a == b + 1 for a, b in zip(top, bottom))


# ---------------------------------------------------------------------------
# binary-sequence statistic and pointwise addition
# ---------------------------------------------------------------------------


def t_of_binary(bits: Iterable[int]) -> tuple[int, ...]:
    """Running change-count statistic of a 0/1 sequence.

    t[0] = bits[0]; after that t steps up by one exactly where the sequence
    changes value.  Output is weakly increasing with unit steps and matches
    bits in parity termwise.
    """
    out: list[int] = []
    prev = None
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit at position {i} is {b}, expected 0 or 1")
        if prev is None:
            out.append(b)
        elif b == prev:
            out.append(out[-1])
        else:
            out.append(out[-1] + 1)
        prev = b
    return tuple(out)


def pointwise_add(base: Iterable[int], added: Iterable[int]) -> Partition:
    """Add a partition to a weakly monotone sequence, largest against largest.

    ``added`` is zero-padded at its small end up to the length of ``base``;
    it being longer means an inverse-map precondition was violated and is an
    error.  The result is returned in canonical decreasing order with zero
    entries dropped.
    """
    u = list(base)
    if u != sorted(u):
        if u != sorted(u, reverse=True):
            raise ValueError("base sequence is not monotone")
        u = u[::-1]
    v = sorted(added)
    if len(v) > len(u):
        raise ValueError(
            f"cannot align {len(v)} added parts against {len(u)} slots"
        )
    v = [0] * (len(u) - len(v)) + v
    return partition(a + b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# text form: "20,18,15~,3~" style, non-overlined first, decreasing
# ---------------------------------------------------------------------------


def format_overpartition(op: Overpartition) -> str:
    tokens = [str(p) for p in op.parts] + [f"{v}~" for v in op.overlined]
    return ",".join(tokens)


def format_partition(parts: Partition) -> str:
    return ",".join(str(p) for p in parts)


def parse_overpartition(text: str) -> Overpartition:
    """Parse the canonical text form; malformed input errors with the token index."""
    s = text.strip()
    if not s:
        return Overpartition((), ())
    parts: list[int] = []
    overlined: list[int] = []
    for i, raw in enumerate(s.split(",")):
        tok = raw.strip()
        over = tok.endswith("~")
        if over:
            tok = tok[:-1]
        if not tok.isdigit() or (len(tok) > 1 and tok[0] == "0") or int(tok) == 0:
            raise ValueError(f"token {i}: {raw!r} is not a positive integer")
        v = int(tok)
        if over:
            if overlined and overlined[-1] <= v:
                raise ValueError(f"token {i}: overlined parts must strictly decrease")
            overlined.append(v)
        else:
            if overlined:
                raise ValueError(f"token {i}: non-overlined part after an overlined one")
            if parts and parts[-1] < v:
                raise ValueError(f"token {i}: parts must be weakly decreasing")
            parts.append(v)
    return Overpartition(tuple(parts), tuple(overlined))


def parse_partition(text: str) -> Partition:
    op = parse_overpartition(text)
    if op.overlined:
        raise ValueError("overlined parts are not allowed here")
    return op.parts
