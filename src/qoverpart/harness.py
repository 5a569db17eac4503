"""Identity registry and multi-sided verifier.

Every registered identity bundles two or more independently computed sides:
enumeration counts, q-series coefficients in sum or product form, Stembridge
pair counts, bijection image counts, shifted counts, and vendored sequence
files.  The verifier evaluates all sides over a shared range of weights and
reports the first disagreement.  A disagreement between two proven sides is a
hard FAIL; a disagreement confined to an unproven combinatorial reading is
FLAGGED while the proven sides must still agree among themselves.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Callable, Iterable, Sequence

from .bijections import get_map
# count_class, enumerate_class, pochhammer and sum_terms are not called here;
# they stay importable from this module because bench/spans.py traces the
# harness through those names
from .enumerators import (  # noqa: F401
    count_class,
    count_sequence,
    enumerate_class,
    partitions_upto,
)
from .series import (  # noqa: F401
    LaurentSeries,
    ProductFactor,
    apply_inverse_factors,
    one,
    pochhammer,
    sum_term_family,
    sum_terms,
)

DEFAULT_BOUND = 40
SERIES_DEEP_ORDER = 200
# pair counts are cheap past 30; the cap only keeps the pair sides of the
# verify records that bench/digests.json pins unchanged
PAIR_BOUND = 30
TRANSPORT_BOUND = 35


class SideKind(Enum):
    ENUM_COUNT = "enum-count"
    SERIES_SUM = "series-sum"
    SERIES_PRODUCT = "series-product"
    SCALED = "scaled"
    SHIFTED = "shifted"
    PAIR_COUNT = "pair-count"
    BFILE = "bfile"
    MAP_IMAGE = "map-image"


@dataclass(frozen=True)
class Side:
    """One independently computable face of an identity.

    ``values(bound)`` is the integer sequence for weights 0..bound.  A series
    side (``is_series``, by kind) is a truncated q-series read as its
    coefficients of q^0..q^bound; the verifier evaluates it through the deep
    series order and compares it with every other series side that far.
    ``cap`` bounds how far the side is evaluated (bijection images grow
    quickly; b-files simply end).
    """

    label: str
    kind: SideKind
    values: Callable[[int], list[int]]
    proven: bool = True
    cap: int | None = None

    @property
    def is_series(self) -> bool:
        return self.kind in (SideKind.SERIES_SUM, SideKind.SERIES_PRODUCT, SideKind.SCALED)


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    description: str
    sides: tuple[Side, ...]
    note: str = ""

    def __post_init__(self):
        if len(self.sides) < 2:
            raise ValueError(f"identity {self.id!r} needs at least 2 sides")

    @property
    def expectation(self) -> str:
        """PROVEN when every side is proven, else PAPER_CLAIM."""
        return "PROVEN" if all(s.proven for s in self.sides) else "PAPER_CLAIM"


@dataclass
class VerificationReport:
    id: str
    bound: int
    status: str
    sides: list[dict]
    first_mismatch: dict | None
    notes: list[str]
    error: str | None
    elapsed_ms: float


# -- side constructors -------------------------------------------------------


def _count_values(class_id: str, shift: int = 0) -> Callable[[int], list[int]]:
    def values(bound: int) -> list[int]:
        return count_sequence(class_id, bound + shift)[shift:]

    return values


def _count_side(class_id: str, proven: bool = True, cap: int | None = None) -> Side:
    return Side(f"count:{class_id}", SideKind.ENUM_COUNT, _count_values(class_id),
                proven=proven, cap=cap)


def _pair_side(variant: str) -> Side:
    return Side(f"pairs:{variant}", SideKind.PAIR_COUNT,
                _count_values(f"stembridge:{variant}"), cap=PAIR_BOUND)


def _shifted_side(class_id: str, shift: int) -> Side:
    return Side(f"count:{class_id}@n+{shift}", SideKind.SHIFTED,
                _count_values(class_id, shift))


def _checked_prefix(series: LaurentSeries, order: int, stage: str) -> list[int]:
    """Coefficients of q^0..q^order; a term below q^0 would be lost, so it raises."""
    m = series.min_exponent
    if m is not None and m < 0:
        raise ValueError(f"negative exponent q^{m} survived {stage}")
    return series.prefix(order)


def _sum_side(
    label: str,
    exponent: Callable[[int], int],
    factors: Callable[[int], tuple[ProductFactor, ...]],
    start: int = 0,
    constant: int = 0,
    scale: int = 1,
    kind: SideKind = SideKind.SERIES_SUM,
) -> Side:
    def values(order: int) -> list[int]:
        total = sum_term_family(exponent, factors, order, start, constant, scale)
        return _checked_prefix(total, order, "summation")

    return Side(label, kind, values)


def _product_side(label: str, factors: tuple[ProductFactor, ...]) -> Side:
    def values(order: int) -> list[int]:
        return _checked_prefix(apply_inverse_factors(one(order), factors), order, "expansion")

    return Side(label, SideKind.SERIES_PRODUCT, values)


# -- b-file handling ---------------------------------------------------------


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse OEIS b-file lines "n a(n)"; "#" comments and blanks are skipped."""
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'n a(n)', got {raw!r}")
        try:
            entries.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
    for i in range(1, len(entries)):
        if entries[i][0] != entries[i - 1][0] + 1:
            raise ValueError(
                f"b-file indices not contiguous: {entries[i - 1][0]} then {entries[i][0]}"
            )
    return entries


def compare_with_bfile(
    values: Sequence[int], bfile: Sequence[tuple[int, int]], offset: int = 0
) -> dict:
    """Align values[n] with the b-file entry at index n+offset.

    Returns a match report over the overlapping range; an empty overlap is a
    trivial match.
    """
    table = dict(bfile)
    overlap = 0
    first = None
    for n, v in enumerate(values):
        key = n + offset
        if key not in table:
            continue
        overlap += 1
        if first is None and table[key] != v:
            first = {"n": n, "computed": v, "bfile": table[key]}
    return {"overlap": overlap, "match": first is None, "first_mismatch": first}


@lru_cache(maxsize=None)
def _bundled_bfile(name: str) -> tuple[tuple[int, int], ...]:
    text = resources.files("qoverpart").joinpath("data").joinpath(name).read_text()
    return tuple(parse_bfile(text))


def _bfile_side(name: str, offset: int) -> Side:
    entries = _bundled_bfile(name)
    table = dict(entries)

    def values(bound: int) -> list[int]:
        return [table[n + offset] for n in range(bound + 1)]

    cap = entries[-1][0] - offset if entries else -1
    return Side(f"bfile:{name}", SideKind.BFILE, values, cap=cap)


# -- registered identities ---------------------------------------------------

F = ProductFactor

_LEBESGUE_CASE_PRODUCTS = {
    -1: (F(1, 1, 8, -1), F(1, 5, 8, -1), F(1, 6, 8, -1)),
    0: (F(-1, 2, 4, 1), F(1, 2, 4, -1)),
    1: (F(1, 2, 8, -1), F(1, 3, 8, -1), F(1, 7, 8, -1)),
    2: (F(1, 2, 8, -1), F(1, 4, 8, -1), F(1, 6, 8, -1)),
}


def _euler_record() -> IdentityRecord:
    return IdentityRecord(
        "euler",
        "distinct parts equal odd parts (Euler), with both classical products",
        (
            _count_side("d"),
            _count_side("odd"),
            _product_side("product:(-q;q)", (F(-1, 1, 1, 1),)),
            _product_side("product:1/(q;q^2)", (F(1, 1, 2, -1),)),
        ),
    )


def _dk_record(k: int) -> IdentityRecord:
    return IdentityRecord(
        f"dk:k={k}",
        f"distinct parts equal overpartitions whose overlines stay below {k}",
        (
            _count_side("d"),
            _count_side(f"dk-over:k={k}"),
            _sum_side(
                "sum",
                lambda n, k=k: k * n + n * (n - 1) // 2,
                lambda n, k=k: (F(-1, 1, 1, 1, k - 1), F(1, 1, 1, -1, n)),
            ),
        ),
    )


def _thmd_record() -> IdentityRecord:
    return IdentityRecord(
        "thmd",
        "distinct parts equal overpartitions with parity-alternating "
        "non-overlined parts starting odd",
        (
            _count_side("d"),
            _count_side("e-over"),
            _sum_side(
                "sum:distinct",
                lambda n: n * (n + 1) // 2,
                lambda n: (F(1, 1, 1, -1, n),),
            ),
            _sum_side(
                "sum:over",
                lambda n: n * (n + 1) // 2,
                lambda n: (F(-1, 1, 1, 1, n), F(1, 2, 2, -1, n)),
            ),
        ),
    )


def _frr_record() -> IdentityRecord:
    return IdentityRecord(
        "frr",
        "gap-two partitions as overpartitions with odd distinct non-overlined "
        "parts (first Rogers-Ramanujan overlay)",
        (
            _count_side("rr1"),
            _count_side("rr1-over"),
            _sum_side(
                "sum",
                lambda n: n * n,
                lambda n: (F(-1, 1, 1, 1, n), F(1, 2, 2, -1, n)),
            ),
            _count_side("mod5-14"),
        ),
    )


def _frr2_record() -> IdentityRecord:
    return IdentityRecord(
        "frr2",
        "gap-two partitions as overpartitions with even distinct non-overlined "
        "parts, overlines allowed up to length plus one",
        (
            _count_side("rr1"),
            _count_side("rr1star-over"),
            _sum_side(
                "sum",
                lambda n: n * n + n,
                lambda n: (F(-1, 1, 1, 1, n + 1), F(1, 2, 2, -1, n)),
            ),
        ),
    )


def _srr_record() -> IdentityRecord:
    return IdentityRecord(
        "srr",
        "gap-two partitions with parts above 1 as overpartitions with even "
        "distinct non-overlined parts (second Rogers-Ramanujan overlay)",
        (
            _count_side("rr2"),
            _count_side("rr2-over"),
            _sum_side(
                "sum",
                lambda n: n * n + n,
                lambda n: (F(-1, 1, 1, 1, n), F(1, 2, 2, -1, n)),
            ),
            _count_side("mod5-23"),
        ),
    )


def _a027349_record() -> IdentityRecord:
    return IdentityRecord(
        "a027349",
        "two series for partitions of n+1 into distinct odd parts with least "
        "part 1, cross-checked against the vendored sequence file",
        (
            _sum_side(
                "sum:a",
                lambda n: n * n + 2 * n,
                lambda n: (F(1, 1, 2, 1, n), F(1, 1, 1, -1, 2 * n)),
            ),
            _sum_side(
                "sum:b",
                lambda n: n * n,
                lambda n: (F(1, 1, 2, 1, n + 1), F(1, 1, 1, -1, 2 * n)),
            ),
            _shifted_side("distinct-odd-least1", 1),
            _bfile_side("a027349.txt", 0),
        ),
    )


def _fgg_record() -> IdentityRecord:
    return IdentityRecord(
        "fgg",
        "first Goellnitz-Gordon class, its overpartition overlay, the mod-8 "
        "{1,4,7} product, and self-conjugate pair counts",
        (
            _count_side("gg1"),
            _count_side("gg1-over"),
            _product_side("product:mod8-147", (F(1, 1, 8, -1), F(1, 4, 8, -1), F(1, 7, 8, -1))),
            _pair_side("gg1"),
        ),
    )


def _sgg_record() -> IdentityRecord:
    return IdentityRecord(
        "sgg",
        "second Goellnitz-Gordon class, its overlay, the mod-8 {3,4,5} "
        "product, and pair counts with positive entries",
        (
            _count_side("gg2"),
            _count_side("gg2-over"),
            _product_side("product:mod8-345", (F(1, 3, 8, -1), F(1, 4, 8, -1), F(1, 5, 8, -1))),
            _pair_side("gg2"),
        ),
    )


def _dgg_record() -> IdentityRecord:
    return IdentityRecord(
        "dgg",
        "Goellnitz-Gordon partitions containing 1 or 2, their overlay, and "
        "the difference series",
        (
            _count_side("dgg12"),
            _count_side("dgg12-over"),
            _sum_side(
                "sum:difference",
                lambda n: n * n,
                lambda n: (F(-1, 1, 2, 1, n), F(1, 2 * n, 1, 1, 1), F(1, 2, 2, -1, n)),
                start=1,
            ),
        ),
    )


def _flg_record() -> IdentityRecord:
    return IdentityRecord(
        "flg",
        "first little Goellnitz class, its overlay, the product "
        "(-q^2;q^2)(-q;q^4), and almost-self-conjugate pair counts",
        (
            _count_side("lg1"),
            _count_side("lg1-over"),
            _product_side("product:(-q^2;q^2)(-q;q^4)", (F(-1, 2, 2, 1), F(-1, 1, 4, 1))),
            _pair_side("lg1"),
        ),
    )


def _slg_record() -> IdentityRecord:
    return IdentityRecord(
        "slg",
        "second little Goellnitz class, its overlay, the mod-8 {2,3,7} "
        "product, and pair counts",
        (
            _count_side("lg2"),
            _count_side("lg2-over"),
            _product_side("product:mod8-237", (F(1, 2, 8, -1), F(1, 3, 8, -1), F(1, 7, 8, -1))),
            _pair_side("lg2"),
        ),
    )


def _lebesgue_record(alpha: int, beta: int) -> IdentityRecord:
    k = 4 * alpha + beta
    sides = [
        _sum_side(
            "sum",
            lambda n: n * (n + 1),
            lambda n, k=k, a=alpha, b=beta: (
                F(-1, k, 2, 1, n), F(-1, b + 2, 4, 1, a), F(1, 2, 2, -1, n)
            ),
        ),
    ]
    if alpha >= 1:
        sides.append(
            _sum_side(
                "sum:alt",
                lambda n: n * (n + 1),
                lambda n, k=k, a=alpha, b=beta: (
                    F(-1, k - 2, 2, 1, n + 1), F(-1, b + 2, 4, 1, a - 1), F(1, 2, 2, -1, n)
                ),
            )
        )
    sides.append(_product_side("product:case", _LEBESGUE_CASE_PRODUCTS[beta]))
    sides.append(_count_side(f"lebesgue:a={alpha},b={beta}", proven=False))
    return IdentityRecord(
        f"lebesgue:a={alpha},b={beta}",
        f"specialized Lebesgue sum with k={k}, its case product, and the "
        "stated overpartition reading (unproven)",
        tuple(sides),
    )


def _lebesgue_k0_record() -> IdentityRecord:
    return IdentityRecord(
        "lebesgue:k=0",
        "the k=0 Lebesgue specialization equals one plus twice the tail sum",
        (
            _sum_side(
                "sum",
                lambda n: n * (n + 1),
                lambda n: (F(-1, 0, 2, 1, n), F(1, 2, 2, -1, n)),
            ),
            _sum_side(
                "scaled:1+2*tail",
                lambda n: n * (n + 1),
                lambda n: (F(-1, 2, 2, 1, n - 1), F(1, 2, 2, -1, n)),
                start=1,
                constant=1,
                scale=2,
                kind=SideKind.SCALED,
            ),
        ),
        note="the right side is registered as 1 + 2*(sum from n=1), the "
        "doubled-tail convention for the zero-shift symbol",
    )


_HGL_SUMS = {
    "hgl1": ("sum", lambda n: 2 * n * n - n,
             lambda n: (F(-1, 1, 4, 1, n), F(1, 2, 2, -1, 2 * n))),
    "hgl2": ("sum", lambda n: 2 * n * n + n,
             lambda n: (F(-1, -1, 4, 1, n), F(1, 2, 2, -1, 2 * n))),
    "hgl3": ("sum", lambda n: 2 * n * n,
             lambda n: (F(-1, 0, 4, 1, n), F(1, 2, 2, -1, 2 * n))),
    "hgl4": ("sum", lambda n: 2 * n * n + 2 * n,
             lambda n: (F(-1, -2, 4, 1, n), F(1, 2, 2, -1, 2 * n))),
    "hgl5": ("sum", lambda n: 2 * n * n,
             lambda n: (F(-1, 2, 4, 1, n), F(1, 4, 4, -1, n), F(1, 4, 4, -1, n))),
}

_HGL_PRODUCTS = {
    "hgl1": ("product:mod8-156", (F(1, 1, 8, -1), F(1, 5, 8, -1), F(1, 6, 8, -1))),
    "hgl2": ("product:mod8-237", (F(1, 2, 8, -1), F(1, 3, 8, -1), F(1, 7, 8, -1))),
    "hgl3": ("product:(-q^2;q^4)/(q^2;q^4)", (F(-1, 2, 4, 1), F(1, 2, 4, -1))),
    "hgl4": ("product:mod8-246", (F(1, 2, 8, -1), F(1, 4, 8, -1), F(1, 6, 8, -1))),
    "hgl5": ("product:mod8-268", (F(1, 2, 8, -1), F(1, 6, 8, -1), F(1, 8, 8, -1))),
}


def _hgl_record(name: str) -> IdentityRecord:
    label, expo, family = _HGL_SUMS[name]
    plabel, factors = _HGL_PRODUCTS[name]
    return IdentityRecord(
        name,
        "q-Gauss specialization: quadratic-exponent sum equals its product",
        (_sum_side(label, expo, family), _product_side(plabel, factors)),
    )


def _hgll_record(name: str) -> IdentityRecord:
    base = {"hgll3": "hgl3", "hgll4": "hgl4"}[name]
    shift = {"hgll3": 0, "hgll4": 2}[name]
    aux = {"hgll3": 2, "hgll4": 4}[name]
    aux_step = {"hgll3": 4, "hgll4": 4}[name]
    label, expo, family = _HGL_SUMS[base]
    plabel, factors = _HGL_PRODUCTS[base]
    sides = [_sum_side("sum:quad", expo, family)]
    for alpha in range(4):
        sides.append(
            _sum_side(
                f"sum:lin:alpha={alpha}",
                lambda n: n * (n + 1),
                lambda n, a=alpha: (
                    F(-1, 4 * a + shift, 2, 1, n), F(-1, aux, aux_step, 1, a), F(1, 2, 2, -1, n)
                ),
            )
        )
    sides.append(_product_side(plabel, factors))
    return IdentityRecord(
        name,
        "cross-equality: one quadratic-exponent sum meets four linear-overlay "
        "sums and the shared product",
        tuple(sides),
    )


def _slater47_record() -> IdentityRecord:
    return IdentityRecord(
        "slater47",
        "Slater-style sum against two equivalent product forms",
        (
            _sum_side(
                "sum",
                lambda n: n * n,
                lambda n: (F(-1, 0, 2, 1, n), F(1, 1, 1, -1, 2 * n)),
            ),
            _product_side(
                "product:middle",
                (F(-1, 1, 2, 1), F(1, 2, 8, 1), F(1, 6, 8, 1), F(1, 4, 4, 1), F(1, 1, 1, -1)),
            ),
            _product_side("product:(-q;q^2)/(q;q^2)", (F(-1, 1, 2, 1), F(1, 1, 2, -1))),
        ),
    )


def _slater121_record() -> IdentityRecord:
    return IdentityRecord(
        "slater121",
        "Slater-style sum, two product forms, and the stated overpartition "
        "reading (unproven)",
        (
            _sum_side(
                "sum",
                lambda n: n * n,
                lambda n: (F(-1, 2, 2, 1, n - 1), F(1, 1, 1, -1, 2 * n)),
                start=1,
                constant=1,
            ),
            _product_side(
                "product:mod16",
                (F(1, 2, 16, 1), F(1, 14, 16, 1), F(1, 16, 16, 1),
                 F(1, 12, 32, 1), F(1, 20, 32, 1), F(1, 1, 1, -1)),
            ),
            _product_side(
                "product:mod32",
                tuple(F(1, s, 32, 1) for s in (2, 12, 14, 16, 18, 20, 30, 32))
                + (F(1, 1, 1, -1),),
            ),
            _count_side("slater121-over", proven=False),
        ),
    )


def _almost_sc_record() -> IdentityRecord:
    return IdentityRecord(
        "almost-sc",
        "almost-self-conjugate partitions are equinumerous with partitions "
        "into distinct even parts",
        (_count_side("distinct-even"), _count_side("almost-sc")),
    )


def _transport_record(record_id: str, map_id: str, source: str, target: str) -> IdentityRecord:
    def values(bound: int, map_id=map_id, source=source) -> list[int]:
        # images are grouped by the weight of their source, so a map that
        # moved weight would still be counted per n
        forward = get_map(map_id).forward
        images: list[set] = [set() for _ in range(bound + 1)]
        for n, lam in partitions_upto(source, bound):
            images[n].add(forward(lam))
        return [len(s) for s in images]

    image = Side(f"image:{map_id}[{source}]", SideKind.MAP_IMAGE, values,
                 cap=TRANSPORT_BOUND)
    return IdentityRecord(
        record_id,
        f"distinct images of the {map_id} map over class {source} match the "
        f"target class {target}",
        (image, _count_side(target, cap=TRANSPORT_BOUND)),
    )


_STEMBRIDGE_SUMS = {
    "gg1": (("sum", lambda n: n * n,
             lambda n: (F(-1, 1, 2, 1, n), F(1, 2, 2, -1, n))),),
    "gg2": (("sum", lambda n: n * n + 2 * n,
             lambda n: (F(-1, 1, 2, 1, n), F(1, 2, 2, -1, n))),),
    "lg1": (
        ("sum:laurent", lambda n: n * (n + 1),
         lambda n: (F(-1, -1, 2, 1, n), F(1, 2, 2, -1, n))),
        ("sum:alt", lambda n: n * (n + 1),
         lambda n: (F(-1, 1, 2, 1, n + 1), F(1, 2, 2, -1, n))),
    ),
    "lg2": (("sum", lambda n: n * n + n,
             lambda n: (F(-1, 1, 2, 1, n), F(1, 2, 2, -1, n))),),
}


def _stembridge_record(variant: str) -> IdentityRecord:
    sides = [_pair_side(variant)]
    for label, expo, family in _STEMBRIDGE_SUMS[variant]:
        sides.append(_sum_side(label, expo, family))
    return IdentityRecord(
        f"stembridge:{variant}",
        f"pairs of (almost-)self-conjugate partitions for the {variant} "
        "bound match the series",
        tuple(sides),
    )


def _build_registry() -> dict[str, IdentityRecord]:
    records: list[IdentityRecord] = [_euler_record()]
    records.extend(_dk_record(k) for k in range(1, 6))
    records.append(_thmd_record())
    records.append(_frr_record())
    records.append(_frr2_record())
    records.append(_srr_record())
    records.append(_a027349_record())
    records.append(_fgg_record())
    records.append(_sgg_record())
    records.append(_dgg_record())
    records.append(_flg_record())
    records.append(_slg_record())
    for alpha in range(4):
        for beta in (-1, 0, 1, 2):
            if 4 * alpha + beta != 0:
                records.append(_lebesgue_record(alpha, beta))
    records.append(_lebesgue_k0_record())
    records.extend(_hgl_record(f"hgl{i}") for i in range(1, 6))
    records.append(_hgll_record("hgll3"))
    records.append(_hgll_record("hgll4"))
    records.append(_slater47_record())
    records.append(_slater121_record())
    records.append(_almost_sc_record())

    transport_specs = (
        ("transport:f", "f"),
        ("transport:h-oe", "h-oe"),
        ("transport:h-eo:rr1", "h-eo"),
        ("transport:h-eo:rr2", "h-eo"),
        ("transport:g-gg:gg1", "g-gg"),
        ("transport:g-gg:gg2", "g-gg"),
        ("transport:g-gg:dgg12", "g-gg"),
        ("transport:g-lg:lg1", "g-lg"),
        ("transport:g-lg:lg2", "g-lg"),
    )
    overrides = {
        "transport:h-eo:rr2": ("rr2", "rr2-over"),
        "transport:g-gg:gg2": ("gg2", "gg2-over"),
        "transport:g-gg:dgg12": ("dgg12", "dgg12-over"),
        "transport:g-lg:lg2": ("lg2", "lg2-over"),
    }
    for record_id, map_id in transport_specs:
        spec = get_map(map_id)
        source, target = overrides.get(record_id, (spec.source, spec.target))
        records.append(_transport_record(record_id, map_id, source, target))

    records.extend(_stembridge_record(v) for v in ("gg1", "gg2", "lg1", "lg2"))

    registry = {}
    for r in records:
        if r.id in registry:
            raise ValueError(f"duplicate identity id {r.id!r}")
        registry[r.id] = r
    return registry


_REGISTRY: dict[str, IdentityRecord] | None = None


def _registry() -> dict[str, IdentityRecord]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def builtin_identities() -> list[IdentityRecord]:
    return [_registry()[i] for i in registered_identity_ids()]


def registered_identity_ids() -> list[str]:
    return sorted(_registry())


def get_identity(identity_id: str) -> IdentityRecord:
    reg = _registry()
    if identity_id not in reg:
        raise ValueError(
            f"unknown identity {identity_id!r}; registered: "
            f"{', '.join(registered_identity_ids())}"
        )
    return reg[identity_id]


# -- verification ------------------------------------------------------------


def verify(identity_id: str, bound: int = DEFAULT_BOUND) -> VerificationReport:
    """Evaluate every side of one identity for weights 0..bound and compare.

    Series sides are evaluated through order max(bound, 200) and compared
    pairwise that far in the same single pass, so a disagreement hiding beyond
    the enumeration bound still fails; every other pair is compared through
    the shorter of its two bounds.  A FAIL names the lowest disagreeing weight
    over all pairs of proven sides.  Side computation errors become FAIL
    reports rather than exceptions.
    """
    return _verify_record(get_identity(identity_id), bound)


def _verify_record(record: IdentityRecord, bound: int) -> VerificationReport:
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    start = time.perf_counter()
    deep = max(bound, SERIES_DEEP_ORDER)
    # each side's values run through its bound, or through deep for a series side
    computed: list[tuple[Side, int, list[int]]] = []
    notes: list[str] = []
    if record.note:
        notes.append(record.note)
    error = None
    for side in record.sides:
        side_bound = min(bound, side.cap) if side.cap is not None else bound
        try:
            vals = side.values(deep if side.is_series else side_bound)
        except Exception as exc:  # verification must report, not crash
            error = f"{side.label}: {type(exc).__name__}: {exc}"
            break
        computed.append((side, side_bound, vals))
        if side_bound < bound:
            notes.append(f"side {side.label} evaluated to n <= {side_bound} (cap)")
    if any(side.is_series for side, _, _ in computed):
        notes.append(
            f"series sides are truncations compared through q^{deep}; "
            "agreement checks the identity only to that order"
        )

    side_dicts = [
        {
            "label": side.label,
            "kind": side.kind.value,
            "proven": side.proven,
            "bound": side_bound,
            "values": vals[:side_bound + 1],
        }
        for side, side_bound, vals in computed
    ]

    if error is not None:
        return VerificationReport(
            record.id, bound, "FAIL", side_dicts, None, notes, error,
            (time.perf_counter() - start) * 1000.0,
        )

    hard_mismatch = None
    claim_mismatch = None
    for i, (si, _, vi) in enumerate(computed):
        for sj, _, vj in computed[i + 1:]:
            k = min(len(vi), len(vj))
            if vi[:k] == vj[:k]:
                continue
            n = next(n for n in range(k) if vi[n] != vj[n])
            entry = {
                "n": n,
                "left": si.label,
                "right": sj.label,
                "left_value": vi[n],
                "right_value": vj[n],
            }
            if si.proven and sj.proven:
                if hard_mismatch is None or n < hard_mismatch["n"]:
                    hard_mismatch = entry
            elif claim_mismatch is None or n < claim_mismatch["n"]:
                claim_mismatch = entry
                claim_label = sj.label if si.proven else si.label

    if hard_mismatch is not None:
        status, first = "FAIL", hard_mismatch
        if hard_mismatch["n"] > bound:
            notes.append("mismatch found by the deep series comparison")
    elif claim_mismatch is not None:
        status, first = "FLAGGED", claim_mismatch
        notes.append(
            f"claim side {claim_label} first disagrees at "
            f"n={claim_mismatch['n']}; proven sides agree"
        )
    else:
        status, first = "PASS", None

    return VerificationReport(
        record.id, bound, status, side_dicts, first, notes, None,
        (time.perf_counter() - start) * 1000.0,
    )


def _verify_task(args: tuple[str, int]) -> VerificationReport:
    identity_id, bound = args
    try:
        return verify(identity_id, bound)
    except Exception as exc:  # keep the batch alive; report the failure
        return VerificationReport(
            identity_id, bound, "FAIL", [], None, [],
            f"{type(exc).__name__}: {exc}", 0.0,
        )


def verify_all(
    bound: int = DEFAULT_BOUND,
    jobs: int | None = None,
    ids: Iterable[str] | None = None,
) -> list[VerificationReport]:
    """Verify every registered identity (or the given ids), ordered by id."""
    targets = sorted(ids) if ids is not None else registered_identity_ids()
    tasks = [(i, bound) for i in targets]
    workers = min(jobs or 1, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_verify_task, tasks))
    return [_verify_task(t) for t in tasks]


# -- report serialization ----------------------------------------------------


def report_to_dict(report: VerificationReport, include_elapsed: bool = True) -> dict:
    out = {
        "id": report.id,
        "bound": report.bound,
        "status": report.status,
        "sides": report.sides,
        "first_mismatch": report.first_mismatch,
        "notes": report.notes,
        "error": report.error,
    }
    if include_elapsed:
        out["elapsed_ms"] = round(report.elapsed_ms, 3)
    return out


def render_records(reports: Iterable[VerificationReport], include_elapsed: bool = True) -> str:
    lines = [
        json.dumps(report_to_dict(r, include_elapsed), sort_keys=True,
                   separators=(",", ":"))
        for r in reports
    ]
    return "\n".join(lines) + "\n"


def render_table(reports: Iterable[VerificationReport]) -> str:
    blocks = []
    for r in reports:
        lines = [f"identity {r.id}  bound {r.bound}  status {r.status}"]
        if r.error:
            lines.append(f"  error: {r.error}")
        for note in r.notes:
            lines.append(f"  note: {note}")
        if r.sides:
            labels = [s["label"] for s in r.sides]
            rows = max(s["bound"] for s in r.sides) + 1
            header = ["n"] + labels
            table = []
            for n in range(rows):
                row = [str(n)]
                for s in r.sides:
                    row.append(str(s["values"][n]) if n <= s["bound"] else "-")
                table.append(row)
            widths = [
                max(len(header[c]), max(len(row[c]) for row in table))
                for c in range(len(header))
            ]
            lines.append("  " + "  ".join(h.rjust(w) for h, w in zip(header, widths)))
            for row in table:
                lines.append("  " + "  ".join(v.rjust(w) for v, w in zip(row, widths)))
        if r.first_mismatch:
            m = r.first_mismatch
            lines.append(
                f"  first mismatch at n={m['n']}: {m['left']}={m['left_value']} "
                f"vs {m['right']}={m['right_value']}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_csv(reports: Iterable[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    first = True
    for r in reports:
        if not first:
            buf.write("\n")
        first = False
        buf.write(f"# identity={r.id} status={r.status} bound={r.bound}\n")
        if not r.sides:
            continue
        labels = [s["label"] for s in r.sides]
        writer.writerow(["n"] + labels)
        rows = max(s["bound"] for s in r.sides) + 1
        for n in range(rows):
            row = [n]
            for s in r.sides:
                row.append(s["values"][n] if n <= s["bound"] else "")
            writer.writerow(row)
    return buf.getvalue()
