"""Exact-arithmetic toolkit for overpartition identities.

Four layers: truncated integer q-series (`series`), partition and
overpartition structures (`partitions`), registered partition classes with
enumeration and counting (`enumerators`), and explicit bijections between
them (`bijections`).  The `harness` module ties the layers together into a
registry of multi-sided identities with a verifier, and `cli` exposes the
whole thing on the command line.
"""

from .bijections import get_map, registered_map_ids
from .enumerators import (
    count_class,
    enumerate_class,
    matches,
    partitions_upto,
    registered_class_ids,
)
from .harness import (
    builtin_identities,
    compare_with_bfile,
    get_identity,
    parse_bfile,
    registered_identity_ids,
    verify,
    verify_all,
)
from .partitions import (
    Overpartition,
    conjugate,
    format_overpartition,
    format_partition,
    frobenius_of,
    parse_overpartition,
    parse_partition,
    weight,
)
from .series import LaurentSeries, ProductFactor

__version__ = "0.1.0"

__all__ = [
    "LaurentSeries",
    "Overpartition",
    "ProductFactor",
    "builtin_identities",
    "compare_with_bfile",
    "conjugate",
    "count_class",
    "enumerate_class",
    "format_overpartition",
    "format_partition",
    "frobenius_of",
    "get_identity",
    "get_map",
    "matches",
    "parse_bfile",
    "parse_overpartition",
    "parse_partition",
    "partitions_upto",
    "registered_class_ids",
    "registered_identity_ids",
    "registered_map_ids",
    "verify",
    "verify_all",
    "weight",
    "__version__",
]
