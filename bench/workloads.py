"""The benchmark's workloads: fixed lists of ``qoverpart`` CLI commands.

Each workload isolates one verification route (see README.md for why each
was chosen).  The id lists are fixed here rather than read from the registry,
so a registry change cannot silently change what a workload measures.  The
seed only shuffles the order of the per-id commands; it never changes which
commands run.
"""

from __future__ import annotations

import random

# Every registered identity with at least one series side (96 sides in all).
SERIES_IDS = (
    "a027349", "dgg", "dk:k=1", "dk:k=2", "dk:k=3", "dk:k=4", "dk:k=5",
    "euler", "fgg", "flg", "frr", "frr2", "hgl1", "hgl2", "hgl3", "hgl4",
    "hgl5", "hgll3", "hgll4", "lebesgue:a=0,b=-1", "lebesgue:a=0,b=1",
    "lebesgue:a=0,b=2", "lebesgue:a=1,b=-1", "lebesgue:a=1,b=0",
    "lebesgue:a=1,b=1", "lebesgue:a=1,b=2", "lebesgue:a=2,b=-1",
    "lebesgue:a=2,b=0", "lebesgue:a=2,b=1", "lebesgue:a=2,b=2",
    "lebesgue:a=3,b=-1", "lebesgue:a=3,b=0", "lebesgue:a=3,b=1",
    "lebesgue:a=3,b=2", "lebesgue:k=0", "sgg", "slater121", "slater47",
    "slg", "srr", "stembridge:gg1", "stembridge:gg2", "stembridge:lg1",
    "stembridge:lg2", "thmd",
)

TRANSPORT_IDS = (
    "transport:f", "transport:g-gg:dgg12", "transport:g-gg:gg1",
    "transport:g-gg:gg2", "transport:g-lg:lg1", "transport:g-lg:lg2",
    "transport:h-eo:rr1", "transport:h-eo:rr2", "transport:h-oe",
)

VERIFY_ALL_40 = ("verify", "--id", "all", "--max-n", "40",
                 "--format", "records", "--no-elapsed")

WORKLOADS = ("verify-all-40", "coeff-800", "transport-35", "verify-all-40-jobs2")


def commands(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The argv lists one pass of ``workload`` runs, without ``--out``."""
    if workload == "verify-all-40":
        return [VERIFY_ALL_40]
    if workload == "verify-all-40-jobs2":
        return [VERIFY_ALL_40 + ("--jobs", "2")]
    if workload == "coeff-800":
        cmds = [("coeff", "--id", i, "--max-n", "800", "--format", "csv")
                for i in SERIES_IDS]
    elif workload == "transport-35":
        cmds = [("verify", "--id", i, "--max-n", "35", "--format", "records",
                 "--no-elapsed") for i in TRANSPORT_IDS]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(cmds)
    return cmds
