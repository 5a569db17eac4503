import hashlib
import json
from pathlib import Path

import pytest

from qoverpart import harness, series
from qoverpart.bijections import get_map
from qoverpart.enumerators import count_sequence, matches
from qoverpart.harness import (
    IdentityRecord,
    Side,
    SideKind,
    builtin_identities,
    compare_with_bfile,
    get_identity,
    parse_bfile,
    registered_identity_ids,
    render_csv,
    render_records,
    render_table,
    report_to_dict,
    verify,
    verify_all,
)
from qoverpart.series import ProductFactor

import oracles

CLAIM_IDS = [
    f"lebesgue:a={a},b={b}" for a in range(4) for b in (-1, 0, 1, 2) if 4 * a + b
] + ["slater121"]


# -- registry ------------------------------------------------------------------


def test_registry_shape():
    ids = registered_identity_ids()
    assert len(ids) == 55
    assert ids == sorted(ids)
    records = builtin_identities()
    assert [r.id for r in records] == ids
    assert all(len(r.sides) >= 2 for r in records)


def test_four_sided_records():
    for identity_id in ("euler", "thmd", "frr", "srr", "a027349", "fgg", "slg"):
        assert len(get_identity(identity_id).sides) == 4


def test_proven_versus_claimed_split():
    claims = sorted(r.id for r in builtin_identities() if r.expectation == "PAPER_CLAIM")
    assert claims == sorted(CLAIM_IDS)


def test_transport_records_pair_image_with_target_count():
    transports = [i for i in registered_identity_ids() if i.startswith("transport:")]
    assert len(transports) == 9
    for identity_id in transports:
        record = get_identity(identity_id)
        labels = [s.label for s in record.sides]
        assert len(labels) == 2
        assert labels[0].startswith("image:")
        assert labels[1].startswith("count:")
        assert all(s.cap == 35 for s in record.sides)


TRANSPORT_IDS = [i for i in registered_identity_ids() if i.startswith("transport:")]


@pytest.mark.parametrize("identity_id", TRANSPORT_IDS)
def test_transport_image_side_matches_a_reference_over_the_oracle(identity_id):
    bound = 25
    image = get_identity(identity_id).sides[0]
    # the label is image:<map>[<source>]
    map_id, source = image.label[len("image:"):-1].split("[")
    forward = get_map(map_id).forward
    expected = [
        len({forward(p) for p in oracles.partitions_of(n) if matches(source, p)})
        for n in range(bound + 1)
    ]
    assert image.values(bound) == expected


def test_unknown_identity_lists_registered_ids():
    with pytest.raises(ValueError, match="unknown identity 'nope'.*euler"):
        get_identity("nope")


def test_records_reject_fewer_than_two_sides():
    side = Side("only", SideKind.ENUM_COUNT, lambda b: [0] * (b + 1))
    with pytest.raises(ValueError, match="at least 2 sides"):
        IdentityRecord("x", "", (side,))


# -- verification of registered identities ---------------------------------------


def test_verify_euler():
    report = verify("euler", 12)
    assert report.status == "PASS"
    assert report.error is None
    assert len(report.sides) == 4
    expected = [oracles.count_d(n) for n in range(13)]
    for side in report.sides:
        assert side["values"] == expected


def test_verify_rejects_negative_bound():
    with pytest.raises(ValueError, match="bound must be >= 0"):
        verify("euler", -1)


def test_verify_all_statuses_at_small_bound():
    reports = verify_all(8)
    assert [r.id for r in reports] == registered_identity_ids()
    by_status = {}
    for r in reports:
        by_status.setdefault(r.status, []).append(r.id)
    assert sorted(by_status["FLAGGED"]) == ["lebesgue:a=0,b=-1", "slater121"]
    assert len(by_status["PASS"]) == 53
    assert "FAIL" not in by_status


def test_verify_all_records_match_the_benchmark_digest():
    # the same bytes the benchmark gate pins for `verify --id all --max-n 40`
    digests = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())
    text = render_records(verify_all(40), include_elapsed=False)
    want = digests["verify --id all --max-n 40 --format records --no-elapsed"]
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_verify_all_records_at_200_are_pinned():
    # at 200 the transport targets (cap 35) read prefixes of longer count
    # tables, and the series sides run to order 200
    text = render_records(verify_all(200), include_elapsed=False)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4ca7cebb636f566ab9d8fa9d912188956678317e3b07ada00b365b8085f99b16")


# ids whose records share sides: count:d, the (-q^2;q^4)/(q^2;q^4) product,
# the rr1-over count and sums equal across records
SHARING_IDS = ["euler", "dk:k=1", "thmd", "frr", "hgl3", "hgll3", "lebesgue:a=1,b=0",
               "transport:h-eo:rr1", "stembridge:lg1"]


def test_verify_all_accepts_an_id_subset_and_parallel_jobs():
    bound = 40
    serial = verify_all(bound, ids=SHARING_IDS)
    assert [r.id for r in serial] == sorted(SHARING_IDS)
    parallel = verify_all(bound, ids=SHARING_IDS, jobs=2)
    one_by_one = [verify(i, bound) for i in sorted(SHARING_IDS)]
    text = render_records(serial, include_elapsed=False)
    assert render_records(parallel, include_elapsed=False) == text
    assert render_records(one_by_one, include_elapsed=False) == text


@pytest.mark.parametrize("cpus,pool_sizes", [(4, [2]), (1, []), (None, [])])
def test_verify_all_clamps_the_pool_to_tasks_and_cpus(monkeypatch, cpus, pool_sizes):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    reports = verify_all(4, ids=["frr", "euler"], jobs=3)
    assert [r.status for r in reports] == ["PASS", "PASS"]
    assert sizes == pool_sizes
    assert harness._side_table is None


def test_each_distinct_side_is_computed_once_per_run(monkeypatch):
    calls = {}

    def counted(name):
        fn = getattr(harness, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(harness, name, wrapper)

    for name in ("count_sequence", "apply_inverse_factors", "expand_term_family"):
        counted(name)
    once = {"count_sequence": 48, "apply_inverse_factors": 14, "expand_term_family": 38}
    first = render_records(verify_all(40), include_elapsed=False)
    assert calls == once
    assert harness._side_table is None
    # nothing survives a run: the same run computes the same sides again
    calls.clear()
    assert render_records(verify_all(40), include_elapsed=False) == first
    assert calls == once
    # outside a run every read computes, and no two reads share a list
    calls.clear()
    frr = get_identity("frr").sides
    reads = [side.values(10) for side in frr + frr]
    assert calls == {"count_sequence": 6, "expand_term_family": 2}
    assert reads[:4] == reads[4:]
    assert len({id(r) for r in reads}) == len(reads)


def test_sides_that_share_a_key_get_their_own_lists():
    with harness._verify_run():
        lebesgue = get_identity("lebesgue:a=1,b=0").sides
        first = [side.values(40) for side in lebesgue]
        first[0][0] = 99
        assert [side.values(40) for side in lebesgue][0][0] == 1
        assert first[1] is not first[0]
        # a count read at a shorter bound is a prefix of the longer table
        d = harness._count_values("d")
        longer = d(40)
        assert d(12) == longer[:13]
        longer[0] = 99
        assert d(40)[0] == 1
    assert harness._side_table is None


def test_every_side_has_values_and_only_sum_product_scaled_sides_are_series():
    series_kinds = {SideKind.SERIES_SUM, SideKind.SERIES_PRODUCT, SideKind.SCALED}
    series_sides = 0
    for record in builtin_identities():
        for side in record.sides:
            assert callable(side.values), side.label
            assert not hasattr(side, "series"), side.label
            assert side.is_series == (side.kind in series_kinds), side.label
            # the constructors label every sum, product and scaled side
            assert side.is_series == (
                side.label.split(":")[0] in ("sum", "product", "scaled")
            ), side.label
            series_sides += side.is_series
    assert series_sides == 96


SERIES_IDS = [r.id for r in builtin_identities() if any(s.is_series for s in r.sides)]


@pytest.mark.parametrize("identity_id", SERIES_IDS)
def test_series_sides_agree_at_every_truncation_order(identity_id):
    for side in get_identity(identity_id).sides:
        if not side.is_series:
            continue
        deep = side.values(260)
        assert len(deep) == 261, side.label
        for k in range(221):
            assert side.values(k) == deep[:k + 1], (side.label, k)


SERIES_SIDES = [s for r in builtin_identities() for s in r.sides if s.is_series]


@pytest.fixture(scope="module")
def list_reference_at_800():
    """Every series side's values(800) from the list kernels of tests/oracles.py."""
    calls = []

    def listed(name, kernel):
        def wrapper(*args):
            calls.append(name)
            return kernel(*args)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "apply_inverse_factors",
                   listed("product", oracles.list_apply_inverse_factors))
        mp.setattr(harness, "expand_term_family",
                   listed("sum", oracles.list_expand_term_family))
        reference = [side.values(800) for side in SERIES_SIDES]
    # the list kernels replaced every expansion, so no packed side is
    # compared with itself
    assert calls.count("product") == sum(s.kind == SideKind.SERIES_PRODUCT for s in SERIES_SIDES)
    assert calls.count("sum") == len(SERIES_SIDES) - calls.count("product")
    return reference


def test_series_sides_at_800_match_the_list_reference(list_reference_at_800):
    assert len(SERIES_SIDES) == 96
    for side, expected in zip(SERIES_SIDES, list_reference_at_800):
        assert side.values(800) == expected, side.label


def test_slot_width_holds_every_series_side_at_800(monkeypatch, list_reference_at_800):
    # the decoded slots always fit the width, so the width is held against
    # the list reference's coefficients, which every side keeps in q^0..q^800
    widths = []
    unpack = series._unpack

    def recording_unpack(x, w, slots):
        widths.append(w)
        return unpack(x, w, slots)

    monkeypatch.setattr(series, "_unpack", recording_unpack)
    for side, expected in zip(SERIES_SIDES, list_reference_at_800):
        widths.clear()
        side.values(800)
        assert len(widths) == 1, side.label
        assert widths[0] >= max(abs(c) for c in expected).bit_length() + 1, side.label


def test_negative_exponent_surviving_summation_is_an_error():
    # (1 + q^-1) + q + q^2 + ... keeps its q^-1
    values = harness._sum_side(
        "sum",
        lambda n: n,
        lambda n: () if n else (ProductFactor(-1, -1, 1, 1, 1),),
    ).values
    with pytest.raises(ValueError, match=r"negative exponent q\^-1 survived"):
        values(10)


def test_negative_exponent_surviving_a_product_is_an_error():
    # (1 + q^-1) as a product: its q^-1 term must not be dropped silently
    values = harness._product_side("p", (ProductFactor(-1, -1, 1, 1, 1),)).values
    with pytest.raises(ValueError, match=r"negative exponent q\^-1 survived"):
        values(10)


def test_degenerate_claim_is_flagged_not_failed():
    report = verify("lebesgue:a=0,b=-1", 8)
    assert report.status == "FLAGGED"
    assert report.first_mismatch["n"] == 1
    assert any("claim side count:lebesgue:a=0,b=-1" in n for n in report.notes)


def test_strict_descent_claim_flags_only_past_its_first_witness():
    assert verify("slater121", 4).status == "PASS"
    report = verify("slater121", 6)
    assert report.status == "FLAGGED"
    m = report.first_mismatch
    assert m["n"] == 5
    assert {m["left_value"], m["right_value"]} == {4, 5}


def test_pair_count_cap_is_reported():
    report = verify("stembridge:gg1", 35)
    assert report.status == "PASS"
    assert any("pairs:gg1 evaluated to n <= 30 (cap)" in n for n in report.notes)
    pair_side = report.sides[0]
    assert pair_side["bound"] == 30
    assert len(pair_side["values"]) == 31


@pytest.mark.parametrize("variant", ["gg1", "gg2", "lg1", "lg2"])
def test_pair_counts_match_every_sum_side_to_200(variant):
    # verify caps the pair sides at 30, so this is their only check past it
    pairs = count_sequence(f"stembridge:{variant}", 200)
    sums = [side for side in get_identity(f"stembridge:{variant}").sides
            if side.kind is SideKind.SERIES_SUM]
    assert sums
    for side in sums:
        assert side.values(200) == pairs, side.label


def test_truncation_note_present_whenever_series_sides_exist():
    report = verify("frr", 6)
    assert any("truncations compared through q^200" in n for n in report.notes)


def test_zero_shift_convention_note_is_carried():
    report = verify("lebesgue:k=0", 6)
    assert report.status == "PASS"
    assert any("doubled-tail convention" in n for n in report.notes)


# -- fault injection ---------------------------------------------------------------


def constant_side(label, value, proven=True):
    return Side(
        label, SideKind.ENUM_COUNT, lambda b: [value] * (b + 1), proven=proven
    )


def test_disagreeing_proven_sides_fail():
    record = IdentityRecord(
        "rigged", "", (constant_side("a", 1), constant_side("b", 2))
    )
    report = harness._verify_record(record, 4)
    assert report.status == "FAIL"
    assert report.first_mismatch == {
        "n": 0, "left": "a", "right": "b", "left_value": 1, "right_value": 2,
    }


def test_disagreeing_claim_side_flags():
    record = IdentityRecord(
        "rigged", "", (constant_side("a", 1), constant_side("b", 2, proven=False))
    )
    report = harness._verify_record(record, 4)
    assert report.status == "FLAGGED"
    assert any("claim side b first disagrees at n=0" in n for n in report.notes)


def test_raising_side_becomes_a_fail_report():
    def explode(bound):
        raise ValueError("boom")

    record = IdentityRecord(
        "rigged",
        "",
        (constant_side("a", 1), Side("bad", SideKind.ENUM_COUNT, explode)),
    )
    report = harness._verify_record(record, 4)
    assert report.status == "FAIL"
    assert report.error == "bad: ValueError: boom"
    assert [s["label"] for s in report.sides] == ["a"]


def series_side(label, ones_at):
    """A series side whose coefficient is 1 at each weight in ones_at, else 0."""
    return Side(label, SideKind.SERIES_SUM,
                lambda order: [int(n in ones_at) for n in range(order + 1)])


def test_deep_series_comparison_catches_late_divergence():
    record = IdentityRecord(
        "rigged", "", (series_side("clean", {0}), series_side("dirty", {0, 150}))
    )
    report = harness._verify_record(record, 5)
    assert report.status == "FAIL"
    assert report.first_mismatch["n"] == 150
    assert any("deep series comparison" in n for n in report.notes)
    assert [s["values"] for s in report.sides] == [[1, 0, 0, 0, 0, 0]] * 2


def test_deep_series_failure_names_the_lowest_weight_over_all_pairs():
    # (a, b) first differ at 180 and (a, c) at 150, both beyond the bound
    record = IdentityRecord(
        "rigged",
        "",
        (series_side("a", {0}), series_side("b", {0, 180}), series_side("c", {0, 150})),
    )
    report = harness._verify_record(record, 5)
    assert report.status == "FAIL"
    assert report.first_mismatch == {
        "n": 150, "left": "a", "right": "c", "left_value": 0, "right_value": 1,
    }
    assert any("deep series comparison" in n for n in report.notes)


def test_mismatch_within_the_bound_carries_no_deep_note():
    record = IdentityRecord(
        "rigged", "", (series_side("a", {0}), series_side("b", {0, 3, 150}))
    )
    report = harness._verify_record(record, 5)
    assert report.status == "FAIL"
    assert report.first_mismatch["n"] == 3
    assert not any("deep series comparison" in n for n in report.notes)


# -- b-files -------------------------------------------------------------------------


def test_parse_bfile_skips_comments_and_blanks():
    text = "# header\n\n0 1\n1 0\n2 5\n"
    assert parse_bfile(text) == [(0, 1), (1, 0), (2, 5)]


def test_parse_bfile_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 2: expected 'n a"):
        parse_bfile("0 1\n1 2 3\n")
    with pytest.raises(ValueError, match="line 1: non-integer"):
        parse_bfile("zero 1\n")
    with pytest.raises(ValueError, match="not contiguous: 0 then 2"):
        parse_bfile("0 1\n2 4\n")


def test_compare_with_bfile_matches_and_reports_overlap():
    result = compare_with_bfile([1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 9)])
    assert result == {"overlap": 3, "match": True, "first_mismatch": None}


def test_compare_with_bfile_empty_overlap_is_a_trivial_match():
    result = compare_with_bfile([1, 2], [(10, 7)])
    assert result["overlap"] == 0
    assert result["match"] is True


def test_compare_with_bfile_flags_a_perturbed_entry():
    entries = [(0, 1), (1, 2), (2, 3)]
    entries[1] = (1, 99)
    result = compare_with_bfile([1, 2, 3], entries)
    assert result["match"] is False
    assert result["first_mismatch"] == {"n": 1, "computed": 2, "bfile": 99}


def test_compare_with_bfile_applies_the_offset():
    result = compare_with_bfile([5, 6], [(3, 5), (4, 6)], offset=3)
    assert result == {"overlap": 2, "match": True, "first_mismatch": None}


def test_bundled_bfile_matches_the_brute_oracle():
    entries = harness._bundled_bfile("a027349.txt")
    assert entries[0] == (0, 1)
    assert entries[-1][0] == 250
    for n in range(26):
        assert entries[n][1] == oracles.count_distinct_odd_least1(n + 1)


# -- serialization ---------------------------------------------------------------------


def test_report_dict_round_trips_through_json():
    report = verify("dk:k=2", 6)
    data = json.loads(render_records([report]).strip())
    assert data["id"] == "dk:k=2"
    assert data["status"] == "PASS"
    assert "elapsed_ms" in data
    assert "elapsed_ms" not in report_to_dict(report, include_elapsed=False)


def test_records_output_is_deterministic():
    ids = ["euler", "frr", "stembridge:lg1"]
    first = render_records(verify_all(6, ids=ids), include_elapsed=False)
    second = render_records(verify_all(6, ids=ids), include_elapsed=False)
    assert first == second


def test_table_marks_entries_beyond_a_side_cap():
    text = render_table([verify("stembridge:gg1", 32)])
    assert "identity stembridge:gg1  bound 32  status PASS" in text
    lines = text.splitlines()
    row31 = next(l for l in lines if l.split() and l.split()[0] == "31")
    assert row31.split()[1] == "-"


def test_table_shows_the_first_mismatch():
    text = render_table([verify("slater121", 6)])
    assert "first mismatch at n=5" in text


def test_csv_output_shape():
    text = render_csv(verify_all(4, ids=["euler", "dk:k=1"]))
    assert text.startswith("# identity=dk:k=1 status=PASS bound=4\n")
    blocks = text.split("\n\n")
    assert len(blocks) == 2
    assert "# identity=euler status=PASS bound=4" in blocks[1]
    header = blocks[1].splitlines()[1]
    assert header.startswith("n,")
    assert "count:d" in header
