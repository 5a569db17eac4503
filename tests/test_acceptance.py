"""End-to-end acceptance checks, one test per criterion.

Each test exercises the package surface the way a release gate would: worked
examples byte for byte, the full verification battery, exhaustive bijections,
oracle-regenerated sequence prefixes, and the vendored b-file cross-check.
"""

import pytest

from qoverpart import harness
from qoverpart.bijections import get_map
from qoverpart.enumerators import (
    count_class,
    count_stembridge_pairs,
    enumerate_class,
    matches,
)
from qoverpart.harness import compare_with_bfile, get_identity, verify, verify_all
from qoverpart.partitions import format_overpartition, t_of_binary, weight

import oracles


@pytest.fixture(scope="module")
def full_reports():
    return {r.id: r for r in verify_all(40)}


def test_criterion_01_worked_examples_reproduce_exactly():
    cases = [
        ("f", (14, 13, 5, 4, 2, 1), "12,11,4,3,2,1,4~,2~"),
        ("h-oe", (20, 18, 15, 13, 10, 7, 4, 1), "15,13,11,9,7,5,3,1,7~,6~,5~,4~,2~"),
        ("h-eo", (20, 18, 15, 13, 10, 7, 4, 1), "14,12,10,8,6,4,2,8~,7~,6~,5~,4~,2~"),
        ("h-eo", (20, 18, 15, 13, 10, 7, 4), "16,14,12,10,8,6,4,6~,5~,4~,2~"),
        ("g-gg", (20, 17, 15, 12, 9, 7, 4, 1), "15,13,11,9,7,5,3,1,13~,7~,1~"),
        ("g-gg", (20, 17, 15, 12, 9, 7, 4), "15,13,11,9,7,5,3,13~,7~,1~"),
    ]
    for map_id, source, expected in cases:
        spec = get_map(map_id)
        image = spec.forward(source)
        assert format_overpartition(image) == expected
        assert weight(image) == sum(source)
        assert spec.inverse(image) == source
    assert t_of_binary((0, 1, 1, 0, 1, 0, 0)) == (0, 1, 1, 2, 3, 4, 4)


def test_criterion_02_every_proven_identity_passes_at_40(full_reports):
    failures = []
    for record in harness.builtin_identities():
        report = full_reports[record.id]
        assert report.error is None, f"{record.id}: {report.error}"
        if record.expectation == "PROVEN" and report.status != "PASS":
            failures.append((record.id, report.status, report.first_mismatch))
    assert not failures, failures


def test_criterion_03_bijections_are_exhaustively_bijective_to_35():
    for map_id in ("f", "h-oe", "h-eo", "g-gg", "g-lg"):
        spec = get_map(map_id)
        for n in range(36):
            members = enumerate_class(spec.source, n)
            images = [spec.forward(m) for m in members]
            for m, img in zip(members, images):
                assert weight(img) == n
                assert matches(spec.target, img)
                assert spec.inverse(img) == m
            assert sorted(images) == sorted(enumerate_class(spec.target, n))


def test_criterion_04_sequence_prefixes_match_the_brute_force_oracles():
    table = [
        ("d", oracles.count_d, [1, 1, 1, 2, 2, 3, 4, 5, 6, 8]),
        ("rr1", oracles.count_rr1, [1, 1, 1, 1, 2, 2, 3, 3, 4]),
        ("rr2", oracles.count_rr2, [1, 0, 1, 1, 1, 1, 2, 2, 3]),
        ("gg1", oracles.count_gg1, [1, 1, 1, 1, 2, 2, 2, 3, 4]),
    ]
    for class_id, oracle, frozen in table:
        regenerated = [oracle(n) for n in range(len(frozen))]
        assert regenerated == frozen
        assert [count_class(class_id, n) for n in range(len(frozen))] == regenerated


def test_criterion_05_pair_counts_equal_series_coefficients_to_30():
    for variant in ("gg1", "gg2", "lg1", "lg2"):
        report = verify(f"stembridge:{variant}", 30)
        assert report.status == "PASS", (variant, report.first_mismatch)
        by_label = {s["label"]: s["values"] for s in report.sides}
        pair_values = by_label[f"pairs:{variant}"]
        series_values = next(v for k, v in by_label.items() if k.startswith("sum"))
        assert pair_values == series_values[:31]
    assert count_stembridge_pairs(7, "gg1") == 3


def test_criterion_06_almost_self_conjugate_matches_distinct_even_to_60():
    for n in range(61):
        assert count_class("almost-sc", n) == count_class("distinct-even", n), n


def test_criterion_07_bfile_cross_check_over_the_full_range():
    entries = harness._bundled_bfile("a027349.txt")
    # the brute-force oracle fixes the alignment: entry n counts partitions
    # of n+1 into distinct odd parts with least part 1
    for n in range(26):
        assert entries[n][1] == oracles.count_distinct_odd_least1(n + 1)
    record = get_identity("a027349")
    series_sides = [s for s in record.sides if s.is_series]
    assert len(series_sides) == 2
    top = entries[-1][0]
    for side in series_sides:
        values = side.values(top)
        assert len(values) == top + 1
        result = compare_with_bfile(values, entries, 0)
        assert result["overlap"] == len(entries)
        assert result["match"] is True, (side.label, result["first_mismatch"])


def test_criterion_08_claims_are_flagged_with_a_witness_never_crashed(full_reports):
    claims = [r for r in harness.builtin_identities() if r.expectation == "PAPER_CLAIM"]
    assert len(claims) == 16
    for record in claims:
        report = full_reports[record.id]
        assert report.error is None
        assert report.status in ("PASS", "FLAGGED")
        assert any("truncations compared through" in note for note in report.notes)
        if report.status == "FLAGGED":
            assert report.first_mismatch is not None
    degenerate = full_reports["lebesgue:a=0,b=-1"]
    assert degenerate.status == "FLAGGED"
    assert degenerate.first_mismatch["n"] == 1
    strict = full_reports["slater121"]
    assert strict.status == "FLAGGED"
    assert strict.first_mismatch["n"] == 5
