import pytest

import oracles
from qoverpart.bijections import get_map, map_f, registered_map_ids
from qoverpart.enumerators import enumerate_class, matches, partitions_upto
from qoverpart.harness import TRANSPORT_BOUND
from qoverpart.partitions import (
    format_overpartition,
    parse_overpartition,
    weight,
)

# every map together with the class pairs it restricts to
MAP_CLASS_PAIRS = [
    ("f", "d", "e-over"),
    ("h-oe", "rr1", "rr1-over"),
    ("h-eo", "rr1", "rr1star-over"),
    ("h-eo", "rr2", "rr2-over"),
    ("g-gg", "gg1", "gg1-over"),
    ("g-gg", "gg2", "gg2-over"),
    ("g-gg", "dgg12", "dgg12-over"),
    ("g-lg", "lg1", "lg1-over"),
    ("g-lg", "lg2", "lg2-over"),
]


def image_text(map_id, parts):
    return format_overpartition(get_map(map_id).forward(parts))


# -- registry ------------------------------------------------------------------


def test_registered_maps():
    assert registered_map_ids() == ["f", "g-gg", "g-lg", "h-eo", "h-oe"]
    spec = get_map("f")
    assert (spec.source, spec.target) == ("d", "e-over")


def test_unknown_map_lists_ids():
    with pytest.raises(ValueError, match="unknown map 'nope'.*h-oe"):
        get_map("nope")


# -- worked examples -------------------------------------------------------------


def test_f_worked_example():
    assert image_text("f", (14, 13, 5, 4, 2, 1)) == "12,11,4,3,2,1,4~,2~"


def test_f_fixed_point():
    # increasing view (1,2,5,8) already alternates parity from an odd start
    assert image_text("f", (8, 5, 2, 1)) == "8,5,2,1"


def test_f_all_odd_parts():
    assert image_text("f", (7, 5, 3, 1)) == "4,3,2,1,3~,2~,1~"


def test_h_oe_worked_example():
    assert (
        image_text("h-oe", (20, 18, 15, 13, 10, 7, 4, 1))
        == "15,13,11,9,7,5,3,1,7~,6~,5~,4~,2~"
    )


def test_h_eo_worked_example_drops_the_empty_slot():
    img = get_map("h-eo").forward((20, 18, 15, 13, 10, 7, 4, 1))
    assert format_overpartition(img) == "14,12,10,8,6,4,2,8~,7~,6~,5~,4~,2~"
    # one slot straightened to zero: the largest overline says so
    assert img.overlined[0] == len(img.parts) + 1


def test_h_eo_worked_example_without_a_drop():
    assert (
        image_text("h-eo", (20, 18, 15, 13, 10, 7, 4))
        == "16,14,12,10,8,6,4,6~,5~,4~,2~"
    )


def test_g_gg_worked_examples():
    assert (
        image_text("g-gg", (20, 17, 15, 12, 9, 7, 4, 1))
        == "15,13,11,9,7,5,3,1,13~,7~,1~"
    )
    assert (
        image_text("g-gg", (20, 17, 15, 12, 9, 7, 4)) == "15,13,11,9,7,5,3,13~,7~,1~"
    )


def test_g_lg_examples():
    assert image_text("g-lg", (4, 1)) == "2,3~"
    assert image_text("g-lg", (6, 4, 1)) == "4,2,5~"
    assert image_text("g-lg", (5, 2)) == "4,2,1~"


def test_g_lg_single_part_straightens_to_nothing():
    img = get_map("g-lg").forward((1,))
    assert format_overpartition(img) == "1~"
    assert get_map("g-lg").inverse(img) == (1,)


def test_empty_partition_is_fixed_by_every_map():
    for map_id in registered_map_ids():
        spec = get_map(map_id)
        img = spec.forward(())
        assert img.parts == () and img.overlined == ()
        assert spec.inverse(img) == ()


# -- exhaustive bijectivity -------------------------------------------------------


@pytest.mark.parametrize("map_id,source,target", MAP_CLASS_PAIRS)
def test_map_restricts_to_a_weight_preserving_bijection(map_id, source, target):
    spec = get_map(map_id)
    for n in range(15):
        members = enumerate_class(source, n)
        images = [spec.forward(m) for m in members]
        for m, img in zip(members, images):
            assert weight(img) == n
            assert matches(target, img)
            assert spec.inverse(img) == m
        assert sorted(images) == sorted(enumerate_class(target, n))


@pytest.mark.parametrize("map_id", ["f", "h-oe", "h-eo", "g-gg", "g-lg"])
def test_inverse_then_forward_is_the_identity_on_the_image(map_id):
    spec = get_map(map_id)
    for n in range(15):
        for img in enumerate_class(spec.target, n):
            assert spec.forward(spec.inverse(img)) == img


# -- the single-pass maps against the step-by-step reference ---------------------

BAD_INPUTS = [
    (2, 2),  # a repeated part
    (3, 0),  # a zero part
    (4, 1, 0),
    (-1,),
    (1, 3),  # increasing
    (3, 2),  # gap violations under a gap of 2
    (9, 7, 6, 1),
    (6, 4, 1),  # a forbidden even chain
    (7, 5, 2),  # a forbidden odd chain
    (12, 9, 6, 4),
    (9, 8, 4, 2),  # a gap violation above an even chain
    (10, 9, 5, 3),  # a gap violation above an odd chain
    (8, 6, 3, 2),  # an even chain above a gap violation
    (7, 5, 2, 1),  # an odd chain above a gap violation
    (6, 4, 2),
    (1,),
    (2,),
]


def outcome(forward, parts):
    try:
        return forward(parts)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("map_id,source,target", MAP_CLASS_PAIRS)
def test_map_equals_the_step_by_step_reference_on_its_source(map_id, source, target):
    forward, reference = get_map(map_id).forward, oracles.FORWARD_MAPS[map_id]
    for _, parts in partitions_upto(source, TRANSPORT_BOUND):
        assert forward(parts) == reference(parts), parts


@pytest.mark.parametrize("map_id", ["f", "h-oe", "h-eo", "g-gg", "g-lg"])
def test_map_refuses_bad_inputs_with_the_reference_message(map_id):
    forward, reference = get_map(map_id).forward, oracles.FORWARD_MAPS[map_id]
    refused = 0
    for parts in BAD_INPUTS:
        expected = outcome(reference, parts)
        assert outcome(forward, parts) == expected, parts
        refused += isinstance(expected, str)
    assert refused >= 5


# -- validation -------------------------------------------------------------------


def test_f_rejects_repeated_parts():
    with pytest.raises(ValueError, match="minimum gap 1"):
        map_f((2, 2))


def test_f_rejects_nonpositive_parts():
    with pytest.raises(ValueError, match="not positive"):
        map_f((3, 0))


def test_h_rejects_gap_violations():
    with pytest.raises(ValueError, match="minimum gap 2"):
        get_map("h-oe").forward((3, 2))


def test_inverse_h_rejects_wrong_parity():
    with pytest.raises(ValueError, match="wrong parity"):
        get_map("h-oe").inverse(parse_overpartition("4,1"))


def test_inverse_f_rejects_broken_parity_pattern():
    with pytest.raises(ValueError, match="parity pattern"):
        get_map("f").inverse(parse_overpartition("2,2~"))
