"""Round trips and strict parsing for the JSON and text formats."""

import pytest

from bitrades import (
    Bitrade,
    HammingParams,
    SPHERICAL,
    alt_bitrade,
    lift_to_perfect,
    mds_bitrade,
)
from bitrades.serialize import (
    FORMAT_VERSION,
    dumps_json,
    dumps_text,
    from_document,
    load_bitrade,
    loads_json,
    loads_text,
    save_bitrade,
    to_document,
)

GOLDEN_JSON = """\
{
  "format_version": "1",
  "n": 3,
  "q": 3,
  "kind": "spherical",
  "t0": [[0,1,2],[1,2,0],[2,0,1]],
  "t1": [[0,2,1],[1,0,2],[2,1,0]]
}
"""

GOLDEN_TEXT = """\
3 3 spherical
0 0 1 2
0 1 2 0
0 2 0 1
1 0 2 1
1 1 0 2
1 2 1 0
"""


@pytest.mark.parametrize(
    "bitrade",
    [alt_bitrade(3), lift_to_perfect(alt_bitrade(3)), mds_bitrade(4, "swap")],
    ids=["alt3", "lift3", "mds4"],
)
def test_json_round_trip(bitrade):
    assert loads_json(dumps_json(bitrade)) == bitrade


@pytest.mark.parametrize(
    "bitrade",
    [alt_bitrade(3), lift_to_perfect(alt_bitrade(3)), mds_bitrade(4, "swap")],
    ids=["alt3", "lift3", "mds4"],
)
def test_text_round_trip(bitrade):
    assert loads_text(dumps_text(bitrade)) == bitrade


def test_golden_json():
    assert dumps_json(alt_bitrade(3)) == GOLDEN_JSON


def test_golden_text():
    assert dumps_text(alt_bitrade(3)) == GOLDEN_TEXT


@pytest.mark.parametrize("bitrade", [alt_bitrade(3), lift_to_perfect(alt_bitrade(3))], ids=["alt3", "lift3"])
def test_written_text_reads_back_and_rewrites_unchanged(bitrade):
    # text -> bitrade -> text is the identity on what the writers produce
    for dumps, loads in ((dumps_json, loads_json), (dumps_text, loads_text)):
        text = dumps(bitrade)
        assert dumps(loads(text)) == text


def test_document_round_trip_and_key_order():
    b = lift_to_perfect(alt_bitrade(3))
    doc = to_document(b)
    assert list(doc) == ["format_version", "n", "q", "kind", "t0", "t1"]
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["t0"] == sorted(doc["t0"])
    assert from_document(doc) == b


def test_unsupported_version_rejected():
    doc = to_document(alt_bitrade(3))
    doc["format_version"] = "2"
    with pytest.raises(ValueError, match="unsupported format_version '2'"):
        from_document(doc)


def test_document_validation():
    good = to_document(alt_bitrade(3))
    for key in ("format_version", "n", "q", "kind", "t0", "t1"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ValueError):
            from_document(broken)
    for field, value in (("n", "3"), ("n", True), ("q", 3.0), ("kind", "orbital")):
        broken = dict(good)
        broken[field] = value
        with pytest.raises(ValueError):
            from_document(broken)
    with pytest.raises(ValueError):
        from_document("not a mapping")


def test_document_rejects_bad_words():
    good = to_document(alt_bitrade(3))
    dup = dict(good)
    dup["t0"] = [[0, 1, 2], [0, 1, 2]]
    with pytest.raises(ValueError, match="duplicate"):
        from_document(dup)
    overlap = dict(good)
    overlap["t1"] = good["t0"]
    with pytest.raises(ValueError, match="disjoint"):
        from_document(overlap)
    alien = dict(good)
    alien["t0"] = [[0, 1, 3]]
    with pytest.raises(ValueError):
        from_document(alien)
    nested = dict(good)
    nested["t0"] = [[0, 1, [2]]]
    with pytest.raises(ValueError):
        from_document(nested)
    for flat in ("t0", 3, {"0": [0, 1, 2]}):
        with pytest.raises(ValueError, match="t0 must be an array of words"):
            from_document({**good, "t0": flat})
    # JSON true and false are not symbols, even though bool subclasses int
    with pytest.raises(ValueError, match="every word in t1 must be an array of integers"):
        from_document({**good, "t1": [[False, True, 2]]})


def test_document_accepts_unequal_parts():
    # imbalance is a verification failure, not a parse failure
    doc = to_document(alt_bitrade(3))
    doc["t1"] = doc["t1"][:2]
    assert len(from_document(doc).t1) == 2


def test_loads_json_propagates_as_value_error():
    with pytest.raises(ValueError):
        loads_json("{not json")


def test_text_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        loads_text("3 3\n")
    with pytest.raises(ValueError, match="kind must be one of"):
        loads_text("3 3 orbital\n")
    with pytest.raises(ValueError, match="line 2: expected a part tag and 3 symbols"):
        loads_text("3 3 spherical\n0 0 1\n")
    with pytest.raises(ValueError, match="part tag must be 0 or 1"):
        loads_text("3 3 spherical\n2 0 1 2\n")
    with pytest.raises(ValueError, match=r"line 2: \(0, 1, 5\) is not a word"):
        loads_text("3 3 spherical\n0 0 1 5\n")
    with pytest.raises(ValueError, match="line 3.*already appeared on line 2"):
        loads_text("3 3 spherical\n0 0 1 2\n1 0 1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        loads_text("3 3 spherical\n0 0 x 2\n")


def test_text_names_the_line_of_the_first_bad_word_in_file_order():
    # the t1 word on line 2 comes before the t0 word on line 3
    with pytest.raises(ValueError, match=r"^line 2: \(0, 1, 5\) is not a word of H\(3, 3\)$"):
        loads_text("3 3 spherical\n1 0 1 5\n0 7 1 2\n")
    with pytest.raises(ValueError, match=r"^line 3: \(7, 1, 2\) is not a word of H\(3, 3\)$"):
        loads_text("3 3 spherical\n0 0 1 2\n1 7 1 2\n0 0 1 5\n")


def test_text_header_validation():
    with pytest.raises(ValueError, match="line 1"):
        loads_text("three 3 spherical\n")
    with pytest.raises(ValueError):
        loads_text("")


def test_save_and_load_both_formats(tmp_path):
    b = lift_to_perfect(alt_bitrade(3))
    json_path = tmp_path / "b.json"
    text_path = tmp_path / "b.txt"
    save_bitrade(b, json_path)
    save_bitrade(b, text_path, fmt="text")
    assert json_path.read_text().startswith("{")
    assert not text_path.read_text().startswith("{")
    assert load_bitrade(json_path) == b
    assert load_bitrade(text_path) == b


def test_save_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        save_bitrade(alt_bitrade(3), tmp_path / "b.bin", fmt="pickle")


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_bitrade(path)


def test_loaded_bitrade_equality_is_structural():
    b = alt_bitrade(3)
    clone = Bitrade(HammingParams(3, 3), SPHERICAL, frozenset(b.t0), frozenset(b.t1))
    assert loads_json(dumps_json(b)) == clone
