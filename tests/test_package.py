"""The package's public surface."""

import inspect
import re
from pathlib import Path

import pytest

import bitrades
from bitrades import construct, fields, hamming, linear, search, verify

SRC = Path(__file__).resolve().parent.parent / "src" / "bitrades"


def test_every_exported_name_resolves():
    missing = [name for name in bitrades.__all__ if not hasattr(bitrades, name)]
    assert not missing
    assert len(set(bitrades.__all__)) == len(bitrades.__all__)
    namespace: dict = {}
    exec("from bitrades import *", namespace)
    assert set(bitrades.__all__) <= namespace.keys()


def test_every_name_the_benchmark_calls_resolves():
    # the benchmark harness calls these through the package; a deletion fails here first
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    source = "".join((perfbench / name).read_text() for name in ("run.py", "workloads.py"))
    called = set(re.findall(r"bt\.(\w+)", source)) - {"__file__"}
    assert {"SignedFunction", "eigen_check", "dist2_count_check"} <= called
    assert sorted(name for name in called if not hasattr(bitrades, name)) == []


# Each size ceiling's refusal, the value its message should show, and the call refused.
CEILINGS = [
    (search, "EXHAUSTIVE_CEILING", "3**10",
     lambda: bitrades.find_spherical(bitrades.SearchConfig(bitrades.HammingParams(12, 3)))),
    (linear, "ENUMERATION_CEILING", "2**48",
     lambda: next(bitrades.ParityCheckCode(bitrades.build_field(2), 50, [(0,) * 50]).words())),
    (construct, "CONSTRUCTION_CEILING", "2**19", lambda: bitrades.alt_bitrade(11)),
    (verify, "FACE_WORK_CEILING", "2**25",
     lambda: bitrades.delsarte_face_check(
         bitrades.SignedFunction(bitrades.HammingParams(40, 2), {(0,) * 40: 1, (1,) * 40: -1}), 20)),
    (fields, "FIELD_SIZE_LIMIT", "2**9", lambda: bitrades.build_field(625)),
    (hamming, "ID_CEILING", "2**63", lambda: bitrades.Code(bitrades.HammingParams(64, 2), [])),
]


@pytest.mark.parametrize(
    "module,name,shown,refused", CEILINGS,
    ids=["search", "linear", "construct", "verify", "fields", "hamming"],
)
def test_refusals_name_their_ceiling(monkeypatch, module, name, shown, refused):
    with pytest.raises(ValueError, match=rf"^refusing .+; the ceiling is {re.escape(shown)}$"):
        refused()
    # the message follows the constant, not a literal
    for ceiling, text in ((100, "100"), (5**3, "5**3")):
        monkeypatch.setattr(module, name, ceiling)
        with pytest.raises(ValueError, match=rf"^refusing .+; the ceiling is {re.escape(text)}$"):
            refused()


# Integer arguments are tested by hamming.is_int, so a bool is refused like any other non-int.
@pytest.mark.parametrize("call", [
    lambda: bitrades.build_field(3).add(True, 1),
    lambda: bitrades.build_field(True),
    lambda: bitrades.ParityCheckCode(bitrades.build_field(3), 3, [(True, 1, 1)]),
    lambda: bitrades.ParityCheckCode(bitrades.build_field(3), True, [(1,)]),
    lambda: bitrades.mds_bitrade(True),
    lambda: bitrades.tensor_power(bitrades.alt_bitrade(3), True),
    lambda: bitrades.delsarte_face_check(bitrades.SignedFunction(bitrades.HammingParams(3, 3), {}), True),
    lambda: bitrades.eigen_check(bitrades.SignedFunction(bitrades.HammingParams(3, 3), {}), True),
    lambda: bitrades.delsarte_order(bitrades.HammingParams(3, 2), True),
], ids=[
    "field-operand", "field-size", "check-entry", "code-length", "mds-q", "tensor-r", "face-order",
    "eigenvalue", "delsarte-eigenvalue",
])
def test_bool_integer_arguments_are_refused(call):
    with pytest.raises(ValueError):
        call()


# A bool word equals its int twin, so a part frozen before it is checked would lose the bool.
BOOL_TWIN = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, True, 2)]


@pytest.mark.parametrize("call", [
    lambda p: bitrades.Bitrade(p, bitrades.SPHERICAL, BOOL_TWIN, [(1, 1, 1)]),
    lambda p: bitrades.Bitrade(p, bitrades.SPHERICAL, [(1, 1, 1)], BOOL_TWIN),
    lambda p: bitrades.Code(p, BOOL_TWIN),
    lambda p: bitrades.definition_check(p, bitrades.SPHERICAL, BOOL_TWIN, [(1, 1, 1)]),
    lambda p: bitrades.dist2_pair_check(p, bitrades.SPHERICAL, [(1, 1, 1)], BOOL_TWIN),
], ids=["bitrade-t0", "bitrade-t1", "code", "definition", "dist2"])
def test_bool_twin_words_are_refused(call):
    with pytest.raises(ValueError, match=r"^\(0, True, 2\) is not a word of H\(3, 3\)$"):
        call(bitrades.HammingParams(3, 3))


def _source_matches(pattern: str) -> int:
    return sum(len(re.findall(pattern, path.read_text())) for path in SRC.glob("*.py"))


@pytest.mark.parametrize("pattern,owner", [
    (re.escape("the ceiling is"), hamming.check_ceiling),
    (r"isinstance\([^()]*,\s*int\)", hamming.is_int),
    (re.escape("kind must be"), construct.check_kind),
    (r"q\s*\*\*\s*\(\s*n\s*-\s*1\s*-\s*i\s*\)", hamming.HammingParams.weights.func),
    (r"degree\s*-", hamming.HammingParams.eigenvalues),
    (re.escape("dict.__eq__"), verify._compare),
    (re.escape("is not a word of"), hamming.HammingParams.check_words),
    (re.escape("must be disjoint"), construct.check_parts),
    (r"\(q\s*-\s*d\)\s*\*\s*w", hamming.HammingParams.step_masks),
    (r"carry\s*&=\s*plane", hamming.bit_planes),
    (r"map\(sub,", hamming._extend),
], ids=[
    "ceiling-refusal", "integer-test", "kind-check", "place-values", "spectrum", "count-compare",
    "word-check", "part-check", "step-masks", "plane-carry", "projection",
])
def test_package_wide_rules_are_written_once(pattern, owner):
    # a second copy of a rule anywhere in src/ fails here
    assert _source_matches(pattern) == len(re.findall(pattern, inspect.getsource(owner))) == 1


def test_trusted_word_sets_are_made_in_known_places():
    # hamming.trust_ids freezes ids without checking them.  Each call derives its ids
    # from checked sets by a map that sends words to words, so a new call site must be
    # argued for, and this count changed with it.
    calls = {
        path.stem: len(re.findall(r"(?<!def )\btrust_ids\(", path.read_text()))
        for path in SRC.glob("*.py")
    }
    assert {module: count for module, count in calls.items() if count} == {
        "hamming": 1, "linear": 2, "construct": 7, "search": 1,
    }
