"""The package's public surface."""

import re
from pathlib import Path

import pytest

import bitrades
from bitrades import hamming, linear, search


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
    (hamming, "ENUMERATION_CEILING", "2**48",
     lambda: bitrades.all_words(bitrades.HammingParams(49, 2))),
    (linear, "ENUMERATION_CEILING", "2**48",
     lambda: next(bitrades.ParityCheckCode(bitrades.build_field(2), 50, [(0,) * 50]).words())),
]


@pytest.mark.parametrize("module,name,shown,refused", CEILINGS, ids=["search", "hamming", "linear"])
def test_refusals_name_their_ceiling(monkeypatch, module, name, shown, refused):
    with pytest.raises(ValueError, match=rf"the ceiling is {re.escape(shown)}$"):
        refused()
    # the message follows the constant, not a literal
    for ceiling, text in ((100, "100"), (5**3, "5**3")):
        monkeypatch.setattr(module, name, ceiling)
        with pytest.raises(ValueError, match=rf"the ceiling is {re.escape(text)}$"):
            refused()
