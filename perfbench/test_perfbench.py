"""Tests of the benchmark itself: the independent checker and the workloads' fixed work.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

The workload tests run every workload two or three times (about three minutes).
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker as c  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# The permutation bitrade of H(3, 3): even against odd permutations.
EVEN = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
ODD = [(0, 2, 1), (1, 0, 2), (2, 1, 0)]


def flat(words) -> bytes:
    return bytes(itertools.chain.from_iterable(words))


def lifted(t0, t1):
    return [w + (0,) for w in t0] + [w + (1,) for w in t1], [w + (1,) for w in t0] + [w + (0,) for w in t1]


def test_checker_accepts_the_permutation_bitrade_and_its_lift():
    p = c.Pair(3, 3, c.SPHERICAL, flat(EVEN), flat(ODD))
    assert p.distinct and p.violated_vertices() == 0
    assert p.is_eigenfunction() and p.distance_profile_holds()
    assert p.touched_vertices() == 3 * 3 * 2
    t0, t1 = lifted(EVEN, ODD)
    p = c.Pair(4, 3, c.PERFECT, flat(t0), flat(t1))
    assert p.violated_vertices() == 0 and p.is_eigenfunction() and p.distance_profile_holds()
    assert len(p.ids0) == c.lift_volume(c.alt_volume(3)) == c.MIN_VOLUME[(c.PERFECT, 4, 3)]


def test_checker_rejects_corruptions():
    # deleting a t0 word leaves its 6 sphere vertices with counts (0, 1)
    p = c.Pair(3, 3, c.SPHERICAL, flat(EVEN[1:]), flat(ODD))
    assert p.violated_vertices() == 6
    assert not p.is_eigenfunction() and not p.distance_profile_holds()
    # moving a word makes t1 hold two adjacent-sphere words
    p = c.Pair(3, 3, c.SPHERICAL, flat(EVEN[1:]), flat(ODD + EVEN[:1]))
    assert p.violated_vertices() > 0 and not p.is_eigenfunction()
    t0, t1 = lifted(EVEN, ODD)
    p = c.Pair(4, 3, c.PERFECT, flat(t0[:-1] + [(2, 2, 2, 2)]), flat(t1))
    assert p.violated_vertices() > 0 and not p.is_eigenfunction()


def test_min_distance_matches_a_pairwise_scan():
    rng = np.random.default_rng(0)
    for n, q, m in ((4, 3, 6), (5, 4, 20), (6, 2, 9)):
        words = np.unique(rng.integers(0, q, size=(m, n), dtype=np.uint8), axis=0)
        d = c.distances(words, words)
        expected = d[~np.eye(len(words), dtype=bool)].min()
        assert c.min_distance(words) == expected
    assert c.min_distance(np.zeros((1, 3), dtype=np.uint8)) == float("inf")


def test_mds_check_on_a_ternary_code():
    # {(a, b, a + b, a + 2b)} over Z_3: a [4, 2, 3] MDS code
    words = np.array([(a, b, (a + b) % 3, (a + 2 * b) % 3) for a in range(3) for b in range(3)], dtype=np.uint8)
    assert c.min_distance(words) == 3 and c.is_mds(words, 3)
    assert not c.is_mds(words[:-1], 3)


def test_documents_parse():
    doc = {"format_version": "1", "n": 3, "q": 3, "kind": "spherical", "t0": EVEN, "t1": ODD}
    text = "3 3 spherical\n" + "".join(f"{tag} {' '.join(map(str, w))}\n" for tag, part in ((0, EVEN), (1, ODD)) for w in part)
    for parsed in (c.parse_json_document(json.dumps(doc)), c.parse_text_document(text)):
        assert parsed == {"n": 3, "q": 3, "kind": "spherical", "t0": flat(EVEN), "t1": flat(ODD)}


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.RUNS)


def _round(workload: str, seed: int, tmp_path: Path):
    bt = run.fresh_import()
    inputs = workloads.prepare(workload, bt, seed, tmp_path)
    return workloads.run(workload, inputs, tracing=False)


@pytest.mark.parametrize("workload", ["certify", "prove", "walk"])
def test_work_repeats_exactly(workload, tmp_path):
    sys.path.insert(0, str(workloads.SRC))
    first, again = _round(workload, 1, tmp_path), _round(workload, 1, tmp_path)
    assert first.records == again.records
    assert first.counts == again.counts
    failed, problems = workloads.check(workload, first.records)
    assert problems == []
    # only the kept fault may fail, and it passes once min_distance is exact
    assert {line.split(":")[0] for line in failed} <= workloads.KEPT_FAULTS
    if workload == "walk":
        assert [r["moves"] for r in first.records] == [w[3] for w in workloads.WALKS]
    else:
        # certify and prove do the same work on every seed
        other = _round(workload, 2, tmp_path)
        keys = {k for k in first.counts if k.endswith(("nodes", "words", "vertices_checked"))}
        assert {k: first.counts[k] for k in keys} == {k: other.counts[k] for k in keys}
