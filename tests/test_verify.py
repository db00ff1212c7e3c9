"""Verification checks, cross-validated against a dense adjacency matrix."""

import math
import random
import time
import tracemalloc
import warnings

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_words,
    brute_failures,
    characterization_votes,
    corrupt,
    definition_reference,
    delsarte_reference,
    dist2_reference,
    eigen_reference,
    random_pair,
    signed_function,
)
from bitrades import (
    CHECKS,
    Bitrade,
    HammingParams,
    PERFECT,
    SPHERICAL,
    ParityCheckCode,
    SignedFunction,
    VerificationReport,
    alt_bitrade,
    build_field,
    check_bitrade,
    definition_check,
    delsarte_face_check,
    delsarte_order,
    dist2_count_check,
    dist2_pair_check,
    eigen_check,
    lift_to_perfect,
    mds_bitrade,
    tensor_combine,
    tensor_power,
)
from bitrades import verify
from bitrades.hamming import hamming_distance
from bitrades.verify import WITNESS_LIMIT


def adjacency(params):
    words = list(all_words(params))
    index = {w: i for i, w in enumerate(words)}
    m = numpy.zeros((len(words), len(words)), dtype=numpy.int64)
    for i, w in enumerate(words):
        for j in range(i + 1, len(words)):
            if hamming_distance(w, words[j]) == 1:
                m[i, j] = m[j, i] = 1
    return words, index, m


def signed_vector(params, words, t0, t1):
    chi = numpy.zeros(len(words), dtype=numpy.int64)
    for i, w in enumerate(words):
        if w in t0:
            chi[i] = 1
        elif w in t1:
            chi[i] = -1
    return chi


def test_adjacency_spectrum_matches_eigenvalue_formula():
    params = HammingParams(3, 3)
    _, _, m = adjacency(params)
    spectrum = sorted(set(numpy.rint(numpy.linalg.eigvalsh(m)).astype(int).tolist()))
    assert spectrum == sorted(params.eigenvalues())


def test_alt3_signed_vector_is_in_the_kernel():
    params = HammingParams(3, 3)
    words, _, m = adjacency(params)
    b = alt_bitrade(3)
    chi = signed_vector(params, words, b.t0, b.t1)
    assert not (m @ chi).any()
    report = check_bitrade(b, ["eigen"])["eigen"]
    assert report.passed
    assert report.details["eigenvalue"] == 0


def test_lifted_vector_has_eigenvalue_minus_one():
    params = HammingParams(4, 3)
    words, _, m = adjacency(params)
    b = lift_to_perfect(alt_bitrade(3))
    chi = signed_vector(params, words, b.t0, b.t1)
    assert ((m @ chi) == -chi).all()
    report = check_bitrade(b, ["eigen"])["eigen"]
    assert report.passed
    assert report.details["eigenvalue"] == -1


@pytest.mark.parametrize(
    "n,q,eigenvalue", [(3, 3, 0), (4, 3, -1), (4, 3, 2), (3, 3, -3)]
)
def test_eigen_check_agrees_with_matrix_on_random_functions(n, q, eigenvalue):
    params = HammingParams(n, q)
    words, _, m = adjacency(params)
    rng = random.Random(n * 100 + q * 10 + eigenvalue)
    for _ in range(50):
        t0, t1 = random_pair(params, rng)
        chi = signed_vector(params, words, t0, t1)
        expected = bool(((m @ chi) == eigenvalue * chi).all())
        got = eigen_check(signed_function(params, t0, t1), eigenvalue)
        assert got.passed == expected


def test_eigen_check_rejects_wrong_eigenvalue():
    b = alt_bitrade(3)
    f = signed_function(b.params, b.t0, b.t1)
    report = eigen_check(f, -3)
    assert not report.passed
    assert report.witnesses


def test_eigen_check_warns_off_spectrum():
    b = alt_bitrade(3)
    f = signed_function(b.params, b.t0, b.t1)
    with pytest.warns(UserWarning, match="not an eigenvalue"):
        eigen_check(f, 1)


@pytest.mark.parametrize("n,q,kind", [(3, 3, SPHERICAL), (4, 3, PERFECT)])
def test_definition_check_matches_brute_force(n, q, kind):
    params = HammingParams(n, q)
    rng = random.Random(n + q)
    pairs = [random_pair(params, rng) for _ in range(40)]
    if kind == SPHERICAL:
        b = alt_bitrade(3)
    else:
        b = lift_to_perfect(alt_bitrade(3))
    pairs.append((b.t0, b.t1))
    for t0, t1 in pairs:
        expected_bad = brute_failures(params, kind, t0, t1)
        closure = definition_check(params, kind, t0, t1)
        assert closure.passed == (not expected_bad)
        assert closure.failure_count == len(expected_bad)
        # witnesses are (vertex, count0, count1) triples in vertex order
        assert closure.witnesses == tuple(expected_bad[:WITNESS_LIMIT])


def test_definition_check_modes_and_details():
    # only the support's spheres are visited
    b = alt_bitrade(3)
    report = definition_check(b.params, b.kind, b.t0, b.t1)
    support = b.t0 | b.t1
    near = [x for x in all_words(b.params) if any(hamming_distance(x, w) == 1 for w in support)]
    assert report.details == {"vertices_checked": len(near)}
    assert len(near) < b.params.vertex_count


def test_eigen_check_reports_the_vertices_it_visits():
    # alt3's support is the 6 permutation words of H(3, 3), and their spheres
    # hold the 18 words with exactly two distinct symbols: every word but the
    # 3 constant ones, which lie at distance 2 from every permutation
    b = alt_bitrade(3)
    report = check_bitrade(b, ["eigen"])["eigen"]
    assert report.passed
    assert report.details == {"eigenvalue": 0, "vertices_checked": 24}
    # one word: itself and its 6 neighbours, whether the check passes or fails
    f = SignedFunction(HammingParams(3, 3), {(0, 1, 2): 1})
    for eigenvalue in HammingParams(3, 3).eigenvalues():
        assert eigen_check(f, eigenvalue).details["vertices_checked"] == 7
    assert eigen_check(SignedFunction(HammingParams(3, 3), {}), 0).details["vertices_checked"] == 0


def on_both_paths(check, *args):
    """check(*args) counted on vertex bitmasks and per block; the two reports must be equal."""
    report = check(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "BITMASK_VERTICES", 0)
        assert check(*args) == report
    return report


REFERENCE_CASES = {
    "alt3": lambda: alt_bitrade(3),
    "alt5": lambda: alt_bitrade(5),
    "mds4-swap": lambda: mds_bitrade(4, "swap"),
    "mds5-coset": lambda: mds_bitrade(5, "coset"),
    "lift-alt3": lambda: lift_to_perfect(alt_bitrade(3)),
    "lift-alt4": lambda: lift_to_perfect(alt_bitrade(4)),
    "lift-tensor-alt3-squared": lambda: lift_to_perfect(tensor_power(alt_bitrade(3), 2)),
}


@pytest.mark.parametrize("make", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_checks_report_what_whole_set_references_report(make):
    b = make()
    rng = random.Random(len(b.t0) * b.params.q)
    eigenvalue = 0 if b.kind == SPHERICAL else -1
    for case in [b] + [corrupt(b, rng)[1] for _ in range(20)]:
        f = signed_function(case.params, case.t0, case.t1)
        assert on_both_paths(
            definition_check, case.params, case.kind, case.t0, case.t1
        ) == definition_reference(case.params, case.kind, case.t0, case.t1)
        assert on_both_paths(eigen_check, f, eigenvalue) == eigen_reference(f, eigenvalue)
        m = delsarte_order(case.params, eigenvalue)
        assert delsarte_face_check(f, m) == delsarte_reference(f, m)
        assert dist2_pair_check(case.params, case.kind, case.t0, case.t1) == dist2_reference(
            case.params, case.kind, case.t0, case.t1
        )


@pytest.mark.parametrize("make", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_eigen_check_reports_what_the_reference_reports_at_every_eigenvalue(make):
    # the count form weighs the words by -t (own sign) for t <= 0 and by t (other sign) for
    # t > 0; off the spectrum it also has to get the sums right past either end of it
    b = make()
    params = b.params
    rng = random.Random(len(b.t0) + params.n)
    off_spectrum = [params.degree - 1, -params.n - 1, params.degree + 2, -params.degree - 3]
    for case in [b] + [corrupt(b, rng)[1] for _ in range(3)]:
        f = signed_function(params, case.t0, case.t1)
        for eigenvalue in params.eigenvalues() + off_spectrum:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert on_both_paths(eigen_check, f, eigenvalue) == eigen_reference(f, eigenvalue)


def test_count_paths_agree_on_a_pair_failing_almost_everywhere():
    # t1 moved to a coset off the sum-zero code: over 10**5 vertices fail, and only
    # WITNESS_LIMIT of them are decoded on either path
    b = mds_bitrade(7, "coset")
    far = [((w[0] + 1) % 7, *w[1:]) for w in b.t0]
    report = on_both_paths(definition_check, b.params, b.kind, b.t0, far)
    assert report.failure_count > 10**5
    assert len(report.witnesses) == WITNESS_LIMIT
    report = on_both_paths(eigen_check, signed_function(b.params, b.t0, far), 0)
    assert report.failure_count > 10**5


def test_check_bitrade_builds_the_signed_function_only_for_the_checks_that_take_it(monkeypatch):
    built = []

    class Counted(SignedFunction):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    b = mds_bitrade(4, "swap")
    expected = check_bitrade(b)
    monkeypatch.setattr(verify, "SignedFunction", Counted)
    assert check_bitrade(b, ["definition", "dist2"]) == {
        name: expected[name] for name in ("definition", "dist2")
    }
    assert built == []
    assert check_bitrade(b, ["eigen", "delsarte"]) == {
        name: expected[name] for name in ("eigen", "delsarte")
    }
    assert len(built) == 1


def test_checks_match_whole_set_references_on_random_pairs():
    rng = random.Random(11)
    for params in (HammingParams(3, 3), HammingParams(4, 2), HammingParams(2, 5), HammingParams(1, 4)):
        for _ in range(40):
            t0, t1 = random_pair(params, rng, max_words=min(6, params.vertex_count // 2))
            for kind in (SPHERICAL, PERFECT):
                assert definition_check(params, kind, t0, t1) == definition_reference(params, kind, t0, t1)
                assert dist2_pair_check(params, kind, t0, t1) == dist2_reference(params, kind, t0, t1)
            f = signed_function(params, t0, t1)
            for eigenvalue in params.eigenvalues():
                assert eigen_check(f, eigenvalue) == eigen_reference(f, eigenvalue)
            for m in range(1, params.n + 2):
                assert delsarte_face_check(f, m) == delsarte_reference(f, m)
    # dist2 does not require disjoint parts: a shared word is at distance 0
    for b in (alt_bitrade(3), lift_to_perfect(alt_bitrade(3))):
        t0 = b.t0 | {min(b.t1)}
        report = dist2_pair_check(b.params, b.kind, t0, b.t1)
        assert not report.passed
        assert report == dist2_reference(b.params, b.kind, t0, b.t1)


def test_definition_check_counts_one_block_at_a_time(monkeypatch):
    # whole-set counters of the 705,894 sphere hits per part peaked at 143 MiB; the
    # per-block path and the bitmask path (84 step masks of 100 KiB) each stay far below
    b = mds_bitrade(7, "coset")
    for ceiling in (0, verify.BITMASK_VERTICES):
        monkeypatch.setattr(verify, "BITMASK_VERTICES", ceiling)
        tracemalloc.start()
        try:
            report = definition_check(b.params, b.kind, b.t0, b.t1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 50 * 2**20


def test_full_sweep_ceiling():
    # the closure visits only the support's neighbourhood, so no graph is too large
    params = HammingParams(13, 3)
    assert params.vertex_count > 3**10
    report = definition_check(params, PERFECT, frozenset(), frozenset())
    assert report.passed
    assert report.details["vertices_checked"] == 0


def test_corruptions_fail_the_definition():
    rng = random.Random(404)
    b = lift_to_perfect(alt_bitrade(3))
    for _ in range(20):
        op, bad = corrupt(b, rng)
        report = check_bitrade(bad, ["definition"])["definition"]
        assert not report.passed, op
        assert report.witnesses
        assert len(report.witnesses) <= WITNESS_LIMIT
        assert report.failure_count >= len(report.witnesses)


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        VerificationReport("definition", True, ((0, 0, 0),), 1, {})
    with pytest.raises(ValueError):
        VerificationReport("definition", False, (), 0, {})
    with pytest.raises(ValueError):
        VerificationReport("definition", False, (), 3, {})
    ok = VerificationReport("definition", True, (), 0, {})
    assert ok.passed


def test_dist2_reports_each_part_minimum_distance():
    b = alt_bitrade(3)
    assert dist2_pair_check(b.params, b.kind, b.t0, b.t1).passed
    # a singleton part has no pairwise distance, reported as infinite
    report = dist2_pair_check(b.params, SPHERICAL, frozenset({(0, 0, 0)}), frozenset())
    assert ("min_distance", "t0", math.inf, 3) in report.witnesses
    assert ("min_distance", "t1", math.inf, 3) in report.witnesses
    # a part at distance 4 is no bitrade part either
    far = frozenset({(0, 0, 0, 0), (1, 1, 1, 1)})
    near = frozenset({(0, 1, 2, 3), (1, 2, 3, 3)})
    report = dist2_pair_check(HammingParams(4, 4), SPHERICAL, far, near)
    assert [w for w in report.witnesses if w[0] == "min_distance"] == [("min_distance", "t0", 4, 3)]


def test_min_distance_check_fails_a_large_distance_four_part():
    # the [8, 5, 4] code: 32768 words at distance 4, once passed as "3"
    f = build_field(8)
    rows = [(1,) * 8, tuple(f.elements), tuple(f.mul(a, a) for a in f.elements)]
    words = frozenset(ParityCheckCode(f, 8, rows).words())
    assert len(words) > 20000
    other = frozenset({(1, 1, 1) + (0,) * 5, (2, 2, 2) + (0,) * 5})
    report = dist2_pair_check(HammingParams(8, 8), SPHERICAL, words, other)
    assert not report.passed
    # each word misses its distance-2 count and the parts sit at distance 1;
    # the one further failure is t0's minimum distance, 4 rather than 3
    assert report.failure_count == len(words) + len(other) + 2


def test_definition_check_refuses_parts_as_bitrade_does():
    b = alt_bitrade(3)
    shared = r"^parts must be disjoint; 3 shared words, e\.g\. \(0, 1, 2\)$"
    for check in (Bitrade, definition_check):
        with pytest.raises(ValueError, match=shared):
            check(b.params, SPHERICAL, b.t0, b.t0 | b.t1)
        # a bad word is named before the parts are compared
        with pytest.raises(ValueError, match=r"^\(0, 0, 3\) is not a word of H\(3, 3\)$"):
            check(b.params, SPHERICAL, b.t0, [*b.t0, (0, 0, 3)])


def test_checks_refuse_bad_arguments():
    b = alt_bitrade(3)
    for check in (definition_check, dist2_pair_check):
        with pytest.raises(ValueError, match="kind must be one of"):
            check(b.params, "orbital", b.t0, b.t1)
    with pytest.raises(ValueError, match="parts must be disjoint"):
        definition_check(b.params, SPHERICAL, b.t0, b.t0 | b.t1)
    f = signed_function(b.params, b.t0, b.t1)
    for m in (0, 5, 2.0):
        with pytest.raises(ValueError, match=r"face-sum order m must be in 1\.\.4"):
            delsarte_face_check(f, m)


def test_dist2_profile_spherical():
    b = alt_bitrade(3)
    report = dist2_count_check(b)
    assert report.passed
    assert report.details["expected_distance2"] == 3
    t = tensor_combine(b, b)
    assert dist2_count_check(t).details["expected_distance2"] == 6


def test_dist2_profile_perfect():
    b = lift_to_perfect(alt_bitrade(3))
    report = dist2_count_check(b)
    assert report.passed
    assert report.details["expected_distance1"] == 1
    assert report.details["expected_distance2"] == 3


def test_dist2_fails_on_corruptions():
    rng = random.Random(77)
    b = alt_bitrade(4)
    for _ in range(10):
        _, bad = corrupt(b, rng)
        assert not dist2_pair_check(bad.params, bad.kind, bad.t0, bad.t1).passed


def test_delsarte_order_values():
    assert delsarte_order(HammingParams(3, 3), 0) == 2
    assert delsarte_order(HammingParams(4, 3), -1) == 3
    assert delsarte_order(HammingParams(5, 5), 0) == 4
    with pytest.raises(ValueError):
        delsarte_order(HammingParams(3, 3), 1)
    # 0.0 == 0, but an eigenvalue is an integer
    with pytest.raises(ValueError):
        delsarte_order(HammingParams(3, 3), 0.0)
    # check_bitrade picks the order from the kind: eigenvalue 0 or -1
    assert check_bitrade(alt_bitrade(3), ["delsarte"])["delsarte"].details["order"] == 2
    lifted = lift_to_perfect(alt_bitrade(3))
    assert check_bitrade(lifted, ["delsarte"])["delsarte"].details["order"] == 3


def test_delsarte_exhaustive_pass():
    b = lift_to_perfect(alt_bitrade(3))
    report = check_bitrade(b, ["delsarte"])["delsarte"]
    assert report.passed
    assert report.details["order"] == 3
    assert report.details["faces_total"] == 54
    assert report.details["faces_with_support"] == 36


def test_delsarte_exhaustive_failure_kinds():
    # two +1 values at distance 1: shared faces break the zero sum and
    # faces seeing only one of them break the support condition too
    params = HammingParams(4, 3)
    f = SignedFunction(params, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})
    report = delsarte_face_check(f, 3)
    assert not report.passed
    assert report.failure_count == 15
    assert {w[0] for w in report.witnesses} == {"zero_sum", "support"}


def test_delsarte_fails_on_moved_word():
    b = lift_to_perfect(alt_bitrade(3))
    rng = random.Random(5)
    while True:
        op, bad = corrupt(b, rng)
        if op == "move":
            break
    assert not check_bitrade(bad, ["delsarte"])["delsarte"].passed


def test_delsarte_rejects_a_corruption_a_face_sample_passed():
    # a sample of 24 of alt8's faces once passed this corruption
    op, bad = corrupt(alt_bitrade(8), random.Random(1))
    report = check_bitrade(bad, ["delsarte"])["delsarte"]
    assert report.details["order"] == 7
    assert not report.passed, op


@pytest.mark.parametrize("make", [
    lambda: alt_bitrade(8),
    lambda: tensor_power(alt_bitrade(5), 2),
    lambda: lift_to_perfect(tensor_power(alt_bitrade(3), 4)),
], ids=["alt8", "tensor-alt5-squared", "lift-tensor-alt3-fourth"])
def test_delsarte_passes_large_bitrades(make):
    report = check_bitrade(make(), ["delsarte"])["delsarte"]
    assert report.passed
    assert report.details["faces_with_support"] > 0


def test_delsarte_refuses_oversized_work():
    # C(40, 19) position sets: about 1.3e11 projections even for two words
    params = HammingParams(40, 2)
    f = SignedFunction(params, {(0,) * 40: 1, (1,) * 40: -1})
    started = time.perf_counter()
    refusal = r"refusing a face check of C\(40, 19\) position sets over 2 words; the ceiling is 2\*\*25$"
    with pytest.raises(ValueError, match=refusal):
        delsarte_face_check(f, delsarte_order(params, 0))
    assert time.perf_counter() - started < 0.5


def test_signed_function_validation():
    params = HammingParams(3, 3)
    with pytest.raises(ValueError):
        SignedFunction(params, {(0, 0, 0): 2})
    with pytest.raises(ValueError):
        SignedFunction(params, {(0, 3, 0): 1})
    f = SignedFunction(params, {(0, 1, 2): 1, (0, 2, 1): -1})
    assert f.parts() == ([(0, 1, 2)], [(0, 2, 1)])


def test_empty_pair_passes_every_check():
    params = HammingParams(3, 3)
    empty = Bitrade(params, SPHERICAL, frozenset(), frozenset())
    for name, report in check_bitrade(empty).items():
        assert report.passed, name


def test_check_bitrade_runs_named_checks_in_order():
    b = lift_to_perfect(alt_bitrade(3))
    reports = check_bitrade(b, ["delsarte", "definition", "delsarte"])
    assert list(reports) == ["definition", "delsarte"]
    assert list(check_bitrade(b)) == list(CHECKS)
    with pytest.raises(ValueError, match="unknown check 'parity'"):
        check_bitrade(b, ["eigen", "parity"])


def test_three_way_agreement_on_random_pairs():
    rng = random.Random(2024)
    for params, kind in ((HammingParams(3, 3), SPHERICAL), (HammingParams(4, 3), PERFECT)):
        for _ in range(100):
            t0, t1 = random_pair(params, rng)
            votes = characterization_votes(params, kind, t0, t1)
            assert len(set(votes)) == 1, (t0, t1, votes)


# Bitrades of both kinds from every construction, in H(n, q) with q from 3 to 5.
INVARIANCE_CASES = {
    "alt3": lambda: alt_bitrade(3),
    "alt4": lambda: alt_bitrade(4),
    "lift-alt3": lambda: lift_to_perfect(alt_bitrade(3)),
    "tensor-alt3-squared": lambda: tensor_power(alt_bitrade(3), 2),
    "mds4-swap": lambda: mds_bitrade(4, "swap"),
    "mds5-coset": lambda: mds_bitrade(5, "coset"),
}


@st.composite
def automorphic_images(draw):
    """A bitrade's image under a drawn g in S_q wr S_n, and a seed for corrupting it.

    g moves coordinate order[i] to position i and applies symbols[i] to it.
    """
    b = INVARIANCE_CASES[draw(st.sampled_from(sorted(INVARIANCE_CASES)))]()
    n, q = b.params.n, b.params.q
    order = draw(st.permutations(range(n)))
    symbols = [draw(st.permutations(range(q))) for _ in range(n)]

    def g(w):
        return tuple(symbols[i][w[j]] for i, j in enumerate(order))

    image = Bitrade(b.params, b.kind, frozenset(map(g, b.t0)), frozenset(map(g, b.t1)))
    return image, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(automorphic_images())
def test_checks_are_invariant_under_automorphisms(case):
    image, seed = case
    for name, report in check_bitrade(image).items():
        assert report.passed, name
    op, bad = corrupt(image, random.Random(seed))
    assert not check_bitrade(bad, ["definition"])["definition"].passed, op
