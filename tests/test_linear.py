"""Parity-check codes: sum-zero codes, weighted MDS codes, cosets."""

import collections
import itertools
import math
import random
import tracemalloc

import pytest

from bitrades.fields import build_field
from bitrades.hamming import Code, HammingParams, min_distance
from bitrades.linear import (
    ParityCheckCode,
    coset,
    rs_mds_code,
    sum_zero_code,
    verify_mds,
)
from helpers import all_words

SUM_ZERO_3 = frozenset(
    {
        (0, 0, 0), (0, 1, 2), (0, 2, 1),
        (1, 0, 2), (1, 1, 1), (1, 2, 0),
        (2, 0, 1), (2, 1, 0), (2, 2, 2),
    }
)


def test_sum_zero_gf3():
    c = sum_zero_code(build_field(3), 3)
    assert c.rank == 1
    assert c.size() == 9
    assert frozenset(c.words()) == SUM_ZERO_3
    assert min_distance(c.to_code()) == 2


def test_sum_zero_sizes():
    for q, n in ((2, 5), (4, 4), (5, 3)):
        c = sum_zero_code(build_field(q), n)
        assert c.size() == q ** (n - 1)
        assert len(frozenset(c.words())) == c.size()


def test_rs_gf3_is_repetition_code():
    c = rs_mds_code(build_field(3))
    assert frozenset(c.words()) == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}
    assert min_distance(c.to_code()) == 3
    assert verify_mds(c)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_rs_default_is_mds(q):
    f = build_field(q)
    c = rs_mds_code(f)
    assert c.n == q
    assert c.rank == 2
    assert c.size() == q ** (q - 2)
    assert min_distance(c.to_code()) == 3
    assert verify_mds(c)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_rs_larger_fields_without_enumeration(q):
    # too many words to enumerate cheaply; sample codewords by solving
    # the two checks for the first two coordinates (multipliers 0 and 1)
    import random

    from bitrades.hamming import hamming_distance

    f = build_field(q)
    c = rs_mds_code(f)
    assert c.rank == 2
    assert c.size() == q ** (q - 2)
    rng = random.Random(q)

    def sample_word():
        tail = [rng.randrange(q) for _ in range(q - 2)]
        s0 = f.sum(tail)
        s1 = f.sum(f.mul(m, a) for m, a in zip(range(2, q), tail))
        # x0 + x1 = -s0 and x1 = -s1 pin the first two coordinates
        x1 = f.neg(s1)
        x0 = f.sub(f.neg(s0), x1)
        return (x0, x1, *tail)

    words = {sample_word() for _ in range(60)}
    assert all(w in c for w in words)
    ordered = sorted(words)
    for i, w in enumerate(ordered):
        for v in ordered[i + 1 :]:
            assert hamming_distance(w, v) >= 3


def test_rs_is_inside_sum_zero():
    f = build_field(4)
    outer = sum_zero_code(f, 4)
    inner = rs_mds_code(f)
    assert all(w in outer for w in inner.words())


def test_rs_shorter_lengths():
    f = build_field(5)
    c = rs_mds_code(f, n=4)
    assert c.size() == 25
    assert min_distance(c.to_code()) == 3


def test_rs_validation():
    f = build_field(5)
    with pytest.raises(ValueError, match="3 <= n <= q"):
        rs_mds_code(f, n=2)
    with pytest.raises(ValueError, match="3 <= n <= q"):
        rs_mds_code(f, n=6)
    with pytest.raises(ValueError):
        rs_mds_code(build_field(2))


def test_gf3_every_multiplier_choice_gives_the_same_code():
    # over GF(3) any three pairwise distinct multipliers are a permutation
    # of the whole field, and every such choice cuts out the repetition
    # code, so the two-code swap constructions collapse
    f = build_field(3)
    reference = frozenset(rs_mds_code(f).words())
    for perm in itertools.permutations(range(3)):
        assert frozenset(ParityCheckCode(f, 3, [(1, 1, 1), perm]).words()) == reference


@pytest.mark.parametrize("q", [4, 5, 7])
def test_swapped_multipliers_intersection(q):
    # swapping two multipliers keeps q^(q-3) common words and changes the rest
    f = build_field(q)
    swapped = (1, 0) + tuple(range(2, q))
    c0 = frozenset(rs_mds_code(f).words())
    c1 = frozenset(ParityCheckCode(f, q, [(1,) * q, swapped]).words())
    assert c0 != c1
    assert len(c0 & c1) == q ** (q - 3)
    assert len(c0 - c1) == len(c1 - c0)


def test_coset_translation():
    f = build_field(3)
    base = rs_mds_code(f)
    shifted = coset(f, base.to_code(), (0, 1, 2))
    assert shifted.words == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert min_distance(shifted) == 3
    assert not (shifted.words & frozenset(base.words()))


def test_coset_zero_shift_is_identity():
    f = build_field(4)
    base = rs_mds_code(f)
    assert coset(f, base.to_code(), (0, 0, 0, 0)).words == frozenset(base.words())


def test_coset_accepts_code_objects():
    f = build_field(3)
    c = Code(HammingParams(3, 3), frozenset({(0, 0, 0)}))
    assert coset(f, c, (1, 1, 1)).words == {(1, 1, 1)}


def test_coset_validation():
    f = build_field(3)
    base = rs_mds_code(f).to_code()
    with pytest.raises(ValueError):
        coset(f, base, (0, 1))
    with pytest.raises(ValueError):
        coset(f, base, (0, 1, 3))
    with pytest.raises(ValueError, match="GF"):
        coset(build_field(4), base, (0, 0, 0))


def test_parity_check_validation():
    f = build_field(3)
    with pytest.raises(ValueError):
        ParityCheckCode(f, 0, [])
    with pytest.raises(ValueError, match=r"^\(1, 1\) is not a word of H\(3, 3\)$"):
        ParityCheckCode(f, 3, [(1, 1)])
    with pytest.raises(ValueError):
        ParityCheckCode(f, 3, [(1, 1, 3)])


def test_dependent_rows_are_dropped():
    f = build_field(3)
    c = ParityCheckCode(f, 3, [(1, 1, 1), (2, 2, 2), (0, 0, 0)])
    assert c.rank == 1
    assert c.size() == 9
    assert frozenset(c.words()) == SUM_ZERO_3


def test_contains_matches_enumeration():
    f = build_field(4)
    c = rs_mds_code(f)
    members = frozenset(c.words())
    assert all(w in c for w in members)
    assert (1, 0, 0, 0) not in c
    assert (0, 0, 0) not in c
    assert (0, 0, 0, 4) not in c


def test_enumeration_ceiling():
    f = build_field(2)
    c = ParityCheckCode(f, 50, [(0,) * 50])
    assert c.rank == 0
    assert c.size() == 2**50
    refusal = r"^refusing to enumerate 1125899906842624 codewords; the ceiling is 2\*\*48$"
    with pytest.raises(ValueError, match=refusal):
        next(c.words())


def test_enumeration_equals_a_brute_force_sweep():
    f3, f4 = build_field(3), build_field(4)
    codes = [
        sum_zero_code(f3, 4), rs_mds_code(f3), rs_mds_code(f4), rs_mds_code(build_field(5), n=4),
        ParityCheckCode(f3, 4, [(1, 1, 1, 0)]),
        ParityCheckCode(f4, 4, [(1, 0, 1, 0), (0, 1, 0, 0)]),
        ParityCheckCode(f4, 3, [(2, 3, 1)]),
        ParityCheckCode(f3, 3, []),
        ParityCheckCode(f4, 2, [(1, 0), (0, 1)]),
    ]
    layouts = 0
    for code in codes:
        free = [i for i in range(code.n) if i not in code._pivots]
        layouts += any(p < i for p in code._pivots for i in free)
        members = [w for w in all_words(code.params) if w in code]
        # one word per assignment of the free coordinates, swept lexicographically
        assert list(code.words()) == sorted(members, key=lambda w: [w[i] for i in free])
    # pivots left of a free coordinate put the words in place with an itemgetter
    assert layouts == 2


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumeration_streams_its_prefixes():
    # with the free prefixes held as lists the first of 2**18 words peaked at 44.6 MiB
    code = ParityCheckCode(build_field(2), 18, [])
    assert _traced_peak(lambda: next(code.words())) < 2**20
    assert next(code.words()) == (0,) * 18
    # rank 14: 8,192 distinct row sums over its 2**14 free prefixes overflow the tail cache
    rng = random.Random(14)
    high = ParityCheckCode(build_field(2), 29, [[rng.randrange(2) for _ in range(29)] for _ in range(14)])
    assert high.rank == 14
    assert _traced_peak(lambda: next(high.words())) < 2**20
    # a full sweep caching every prefix's tails peaked at 4.4 MiB
    assert _traced_peak(lambda: collections.deque(high.words(), maxlen=0)) < 2**20


def test_verify_mds():
    # sum-zero codes meet the Singleton bound (distance 2, q^(n-1) words)
    assert verify_mds(sum_zero_code(build_field(3), 4))
    # a [4, 2, 2] binary code falls short of it: 4 words, bound allows 8
    f2 = build_field(2)
    c = ParityCheckCode(f2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert min_distance(c.to_code()) == 2
    assert not verify_mds(c)
    # codes with at most one word are MDS by convention
    f3 = build_field(3)
    assert verify_mds(ParityCheckCode(f3, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def mds_by_enumeration(code) -> bool:
    """Whether the enumerated code meets the Singleton bound |C| = q^(n-d+1)."""
    d = min_distance(code.to_code())
    return d == math.inf or code.size() == code.field.q ** (code.n - d + 1)


def codes_the_tests_build():
    f2, f3, f5 = build_field(2), build_field(3), build_field(5)
    codes = [sum_zero_code(build_field(q), n) for q, n in ((3, 3), (3, 4), (2, 5), (4, 4), (5, 3))]
    codes += [rs_mds_code(build_field(q)) for q in (3, 4, 5, 7)]
    codes += [rs_mds_code(f5, n=4), rs854()]
    codes += [ParityCheckCode(f3, 3, [(1, 1, 1), perm]) for perm in itertools.permutations(range(3))]
    codes += [
        ParityCheckCode(build_field(q), q, [(1,) * q, (1, 0) + tuple(range(2, q))]) for q in (4, 5, 7)
    ]
    codes += [
        ParityCheckCode(f3, 3, [(1, 1, 1), (2, 2, 2), (0, 0, 0)]),
        ParityCheckCode(f2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)]),
        ParityCheckCode(f3, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ]
    return codes


def test_verify_mds_agrees_with_enumeration():
    verdicts = []
    for code in codes_the_tests_build():
        verdicts.append(verify_mds(code))
        assert verdicts[-1] == mds_by_enumeration(code), code.checks
    rng = random.Random(8)
    for q in range(2, 10):
        if q == 6:
            continue
        f = build_field(q)
        for _ in range(40):
            n = rng.randrange(1, 7 if q <= 3 else 5)
            rows = [
                tuple(rng.randrange(q) if rng.random() < 0.8 else 0 for _ in range(n))
                for _ in range(rng.randrange(n + 2))
            ]
            code = ParityCheckCode(f, n, rows)
            verdicts.append(verify_mds(code))
            assert verdicts[-1] == mds_by_enumeration(code), (q, rows)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_verify_mds_refuses_too_many_column_sets():
    # rank 30 over 60 columns: C(60, 30), about 1.2e17 sets of 30 columns
    f = build_field(2)
    code = ParityCheckCode(f, 60, [tuple(int(j in (i, i + 30)) for j in range(60)) for i in range(30)])
    assert code.rank == 30
    refusal = r"^refusing to test C\(60, 30\) column sets; the ceiling is 2\*\*48$"
    with pytest.raises(ValueError, match=refusal):
        verify_mds(code)


def rs854():
    """The [8, 5, 4] Reed-Solomon code over GF(8): check rows 1, a and a^2."""
    f = build_field(8)
    rows = [(1,) * 8, tuple(f.elements), tuple(f.mul(a, a) for a in f.elements)]
    return ParityCheckCode(f, 8, rows)


def test_rs854_has_exact_distance_four_and_is_mds():
    # above 20000 words, where min_distance once answered "3, at least 3"
    code = rs854()
    words = frozenset(code.words())
    assert len(words) == code.size() == 8**5
    assert min_distance(Code(code.params, words)) == 4
    assert verify_mds(code)
