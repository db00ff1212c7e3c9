"""Metric, neighbourhood, and enumeration primitives, and the integer kernel."""

import collections
import itertools
import math
import random
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitrades.hamming import (
    Code,
    HammingParams,
    bit_planes,
    code_distance,
    hamming_distance,
    min_distance,
    moves,
    projections,
)
from bitrades.linear import ENUMERATION_CEILING
from bitrades.verify import WITNESS_LIMIT, definition_check
from helpers import all_words, ball, brute_failures, sphere

# derandomized, so every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def test_params_basic():
    p = HammingParams(4, 3)
    assert p.vertex_count == 81
    assert p.degree == 8
    assert p.eigenvalues() == [8, 5, 2, -1, -4]


def test_params_eigenvalues_spherical_case():
    assert HammingParams(3, 3).eigenvalues() == [6, 3, 0, -3]
    assert 0 in HammingParams(5, 5).eigenvalues()
    assert 0 not in HammingParams(4, 3).eigenvalues()


def test_params_validation():
    with pytest.raises(ValueError):
        HammingParams(0, 3)
    with pytest.raises(ValueError):
        HammingParams(3, 1)
    with pytest.raises(ValueError):
        HammingParams(3, True)
    with pytest.raises(ValueError):
        HammingParams(True, 3)


def test_params_contains():
    p = HammingParams(3, 3)
    assert p.contains((0, 1, 2))
    assert not p.contains((0, 1))
    assert not p.contains((0, 1, 3))
    assert not p.contains((0, 1, 2.0))
    # a bool would be written as false/true or False/True, which neither file format reads
    assert not p.contains((False, True, 2))
    with pytest.raises(ValueError, match=r"\(0, True, 2\) is not a word"):
        p.check_words([(0, 1, 2), (0, True, 2)])
    with pytest.raises(ValueError):
        p.check_words([(0, 1, 3)])


def test_check_words_validates_one_shot_iterators():
    # the fast path takes several passes, so an iterator must be read once
    p = HammingParams(3, 3)
    with pytest.raises(ValueError, match=r"\(0, 5, 0\)"):
        p.check_words(w for w in [(0, 5, 0)])
    with pytest.raises(ValueError, match=r"\(0, 5, 0\)"):
        p.check_words(iter([(0, 1, 2), (0, 5, 0)]))
    p.check_words(iter([(0, 1, 2)]))


def test_hamming_distance_examples():
    assert hamming_distance((0, 1, 2), (0, 1, 2)) == 0
    assert hamming_distance((0, 1, 2), (0, 2, 1)) == 2
    assert hamming_distance((0, 0, 0, 0), (1, 1, 1, 1)) == 4
    with pytest.raises(ValueError):
        hamming_distance((0, 1), (0, 1, 2))


def test_hamming_distance_is_a_metric():
    rng = random.Random(7)
    p = HammingParams(5, 4)
    for _ in range(200):
        x = tuple(rng.randrange(4) for _ in range(5))
        y = tuple(rng.randrange(4) for _ in range(5))
        z = tuple(rng.randrange(4) for _ in range(5))
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert (hamming_distance(x, y) == 0) == (x == y)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


def test_sphere_size_and_order():
    p = HammingParams(2, 2)
    assert sphere(p, (0, 0)) == [(1, 0), (0, 1)]
    p = HammingParams(3, 3)
    s = sphere(p, (0, 1, 2))
    assert len(s) == p.degree == 6
    assert all(hamming_distance(w, (0, 1, 2)) == 1 for w in s)
    assert len(set(s)) == 6


def test_sphere_sizes_exhaustive():
    p = HammingParams(3, 3)
    for w in all_words(p):
        assert len(sphere(p, w)) == 6
        assert len(ball(p, w)) == 7


def test_ball_is_center_plus_sphere():
    p = HammingParams(4, 3)
    w = (2, 1, 0, 2)
    b = ball(p, w)
    assert b[0] == w
    assert b[1:] == sphere(p, w)
    assert len(b) == p.degree + 1 == 9


def test_ball_of_length_one_word_is_whole_graph():
    p = HammingParams(1, 5)
    assert sorted(ball(p, (3,))) == sorted(all_words(p))


def test_sphere_rejects_foreign_words():
    with pytest.raises(ValueError):
        sphere(HammingParams(3, 3), (0, 1, 3))


def test_min_distance_small_codes():
    p = HammingParams(3, 3)
    assert min_distance(Code(p, frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)}))) == 3
    assert min_distance(Code(p, frozenset({(0, 0, 0), (1, 1, 1)}))) == 3
    assert min_distance(Code(p, frozenset({(0, 0, 0), (0, 1, 1)}))) == 2
    assert min_distance(Code(p, frozenset({(0, 0, 0), (0, 0, 1)}))) == 1


def test_min_distance_sentinel():
    p = HammingParams(3, 3)
    assert min_distance(Code(p, frozenset())) == math.inf
    assert min_distance(Code(p, frozenset({(0, 0, 0)}))) == math.inf


def pairwise_min(words):
    """Oracle: the smallest distance over all pairs of distinct words."""
    return min(
        (hamming_distance(x, y) for x, y in itertools.combinations(words, 2)),
        default=math.inf,
    )


def pairwise_cross(c, d):
    """Oracle: the smallest distance between a word of c and a word of d."""
    return min(
        (hamming_distance(x, y) for x in c for y in d), default=math.inf
    )


# q = 4 and 2 reach walks of depth 2 and 3 and the injective top level
@pytest.mark.parametrize("n,q", [(4, 3), (5, 2), (4, 4), (6, 2)])
def test_distances_agree_with_pairwise_oracle(n, q):
    p = HammingParams(n, q)
    rng = random.Random(n * 10 + q)
    # sizes up to half the graph, so the projections, the pigeonhole stop
    # and the pairwise scan all get exercised
    for _ in range(120):
        size = rng.randrange(0, p.vertex_count // 2)
        words = rng.sample(list(all_words(p)), size)
        cut = rng.randrange(size + 1)
        c, d = Code(p, frozenset(words[:cut])), Code(p, frozenset(words[cut:]))
        assert min_distance(c) == pairwise_min(words[:cut])
        assert code_distance(c, d) == pairwise_cross(words[:cut], words[cut:])


def test_exact_distance_examples():
    # once "3, meaning at least 3" above a size limit; now exact at any size
    p = HammingParams(4, 3)
    assert min_distance(Code(p, frozenset({(0,) * 4, (1,) * 4, (2,) * 4}))) == 4
    p = HammingParams(3, 3)
    assert min_distance(Code(p, frozenset({(0, 0, 0), (0, 0, 1)}))) == 1
    assert min_distance(Code(p, frozenset({(0, 0, 0), (0, 1, 1)}))) == 2
    assert min_distance(Code(p, frozenset({(0, 0, 0), (1, 1, 1)}))) == 3
    # the whole graph has distance 1; two far words in a long graph keep n
    assert min_distance(Code(p, frozenset(all_words(p)))) == 1
    big = HammingParams(40, 2)
    assert min_distance(Code(big, frozenset({(0,) * 40, (1,) * 40}))) == 40
    far = Code(big, frozenset({(1,) * 40}))
    assert code_distance(Code(big, frozenset({(0,) * 40})), far) == 40
    assert code_distance(Code(HammingParams(1, 3), frozenset({(0,)})),
                         Code(HammingParams(1, 3), frozenset({(2,)}))) == 1


def test_min_distance_three_means_ball_packing():
    # d >= 3 holds exactly when every ball holds at most one codeword
    p = HammingParams(4, 3)
    rng = random.Random(23)
    for _ in range(30):
        words = frozenset(
            tuple(rng.randrange(3) for _ in range(4)) for _ in range(rng.randrange(0, 7))
        )
        c = Code(p, words)
        packs = all(
            sum(w in words for w in ball(p, x)) <= 1 for x in all_words(p)
        )
        assert (min_distance(c) >= 3) == packs


def test_code_distance():
    p = HammingParams(3, 3)
    c = Code(p, frozenset({(0, 0, 0)}))
    d = Code(p, frozenset({(1, 1, 1)}))
    assert code_distance(c, d) == 3
    assert code_distance(c, c) == 0
    assert code_distance(c, Code(p, frozenset())) == math.inf
    with pytest.raises(ValueError):
        code_distance(c, Code(HammingParams(3, 4), frozenset()))


def test_all_words_lexicographic():
    p = HammingParams(2, 3)
    assert list(all_words(p)) == [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
    ]


def test_enumeration_ceiling():
    big = HammingParams(49, 2)  # constructing the parameters is fine
    assert big.vertex_count == 2**49 > ENUMERATION_CEILING
    # neighbourhood-local operations ignore the ceiling
    assert len(list(big.sphere(0))) == 49


# ---------------------------------------------------------------------------
# the integer kernel


@st.composite
def params_and_word(draw):
    # q = 2 and n = 1 included, and words of length 6 and more
    n = draw(st.integers(1, 8))
    q = draw(st.integers(2, 5 if n <= 5 else 3))
    word = tuple(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    return HammingParams(n, q), word


# the edge cases, drawn or not: q = 2, n = 1, words of length 6 and more,
# ids above 2**30 (H(40, 2)) and a two-digit alphabet
EDGE_CASES = [
    (HammingParams(1, 2), (1,)),
    (HammingParams(6, 2), (0, 1, 1, 0, 1, 0)),
    (HammingParams(8, 3), (2, 0, 1, 2, 2, 0, 1, 0)),
    (HammingParams(40, 2), (1, 0, 1, 1) * 10),
    (HammingParams(3, 12), (11, 0, 7)),
]


def with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case)(test)
    return test


@PROPERTY
@given(params_and_word())
@with_edge_cases
def test_encode_decode_round_trip(case):
    params, word = case
    index = params
    v = index.encode(word)
    assert 0 <= v < params.vertex_count
    assert index.decode(v) == word


@PROPERTY
@given(params_and_word())
@with_edge_cases
def test_kernel_neighbourhoods_match_word_versions(case):
    params, word = case
    index = params
    assert list(index.sphere(index.encode(word))) == [index.encode(w) for w in sphere(params, word)]
    # projections: the word, its sphere (pairs at distance 1 and 2), its shift
    # by 1 (distance n) and a few random words
    n, q = params.n, params.q
    rng = random.Random(index.encode(word))
    words = [word, *sphere(params, word), tuple((s + 1) % q for s in word)]
    words += [tuple(rng.randrange(q) for _ in range(n)) for _ in range(5)]
    ids = list(map(index.encode, words))
    _, columns = index.digits(ids)
    assert list(map(sum, zip(*columns))) == ids
    assert columns == [[s * w for s in map(itemgetter(i), words)] for i, w in enumerate(index.weights)]
    # every drop of sizes 0-3 where n is small, and the long drops of H(40, 2)
    sizes = {0, 1, 2, n - 1, n} | ({3} if n <= 8 else set())
    for k in sorted(sizes):
        # a second part, the words reversed, tests keys across parts
        walked = list(projections([(ids, columns), index.digits(ids[::-1])], k))
        assert [drop for drop, _ in walked] == list(itertools.combinations(range(n), k))
        for drop, (keys, back) in walked:
            keys = list(keys)
            assert list(back) == keys[::-1]
            kept = [tuple(w[i] for i in range(n) if i not in drop) for w in words]
            # equal keys exactly when the kept symbols are equal
            assert len(set(keys)) == len(set(kept)) == len(set(zip(keys, kept)))


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_blocks_split_the_neighbourhood_hits_by_first_symbol(q):
    rng = random.Random(q)
    for n in (1, 2, 3, 4):
        params = HammingParams(n, q)
        index = params
        for _ in range(10):
            size = rng.randrange(min(params.vertex_count, 30) + 1)
            words = rng.sample(list(all_words(params)), size)
            blocks = [(list(own), list(hits)) for own, hits in index.blocks(params.check_words(words))]
            assert len(blocks) == q
            for v, (own, hits) in enumerate(blocks):
                assert own == sorted(index.encode(w) for w in words if w[0] == v)
                assert all(index.decode(x)[0] == v for x in hits)
            own = [x for ids, _ in blocks for x in ids]
            hits = [x for _, block in blocks for x in block]
            for hood, listed in ((sphere, hits), (ball, own + hits)):
                per_word = [index.encode(y) for w in words for y in hood(params, w)]
                assert collections.Counter(listed) == collections.Counter(per_word)


@pytest.mark.parametrize("n,q", [(1, 2), (3, 3), (2, 5), (4, 2), (2, 7)])
def test_digit_steps_move_a_vertex_set_to_each_neighbour(n, q):
    # step (i, d) adds d mod q to digit i of every word; the steps' planes count the spheres
    params = HammingParams(n, q)
    steps = params.step_masks()
    words = list(all_words(params))
    rng = random.Random(10 * n + q)
    for _ in range(10):
        chosen = rng.sample(words, rng.randint(0, len(words)))
        moved = list(moves(params.bitmask(map(params.encode, chosen)), steps))
        assert moved == [
            params.bitmask(params.encode(w[:i] + ((w[i] + d) % q,) + w[i + 1:]) for w in chosen)
            for i in range(n) for d in range(q - 1, 0, -1)
        ]
        planes = bit_planes(moved, params.degree.bit_length())
        counts = collections.Counter(y for w in chosen for y in params.sphere(params.encode(w)))
        assert [sum((p >> y & 1) << j for j, p in enumerate(planes)) for y in range(len(words))] == [
            counts[y] for y in range(len(words))
        ]


def test_kernel_small_cases():
    index = HammingParams(1, 2)
    assert list(index.sphere(0)) == [1]
    index = HammingParams(3, 3)
    assert index.encode((1, 2, 0)) == 15
    assert index.decode(15) == (1, 2, 0)
    assert list(index.sphere(0)) == [9, 18, 3, 6, 1, 2]
    # the tables are built once per graph and take no part in equality
    assert index.weights is index.weights
    assert index == HammingParams(3, 3) and hash(index) == hash(HammingParams(3, 3))
    # ids number the words in lexicographic order
    for params in (HammingParams(1, 5), HammingParams(3, 3), HammingParams(6, 2)):
        index = params
        assert list(map(index.encode, all_words(params))) == list(range(params.vertex_count))


@st.composite
def small_pairs(draw):
    n = draw(st.integers(1, 4))
    q = draw(st.integers(2, 4))
    params = HammingParams(n, q)
    words = draw(
        st.lists(st.integers(0, params.vertex_count - 1), unique=True, max_size=10)
    )
    cut = draw(st.integers(0, len(words)))
    index = params
    kind = draw(st.sampled_from(["spherical", "perfect"]))
    t0 = frozenset(map(index.decode, words[:cut]))
    t1 = frozenset(map(index.decode, words[cut:]))
    return params, kind, t0, t1


@PROPERTY
@given(small_pairs())
def test_definition_check_closure_agrees_with_full_sweep(case):
    params, kind, t0, t1 = case
    closure = definition_check(params, kind, t0, t1)
    swept = brute_failures(params, kind, t0, t1)
    assert closure.passed == (not swept)
    assert closure.witnesses == tuple(swept[:WITNESS_LIMIT])
    assert closure.failure_count == len(swept)
