"""Exhaustive minima against an independent ILP oracle (scipy's HiGHS).

The oracle shares no code with the package: it builds neighbourhoods from
words itself.  Its optimum is a floating-point solver's claim, not a
certificate, so it is called an oracle; the branch and bound is what
proves a minimum.
"""

import itertools
import random

import numpy
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

import bitrades.search as search_module
from bitrades import (
    PERFECT,
    SPHERICAL,
    Bitrade,
    HammingParams,
    SearchConfig,
    alt_bitrade,
    check_bitrade,
    find_spherical,
    lift_to_perfect,
    min_perfect_volume,
)


def _neighbourhood(w, q, ball):
    near = [w] if ball else []
    return near + [w[:j] + (s,) + w[j + 1:] for j in range(len(w)) for s in range(q) if s != w[j]]


def oracle_minimum(kind, n, q, pinned=None):
    """Minimum |t0| by ILP: binary x0_v, x1_v with equal neighbourhood sums, each at most 1.

    Word 0 is pinned into t0 (translation); for the perfect kind its unique
    partner in t1 is pinned at (0, ..., 0, 1) (the stabilizer of 0).
    ``pinned``, two collections of words, pins those into t0 and t1 instead.
    Returns the optimum and the optimal pair of word sets, or None when no
    bitrade holds the pinned words.
    """
    words = list(itertools.product(range(q), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    size = len(words)
    rows, cols = [], []
    for w in words:
        near = _neighbourhood(w, q, kind == PERFECT)
        rows += [index[w]] * len(near)
        cols += [index[x] for x in near]
    hood = sparse.csr_array((numpy.ones(len(rows)), (rows, cols)), shape=(size, size))
    eye = sparse.eye_array(size, format="csr")
    zero = sparse.csr_array((size, size))
    constraints = [
        LinearConstraint(sparse.hstack([hood, -hood]), 0, 0),
        LinearConstraint(sparse.hstack([hood, zero]), 0, 1),
        LinearConstraint(sparse.hstack([zero, hood]), 0, 1),
        LinearConstraint(sparse.hstack([eye, eye]), 0, 1),
    ]
    if pinned is None:
        pinned = ([(0,) * n], [(0,) * (n - 1) + (1,)] if kind == PERFECT else [])
    lower = numpy.zeros(2 * size)
    for side, words in enumerate(pinned):
        for w in words:
            lower[side * size + index[w]] = 1
    result = milp(
        numpy.concatenate([numpy.ones(size), numpy.zeros(size)]),
        constraints=constraints,
        integrality=numpy.ones(2 * size),
        bounds=Bounds(lower, 1),
    )
    if result.status == 2:  # infeasible
        return None
    assert result.success, result.message
    x = numpy.rint(result.x).astype(int)
    parts = tuple(
        frozenset(w for w, i in index.items() if x[side * size + i]) for side in (0, 1)
    )
    return round(result.fun), parts


# (kind, n, q, minimum, affordable without symmetry breaking)
MINIMA = [
    (SPHERICAL, 2, 2, 1, True),
    (PERFECT, 3, 2, 2, True),
    (SPHERICAL, 4, 2, 2, True),
    (PERFECT, 5, 2, 4, True),
    (SPHERICAL, 6, 2, 4, True),
    (PERFECT, 7, 2, 8, False),
    (SPHERICAL, 3, 3, 3, True),
    (PERFECT, 4, 3, 6, True),
    (SPHERICAL, 6, 3, 18, False),
    (SPHERICAL, 4, 4, 12, False),
]


@pytest.mark.parametrize("kind,n,q,minimum,unseeded", MINIMA)
def test_exhaustive_minimum_equals_the_oracle(kind, n, q, minimum, unseeded):
    search = find_spherical if kind == SPHERICAL else min_perfect_volume
    params = HammingParams(n, q)
    optimum, (t0, t1) = oracle_minimum(kind, n, q)
    # the oracle's witness is a bitrade of the volume it claims
    witness = Bitrade(params, kind, t0, t1)
    assert check_bitrade(witness, ["definition"])["definition"].passed
    assert witness.volume == optimum == minimum
    result = search(SearchConfig(params))
    assert result.proven_minimum
    assert result.volume == optimum, "exhaustive minimum differs from the ILP oracle"
    if unseeded:
        plain = search(SearchConfig(params, symmetry_breaking=False))
        assert plain.proven_minimum
        assert plain.volume == optimum, "unseeded minimum differs from the ILP oracle"


def _relabel(rng, n, q):
    """A random automorphism of H(n, q): permute the coordinates, then each one's symbols."""
    order = rng.sample(range(n), n)
    symbols = [rng.sample(range(q), q) for _ in range(n)]
    return lambda w: tuple(symbols[j][w[order[j]]] for j in range(n))


# (kind, n, q, a known bitrade to draw partial states from)
SOUNDNESS = [
    (SPHERICAL, 3, 3, alt_bitrade(3)),
    (PERFECT, 4, 3, lift_to_perfect(alt_bitrade(3))),
    (SPHERICAL, 4, 4, alt_bitrade(4)),
]


@pytest.mark.parametrize("kind,n,q,known", SOUNDNESS, ids=[f"H{n}_{q}" for _, n, q, _ in SOUNDNESS])
def test_covering_bound_never_exceeds_the_fewest_words_a_completion_adds(kind, n, q, known):
    # Partial states: part of a relabelled known bitrade, so some completion
    # exists, and in half of them one more word the part may take, so some
    # have none.  The bound's words for a side never exceed the fewest that
    # side adds in a completion, found by the ILP with the placed words
    # pinned, and it reports no completion only when there is none.
    ball = kind == PERFECT
    params = HammingParams(n, q)
    engine = search_module._RepairSearch(params, kind, params.vertex_count, None)
    encode = engine.params.encode
    words = list(itertools.product(range(q), repeat=n))
    rng = random.Random(10 * n + q)
    beats_packing = tight = ended = 0
    for _ in range(24):
        relabel = _relabel(rng, n, q)
        t0 = sorted(map(relabel, known.t0))
        t1 = sorted(map(relabel, known.t1))
        parts = [rng.sample(t0, rng.randrange(1, len(t0))), rng.sample(t1, rng.randrange(len(t1)))]
        hit = [{y for w in part for y in _neighbourhood(w, q, ball)} for part in parts]
        if rng.random() < 0.5:
            side = rng.randrange(2)
            placed = set(parts[0]) | set(parts[1])
            fits = [w for w in words if w not in placed and hit[side].isdisjoint(_neighbourhood(w, q, ball))]
            extra = rng.choice(fits)
            parts[side].append(extra)
            hit[side].update(_neighbourhood(extra, q, ball))
        found = oracle_minimum(kind, n, q, pinned=parts)
        for side in (0, 1):
            lack = sum(1 << encode(y) for y in hit[1 - side] - hit[side])
            # the words the part may take: in neither part, no neighbour shared with it
            free = sum(
                1 << encode(w) for w in words
                if w not in parts[0] and w not in parts[1]
                and hit[side].isdisjoint(_neighbourhood(w, q, ball))
            )
            need = engine.need(lack, free)
            if need is None:
                assert found is None, "the bound ended a state that has a completion"
                ended += 1
                continue
            if found is not None:
                fewest = found[0] - len(parts[side])
                assert need <= fewest, "the bound exceeds the words a completion adds"
                tight += need == fewest
            beats_packing += need > -(-lack.bit_count() // engine.size)
    assert beats_packing and tight and ended
