"""Exhaustive minima against an independent ILP oracle (scipy's HiGHS).

The oracle shares no code with the package: it builds neighbourhoods from
words itself.  Its optimum is a floating-point solver's claim, not a
certificate, so it is called an oracle; the branch and bound is what
proves a minimum.
"""

import itertools

import numpy
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from bitrades import (
    PERFECT,
    SPHERICAL,
    Bitrade,
    HammingParams,
    SearchConfig,
    check_bitrade,
    find_spherical,
    min_perfect_volume,
)


def oracle_minimum(kind, n, q):
    """Minimum |t0| by ILP: binary x0_v, x1_v with equal neighbourhood sums, each at most 1.

    Word 0 is pinned into t0 (translation); for the perfect kind its unique
    partner in t1 is pinned at (0, ..., 0, 1) (the stabilizer of 0).
    Returns the optimum and the optimal pair of word sets.
    """
    words = list(itertools.product(range(q), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    size = len(words)
    rows, cols = [], []
    for w in words:
        near = [w] if kind == PERFECT else []
        near += [w[:j] + (s,) + w[j + 1:] for j in range(n) for s in range(q) if s != w[j]]
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
    lower = numpy.zeros(2 * size)
    lower[index[(0,) * n]] = 1
    if kind == PERFECT:
        lower[size + index[(0,) * (n - 1) + (1,)]] = 1
    result = milp(
        numpy.concatenate([numpy.ones(size), numpy.zeros(size)]),
        constraints=constraints,
        integrality=numpy.ones(2 * size),
        bounds=Bounds(lower, 1),
    )
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
