"""Linear codes presented by explicit parity checks over GF(q)."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import chain, combinations
from operator import getitem, itemgetter

from .fields import FieldTable
from .hamming import Code, HammingParams, Word, check_ceiling, trust_words

# Whole-code enumerations and MDS column-set tests are refused above this many.
ENUMERATION_CEILING = 2**48

# An enumeration keeps the solved tails of at most this many row-sum tuples.
_TAILS_CACHE_LIMIT = 2**10


class ParityCheckCode:
    """The kernel of a small stack of parity-check rows.

    A word w belongs to the code exactly when sum_i row[i] * w[i] = 0 for
    every row.  Enumeration sweeps the free coordinates in lexicographic
    order and solves for the pivot coordinates; pivots are chosen as far to
    the right as possible, so each emitted word is usually a free prefix
    plus a solved suffix.  Entries are validated once, here: each row is
    a word of H(n, q).  The row reduction uses the field's operations and
    the enumeration reads its tables directly, so every word it makes is
    one too: ``to_code`` and ``coset`` freeze theirs with
    ``hamming.trust_words``, without a second check.
    """

    __slots__ = ("field", "n", "params", "checks", "_pivots", "_reduced")

    def __init__(self, field: FieldTable, n: int, checks):
        self.field = field
        self.n = n
        self.params = HammingParams(n, field.q)
        self.checks = tuple(map(tuple, checks))
        self.params.check_words(self.checks)
        self._reduce()

    def _reduce(self) -> None:
        """Row-reduce the checks, picking the rightmost usable pivot per row."""
        f = self.field
        pivots: list[int] = []
        reduced: list[list[int]] = []

        def eliminate(row: list[int], c: int, by: list[int]) -> None:
            # row -= c * by
            for i, x in enumerate(by):
                row[i] = f.sub(row[i], f.mul(c, x))

        for row in map(list, self.checks):
            for done, col in zip(reduced, pivots):
                if row[col]:
                    eliminate(row, row[col], done)
            pivot = next((col for col in range(self.n - 1, -1, -1) if row[col]), None)
            if pivot is None:
                continue  # dependent row
            row = [f.mul(f.inv(row[pivot]), x) for x in row]
            for done in reduced:
                if done[pivot]:
                    eliminate(done, done[pivot], row)
            reduced.append(row)
            pivots.append(pivot)
        order = sorted(range(len(pivots)), key=lambda i: pivots[i])
        self._pivots = tuple(pivots[i] for i in order)
        self._reduced = tuple(tuple(reduced[i]) for i in order)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def size(self) -> int:
        return self.field.q ** (self.n - self.rank)

    def __contains__(self, word: Word) -> bool:
        return self.params.contains(word) and all(
            self.field.dot(row, word) == 0 for row in self.checks
        )

    def words(self) -> Iterator[Word]:
        """Iterate over all codewords, sweeping free coordinates lexicographically.

        A pivot is minus its row's sum over the free coordinates, kept per free prefix.
        The q tails a prefix's row sums solve (the last free value, then the pivots) are
        cached for up to _TAILS_CACHE_LIMIT sum tuples, since prefixes share sums.
        """
        check_ceiling(self.size(), ENUMERATION_CEILING, f"to enumerate {self.size()} codewords")
        f, rows = self.field, self._reduced
        free = [i for i in range(self.n) if i not in self._pivots]
        if not free:
            return iter([(0,) * self.n])

        def extend(level: Iterable[tuple], terms: list[tuple[int, ...]]) -> Iterator[tuple]:
            # each prefix followed by each value v, the row sums plus v's terms
            for prefix, sums in level:
                adders = list(map(f.add_table.__getitem__, sums))
                for v, term in enumerate(terms):
                    yield prefix + (v,), tuple(map(getitem, adders, term))

        # every free prefix but the last coordinate, with each row's sum over
        # it, streamed: one prefix per level is held at a time
        level: Iterable[tuple] = [((), (0,) * len(rows))]
        for pos in free[:-1]:
            terms = [tuple(f.mul_table[row[pos]][v] for row in rows) for v in f.elements]
            level = extend(level, terms)
        # minus_sum[s][x] = -(s + x): one row of it solves a pivot for every last value
        minus_sum = [tuple(map(f.neg_table.__getitem__, row)) for row in f.add_table]
        last = [f.mul_table[row[free[-1]]] for row in rows]

        solved: dict[tuple[int, ...], tuple[Word, ...]] = {}

        def tails(sums: tuple[int, ...]) -> tuple[Word, ...]:
            found = solved.get(sums)
            if found is None:
                columns = (map(minus_sum[s].__getitem__, c) for s, c in zip(sums, last))
                found = tuple(zip(f.elements, *columns))
                if len(solved) < _TAILS_CACHE_LIMIT:
                    solved[sums] = found
            return found

        words = chain.from_iterable(map(prefix.__add__, tails(sums)) for prefix, sums in level)
        # words come out as free values then pivot values; put them in place
        layout = free + list(self._pivots)
        if layout == sorted(layout):
            return words
        return map(itemgetter(*map(layout.index, range(self.n))), words)

    def to_code(self) -> Code:
        return Code(self.params, trust_words(self.params, self.words()))


# ---------------------------------------------------------------------------
# constructors


def sum_zero_code(field: FieldTable, n: int) -> ParityCheckCode:
    """All words whose coordinates sum to zero: one all-ones check, q^(n-1) words."""
    return ParityCheckCode(field, n, [(1,) * n])


def rs_mds_code(field: FieldTable, n: int | None = None) -> ParityCheckCode:
    """Sum-zero words that also satisfy one check with pairwise distinct weights.

    Any two columns of the resulting check pair (1, w_i), (1, w_j) are
    independent, so the minimum distance is 3 and the code meets the
    Singleton bound: q^(n-2) words.  By default n = q; the weights are the
    first n field elements in enumeration order.
    """
    n = field.q if n is None else n
    if not 3 <= n <= field.q:
        raise ValueError(
            f"need 3 <= n <= q for a distance-3 weighted check, got n={n}, q={field.q}"
        )
    return ParityCheckCode(field, n, [(1,) * n, tuple(range(n))])


def coset(field: FieldTable, code: Code, shift: Word) -> Code:
    """Translate every codeword by shift (coordinatewise field addition)."""
    code.params.check_words((shift,))
    if code.params.q != field.q:
        raise ValueError(f"code over GF({code.params.q}) but field is GF({field.q})")
    # adding s maps a to row s of the addition table
    rows = [field.add_table[s] for s in shift]
    words = (tuple(map(getitem, rows, w)) for w in code.words)
    return Code(code.params, trust_words(code.params, words))


def verify_mds(code: ParityCheckCode) -> bool:
    """Whether the code meets the Singleton bound |C| = q^(n-d+1), read off its checks.

    A linear code's minimum distance is the least number of linearly
    dependent columns of its check matrix, and a code of rank r has
    q^(n-r) words.  So it is MDS (distance r + 1) exactly when every r
    columns of the reduced checks are independent, i.e. have rank r.
    Codes with at most one word are MDS by convention, and the rule
    agrees.  More than ENUMERATION_CEILING column sets are refused with
    ValueError.
    """
    n, r = code.n, code.rank
    check_ceiling(math.comb(n, r), ENUMERATION_CEILING, f"to test C({n}, {r}) column sets")
    return r == 0 or all(
        ParityCheckCode(code.field, r, [[row[i] for i in chosen] for row in code._reduced]).rank == r
        for chosen in combinations(range(n), r)
    )
