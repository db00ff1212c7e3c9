"""Linear codes presented by explicit parity checks over GF(q)."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import chain, combinations, islice
from operator import getitem, lt

from .fields import FieldTable
from .hamming import Code, HammingParams, Word, check_ceiling, trust_ids

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
    plus a solved suffix, and the ids come out in order.  Entries are
    validated once, here: each row is a word of H(n, q), tested by ``contains``, since a
    code of a graph too large for ids (``hamming.ID_CEILING``) is still read.  The row
    reduction uses the field's operations and the enumeration reads its
    tables directly, so every id it makes is a word's: ``to_code`` and
    ``coset`` freeze theirs with ``hamming.trust_ids``, without a check.
    """

    __slots__ = ("field", "n", "params", "checks", "_pivots", "_reduced")

    def __init__(self, field: FieldTable, n: int, checks):
        self.field = field
        self.n = n
        self.params = HammingParams(n, field.q)
        self.checks = tuple(map(tuple, checks))
        for row in self.checks:
            if not self.params.contains(row):
                self.params.check_words((row,))  # refuses the row, naming it
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

    def ids(self) -> Iterator[int]:
        """Iterate over the codewords' ids, sweeping free coordinates lexicographically.

        A free prefix's id sums its symbols' place values, and a pivot is minus its row's
        sum over the free coordinates, kept per free prefix.  The ids of the q tails a
        prefix's row sums solve (the last free value, then the pivots) are cached for up to
        _TAILS_CACHE_LIMIT sum tuples, since prefixes share sums.
        """
        check_ceiling(self.size(), ENUMERATION_CEILING, f"to enumerate {self.size()} codewords")
        f, rows, weights = self.field, self._reduced, self.params.weights
        free = [i for i in range(self.n) if i not in self._pivots]
        if not free:
            return iter([0])

        def places(pos: int) -> tuple[int, ...]:
            # places(pos)[v]: the place value of symbol v at pos
            return tuple(range(0, f.q * weights[pos], weights[pos]))

        def extend(level: Iterable[tuple], pos: int) -> Iterator[tuple]:
            # each prefix followed by each value v at pos, the row sums plus v's terms
            terms = [tuple(f.mul_table[row[pos]][v] for row in rows) for v in f.elements]
            steps = list(zip(places(pos), terms))
            for prefix, sums in level:
                adders = list(map(f.add_table.__getitem__, sums))
                for place, term in steps:
                    yield prefix + place, tuple(map(getitem, adders, term))

        # every free prefix but the last coordinate, with each row's sum over
        # it, streamed: one prefix per level is held at a time
        level: Iterable[tuple] = [(0, (0,) * len(rows))]
        for pos in free[:-1]:
            level = extend(level, pos)
        # minus_sum[s][x] = -(s + x): one row of it solves a pivot for every last value
        minus_sum = [tuple(map(f.neg_table.__getitem__, row)) for row in f.add_table]
        last = [f.mul_table[row[free[-1]]] for row in rows]
        last_places, pivot_places = places(free[-1]), list(map(places, self._pivots))

        solved: dict[tuple[int, ...], tuple[int, ...]] = {}

        def tails(sums: tuple[int, ...]) -> tuple[int, ...]:
            found = solved.get(sums)
            if found is None:
                columns = (
                    map(place.__getitem__, map(minus_sum[s].__getitem__, c))
                    for s, c, place in zip(sums, last, pivot_places)
                )
                found = tuple(map(sum, zip(last_places, *columns)))
                if len(solved) < _TAILS_CACHE_LIMIT:
                    solved[sums] = found
            return found

        return chain.from_iterable(map(prefix.__add__, tails(sums)) for prefix, sums in level)

    def words(self) -> Iterator[Word]:
        """Iterate over all codewords in the order of ``ids``, decoding their ids."""
        return self.params.decode_all(self.ids())

    def to_code(self) -> Code:
        ids = self.params.id_array(self.ids())
        if not all(map(lt, ids, islice(ids, 1, None))):  # pivots left of a free coordinate
            ids = sorted(ids)
        return Code(self.params, trust_ids(self.params, ids))


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
    params = code.params
    _, columns = params.digits(code.words.ids)
    # adding s at a position of place value w sends the digit a * w to (a + s) * w
    moved = (
        map({a * w: field.add_table[s][a] * w for a in field.elements}.__getitem__, column)
        for column, s, w in zip(columns, shift, params.weights)
    )
    return Code(params, trust_ids(params, sorted(map(sum, zip(*moved)))))


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
