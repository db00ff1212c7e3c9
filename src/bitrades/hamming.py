"""Metric primitives for Hamming graphs H(n, q).

The vertices of H(n, q) are the length-n words over {0, ..., q-1}; two
words are adjacent when they differ in exactly one coordinate.  Words are
plain tuples of ints.  ``HammingParams`` numbers the vertices, and a
checked word set (``CheckedWords``) holds the sorted ids of its words,
decoding words only when they are read; everything in this module is
immutable and safe to share.  ``projections`` walks the position sets D of one size,
answering on ids "do these words agree off D?" for every distance, face sum
and distance-profile count.  Counting, over each D of size 1 (of size 2),
the words of a set that agree with w off D sums to n*a0 + a1 (to
C(n, 2)*a0 + (n-1)*a1 + a2), where a_j counts those at distance j from w.
Distances are exact at every size.

The neighbourhood kernel works on vertex bitmasks, one int per vertex set:
``moves`` shifts a whole set by each of the n(q-1) digit steps
(``HammingParams.step_masks``), and ``bit_planes`` counts, bit-sliced, how
many of the moved sets hold each vertex.  The exhaustive search builds its
neighbourhoods and covering degrees with it, and the definition and eigen
checks their counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence, Set
from dataclasses import dataclass
from operator import add, floordiv, getitem, is_, itemgetter, lt, mod, mul, ne, sub

Word = tuple[int, ...]

# Ids are held as signed 64-bit ints, so word sets are refused in graphs with more vertices.
ID_CEILING = 2**63

# Words are decoded from tables of at most this many words, one per block of positions.
_DECODE_TABLE = 2**12

# Two checked sets are tested for a shared word this many ids at a time.
_DISJOINT_BLOCK = 2**14


def is_int(value: object) -> bool:
    """Whether value is an int other than a bool (bool subclasses int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def power_text(value: int) -> str:
    """A ceiling for a refusal message: "3**10" for 59049, plain digits if not a prime power."""
    base = next((b for b in range(2, math.isqrt(value) + 1) if value % b == 0), value)
    exponent = round(math.log(value, base))
    return f"{base}**{exponent}" if exponent > 1 and base**exponent == value else str(value)


def check_ceiling(size: int, ceiling: int, what: str) -> None:
    """Refuse ``what`` when size passes ceiling: every size refusal raises this ValueError."""
    if size > ceiling:
        raise ValueError(f"refusing {what}; the ceiling is {power_text(ceiling)}")


@dataclass(frozen=True)
class HammingParams:
    """The Hamming graph H(n, q), with integer ids for its vertices.

    A word's id is its value in base q with the first coordinate most
    significant, so ids sort like words.  Changing coordinate i from a to
    s adds (s - a) * q^(n-1-i) to the id; neighbourhoods read those
    offsets from tables, built once per graph on first use, and list ids
    by changed position, then symbol.
    """

    n: int
    q: int

    def __post_init__(self) -> None:
        if not is_int(self.n) or self.n < 1:
            raise ValueError(f"word length must be an integer >= 1, got n={self.n!r}")
        if not is_int(self.q) or self.q < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got q={self.q!r}")

    @property
    def vertex_count(self) -> int:
        return self.q**self.n

    @property
    def degree(self) -> int:
        return self.n * (self.q - 1)

    def eigenvalues(self) -> list[int]:
        """Adjacency eigenvalues n(q-1) - q*i for i = 0..n, in descending order."""
        return [self.degree - self.q * i for i in range(self.n + 1)]

    def contains(self, word: Word) -> bool:
        """Whether word has n symbols in range(q), each exactly an int: a bool would not read back."""
        return (
            len(word) == self.n
            and all(map(is_, map(type, word), itertools.repeat(int)))
            and 0 <= min(word)
            and max(word) < self.q
        )

    def check_words(self, words: Iterable[Word]) -> CheckedWords:
        """The words as a ``CheckedWords``, each checked by ``contains`` before encoding could
        merge a bool word into its int twin; ValueError names the first bad word.  A set
        already checked for this graph is returned as it is.  Any other input, a set checked
        for another graph included, is read once, and valid words cost two passes over their
        symbols and one encoding by whole columns (``encode_all``); above ID_CEILING vertices
        they are refused (``id_array``)."""
        if isinstance(words, CheckedWords) and words.params == self:
            return words
        symbols = itertools.chain.from_iterable
        if not isinstance(words, Collection):
            words = list(words)  # the passes below would each consume an iterator
        if set(map(len, words)) <= {self.n} and set(map(type, symbols(words))) <= {int}:
            values = set(symbols(words))  # only ints, so one per distinct symbol
            if not values or (min(values) >= 0 and max(values) < self.q):
                ids = self.encode_all(words)
                # the words of a set or of a dict's keys are distinct, and so are their ids
                distinct = ids if isinstance(words, (Set, Mapping)) else set(ids)
                return trust_ids(self, sorted(distinct))
        bad = next(w for w in words if not self.contains(w))
        raise ValueError(f"{bad!r} is not a word of H({self.n}, {self.q})")

    @functools.cached_property
    def weights(self) -> tuple[int, ...]:
        """The place values q^(n-1-i) of the positions i."""
        n, q = self.n, self.q
        return tuple(q ** (n - 1 - i) for i in range(n))

    @functools.cached_property
    def _steps(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """_steps[i][a]: the id offsets (s - a) * w of the q-1 other symbols s at position i."""
        q = self.q
        return tuple(
            tuple(tuple(range(-a * w, 0, w)) + tuple(range(w, (q - a) * w, w)) for a in range(q))
            for w in self.weights
        )

    def step_masks(self) -> list[tuple[int, int, int, int]]:
        """The digit steps on vertex bitmasks: (low, up, high, down) per position and d = q-1..1.

        Adding d (mod q) to the digit at one position moves the ids in low,
        whose digit there stays below q, up by d of that position's place
        value, and those in high down by q - d of it (``moves``).  Every
        mask is rebuilt on each call: together they take 2 n(q-1) q^n bits.
        """
        q, total = self.q, self.vertex_count
        full = (1 << total) - 1
        steps = []
        for w in self.weights:
            # the ids whose digit here is 0: a run of w ones every q * w bits, doubled up
            zero, period = (1 << w) - 1, q * w
            while period < total:
                zero |= zero << period
                period *= 2
            zero &= full
            low = zero
            for d in range(q - 1, 0, -1):  # low: the ids whose digit here is below q - d
                steps.append((low, d * w, full ^ low, (q - d) * w))
                low = zero | low << w
        return steps

    def id_array(self, ids: Iterable[int]) -> array:
        """The ids as an ``array('q')``, kept if already one.  Graphs above ID_CEILING
        vertices are refused: their ids need more than 63 bits."""
        check_ceiling(self.vertex_count, ID_CEILING, f"word sets of H({self.n}, {self.q})")
        return ids if isinstance(ids, array) else array("q", ids)

    def bitmask(self, ids: Iterable[int]) -> int:
        """The ids as one int, bit x set for id x."""
        bits = bytearray(-(-self.vertex_count // 8))
        for x in ids:
            bits[x >> 3] |= 1 << (x & 7)
        return int.from_bytes(bits, "little")

    def encode(self, word: Word) -> int:
        return sum(map(mul, word, self.weights))

    def encode_all(self, words: Collection[Word]) -> Iterator[int]:
        """The words' ids in their order, by Horner's rule over whole columns, so no
        per-word sum is made."""
        ids = map(itemgetter(0), words)
        for i in range(1, self.n):
            ids = map(add, map(mul, ids, itertools.repeat(self.q)), map(itemgetter(i), words))
        return ids

    def decode(self, v: int) -> Word:
        return tuple(v // w % self.q for w in self.weights)

    @functools.cached_property
    def _decoder(self) -> tuple[tuple[int, int, tuple[Word, ...]], ...]:
        """Per block of consecutive positions, first to last: its place value, its count
        q^c of symbol strings, and those strings in id order, so string j is the j-th.
        There are as few blocks as tables of at most _DECODE_TABLE strings allow, but two at
        least, and their sizes differ by one at most, so each table is as small as it can be."""
        n, q = self.n, self.q
        width = 1  # the most positions one table can take
        while width < n and q ** (width + 1) <= _DECODE_TABLE:
            width += 1
        count = max(min(2, n), -(-n // width))
        sizes = [n // count + (i < n % count) for i in range(count)]
        tables = {c: tuple(itertools.product(range(q), repeat=c)) for c in set(sizes)}
        place = self.vertex_count
        blocks = []
        for c in sizes:
            place //= q**c
            blocks.append((place, q**c, tables[c]))
        return tuple(blocks)

    def decode_all(self, ids: Iterable[int]) -> Iterator[Word]:
        """The words of ids, in their order: each id is cut into blocks of positions
        (``_decoder``) whose symbols are read from tables.  Ids are read a batch at a time,
        so an iterator streams."""
        total = self.vertex_count

        def words(batch: list[int]) -> Iterator[Word]:
            joined = None
            for place, count, table in self._decoder:
                digits = map(floordiv, batch, itertools.repeat(place)) if place > 1 else batch
                if place * count < total:
                    digits = map(mod, digits, itertools.repeat(count))
                piece = map(table.__getitem__, digits)
                joined = piece if joined is None else map(add, joined, piece)
            return joined

        stream = iter(ids)
        batches = iter(lambda: list(itertools.islice(stream, 4096)), [])
        return itertools.chain.from_iterable(map(words, batches))

    def sphere(self, v: int) -> Iterator[int]:
        """The ids at distance 1 from id v, by increasing changed position, then symbol.
        v's digits are read off v, so no word is decoded."""
        digits = map(mod, map(floordiv, itertools.repeat(v), self.weights), itertools.repeat(self.q))
        return map(v.__add__, itertools.chain.from_iterable(map(getitem, self._steps, digits)))

    def blocks(self, part: CheckedWords) -> Iterator[tuple[Sequence[int], Iterator[int]]]:
        """Per first symbol v, the ids of the part's words starting with v and their sphere
        hits there.

        Block v's hits are the ids y with y[0] = v.  A word with first
        symbol a puts its changes at positions 1..n-1 in block a, and one
        id in each other block v: its own plus (v - a) * q^(n-1).  So every
        hit is listed once, in its own block, and the blocks together list
        what ``sphere`` lists word by word.  A ball is the word plus its
        sphere: a block's own ids and its hits.  The ids are sorted, so a
        block is one slice of them.
        """
        q, lead = self.q, self.weights[0]
        # position 0 moves a word to another block, so it adds nothing here
        inner = (((),) * q,) + self._steps[1:]
        cuts = [bisect_left(part.ids, v * lead) for v in range(q + 1)]
        ids = [part.ids[cuts[v] : cuts[v + 1]] for v in range(q)]
        for v in range(q):
            near = (
                map(x.__add__, itertools.chain.from_iterable(map(getitem, inner, w)))
                for x, w in zip(ids[v], self.decode_all(ids[v]))
            )
            far = (map(((v - a) * lead).__add__, ids[a]) for a in range(q) if a != v)
            yield ids[v], itertools.chain.from_iterable(itertools.chain(near, far))

    def digits(self, ids: Sequence[int]) -> tuple[Sequence[int], list[list[int]]]:
        """The ids, and per position i the column of their digits s * q^(n-1-i).

        Column entries refer into one table per position, so no per-id ints are kept.
        """
        columns = []
        rest = ids  # the ids less the digits of the positions done
        for w in self.weights:
            table = tuple(range(0, self.q * w, w))
            columns.append(list(map(table.__getitem__, map(floordiv, rest, itertools.repeat(w)))))
            rest = list(map(mod, rest, itertools.repeat(w))) if w > 1 else rest
        return ids, columns


class CheckedWords(Set):
    """An immutable set of words of the graph ``params``, held as the sorted array of their
    ids and nothing else: checked by ``check_words``, or made by ``trust_ids`` from ids
    derived from checked sets.

    ``len`` reads the array, ``in`` encodes the word and bisects, and iteration decodes in
    id order, which is word order.  Equality and hashing agree with the frozenset of the
    same words, and ``|``, ``&`` and ``-`` return plain frozensets.
    """

    __slots__ = ("params", "ids")

    def __init__(self, params: HammingParams, ids: array) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "ids", ids)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Word]:
        return self.params.decode_all(self.ids)

    def __contains__(self, word: object) -> bool:
        n, q = self.params.n, self.params.q
        try:
            if not isinstance(word, tuple) or len(word) != n or not all(0 <= s < q for s in word):
                return False
        except TypeError:  # a symbol that does not compare with ints
            return False
        x = self.params.encode(word)
        i = bisect_left(self.ids, x)
        return i < len(self.ids) and self.ids[i] == x

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CheckedWords) and other.params == self.params:
            return self.ids == other.ids
        return super().__eq__(other)

    def __hash__(self) -> int:
        return self._hash()

    def isdisjoint(self, other: Iterable[Word]) -> bool:
        if not (isinstance(other, CheckedWords) and other.params == self.params):
            return super().isdisjoint(other)
        # both id arrays are sorted, so each block of ours meets one slice of theirs; a set of
        # one block, not of all ids, keeps the peak memory of a large build down
        ids, theirs = self.ids, other.ids
        for start in range(0, len(ids), _DISJOINT_BLOCK):
            block = ids[start : start + _DISJOINT_BLOCK]
            near = theirs[bisect_left(theirs, block[0]) : bisect_right(theirs, block[-1])]
            if not set(block).isdisjoint(near):
                return False
        return True

    @classmethod
    def _from_iterable(cls, words: Iterable[Word]) -> frozenset[Word]:
        return frozenset(words)

    def __repr__(self) -> str:
        words = ", ".join(map(repr, self))
        return f"{type(self).__name__}({{{words}}})" if words else f"{type(self).__name__}()"

    def __reduce__(self):
        # a pickle holds the ids, and loading it checks them again
        return _checked_ids, (self.params, self.ids)


def trust_ids(params: HammingParams, ids: Iterable[int]) -> CheckedWords:
    """Sorted distinct ids frozen as a checked set of params, without a pass (``id_array``).
    Only for ids derived from checked sets by a map that sends words of H(n, q) to words
    of H(n, q)."""
    return CheckedWords(params, params.id_array(ids))


def _checked_ids(params: HammingParams, ids: Iterable[int]) -> CheckedWords:
    """A pickled ``CheckedWords``: its ids must be increasing vertex ids of params."""
    ids = params.id_array(ids)
    if ids and not (
        0 <= ids[0] and ids[-1] < params.vertex_count and all(map(lt, ids, ids[1:]))
    ):
        raise ValueError(
            f"pickled ids must be increasing vertex ids of H({params.n}, {params.q})"
        )
    return CheckedWords(params, ids)


@dataclass(frozen=True)
class Code:
    """A set of words in a common Hamming graph."""

    params: HammingParams
    words: CheckedWords

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", self.params.check_words(self.words))

    def __len__(self) -> int:
        return len(self.words)


# ---------------------------------------------------------------------------
# vertex bitmasks


def moves(xs: int, steps: list[tuple[int, int, int, int]]) -> Iterator[int]:
    """The vertex set xs moved by each step of ``HammingParams.step_masks``.

    A vertex y lies in as many of them as its sphere holds vertices of xs,
    since the steps are closed under inverses.
    """
    for low, up, high, down in steps:
        yield (xs & low) << up | (xs & high) >> down


def bit_planes(sets: Iterable[int], width: int) -> list[int]:
    """How many of the vertex sets hold each vertex, bit-sliced: planes[j] holds bit j of
    every vertex's count.  Counts must stay below 2**width."""
    planes = [0] * width
    for carry in sets:
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
    return planes


# ---------------------------------------------------------------------------
# distances


def hamming_distance(x: Word, y: Word) -> int:
    """Number of coordinates where the two words differ."""
    if len(x) != len(y):
        raise ValueError(f"cannot compare words of lengths {len(x)} and {len(y)}")
    return sum(a != b for a, b in zip(x, y))


def _pairwise(pairs: Iterable[tuple[Word, Word]], floor: int) -> int | float:
    """Smallest distance over the word pairs; stops as soon as it reaches floor."""
    best: int | float = math.inf
    for x, y in pairs:
        d = sum(map(ne, x, y))
        if d < best:
            best = d
            if d <= floor:
                break
    return best


def min_distance(code: Code) -> int | float:
    """Minimum distance between distinct codewords; +inf below two words.

    Exact at every size.  The distance is at most k exactly when dropping
    some k coordinates (``projections``) merges two codewords; for q^(n-k) <
    |C| one must (pigeonhole).  Level top, the last k before that, is
    tried first: injective there proves top + 1, as for MDS codes and
    bitrade parts.  Otherwise k rises from 1 to the first merging level,
    or to the exact pairwise scan when that is cheaper.
    """
    size = len(code.words)
    if size <= 1:
        return math.inf
    n, q = code.params.n, code.params.q
    top = max(k for k in range(n) if q ** (n - k) >= size)
    parts = [code.params.digits(code.words.ids)]

    def merges(k: int) -> bool:
        return any(len(set(keys)) < size for _, (keys,) in projections(parts, k))

    if top and math.comb(n, top) <= size and not merges(top):
        return top + 1
    for k in range(1, top + 1):
        if math.comb(n, k) > size:
            return _pairwise(itertools.combinations(code.words, 2), k)
        if merges(k):
            return k
    return top + 1


def code_distance(c: Code, d: Code) -> int | float:
    """Minimum distance between a word of c and a word of d; +inf if either is empty.

    Exact: within distance k exactly when dropping some k coordinates makes them meet.
    """
    if c.params != d.params:
        raise ValueError(f"codes live in different graphs: {c.params} vs {d.params}")
    if not c.words or not d.words:
        return math.inf
    n = c.params.n
    parts = [c.params.digits(c.words.ids), d.params.digits(d.words.ids)]
    for k in range(n):
        if math.comb(n, k) * (len(c) + len(d)) > len(c) * len(d):
            return _pairwise(itertools.product(c.words, d.words), k)
        if any(not set(keys_c).isdisjoint(keys_d) for _, (keys_c, keys_d) in projections(parts, k)):
            return k
    return n


def projections(
    parts: list[tuple[Sequence[int], list[list[int]]]], k: int
) -> Iterator[tuple[tuple[int, ...], list[Iterator[int]]]]:
    """Per set drop of k positions, in lexicographic order, each part's ids less its digits
    at drop, lazily; a part is the ids and columns of ``HammingParams.digits``.

    Two words' keys are equal exactly when the words agree off drop.  The
    keys less each prefix of drop are listed once and kept while the walk
    extends that prefix, so at most k - 1 lists per part are held.
    """
    keys = [ids for ids, _ in parts]
    return _extend(parts, k, (), keys) if k else iter([((), list(map(iter, keys)))])


def _extend(parts, k: int, drop: tuple[int, ...], keys: list[list[int]]):
    """The drops of ``projections`` that extend drop, given its keys, the ids less its digits.

    Module-level: a nested function calling itself would be a reference cycle, keeping the
    parts' lists alive after the walk until the cycle collector ran.
    """
    n, left = len(parts[0][1]), k - len(drop)
    for i in range(drop[-1] + 1 if drop else 0, n - left + 1):
        moved = [map(sub, ks, columns[i]) for ks, (_, columns) in zip(keys, parts)]
        if left == 1:
            yield drop + (i,), moved
        else:
            yield from _extend(parts, k, drop + (i,), list(map(list, moved)))
