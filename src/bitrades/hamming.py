"""Metric primitives for Hamming graphs H(n, q).

The vertices of H(n, q) are the length-n words over {0, ..., q-1}; two
words are adjacent when they differ in exactly one coordinate.  Words are
plain tuples of ints and codes are immutable sets of words, so everything
in this module is pure and safe to share.  ``HammingParams`` numbers the
vertices, and ``projections`` walks the position sets D of one size,
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
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from operator import getitem, is_, itemgetter, mul, ne, sub

Word = tuple[int, ...]


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
        """The words as a ``CheckedWords``, each checked by ``contains`` before freezing could
        merge a bool word into its int twin; ValueError names the first bad word.  A set
        already checked for this graph is returned as it is.  Any other input, a set checked
        for another graph included, is read once, and valid words cost two passes over their
        symbols."""
        if isinstance(words, CheckedWords) and words.params == self:
            return words
        symbols = itertools.chain.from_iterable
        if not isinstance(words, Collection):
            words = list(words)  # the passes below would each consume an iterator
        if set(map(len, words)) <= {self.n} and set(map(type, symbols(words))) <= {int}:
            values = set(symbols(words))  # only ints, so one per distinct symbol
            if not values or (min(values) >= 0 and max(values) < self.q):
                return trust_words(self, words)
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

    def bitmask(self, words: Iterable[Word]) -> int:
        """The words' ids as one int, bit x set for id x."""
        bits = bytearray(-(-self.vertex_count // 8))
        for x in map(self.encode, words):
            bits[x >> 3] |= 1 << (x & 7)
        return int.from_bytes(bits, "little")

    def encode(self, word: Word) -> int:
        return sum(map(mul, word, self.weights))

    def decode(self, v: int) -> Word:
        return tuple(v // w % self.q for w in self.weights)

    def sphere(self, word: Word) -> Iterator[int]:
        """Ids at distance 1, by increasing changed position, then symbol."""
        steps = itertools.chain.from_iterable(map(getitem, self._steps, word))
        return map(self.encode(word).__add__, steps)

    def blocks(self, words: Iterable[Word]) -> Iterator[tuple[list[int], Iterator[int]]]:
        """Per first symbol v, the ids of the words starting with v and their sphere hits there.

        Block v's hits are the ids y with y[0] = v.  A word with first
        symbol a puts its changes at positions 1..n-1 in block a, and one
        id in each other block v: its own plus (v - a) * q^(n-1).  So every
        hit is listed once, in its own block, and the blocks together list
        what ``sphere`` lists word by word.  A ball is the word plus its
        sphere: a block's own ids and its hits.
        """
        q, lead = self.q, self.weights[0]
        # position 0 moves a word to another block, so it adds nothing here
        inner = (((),) * q,) + self._steps[1:]
        groups: list[list[Word]] = [[] for _ in range(q)]
        for w in words:
            groups[w[0]].append(w)
        ids = [list(map(self.encode, group)) for group in groups]
        for v in range(q):
            near = (
                map(x.__add__, itertools.chain.from_iterable(map(getitem, inner, w)))
                for x, w in zip(ids[v], groups[v])
            )
            far = (map(((v - a) * lead).__add__, ids[a]) for a in range(q) if a != v)
            yield ids[v], itertools.chain.from_iterable(itertools.chain(near, far))

    def digits(self, words: Iterable[Word]) -> tuple[list[int], list[list[int]]]:
        """The words' ids, and per position i the column of their digits s * q^(n-1-i).

        Column entries refer into one table per position, so no per-word ints are made.
        """
        words = list(words)
        q = self.q
        columns = [
            list(map(tuple(range(0, q * w, w)).__getitem__, map(itemgetter(i), words)))
            for i, w in enumerate(self.weights)
        ]
        return list(map(sum, zip(*columns))), columns


class CheckedWords(frozenset):
    """A frozen set of words of the graph ``params``: checked by ``check_words``, or made by
    ``trust_words`` from checked sets.  Set algebra on it returns plain frozensets."""

    __slots__ = ("params",)

    def __reduce__(self):
        # a pickle keeps the words, and loading it checks them again
        return self.params.check_words, (list(self),)


def trust_words(params: HammingParams, words: Iterable[Word]) -> CheckedWords:
    """The words frozen as checked for params, without a pass.  Only for words derived from
    checked sets by a map that sends words to words of H(n, q)."""
    frozen = CheckedWords(words)
    frozen.params = params
    return frozen


@dataclass(frozen=True)
class Code:
    """A set of words in a common Hamming graph."""

    params: HammingParams
    words: frozenset[Word]

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
    words = list(code.words)
    size = len(words)
    if size <= 1:
        return math.inf
    n, q = code.params.n, code.params.q
    top = max(k for k in range(n) if q ** (n - k) >= size)
    parts = [code.params.digits(words)]

    def merges(k: int) -> bool:
        return any(len(set(keys)) < size for _, (keys,) in projections(parts, k))

    if top and math.comb(n, top) <= size and not merges(top):
        return top + 1
    for k in range(1, top + 1):
        if math.comb(n, k) > size:
            return _pairwise(itertools.combinations(words, 2), k)
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
    parts = [c.params.digits(c.words), d.params.digits(d.words)]
    for k in range(n):
        if math.comb(n, k) * (len(c) + len(d)) > len(c) * len(d):
            return _pairwise(itertools.product(c.words, d.words), k)
        if any(not set(keys_c).isdisjoint(keys_d) for _, (keys_c, keys_d) in projections(parts, k)):
            return k
    return n


def projections(
    parts: list[tuple[list[int], list[list[int]]]], k: int
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
