"""Independent checks of the benchmark's outputs, written with numpy alone.

Nothing here imports the package: not ``bitrades.verify``, not
``bitrades.search``.  A word set arrives as a flat byte array of symbols
(``n`` per word) and is turned into integer vertex ids, first coordinate
most significant.  Every count is taken at every vertex of the graph, so
a check here shares no shortcut with the closure scans of the program.

The expected values below follow from the paper and from the
constructions' definitions, not from saved program output:

* volumes: alt q!/2; mds swap q^(q-2) - q^(q-3) for q >= 4; mds coset
  q^(q-2); tensor 2 v v'; lift 2 v;
* minimum volumes: q! for perfect bitrades in H(q+1, q) (the paper's
  theorem for r = 1) and q!/2 for spherical ones in H(q, q) (the lift
  doubles volume and maps spherical bitrades of H(q, q) to perfect ones
  of H(q+1, q), and ``alt`` attains q!/2);
* elsewhere only the counting bound: every word of a spherical bitrade
  has n(q-1)/2 opposite-part words at distance 2, and every word of a
  perfect one has one at distance 1 and (q-1)(n-1)/2 at distance 2.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

SPHERICAL = "spherical"
PERFECT = "perfect"

# (kind, n, q) -> minimum volume, for the graphs the paper settles.
MIN_VOLUME = {
    (SPHERICAL, 3, 3): math.factorial(3) // 2,
    (SPHERICAL, 4, 4): math.factorial(4) // 2,
    (SPHERICAL, 5, 5): math.factorial(5) // 2,
    (PERFECT, 4, 3): math.factorial(3),
    (PERFECT, 5, 4): math.factorial(4),
}


def alt_volume(q: int) -> int:
    return math.factorial(q) // 2


def swap_volume(q: int) -> int:
    return q ** (q - 2) - q ** (q - 3)


def coset_volume(q: int) -> int:
    return q ** (q - 2)


def tensor_volume(v: int, w: int) -> int:
    return 2 * v * w


def lift_volume(v: int) -> int:
    return 2 * v


def volume_lower_bound(kind: str, n: int, q: int) -> int:
    """The paper's minimum where it applies, else the counting bound."""
    if (kind, n, q) in MIN_VOLUME:
        return MIN_VOLUME[(kind, n, q)]
    if kind == SPHERICAL:
        return (q - 1) * n // 2
    return 1 + (q - 1) * (n - 1) // 2


# ---------------------------------------------------------------------------
# word sets


def symbols(flat, n: int) -> np.ndarray:
    """The words of a flat symbol array as an (m, n) uint8 matrix."""
    return np.frombuffer(bytes(flat), dtype=np.uint8).reshape(-1, n)


def vertex_ids(words: np.ndarray, q: int) -> np.ndarray:
    n = words.shape[1]
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return words.astype(np.int64) @ weights


def neighbourhood_counts(ids: np.ndarray, n: int, q: int, closed: bool) -> np.ndarray:
    """How many of the words lie in the sphere (or, if closed, the ball) of each vertex.

    Adjacency is symmetric, so this is the number of times each vertex is
    reached by stepping once from a word.  One step changes coordinate i
    by s != 0; for fixed (i, s) that map is injective, so the fancy-index
    increment never drops a repeated index.
    """
    counts = np.zeros(q**n, dtype=np.uint8)
    if closed:
        counts[ids] += 1
    for i in range(n):
        weight = q ** (n - 1 - i)
        digit = (ids // weight) % q
        for s in range(1, q):
            counts[ids + ((digit + s) % q - digit) * weight] += 1
    return counts


class Pair:
    """Two word sets in H(n, q) with the counts every check needs."""

    def __init__(self, n: int, q: int, kind: str, t0, t1) -> None:
        self.n, self.q, self.kind = n, q, kind
        self.w0, self.w1 = symbols(t0, n), symbols(t1, n)
        if self.w0.size and int(self.w0.max()) >= q or self.w1.size and int(self.w1.max()) >= q:
            raise ValueError("a symbol lies outside the alphabet")
        self.ids0 = np.sort(vertex_ids(self.w0, q))
        self.ids1 = np.sort(vertex_ids(self.w1, q))
        self._cached: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def distinct(self) -> bool:
        both = np.concatenate([self.ids0, self.ids1])
        return np.unique(both).size == both.size

    def _counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each part's sphere (spherical) or ball (perfect) count at every vertex."""
        if self._cached is None:
            closed = self.kind == PERFECT
            self._cached = (
                neighbourhood_counts(self.ids0, self.n, self.q, closed),
                neighbourhood_counts(self.ids1, self.n, self.q, closed),
            )
        return self._cached

    def violated_vertices(self) -> int:
        """Vertices where the counts differ or exceed 1: the counting definition's failures."""
        c0, c1 = self._counts()
        return int(np.count_nonzero((c0 != c1) | (c0 > 1)))

    def touched_vertices(self) -> int:
        """Vertices where some count is nonzero."""
        c0, c1 = self._counts()
        return int(np.count_nonzero((c0 > 0) | (c1 > 0)))

    def is_eigenfunction(self) -> bool:
        """Sphere sums of f = 1_t0 - 1_t1 equal lambda f, lambda 0 or -1 by kind."""
        eigenvalue = 0 if self.kind == SPHERICAL else -1
        s0 = neighbourhood_counts(self.ids0, self.n, self.q, False).astype(np.int16)
        s1 = neighbourhood_counts(self.ids1, self.n, self.q, False).astype(np.int16)
        f = np.zeros(self.q**self.n, dtype=np.int16)
        f[self.ids0] += 1
        f[self.ids1] -= 1
        return bool(np.array_equal(s0 - s1, eigenvalue * f))

    def distance_profile_holds(self) -> bool:
        """The distance profile: parts of minimum distance 3 and, per word,
        (q-1)n/2 opposite words at distance 2 with the parts at distance 2
        (spherical), or one opposite word at distance 1 and (q-1)(n-1)/2 at
        distance 2 (perfect).  An empty pair holds trivially."""
        if not len(self.w0) and not len(self.w1):
            return True
        if min_distance(self.w0) != 3 or min_distance(self.w1) != 3:
            return False
        cross = distances(self.w0, self.w1)
        if self.kind == SPHERICAL:
            at2, at1 = (self.q - 1) * self.n // 2, 0
            if cross.size and cross.min() != 2:
                return False
        else:
            at2, at1 = (self.q - 1) * (self.n - 1) // 2, 1
        for matrix in (cross, cross.T):
            if np.any((matrix == 2).sum(axis=1) != at2):
                return False
            if np.any((matrix == 1).sum(axis=1) != at1):
                return False
        return True


def same_words(a: Pair, b: Pair) -> bool:
    return np.array_equal(a.ids0, b.ids0) and np.array_equal(a.ids1, b.ids1)


def is_translate(p: Pair, shift) -> bool:
    """t1 = t0 + shift coordinatewise mod q (the field's addition for prime q)."""
    moved = (p.w0.astype(np.int64) + np.asarray(shift, dtype=np.int64)) % p.q
    return np.array_equal(np.sort(vertex_ids(moved, p.q)), p.ids1)


def all_distinct(words: np.ndarray) -> bool:
    return np.unique(words, axis=0).shape[0] == words.shape[0]


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All Hamming distances between the rows of a and the rows of b."""
    if a.shape[0] * b.shape[0] * a.shape[1] > 10**8:
        raise ValueError(f"a {a.shape[0]} by {b.shape[0]} distance matrix is too large to build")
    return (a[:, None, :] != b[None, :, :]).sum(axis=2)


def min_distance(words: np.ndarray) -> float:
    """Exact minimum distance, inf below two words.

    Two words are at distance <= k exactly when they agree on some n - k
    positions, so d is the least k for which two words share their
    projection onto some (n - k)-subset of the positions.
    """
    m, n = words.shape
    if m < 2:
        return math.inf
    q = int(words.max()) + 1
    for k in range(1, n):
        for keep in itertools.combinations(range(n), n - k):
            if np.unique(vertex_ids(words[:, list(keep)], q)).size < m:
                return k
    return n


def is_mds(words: np.ndarray, q: int) -> bool:
    """The Singleton bound met exactly: |C| = q^(n - d + 1)."""
    d = min_distance(words)
    if d == math.inf:
        return True
    return len(words) == q ** (words.shape[1] - d + 1)


# ---------------------------------------------------------------------------
# the two file formats, parsed without the package


def parse_json_document(text: str) -> dict:
    doc = json.loads(text)
    return {
        "n": doc["n"],
        "q": doc["q"],
        "kind": doc["kind"],
        "t0": bytes(s for w in doc["t0"] for s in w),
        "t1": bytes(s for w in doc["t1"] for s in w),
    }


def parse_text_document(text: str) -> dict:
    lines = text.splitlines()
    n, q, kind = lines[0].split()
    parts: tuple[list[int], list[int]] = ([], [])
    for line in lines[1:]:
        tag, *word = (int(t) for t in line.split())
        parts[tag].extend(word)
    return {"n": int(n), "q": int(q), "kind": kind, "t0": bytes(parts[0]), "t1": bytes(parts[1])}
