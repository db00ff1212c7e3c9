"""Checks that a candidate pair of codes really is a bitrade.

Every check returns a VerificationReport rather than a bare bool, so a
failure always carries witnesses.  The definition check is the eigen
count at the kind's eigenvalue (``construct.EIGENVALUE``) plus the cap
of at most one hit per part, and one count, ``_count``, serves both at
every size, a block of vertices at a time; the distance-profile and
face-sum checks test equivalent or necessary characterisations.  The independent
cross-checks are the references in ``tests/helpers.py`` and the
benchmark's numpy checker.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from operator import add, floordiv, or_, xor

from .construct import EIGENVALUE, PERFECT, SPHERICAL, Bitrade, check_kind, check_parts
from .hamming import (
    CheckedWords,
    Code,
    HammingParams,
    Word,
    bit_planes,
    bitmask,
    check_ceiling,
    code_distance,
    is_int,
    min_distance,
    moves,
    projections,
)

WITNESS_LIMIT = 10

# The face check refuses more support projections than this, C(n, m-1) * |support|;
# mds_bitrade(8, "coset") needs 28 * 2**19.
FACE_WORK_CEILING = 2**25

# The definition and eigen checks count the vertices in blocks of at most this many, since
# the step masks of a block take 2 n(q-1) bits per vertex.
BLOCK_VERTICES = 2**20

# the checks check_bitrade runs, in the order it runs them
CHECKS = ("definition", "eigen", "dist2", "delsarte")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: pass/fail plus capped, sorted witnesses.

    ``failure_count`` is the total number of failures found even when the
    witness list is capped at WITNESS_LIMIT entries; ``passed`` holds
    exactly when nothing failed.
    """

    criterion: str
    passed: bool
    witnesses: tuple[tuple, ...]
    failure_count: int
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.criterion not in CHECKS:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.passed != (self.failure_count == 0):
            raise ValueError("passed must hold exactly when failure_count is 0")
        if bool(self.witnesses) == self.passed:
            raise ValueError("witnesses must be nonempty exactly on failure")
        if len(self.witnesses) > WITNESS_LIMIT:
            raise ValueError(f"at most {WITNESS_LIMIT} witnesses may be attached")


def _report(
    criterion: str, failures: list[tuple], details: dict, count: int | None = None
) -> VerificationReport:
    """The report of failures, of which there are count in all (default: all are listed)."""
    failures.sort()
    count = len(failures) if count is None else count
    return VerificationReport(
        criterion=criterion,
        passed=not count,
        witnesses=tuple(failures[:WITNESS_LIMIT]),
        failure_count=count,
        details=details,
    )


def _compare(first: Iterable[int], second: Iterable[int]):
    """Count two iterables of ids; return how many ids were counted, and (id, first count,
    second count) wherever the counts differ.  Sides that repeat no id are compared by their
    id sets, every count being 0 or 1; Counters are built only when a side repeats one."""
    first, second = list(first), list(second)
    keys0, keys1 = set(first), set(second)
    if len(keys0) == len(first) and len(keys1) == len(second):
        if keys0 == keys1:
            return len(keys0), []
        only0, only1 = keys0 - keys1, keys1 - keys0
        return len(keys0) + len(only1), [(x, 1, 0) for x in only0] + [(x, 0, 1) for x in only1]
    counts0, counts1 = Counter(first), Counter(second)
    if dict.__eq__(counts0, counts1):
        return len(counts0), []
    keys = counts0.keys() | counts1.keys()
    return len(keys), [(x, counts0[x], counts1[x]) for x in keys if counts0[x] != counts1[x]]


def _count(params: HammingParams, t0, t1, theta: int, capped=False, visit=False):
    """Compare, at every vertex, each part's sphere hits plus -theta copies of its own words
    (theta <= 0), or theta copies of the other part's (theta > 0).

    A vertex fails where the two counts differ or, if ``capped``, part 0's is above 1.
    Returns the vertices checked (those counted, and the parts' words too if ``visit``),
    the failure count, and (word, value, count0, count1) at the WITNESS_LIMIT least failing
    ids; value is 1 on t0, -1 on t1, else 0.

    The vertices are cut into blocks by their k leading digits, the prefix, with the least
    k that leaves at most BLOCK_VERTICES in a block, so small graphs are one block.  Each
    count is bit planes (``hamming.bit_planes``) of vertex bitmasks of the block: the own
    copies, the part's words in the block moved by the digit steps of the tail graph
    H(n-k, q), and, unmoved, its words in each block whose prefix is one digit away.  The
    blocks holding words and their prefix neighbours are counted in prefix order, which is
    id order, each bitmask built on demand from a slice of the sorted ids.
    """
    n, q = params.n, params.q
    k = next(k for k in range(n + 1) if q ** (n - k) <= BLOCK_VERTICES)
    size = q ** (n - k)
    steps = HammingParams(n - k, q).step_masks() if k < n else []
    near = HammingParams(k, q).sphere if k else lambda p: ()
    ids = t0.ids, t1.ids
    occupied = set(chain.from_iterable(map(floordiv, part, repeat(size)) for part in ids))
    width = (params.degree + abs(theta)).bit_length()

    def block(part, p: int) -> int:
        base = p * size
        words = part[bisect_left(part, base) : bisect_left(part, base + size)]
        return bitmask(words, size, base) if words else 0

    def at(x: int, planes: list[int]) -> int:
        return sum((plane >> x & 1) << j for j, plane in enumerate(planes))

    checked = count = 0
    witnesses = []
    for p in sorted(occupied.union(*map(near, occupied))):
        parts = [block(part, p) for part in ids]
        owns = parts if theta <= 0 else parts[::-1]
        planes0, planes1 = (
            bit_planes(
                chain(repeat(own, abs(theta)), moves(mask, steps), (block(part, r) for r in near(p))),
                width,
            )
            for part, mask, own in zip(ids, parts, owns)
        )
        failing = reduce(or_, map(xor, planes0, planes1))
        if capped:
            failing |= reduce(or_, planes0[1:], 0)
        checked += reduce(or_, planes0 + planes1, parts[0] | parts[1] if visit else 0).bit_count()
        count += failing.bit_count()
        while failing and len(witnesses) < WITNESS_LIMIT:
            x = (failing & -failing).bit_length() - 1
            failing ^= 1 << x
            value = (parts[0] >> x & 1) - (parts[1] >> x & 1)
            witnesses.append((params.decode(p * size + x), value, at(x, planes0), at(x, planes1)))
    return checked, count, witnesses


@dataclass(frozen=True)
class SignedFunction:
    """A function with values +-1 on a finite support and 0 elsewhere."""

    params: HammingParams
    values: dict[Word, int]
    _parts: tuple[CheckedWords, CheckedWords] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = dict(self.values)
        object.__setattr__(self, "values", values)
        signs = [[w for w, v in values.items() if v == s] for s in (1, -1)]
        try:
            if sum(map(len, signs)) < len(values):
                raise ValueError  # a value other than +1 and -1
            object.__setattr__(self, "_parts", tuple(map(self.params.check_words, signs)))
        except ValueError:
            # refuse the first bad word in the dict's order, else the first bad value
            self.params.check_words(values)
            w, v = next((w, v) for w, v in values.items() if v not in (1, -1))
            raise ValueError(f"value at {w!r} must be +1 or -1, got {v!r}") from None

    def parts(self) -> tuple[CheckedWords, CheckedWords]:
        """The words where f is +1, and those where it is -1, checked once when f was made."""
        return self._parts


# ---------------------------------------------------------------------------
# the counting definition


def definition_check(
    params: HammingParams,
    kind: str,
    t0: Iterable[Word],
    t1: Iterable[Word],
) -> VerificationReport:
    """Counting definition: every vertex sees equal part counts, at most 1 each.

    The spherical count of a vertex is over its sphere, the perfect count
    over its ball: the eigen count at the kind's eigenvalue, capped at 1.
    Only vertices whose counts can be nonzero are visited (the supports
    and their neighbourhoods); every other vertex counts (0, 0) and passes.
    """
    check_kind(kind)
    set0, set1 = check_parts(params, t0, t1)
    touched, count, diffs = _count(params, set0, set1, EIGENVALUE[kind], capped=True)
    failures = [(word, c0, c1) for word, _, c0, c1 in diffs]
    return _report("definition", failures, {"vertices_checked": touched}, count)


# ---------------------------------------------------------------------------
# eigenfunction characterisation


def eigen_check(f: SignedFunction, eigenvalue: int) -> VerificationReport:
    """Check sum of f over each sphere against eigenvalue * f pointwise.

    The equation is tested at every vertex where either side can be
    nonzero: the support and its neighbourhood.  Everywhere else both
    sides vanish.  ``_count`` counts each sign at the eigenvalue, so the
    equation holds where the counts agree.  A non-integer eigenvalue raises ValueError.
    """
    if not is_int(eigenvalue):
        raise ValueError(f"eigenvalue must be an integer, got {eigenvalue!r}")
    if eigenvalue not in f.params.eigenvalues():
        warnings.warn(
            f"{eigenvalue} is not an eigenvalue of H({f.params.n}, {f.params.q}); "
            f"the check can only fail",
            stacklevel=2,
        )
    return _eigen(f.params, *f.parts(), eigenvalue)


def _eigen(
    params: HammingParams, t0: CheckedWords, t1: CheckedWords, eigenvalue: int
) -> VerificationReport:
    """``eigen_check`` of the function that is +1 on t0 and -1 on t1."""
    degree = params.degree
    # a sphere sum lies within -degree..degree, so past degree + 1 the failures stay the same
    theta = max(-1 - degree, min(eigenvalue, 1 + degree))
    checked, count, diffs = _count(params, t0, t1, theta, visit=True)
    failures = [(word, eigenvalue * v, up - down + theta * v) for word, v, up, down in diffs]
    details = {"eigenvalue": eigenvalue, "vertices_checked": checked}
    return _report("eigen", failures, details, count)


# ---------------------------------------------------------------------------
# distance profile


def dist2_pair_check(
    params: HammingParams, kind: str, t0: Iterable[Word], t1: Iterable[Word]
) -> VerificationReport:
    """Distance profile between the parts.

    Spherical: both parts have minimum distance 3, the parts are at
    distance exactly 2, and every word has exactly (q-1)n/2 opposite-part
    words at distance 2.  Together these are equivalent to the counting
    definition.

    Perfect: minimum distances 3, and every word has exactly one
    opposite-part word at distance 1 and (q-1)(n-1)/2 at distance 2.
    These are necessary; the counting definition remains the authority.
    A word's counts a1, a2 come from S1 = n*a0 + a1 and S2 = C(n, 2)*a0 +
    (n-1)*a1 + a2, S1 (S2) summing over position sets D of size 1 (2) the
    opposite words agreeing with it off D; a0 is 1 if it is in both parts.
    """
    check_kind(kind)
    codes = Code(params, t0), Code(params, t1)
    set0, set1 = codes[0].words, codes[1].words
    n, q = params.n, params.q
    if not set0 and not set1:
        return _report("dist2", [], {"trivial": True})

    failures: list[tuple] = [
        ("min_distance", name, d, 3)
        for name, d in zip(("t0", "t1"), map(min_distance, codes))
        if d != 3
    ]
    expected_pairs = (q - 1) * (n + EIGENVALUE[kind]) // 2
    details = {"expected_distance2": expected_pairs}
    if kind == SPHERICAL:
        cross = code_distance(*codes)
        if cross != 2:
            failures.append(("part_distance", cross, 2))
    else:
        details["expected_distance1"] = 1

    ids = set0.ids, set1.ids
    digits = [params.digits(part) for part in ids]

    def agreements(size: int) -> list[list[int]]:
        """Per word of each side: the opposite words that agree with it off D, over |D| = size."""
        totals = [[0] * len(part) for part in ids]
        for _, keys in projections(digits, size):
            keys = list(map(list, keys))
            for side, other in ((0, 1), (1, 0)):
                counts = Counter(keys[other]).get
                totals[side] = list(map(add, totals[side], map(counts, keys[side], repeat(0))))
        return totals

    sums1, sums2 = agreements(1), agreements(2)
    shared = set(ids[0]).intersection(ids[1])
    for side, (name, part) in enumerate(zip(("t0", "t1"), ids)):
        for x, s1, s2 in zip(part, sums1[side], sums2[side]):
            at0 = x in shared
            at1 = s1 - n * at0
            at2 = s2 - (n - 1) * at1 - math.comb(n, 2) * at0
            if kind == PERFECT and at1 != 1:
                failures.append(("count_distance1", name, params.decode(x), at1, 1))
            if at2 != expected_pairs:
                failures.append(("count_distance2", name, params.decode(x), at2, expected_pairs))

    return _report("dist2", failures, details)


def dist2_count_check(b: Bitrade) -> VerificationReport:
    """Distance-profile check for a Bitrade; see dist2_pair_check."""
    return dist2_pair_check(b.params, b.kind, b.t0, b.t1)


# ---------------------------------------------------------------------------
# face sums


def delsarte_order(params: HammingParams, eigenvalue: int) -> int:
    """The index m of eigenvalue in ``params.eigenvalues()``; the face-sum order."""
    spectrum = params.eigenvalues()
    if not is_int(eigenvalue) or eigenvalue not in spectrum:
        raise ValueError(f"{eigenvalue} is not an eigenvalue of H({params.n}, {params.q})")
    return spectrum.index(eigenvalue)


def delsarte_face_check(f: SignedFunction, m: int) -> VerificationReport:
    """Face sums of an alleged (n(q-1) - mq)-eigenfunction.

    Over every face with exactly m-1 fixed positions, such a function must
    sum to zero, and must take at least two nonzero values unless it is
    zero on the whole face.  Every face is checked: one projection of the
    support per set of free positions, and faces the support misses pass.
    A projection is an integer key, the word's id less the digits of the
    free positions (``projections``), and symbols are decoded only for
    witnesses.  More than FACE_WORK_CEILING projections (C(n, m-1) *
    |support|) are refused with ValueError.
    """
    return _faces(f.params, *f.parts(), m)


def _faces(params: HammingParams, t0: CheckedWords, t1: CheckedWords, m: int) -> VerificationReport:
    """``delsarte_face_check`` of the function that is +1 on t0 and -1 on t1."""
    n, q = params.n, params.q
    if not is_int(m) or not 1 <= m <= n + 1:
        raise ValueError(f"face-sum order m must be in 1..{n + 1}, got {m!r}")
    k = m - 1
    size = len(t0) + len(t1)
    what = f"a face check of C({n}, {k}) position sets over {size} words"
    check_ceiling(math.comb(n, k) * max(1, size), FACE_WORK_CEILING, what)
    parts = [params.digits(part.ids) for part in (t0, t1)]

    failures: list[tuple] = []
    faces_with_support = 0
    for free, keys in projections(parts, n - k):
        counted, diffs = _compare(*keys)
        faces_with_support += counted
        positions = [i for i in range(n) if i not in free]
        for key, a, b in diffs:
            face = params.decode(key)
            fixed = tuple((p + 1, face[p]) for p in positions)
            failures.append(("zero_sum", fixed, a - b))
            # a lone nonzero value makes the sum nonzero too
            if a + b == 1:
                failures.append(("support", fixed, 1))
    details = {
        "order": m,
        "faces_total": math.comb(n, k) * q**k,
        "faces_with_support": faces_with_support,
    }
    return _report("delsarte", failures, details)


# ---------------------------------------------------------------------------
# all four checks of one bitrade


def check_bitrade(b: Bitrade, checks: Iterable[str] = CHECKS) -> dict[str, VerificationReport]:
    """Run the named checks on a bitrade, in CHECKS order, keyed by name.

    The kind fixes the eigenvalue of the parts' indicator difference, 0 for
    spherical and -1 for perfect, and with it the face-sum order m of the
    delsarte check (reported as ``details["order"]``).  An unknown name
    raises ValueError before any check runs.
    """
    names = list(checks)
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {CHECKS}")
    eigenvalue = EIGENVALUE[b.kind]
    # a Bitrade's parts are checked sets; only a part set by hand (say to a plain copy) is
    # checked here, once for all four checks
    t0, t1 = b.params.check_words(b.t0), b.params.check_words(b.t1)
    run = {
        "definition": lambda: definition_check(b.params, b.kind, t0, t1),
        "eigen": lambda: _eigen(b.params, t0, t1, eigenvalue),
        "dist2": lambda: dist2_pair_check(b.params, b.kind, t0, t1),
        "delsarte": lambda: _faces(b.params, t0, t1, delsarte_order(b.params, eigenvalue)),
    }
    return {name: run[name]() for name in CHECKS if name in names}
