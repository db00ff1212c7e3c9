"""Shared test utilities: word-level neighbourhoods, corruptions, random pairs,
reference checks and the characterization votes."""

import random
from collections import Counter
from itertools import combinations, product
from math import comb, inf

from bitrades import (
    Bitrade,
    Code,
    HammingParams,
    PERFECT,
    SPHERICAL,
    SignedFunction,
    VerificationReport,
    definition_check,
    dist2_pair_check,
    eigen_check,
    hamming_distance,
    min_distance,
)
from bitrades.verify import WITNESS_LIMIT

CORRUPTIONS = ("delete", "move", "replace")


def random_word(params: HammingParams, rng: random.Random):
    return tuple(rng.randrange(params.q) for _ in range(params.n))


def all_words(params: HammingParams):
    """Reference: every vertex of H(n, q) in lexicographic order."""
    return product(range(params.q), repeat=params.n)


def sphere(params: HammingParams, center):
    """Reference: the n(q-1) words at distance exactly 1 from center.

    Listed by increasing changed position, then increasing symbol.
    """
    params.check_words((center,))
    out = []
    for i in range(params.n):
        head, tail = center[:i], center[i + 1 :]
        for s in range(params.q):
            if s != center[i]:
                out.append(head + (s,) + tail)
    return out


def ball(params: HammingParams, center):
    """Reference: the center together with its sphere, n(q-1) + 1 words."""
    return [center] + sphere(params, center)


def corrupt(bitrade: Bitrade, rng: random.Random) -> tuple[str, Bitrade]:
    """Apply one random structural edit and rebuild the pair.

    The result is still a well-formed pair (disjoint parts, valid words)
    but should no longer satisfy the counting definition.
    """
    op = rng.choice(CORRUPTIONS)
    parts = [set(bitrade.t0), set(bitrade.t1)]
    side = rng.randrange(2)
    victim = rng.choice(sorted(parts[side]))
    if op == "delete":
        parts[side].remove(victim)
    elif op == "move":
        parts[side].remove(victim)
        parts[1 - side].add(victim)
    else:
        taken = parts[0] | parts[1]
        fresh = random_word(bitrade.params, rng)
        while fresh in taken:
            fresh = random_word(bitrade.params, rng)
        parts[side].remove(victim)
        parts[side].add(fresh)
    return op, Bitrade(
        bitrade.params, bitrade.kind, frozenset(parts[0]), frozenset(parts[1])
    )


def brute_failures(params, kind, t0, t1) -> list[tuple]:
    """The counting definition swept over every vertex, from hamming_distance alone.

    Returns the (vertex, count0, count1) triples of the failing vertices in
    lexicographic order: the witnesses definition_check should report.
    """
    radius = 0 if kind == PERFECT else 1
    failures = []
    for x in all_words(params):
        c0, c1 = (sum(radius <= hamming_distance(x, w) <= 1 for w in part) for part in (t0, t1))
        if c0 != c1 or c0 > 1:
            failures.append((x, c0, c1))
    return failures


def reference_report(criterion: str, failures: list[tuple], details: dict) -> VerificationReport:
    failures = sorted(failures)
    return VerificationReport(
        criterion, not failures, tuple(failures[:WITNESS_LIMIT]), len(failures), details
    )


def definition_reference(params, kind, t0, t1) -> VerificationReport:
    """definition_check counted with one Counter per part over every hit at once,
    the hits taken from the word-level neighbourhoods above."""
    index = params
    hood = ball if kind == PERFECT else sphere
    counts0, counts1 = (
        Counter(index.encode(y) for w in part for y in hood(params, w)) for part in (t0, t1)
    )
    touched = counts0.keys() | counts1.keys()
    failures = [
        (index.decode(x), counts0[x], counts1[x])
        for x in touched
        if counts0[x] != counts1[x] or counts0[x] > 1
    ]
    return reference_report("definition", failures, {"vertices_checked": len(touched)})


def eigen_reference(f: SignedFunction, eigenvalue: int) -> VerificationReport:
    """eigen_check counted with one Counter per sign over every sphere hit at once,
    the hits taken from the word-level spheres above."""
    index = f.params
    plus, minus = f.parts()
    up, down = (
        Counter(index.encode(y) for w in part for y in sphere(index, w)) for part in (plus, minus)
    )
    sign = {index.encode(w): value for w, value in f.values.items()}
    touched = up.keys() | down.keys() | sign.keys()
    failures = [
        (index.decode(x), eigenvalue * sign.get(x, 0), up[x] - down[x])
        for x in touched
        if eigenvalue * sign.get(x, 0) != up[x] - down[x]
    ]
    details = {"eigenvalue": eigenvalue, "vertices_checked": len(touched)}
    return reference_report("eigen", failures, details)


def dist2_reference(params, kind, t0, t1) -> VerificationReport:
    """dist2_pair_check from hamming_distance alone: pairwise minimum distances and,
    per word, a Counter of its distances to the opposite part."""
    if not t0 and not t1:
        return reference_report("dist2", [], {"trivial": True})
    n, q = params.n, params.q
    failures = []
    for name, part in (("t0", t0), ("t1", t1)):
        d = min((hamming_distance(x, y) for x, y in combinations(part, 2)), default=inf)
        if d != 3:
            failures.append(("min_distance", name, d, 3))
    if kind == SPHERICAL:
        expected = (q - 1) * n // 2
        cross = min((hamming_distance(x, y) for x in t0 for y in t1), default=inf)
        if cross != 2:
            failures.append(("part_distance", cross, 2))
        details = {"expected_distance2": expected}
    else:
        expected = (q - 1) * (n - 1) // 2
        details = {"expected_distance2": expected, "expected_distance1": 1}
    for name, part, other in (("t0", t0, t1), ("t1", t1, t0)):
        for w in part:
            at = Counter(hamming_distance(w, u) for u in other)
            if kind == PERFECT and at[1] != 1:
                failures.append(("count_distance1", name, w, at[1], 1))
            if at[2] != expected:
                failures.append(("count_distance2", name, w, at[2], expected))
    return reference_report("dist2", failures, details)


def delsarte_reference(f: SignedFunction, m: int) -> VerificationReport:
    """delsarte_face_check with faces keyed by tuples of the fixed symbols."""
    n, q, k = f.params.n, f.params.q, m - 1
    plus, minus = f.parts()
    failures, faces_with_support = [], 0
    for positions in combinations(range(n), k):
        up, down = (Counter(tuple(w[i] for i in positions) for w in part) for part in (plus, minus))
        faces = up.keys() | down.keys()
        faces_with_support += len(faces)
        for symbols in faces:
            if up[symbols] != down[symbols]:
                fixed = tuple((p + 1, s) for p, s in zip(positions, symbols))
                failures.append(("zero_sum", fixed, up[symbols] - down[symbols]))
                if up[symbols] + down[symbols] == 1:
                    failures.append(("support", fixed, 1))
    details = {"order": m, "faces_total": comb(n, k) * q**k, "faces_with_support": faces_with_support}
    return reference_report("delsarte", failures, details)


def signed_function(params: HammingParams, t0, t1) -> SignedFunction:
    """The parts' indicator difference: +1 on t0, -1 on t1."""
    return SignedFunction(params, {**dict.fromkeys(t0, 1), **dict.fromkeys(t1, -1)})


def characterization_votes(params, kind, t0, t1) -> tuple[bool, bool, bool]:
    """Verdicts of the three equivalent characterizations on one pair.

    Returns (counting definition, eigenfunction + minimum distances,
    distance profile).  On any disjoint pair of word sets the three
    should agree.
    """
    eigenvalue = 0 if kind == SPHERICAL else -1
    f = signed_function(params, t0, t1)
    by_definition = definition_check(params, kind, t0, t1).passed
    # an empty pair is trivially a bitrade; otherwise both parts need distance 3
    by_eigen = eigen_check(f, eigenvalue).passed and (
        not (t0 or t1) or all(min_distance(Code(params, frozenset(t))) == 3 for t in (t0, t1))
    )
    by_profile = dist2_pair_check(params, kind, t0, t1).passed
    return by_definition, by_eigen, by_profile


def random_pair(params: HammingParams, rng: random.Random, max_words: int = 6):
    """Two disjoint random word sets with up to max_words words each."""
    total = rng.randrange(0, 2 * max_words + 1)
    seen: set = set()
    while len(seen) < total:
        seen.add(random_word(params, rng))
    pool = sorted(seen)
    rng.shuffle(pool)
    cut = rng.randrange(len(pool) + 1) if pool else 0
    return frozenset(pool[:cut]), frozenset(pool[cut:])


def translate_parts(params: HammingParams, t0, t1, shift):
    """Shift both parts by a fixed vector (a graph automorphism)."""

    def apply(part):
        return frozenset(
            tuple((a + s) % params.q for a, s in zip(w, shift)) for w in part
        )

    return apply(t0), apply(t1)
