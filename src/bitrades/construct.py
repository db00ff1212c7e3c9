"""Constructions of spherical and perfect bitrades in Hamming graphs.

A pair of disjoint codes (t0, t1) is a spherical bitrade when every vertex
of the graph sees equally many t0 and t1 words among its neighbours, and
never more than one of each; it is a perfect bitrade when the same holds
with the vertex itself included.  The difference of the parts' indicator
functions is then an eigenfunction for θ = 0 or -1 (``EIGENVALUE``), and a
kind fits H(n, q) when its θ is among the eigenvalues n(q-1) - q*i: q | n
for spherical bitrades, n = 1 (mod q) for perfect ones.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass

from .fields import build_field
from .hamming import CheckedWords, HammingParams, Word, check_ceiling, is_int, trust_ids
from .linear import coset, rs_mds_code

SPHERICAL = "spherical"
PERFECT = "perfect"
# each kind's θ: a part counts, at each vertex, its sphere hits plus -θ copies of the vertex
EIGENVALUE = {SPHERICAL: 0, PERFECT: -1}
KINDS = tuple(EIGENVALUE)

# A construction whose parts would hold more words each than this is refused
# before it enumerates any (alt_bitrade(9) has 181,440 and builds in seconds).
CONSTRUCTION_CEILING = 2**19


# kind: (what n must be, when H(n, q) has the kind's eigenvalue)
_EXISTENCE = {
    SPHERICAL: ("a multiple of q", "q divides n"),
    PERFECT: ("1 (mod q)", "n = 1 (mod q)"),
}


def check_kind(kind: str) -> None:
    """Refuse a kind other than SPHERICAL and PERFECT."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def bitrade_kind(params: HammingParams, kind: str | None = None) -> str:
    """The one kind of bitrade that H(n, q) can hold, checked against ``kind``.

    A kind fits when its eigenvalue (``EIGENVALUE``) is in the spectrum
    ``params.eigenvalues()``: 0 needs q | n and -1 needs n = 1 (mod q), so
    since q >= 2 at most one kind fits.  Raises ValueError when H(n, q)
    holds no bitrade, or none of the given kind.
    """
    if kind is not None:
        check_kind(kind)
    n, q = params.n, params.q
    fits = next((k for k in KINDS if EIGENVALUE[k] in params.eigenvalues()), None)
    if kind is None and fits is None:
        raise ValueError(
            f"no bitrade parameters fit H({n}, {q}): n must be 1 (mod q) for "
            f"perfect bitrades or a multiple of q for spherical bitrades"
        )
    if kind is not None and kind != fits:
        need, when = _EXISTENCE[kind]
        raise ValueError(
            f"no {kind} bitrade exists in H({n}, {q}): n must be {need}, since the parts' "
            f"indicator difference would be an eigenfunction for {EIGENVALUE[kind]}, and "
            f"{EIGENVALUE[kind]} is among the eigenvalues n(q-1) - q*i only when {when}"
        )
    return fits


def check_parts(
    params: HammingParams, t0: Iterable[Word], t1: Iterable[Word]
) -> tuple[CheckedWords, CheckedWords]:
    """Both parts checked by ``HammingParams.check_words``; a shared word raises ValueError."""
    set0, set1 = params.check_words(t0), params.check_words(t1)
    if not set0.isdisjoint(set1):
        overlap = set0 & set1
        raise ValueError(
            f"parts must be disjoint; {len(overlap)} shared words, e.g. {min(overlap)!r}"
        )
    return set0, set1


@dataclass(frozen=True)
class Bitrade:
    """Two disjoint parts in a common Hamming graph, tagged by kind.

    Construction validates word sanity, disjointness and the existence
    constraint on (n, q) for the claimed kind.  It does not prove the pair
    is actually a bitrade; that is what the verify module is for, and it
    must also hold |t0| = |t1| for any pair that passes.
    """

    params: HammingParams
    kind: str
    t0: CheckedWords
    t1: CheckedWords

    def __post_init__(self) -> None:
        check_kind(self.kind)
        t0, t1 = check_parts(self.params, self.t0, self.t1)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)
        bitrade_kind(self.params, self.kind)

    @property
    def volume(self) -> int:
        """Number of words in the first part (equal to |t1| for valid bitrades)."""
        return len(self.t0)

    def sorted_parts(self) -> tuple[list[Word], list[Word]]:
        """Both parts' words in order: a part decodes in id order, which is word order."""
        return list(self.t0), list(self.t1)


# ---------------------------------------------------------------------------
# constructions


def _refuse_above_ceiling(what: str, factors: Iterable[int]) -> None:
    """Refuse ``what`` when the volume, the product of factors, passes
    CONSTRUCTION_CEILING; the product stops growing once it does."""
    volume = 1
    for factor in factors:
        volume *= factor
        if volume > CONSTRUCTION_CEILING:
            break
    check_ceiling(volume, CONSTRUCTION_CEILING, f"{what}: too many words in each part")


def _is_even(word: Word) -> bool:
    inversions = sum(
        1
        for i, j in itertools.combinations(range(len(word)), 2)
        if word[i] > word[j]
    )
    return inversions % 2 == 0


def alt_bitrade(q: int) -> Bitrade:
    """Spherical bitrade in H(q, q) split by permutation parity.

    The parts are the one-line forms of the even and the odd permutations
    of {0, ..., q-1}; each has q!/2 words, pairwise at distance >= 3
    because two permutations can never differ in exactly one place (or,
    for equal parity, in exactly two).
    """
    if not is_int(q) or q < 3:
        raise ValueError(f"the permutation bitrade needs an integer q >= 3, got {q!r}")
    # q!/2 = 3 * 4 * ... * q
    _refuse_above_ceiling(f"alt_bitrade({q})", range(3, q + 1))
    even, odd = [], []
    for word in itertools.permutations(range(q)):  # in word order, so their ids increase
        (even if _is_even(word) else odd).append(word)
    params = HammingParams(q, q)
    return Bitrade(
        params, SPHERICAL, *(trust_ids(params, params.encode_all(part)) for part in (even, odd))
    )


def mds_bitrade(q: int, variant: str = "swap", shift: Word | None = None) -> Bitrade:
    """Spherical bitrade in H(q, q) carved out of weighted-check codes.

    Both parts sit inside the sum-zero code.  The swap variant takes the
    two distance-3 codes whose weight rows differ by transposing the first
    two weights and keeps the words unique to each part.  Swapping
    coordinates 0 and 1 maps one code onto the other, so t0 is the base
    words with w[0] != w[1] and t1 their images under that swap:
    q^(q-2) - q^(q-3) words per part for q >= 4.  For q = 3 it raises
    ValueError: both codes are the repetition code, so no words are unique
    to either part.  The coset variant pairs one distance-3 code with a
    translate of itself by a sum-zero shift outside the code: q^(q-2)
    words per part.
    """
    if not is_int(q) or q < 3:
        raise ValueError(f"the MDS bitrades need an integer q >= 3, got {q!r}")
    if variant not in ("swap", "coset"):
        raise ValueError(f"unknown variant {variant!r}: expected 'swap' or 'coset'")
    # the volume depends on q alone, so it is checked before GF(q) is built
    swap = variant == "swap"
    _refuse_above_ceiling(
        f"mds_bitrade({q}, {variant!r})",
        itertools.chain((q - 1,) if swap else (q,), itertools.repeat(q, q - 3)),
    )
    field = build_field(q)
    base = rs_mds_code(field, q)
    params = HammingParams(q, q)

    if swap:
        if shift is not None:
            raise ValueError("shift only applies to the coset variant")
        ids = base.to_code().words.ids
        w0, w1 = params.weights[:2]
        # the base ids with first symbols (d0, d1) are one slice of the sorted ids
        cuts = [bisect_left(ids, p * w1) for p in range(q * q + 1)]
        t0, t1 = array("q"), array("q")
        for d0, d1 in itertools.product(range(q), repeat=2):
            if d0 != d1:
                t0 += ids[cuts[d0 * q + d1] : cuts[d0 * q + d1 + 1]]
                # the swap sends block (d1, d0) here, adding (d0 - d1)(w0 - w1) to each id
                block = ids[cuts[d1 * q + d0] : cuts[d1 * q + d0 + 1]]
                t1.extend(map(((d0 - d1) * (w0 - w1)).__add__, block))
        if not t0:
            raise ValueError(
                f"the swap variant degenerates for q = {q}: both weight rows span "
                f"the same code once the all-ones row is added, so no words are "
                f"unique to either part (for q = 3 every distinct-weight row gives "
                f"the one distance-3 subcode of the sum-zero code)"
            )
        return Bitrade(params, SPHERICAL, trust_ids(params, t0), trust_ids(params, t1))

    if shift is None:
        shift = (1, field.neg(1)) + (0,) * (q - 2)
    params.check_words((shift,))
    if field.sum(shift) != 0:
        raise ValueError(
            f"the coset shift must have coordinate sum zero, got {shift!r}"
        )
    if shift in base:
        raise ValueError(
            f"the coset shift {shift!r} lies in the base code, so the translate "
            f"coincides with it and the trade would be empty"
        )
    code = base.to_code()
    return Bitrade(params, SPHERICAL, code.words, coset(field, code, shift).words)


def tensor_combine(a: Bitrade, b: Bitrade) -> Bitrade:
    """Join two spherical bitrades over the same alphabet by concatenation.

    Straight pairs (t0 x t0' and t1 x t1') form the new first part, cross
    pairs the second, so the volume is twice the product of the input
    volumes.  Inputs are taken on trust: combining pairs that are not
    actually spherical bitrades yields garbage, so callers holding
    unverified data should verify first.
    """
    if a.params.q != b.params.q:
        raise ValueError(
            f"alphabet mismatch: cannot combine q={a.params.q} with q={b.params.q}"
        )
    if a.kind != SPHERICAL or b.kind != SPHERICAL:
        raise ValueError("only spherical bitrades combine; lift afterwards instead")
    _refuse_above_ceiling(
        f"combining volumes {a.volume} and {b.volume}", (2, a.volume, b.volume)
    )
    # the id of x + y is x's id times q^(n_b) plus y's
    scale = b.params.vertex_count

    def pairs(left: CheckedWords, right: CheckedWords) -> Iterable[int]:
        return itertools.chain.from_iterable(map((x * scale).__add__, right.ids) for x in left.ids)

    t0 = sorted(itertools.chain(pairs(a.t0, b.t0), pairs(a.t1, b.t1)))
    t1 = sorted(itertools.chain(pairs(a.t0, b.t1), pairs(a.t1, b.t0)))
    params = HammingParams(a.params.n + b.params.n, a.params.q)
    return Bitrade(params, SPHERICAL, trust_ids(params, t0), trust_ids(params, t1))


def tensor_power(b: Bitrade, r: int) -> Bitrade:
    """The r-fold tensor_combine of a spherical bitrade with itself."""
    if not is_int(r) or r < 1:
        raise ValueError(f"tensor power needs an integer r >= 1, got {r!r}")
    # checked before the first combine: volume 2^(r-1) v^r
    _refuse_above_ceiling(
        f"the {r}-fold tensor power of a volume-{b.volume} bitrade",
        itertools.chain((b.volume,), itertools.repeat(2 * b.volume, r - 1)),
    )
    return functools.reduce(tensor_combine, [b] * (r - 1), b)


def lift_to_perfect(b: Bitrade) -> Bitrade:
    """Append one coordinate to turn a spherical bitrade into a perfect one.

    Every word keeps its part with symbol 0 appended and switches parts
    with symbol 1 appended; the volume doubles and the result lives in
    H(n+1, q), where n+1 = 1 (mod q) as required.
    """
    if b.kind != SPHERICAL:
        raise ValueError(f"can only lift spherical bitrades, got kind {b.kind!r}")
    _refuse_above_ceiling(f"lifting a volume-{b.volume} bitrade", (2, b.volume))
    # the id of w + (s,) is q times w's id plus s
    q = b.params.q
    own, other = ([q * x for x in part.ids] for part in (b.t0, b.t1))
    t0 = sorted(itertools.chain(own, map((1).__add__, other)))
    t1 = sorted(itertools.chain(map((1).__add__, own), other))
    params = HammingParams(b.params.n + 1, q)
    return Bitrade(params, PERFECT, trust_ids(params, t0), trust_ids(params, t1))
