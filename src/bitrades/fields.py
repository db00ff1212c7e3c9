"""Finite-field arithmetic on the element set {0, ..., q-1}.

build_field(q) accepts any prime power q <= 512.  For q = p**k an
element's base-p digits, least significant first, are the coefficients of
a polynomial over GF(p); products are reduced modulo the lexicographically
smallest monic irreducible polynomial of degree k, comparing coefficient
tuples constant term first.  Every choice here is forced, so two builds of
the same field produce bit-identical tables.

Every field gets dense q-by-q addition and multiplication tables, both
built by one recurrence on base-p digits (Horner's rule): an element a is
x * (a // p) + (a % p), so row a of either table follows from rows
already built.  The ceiling of 512 keeps the tables small; no construction
comes near it, since mds_bitrade(q) already enumerates q^(q-2) words.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable

from .hamming import check_ceiling, is_int

FIELD_SIZE_LIMIT = 512


# ---------------------------------------------------------------------------
# integer helpers


def _factorize(m: int) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


# ---------------------------------------------------------------------------
# polynomials over GF(p), little-endian coefficient tuples


def _poly_rem(dividend: list[int], divisor: tuple[int, ...], p: int) -> list[int]:
    """Remainder of dividend modulo a monic divisor, both little-endian."""
    rem = list(dividend)
    dd = len(divisor) - 1
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top]
        if c:
            for i, coef in enumerate(divisor):
                rem[top - dd + i] = (rem[top - dd + i] - c * coef) % p
    del rem[dd:]
    return rem


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg/2."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tail + (1,)
            if not any(_poly_rem(list(poly), divisor, p)):
                return False
    return True


def _smallest_modulus(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=k):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# the table object


class FieldTable:
    """Arithmetic for GF(p^k) modulo a monic irreducible ``modulus``; elements are 0..q-1.

    0 and 1 are the additive and multiplicative identities.  All methods
    validate their operands; inv(0) raises ZeroDivisionError.  The tables
    ``add_table[a][b]`` = a + b, ``mul_table[a][b]`` = a * b and
    ``neg_table[a]`` = -a are read without validation, for speed.  Tables
    are immutable once built: treat instances as shared read-only values.
    """

    __slots__ = ("q", "p", "k", "modulus", "add_table", "mul_table", "neg_table", "_inv")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        q = p**k
        self.q, self.p, self.k = q, p, k
        self.modulus = modulus  # monic, constant coefficient first, length k+1

        # Digitwise addition mod p: the low digit here, the rest from the
        # row of a // p, which is already built.
        add: list[tuple[int, ...]] = [tuple(range(q))]
        for a in range(1, q):
            low, high = a % p, add[a // p]
            add.append(tuple([(low + b % p) % p + p * high[b // p] for b in range(q)]))
        self.add_table = tuple(add)

        # times_x[e] = x * e: shift e's digits up one place and fold the top
        # digit c back in as c * x^k, where x^k = -(the modulus below x^k).
        top = q // p
        fold = [
            sum((-c * m) % p * p**i for i, m in enumerate(modulus[:k])) for c in range(p)
        ]
        times_x = [add[e % top * p][fold[e // top]] for e in range(q)]

        # Products by the same recurrence on a's digits: (a - 1) * b + b for
        # a < p, and for a = h*p + l, x * (h * b) + l * b from rows h and l.
        mul: list[tuple[int, ...]] = [(0,) * q]
        for a in range(1, p):
            mul.append(tuple([add[u][b] for b, u in enumerate(mul[a - 1])]))
        for h in range(1, q // p):
            shifted = [times_x[u] for u in mul[h]]
            for low in mul[:p]:
                mul.append(tuple([add[u][v] for u, v in zip(shifted, low)]))
        self.mul_table = tuple(mul)
        self.neg_table = tuple(row[p - 1] for row in mul)  # (p - 1) * a = -a
        self._inv = (0,) + tuple(self.mul_table[a].index(1) for a in range(1, q))

    @property
    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"FieldTable(GF({self.q}))"

    # -- operations ---------------------------------------------------------

    def _check(self, a: int) -> None:
        if not is_int(a) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        self._check(a)
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        self._check(b)
        return self.add(a, self.neg_table[b])

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv[a]

    def sum(self, items: Iterable[int]) -> int:
        total = 0
        for x in items:
            total = self.add(total, x)
        return total

    def dot(self, u: Iterable[int], v: Iterable[int]) -> int:
        total = 0
        for x, y in zip(u, v, strict=True):
            total = self.add(total, self.mul(x, y))
        return total


def _build_field(q: int) -> FieldTable:
    if not is_int(q) or q < 2:
        raise ValueError(f"field size must be an integer >= 2, got {q!r}")
    check_ceiling(q, FIELD_SIZE_LIMIT, f"to build GF({q})")
    factors = _factorize(q)
    if len(factors) != 1:
        text = " * ".join(str(p) if e == 1 else f"{p}^{e}" for p, e in factors)
        raise ValueError(f"q = {q} = {text} is not a prime power")
    [(p, k)] = factors
    return FieldTable(p, k, _smallest_modulus(p, k))


@functools.lru_cache(maxsize=None)
def build_field(q: int) -> FieldTable:
    """Build (and cache) the arithmetic tables for GF(q), q a prime power <= 512."""
    return _build_field(q)
