"""Finite-field arithmetic on the element set {0, ..., q-1}.

build_field(q) accepts any prime power q <= 512.  For q = p**k an
element's base-p digits, least significant first, are the coefficients of
a polynomial over GF(p); products are reduced modulo the lexicographically
smallest monic irreducible polynomial of degree k, comparing coefficient
tuples constant term first.  Every choice here is forced, so two builds of
the same field produce bit-identical tables.

Every field gets dense q-by-q addition and multiplication tables.  The
ceiling of 512 keeps them small; no construction comes near it, since
mds_bitrade(q) already enumerates q^(q-2) words.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from dataclasses import dataclass

FIELD_SIZE_LIMIT = 512


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """Size, characteristic, extension degree and modulus of one field."""

    q: int
    p: int
    k: int
    modulus: tuple[int, ...]  # monic, constant coefficient first, length k+1


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


def _prime_power(q: int) -> tuple[int, int] | None:
    factors = _factorize(q)
    if len(factors) == 1:
        return factors[0]
    return None


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


def _poly_mul_mod(
    a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int
) -> tuple[int, ...]:
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1 if k > 1 else 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    rem = _poly_rem(prod, modulus, p)
    rem.extend([0] * (k - len(rem)))
    return tuple(rem)


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


def _digits(e: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return tuple(out)


def _undigits(ds: Iterable[int], p: int) -> int:
    total = 0
    for d in reversed(list(ds)):
        total = total * p + d
    return total


def _powers_of_primitive(spec: FieldSpec, digits: list[tuple[int, ...]]) -> list[int]:
    """g^0, ..., g^(q-2) for the least primitive element g of GF(q)."""
    for g in range(1, spec.q):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = _undigits(_poly_mul_mod(digits[x], digits[g], spec.modulus, spec.p), spec.p)
        if len(powers) == spec.q - 1:
            return powers
    raise AssertionError(f"GF({spec.q}) has no primitive element")


# ---------------------------------------------------------------------------
# the table object


class FieldTable:
    """Arithmetic for GF(q); elements are the ints 0..q-1.

    0 and 1 are the additive and multiplicative identities.  All methods
    validate their operands; inv(0) raises ZeroDivisionError.  Tables are
    immutable once built: treat instances as shared read-only values.
    """

    __slots__ = ("spec", "_add", "_mul", "_neg", "_inv")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        q, p, k = spec.q, spec.p, spec.k
        digits = [_digits(e, p, k) for e in range(q)]

        self._neg = tuple(
            _undigits(((-d) % p for d in digits[e]), p) for e in range(q)
        )

        # Digitwise addition mod p: the low digit here, the rest from the
        # row of a // p, which is already built.
        add: list[tuple[int, ...]] = [tuple(range(q))]
        for a in range(1, q):
            low, high = a % p, add[a // p]
            add.append(tuple((low + b % p) % p + p * high[b // p] for b in range(q)))
        self._add = tuple(add)

        # a * b = g^(log a + log b) for a primitive element g.
        exp = _powers_of_primitive(spec, digits)
        log = [0] * q
        for e, x in enumerate(exp):
            log[x] = e
        exp2 = exp + exp
        logs = log[1:]
        self._mul = ((0,) * q,) + tuple(
            (0, *[exp2[log[a] + lb] for lb in logs]) for a in range(1, q)
        )
        self._inv = (0,) + tuple(self._mul[a].index(1) for a in range(1, q))

    # -- properties ---------------------------------------------------------

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def modulus(self) -> tuple[int, ...]:
        return self.spec.modulus

    @property
    def elements(self) -> range:
        return range(self.spec.q)

    def __repr__(self) -> str:
        return f"FieldTable(GF({self.q}))"

    # -- operations ---------------------------------------------------------

    def _check(self, a: int) -> None:
        if not isinstance(a, int) or not 0 <= a < self.spec.q:
            raise ValueError(f"{a!r} is not an element of GF({self.spec.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._add[a][b]

    def neg(self, a: int) -> int:
        self._check(a)
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        self._check(b)
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.spec.q})")
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
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field size must be an integer >= 2, got {q!r}")
    if q > FIELD_SIZE_LIMIT:
        raise ValueError(f"field size {q} exceeds the supported limit {FIELD_SIZE_LIMIT}")
    pp = _prime_power(q)
    if pp is None:
        text = " * ".join(
            str(p) if e == 1 else f"{p}^{e}" for p, e in _factorize(q)
        )
        raise ValueError(f"q = {q} = {text} is not a prime power")
    p, k = pp
    return FieldTable(FieldSpec(q=q, p=p, k=k, modulus=_smallest_modulus(p, k)))


@functools.lru_cache(maxsize=None)
def build_field(q: int) -> FieldTable:
    """Build (and cache) the arithmetic tables for GF(q), q a prime power <= 512."""
    return _build_field(q)
