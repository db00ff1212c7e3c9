"""Finite field tables, including the extension-field construction."""

import itertools
import random
import time

import pytest

from bitrades.fields import (
    FIELD_SIZE_LIMIT,
    _build_field,
    build_field,
)


def test_prime_field_arithmetic():
    f = build_field(3)
    assert f.add(1, 2) == 0
    assert f.mul(2, 2) == 1
    assert f.neg(1) == 2
    assert f.sub(0, 1) == 2
    assert build_field(5).inv(2) == 3
    assert build_field(7).inv(3) == 5


def test_gf4_tables():
    f = build_field(4)
    assert (f.p, f.k) == (2, 2)
    assert f.modulus == (1, 1, 1)
    add = tuple(tuple(f.add(a, b) for b in f.elements) for a in f.elements)
    mul = tuple(tuple(f.mul(a, b) for b in f.elements) for a in f.elements)
    assert add == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert mul == ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    assert [f.inv(a) for a in (1, 2, 3)] == [1, 3, 2]


def test_gf8_spot_values():
    # modulus 1 + x^2 + x^3, the first irreducible in low-degree-first order
    f = build_field(8)
    assert f.modulus == (1, 0, 1, 1)
    assert f.mul(2, 4) == 5
    assert f.mul(4, 4) == 7
    assert f.inv(2) == 6
    # characteristic 2: every element is its own negative
    assert all(f.add(a, a) == 0 for a in f.elements)


def test_gf9_spot_values():
    f = build_field(9)
    assert f.modulus == (1, 0, 1)
    assert f.mul(3, 3) == 2
    assert f.mul(3, 4) == 5
    assert f.neg(3) == 6
    assert f.inv(3) == 6
    assert f.add(4, 8) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    f = build_field(q)
    elements = list(f.elements)
    assert elements[0] == 0 and elements[1] == 1
    for a in elements:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    sample = elements if q <= 9 else random.Random(q).sample(elements, 9)
    for a, b, c in itertools.product(sample, repeat=3):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_build_refuses_fields_above_the_dense_ceiling():
    # 625 = 5^4 is a prime power, but every field keeps dense q*q tables
    assert FIELD_SIZE_LIMIT == 512
    with pytest.raises(ValueError, match=r"^refusing to build GF\(625\); the ceiling is 2\*\*9$"):
        build_field(625)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        build_field(4).inv(0)


def test_operands_validated():
    f = build_field(3)
    with pytest.raises(ValueError):
        f.add(0, 3)
    with pytest.raises(ValueError):
        f.mul(-1, 0)
    with pytest.raises(ValueError):
        f.inv(3)


def test_sum_and_dot():
    f = build_field(3)
    assert f.sum([1, 2, 2, 1]) == 0
    assert f.sum([]) == 0
    assert f.dot((1, 2), (2, 2)) == 0
    with pytest.raises(ValueError):
        f.dot((1, 2), (1,))


def test_build_rejects_non_prime_powers():
    with pytest.raises(ValueError, match=r"q = 6 = 2 \* 3 is not a prime power"):
        build_field(6)
    with pytest.raises(ValueError):
        build_field(12)
    with pytest.raises(ValueError):
        build_field(1)


def test_build_rejects_oversized_fields():
    with pytest.raises(ValueError, match="1024"):
        build_field(2 * FIELD_SIZE_LIMIT)


def test_build_is_deterministic():
    # bypass the cache so two independent constructions are compared
    f = _build_field(9)
    g = _build_field(9)
    assert f is not g
    assert f.modulus == g.modulus
    for a in f.elements:
        for b in f.elements:
            assert f.add(a, b) == g.add(a, b)
            assert f.mul(a, b) == g.mul(a, b)


def test_build_field_is_cached():
    assert build_field(9) is build_field(9)


# Tables against products written here: digits of a and b as polynomials
# over GF(p), multiplied and reduced modulo the field's monic modulus.
def _poly_product(a, b, p, modulus):
    k = len(modulus) - 1
    da = [(a // p**i) % p for i in range(k)]
    db = [(b // p**i) % p for i in range(k)]
    prod = [0] * (2 * k)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for top in range(2 * k - 1, k - 1, -1):
        c = prod[top] % p
        for i, m in enumerate(modulus):
            prod[top - k + i] -= c * m
    return sum((prod[i] % p) * p**i for i in range(k))


def _digit_sum(a, b, p, k):
    return sum((((a // p**i) + (b // p**i)) % p) * p**i for i in range(k))


SMALL_FIELDS = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
    27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64,
]


def test_small_fields_are_every_supported_size_up_to_64():
    for q in range(2, 65):
        if q not in SMALL_FIELDS:
            with pytest.raises(ValueError, match="not a prime power"):
                _build_field(q)


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_tables_equal_polynomial_products(q):
    f = _build_field(q)
    for a in f.elements:
        for b in f.elements:
            assert f.mul(a, b) == _poly_product(a, b, f.p, f.modulus)
            assert f.add(a, b) == _digit_sum(a, b, f.p, f.k)


@pytest.mark.parametrize("q", [81, 125, 243, 256, 343, 512])
def test_gf512_sampled_products_and_build_time(q):
    started = time.perf_counter()
    f = _build_field(q)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    rng = random.Random(q)
    for _ in range(3000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.mul(a, b) == _poly_product(a, b, f.p, f.modulus)
        assert f.add(a, b) == _digit_sum(a, b, f.p, f.k)
    assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, q))
