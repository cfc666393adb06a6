"""Field arithmetic, index codecs, and interpolation."""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from latticeobs.gfpoly import (
    FieldPrime,
    base_digits,
    ceil_nth_root,
    coeffs_to_index,
    index_to_coeffs,
    interpolate_coeffs,
    is_prime,
    next_prime_above,
    poly_eval,
)

P5 = FieldPrime(5)


def oracle_is_prime(n):
    "Independent primality check by trial division."
    if n < 2:
        return False
    return all(n % q for q in range(2, n) if q * q <= n)


@pytest.mark.parametrize(
    "m,expected",
    [(1, 2), (2, 3), (4, 5), (12, 13), (13, 17), (24, 29), (64, 67), (81, 83)],
)
def test_next_prime_above_frozen(m, expected):
    assert next_prime_above(m).modulus == expected


@pytest.mark.parametrize("m", list(range(1, 200)))
def test_next_prime_above_is_first_prime(m):
    "Result is prime and nothing prime sits between m and it."
    got = next_prime_above(m).modulus
    assert got > m
    assert oracle_is_prime(got)
    assert not any(oracle_is_prime(k) for k in range(m + 1, got))


def test_next_prime_bertrand():
    # always a prime below 2m+2
    for m in range(1, 500):
        assert next_prime_above(m).modulus < 2 * m + 2


def test_is_prime_matches_oracle():
    for n in range(-3, 300):
        assert is_prime(n) == oracle_is_prime(n)


def test_field_prime_rejects_composite():
    with pytest.raises(ValueError):
        FieldPrime(4)
    with pytest.raises(ValueError):
        FieldPrime(1)


@pytest.mark.parametrize(
    "value,k,expected",
    [
        (1, 1, 1), (16, 4, 2), (81, 4, 3), (82, 4, 4), (24, 2, 5), (25, 2, 5), (26, 2, 6),
        # exact powers past float precision: a float root alone is off here
        ((10**20 + 12345) ** 2, 2, 10**20 + 12345),
        ((10**25 + 99) ** 2, 2, 10**25 + 99),
        ((10**25 + 99) ** 2 + 1, 2, 10**25 + 100),
        ((10**25 + 99) ** 3, 3, 10**25 + 99),
        ((10**25 + 99) ** 3 - 1, 3, 10**25 + 99),
    ],
)
def test_ceil_nth_root_frozen(value, k, expected):
    assert ceil_nth_root(value, k) == expected


@given(st.integers(1, 10**9), st.integers(1, 8))
def test_ceil_nth_root_is_minimal(value, k):
    c = ceil_nth_root(value, k)
    assert c**k >= value
    assert c == 1 or (c - 1) ** k < value


def test_ceil_nth_root_minimal_near_large_powers():
    "Values within a few units of a k-th power, up to 10^300, k <= 6."
    rng = random.Random(61)
    for _ in range(3000):
        k = rng.randrange(1, 7)
        base = rng.randrange(2, 10 ** rng.randrange(1, 300 // k + 1) + 2)
        value = base**k + rng.randrange(-3, 4)
        c = ceil_nth_root(value, k)
        assert c**k >= value and (c - 1) ** k < value, (value, k)


@pytest.mark.parametrize(
    "coeffs,x,expected",
    [
        ((4, 4), 1, 3),
        ((0, 0), 3, 0),
        ((1, 0), 2, 2),
        ((0, 1), 4, 1),
    ],
)
def test_poly_eval_frozen(coeffs, x, expected):
    assert poly_eval(coeffs, x, P5) == expected


def test_poly_eval_reduces_x():
    # x is taken mod 5, so points 1 and 6 agree
    assert poly_eval((2, 3), 6, P5) == poly_eval((2, 3), 1, P5)


@pytest.mark.parametrize(
    "coeffs,expected", [((0, 0), 0), ((1, 0), 5), ((4, 4), 24), ((1, 2), 7)]
)
def test_coeffs_to_index_frozen(coeffs, expected):
    assert coeffs_to_index(coeffs, P5) == expected


@pytest.mark.parametrize(
    "index,t,expected", [(0, 2, (0, 0)), (5, 2, (1, 0)), (24, 2, (4, 4)), (7, 2, (1, 2))]
)
def test_index_to_coeffs_frozen(index, t, expected):
    assert index_to_coeffs(index, t, P5) == expected


@pytest.mark.parametrize("t", [1, 2, 3])
def test_index_coeffs_roundtrip_exhaustive(t):
    for i in range(5**t):
        coeffs = index_to_coeffs(i, t, P5)
        assert len(coeffs) == t
        assert all(0 <= a < 5 for a in coeffs)
        assert coeffs_to_index(coeffs, P5) == i


def test_base_digits_frozen():
    assert base_digits(7, 2, P5) == (1, 2)
    assert base_digits(0, 3, P5) == (0, 0, 0)
    assert base_digits(24, 2, P5) == (4, 4)


def test_base_digits_reconstructs():
    for ell in range(125):
        digits = base_digits(ell, 3, P5)
        assert sum(c * 5**k for c, k in zip(digits, (2, 1, 0))) == ell


def test_base_digits_range_checked():
    with pytest.raises(ValueError):
        base_digits(25, 2, P5)
    with pytest.raises(ValueError):
        base_digits(-1, 2, P5)


def test_interpolate_frozen():
    assert interpolate_coeffs([(1, 3), (2, 2)], 2, P5) == (4, 4)
    assert interpolate_coeffs([(1, 0), (2, 0)], 2, P5) == (0, 0)
    assert interpolate_coeffs([(1, 1), (2, 2), (3, 3)], 3, P5) == (0, 1, 0)


def test_interpolate_rejects_bad_points():
    with pytest.raises(ValueError):
        interpolate_coeffs([(1, 3)], 2, P5)  # wrong count
    with pytest.raises(ValueError):
        interpolate_coeffs([(1, 3), (6, 2)], 2, P5)  # 6 == 1 mod 5


@settings(max_examples=300)
@given(st.data())
def test_interpolate_inverts_evaluation(data):
    "Evaluating then interpolating at any distinct points is identity."
    p = FieldPrime(data.draw(st.sampled_from([5, 7, 11])))
    t = data.draw(st.integers(1, min(4, p.modulus - 1)))
    coeffs = tuple(
        data.draw(st.integers(0, p.modulus - 1)) for _ in range(t)
    )
    xs = data.draw(
        st.lists(
            st.integers(1, p.modulus - 1), min_size=t, max_size=t, unique=True
        )
    )
    points = [(x, poly_eval(coeffs, x, p)) for x in xs]
    assert interpolate_coeffs(points, t, p) == coeffs
