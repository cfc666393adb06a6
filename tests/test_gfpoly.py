"""Field arithmetic, index codecs, and interpolation."""

import itertools
import random
from math import isqrt

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from latticeobs import gfpoly
from latticeobs.gfpoly import (
    FieldPrime,
    _bpsw,
    base_digits,
    ceil_nth_root,
    coeffs_to_index,
    interpolate_coeffs,
    is_prime,
    next_prime_above,
    poly_column,
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


def _sieve(limit):
    "Primality flags for 0 <= n < limit, by the sieve of Eratosthenes."
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for q in range(2, isqrt(limit - 1) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, limit, q)))
    return flags


def test_is_prime_matches_sieve_below_a_million():
    flags = _sieve(10**6)
    assert [n for n in range(10**6) if is_prime(n)] == [n for n in range(10**6) if flags[n]]


def test_bpsw_matches_sieve():
    "The test used above the deterministic bound, run on small odd n."
    flags = _sieve(10**5)
    for n in range(43, 10**5, 2):
        assert _bpsw(n) == bool(flags[n]), n


MR_BOUND = 3317044064679887385961981


@pytest.mark.parametrize(
    "n",
    [
        # least strong pseudoprimes to the first k prime bases, k = 1 ... 13;
        # the last one is the deterministic bound and goes to BPSW
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461, MR_BOUND,
        # Carmichael numbers
        561, 41041, 825265,
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


def _strong_probable_prime_base_2(n):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_lucas_step_rejects_base_2_pseudoprime_above_bound():
    "A Carmichael number above the bound that passes the base-2 step."
    k = 13682706
    n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    assert n > MR_BOUND and _strong_probable_prime_base_2(n)
    assert not is_prime(n)


@pytest.mark.parametrize("e", [89, 127, 521])
def test_mersenne_primes_above_bound(e):
    assert 2**e - 1 > MR_BOUND
    assert is_prime(2**e - 1)


def test_mersenne_composite_below_bound():
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


# primes: 2^89 - 1, 2^127 - 1, 10^13 + 37, 10^13 + 51
@pytest.mark.parametrize(
    "n",
    [
        2**257 - 1,
        (2**89 - 1) ** 2,
        (2**127 - 1) ** 2,
        (10**13 + 37) ** 2,
        (10**13 + 37) * (10**13 + 51),
        (10**13 + 51) * (2**89 - 1),
    ],
)
def test_composites_above_bound(n):
    assert n > MR_BOUND
    assert not is_prime(n)


def test_next_prime_above_10_to_18():
    assert next_prime_above(10**18).modulus == 10**18 + 3


def test_next_prime_above_tests_each_candidate_once(monkeypatch):
    "10^18 + 1, + 2 and + 3 are each tested once; the result is not retested."
    tested = []

    def counting(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(gfpoly, "is_prime", counting)
    p = next_prime_above(10**18)
    assert tested == [10**18 + 1, 10**18 + 2, 10**18 + 3]
    assert p == FieldPrime(10**18 + 3)
    assert hash(p) == hash(FieldPrime(10**18 + 3))
    assert repr(p) == "FieldPrime(modulus=1000000000000000003)"


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
        # past any float (about 10^308): the Newton seed is a power of two
        ((10**400 + 7) ** 2, 2, 10**400 + 7),
        ((10**400 + 7) ** 2 + 1, 2, 10**400 + 8),
        ((10**200 + 3) ** 5 - 1, 5, 10**200 + 3),
        (10**331 + 5, 1, 10**331 + 5),
        (2**1100, 1, 2**1100),
        (2**1100 + 1, 4, 2**275 + 1),
    ],
)
def test_ceil_nth_root_frozen(value, k, expected):
    assert ceil_nth_root(value, k) == expected


def test_ceil_nth_root_rejects_degree_zero():
    with pytest.raises(ValueError, match="root degree must be >= 1"):
        ceil_nth_root(8, 0)


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
    "t,modulus",
    [(t, m) for t in (1, 2, 3, 4) for m in (2, 3, 5, 7, 11, 13) if t <= 3 or m <= 7],
)
def test_poly_column_matches_poly_eval_exhaustive(t, modulus):
    """Every row's entry, at every x in 0..2p: x = 0 and x >= p included.
    At t >= 2 each x coprime to p rotates the column's slices by every
    offset 0..p - 1."""
    p = FieldPrime(modulus)
    for x in range(2 * modulus + 1):
        assert poly_column(x, t, p) == [
            poly_eval(base_digits(i, t, p), x, p) for i in range(modulus**t)
        ], x


@pytest.mark.parametrize(
    "coeffs,expected", [((0, 0), 0), ((1, 0), 5), ((4, 4), 24), ((1, 2), 7)]
)
def test_coeffs_to_index_frozen(coeffs, expected):
    assert coeffs_to_index(coeffs, P5) == expected


@pytest.mark.parametrize(
    "index,t,expected", [(0, 2, (0, 0)), (5, 2, (1, 0)), (24, 2, (4, 4)), (7, 2, (1, 2))]
)
def test_index_to_coeffs_frozen(index, t, expected):
    assert base_digits(index, t, P5) == expected


@pytest.mark.parametrize("t", [1, 2, 3])
def test_index_coeffs_roundtrip_exhaustive(t):
    for i in range(5**t):
        coeffs = base_digits(i, t, P5)
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
    # the inverse codec checks each coefficient the same way
    with pytest.raises(ValueError, match=r"coefficient 5 outside \[0, 5\)"):
        coeffs_to_index((5,), P5)


def test_interpolate_frozen():
    assert interpolate_coeffs([(1, 3), (2, 2)], 2, P5) == (4, 4)
    assert interpolate_coeffs([(1, 0), (2, 0)], 2, P5) == (0, 0)
    assert interpolate_coeffs([(1, 1), (2, 2), (3, 3)], 3, P5) == (0, 1, 0)


def test_interpolate_rejects_bad_points():
    "Checked before the basis cache is read, so a warm cache still refuses."
    assert interpolate_coeffs([(1, 3), (2, 2)], 2, P5) == (4, 4)
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


def lagrange_reference(points, t, p):
    "From-scratch Lagrange interpolation: a fresh basis and an inversion per point."
    m = p.modulus
    xs = [x % m for x, _ in points]
    asc = [0] * t
    for l, (_, v) in enumerate(points):
        basis, denom = [1], 1
        for j, xj in enumerate(xs):
            if j != l:
                scaled = [c * (m - xj) % m for c in basis] + [0]
                basis = [(a + b) % m for a, b in zip([0] + basis, scaled)]
                denom = denom * (xs[l] - xj) % m
        scale = v * pow(denom, m - 2, m) % m
        for k, c in enumerate(basis):
            asc[k] = (asc[k] + scale * c) % m
    return tuple(reversed(asc))


@pytest.mark.parametrize("d", [2, 3])
def test_cached_interpolation_matches_reference(d):
    """Every t-subset of the columns 1..2d, cold and warm, under two
    moduli that share those points: the cache is keyed by the modulus as
    well as by the points reduced mod it."""
    rng = random.Random(d)
    gfpoly._lagrange_basis.cache_clear()
    for t in range(1, 2 * d + 1):
        for combo in itertools.combinations(range(1, 2 * d + 1), t):
            for _ in range(2):
                for p in (FieldPrime(7), FieldPrime(11)):
                    m = p.modulus
                    points = [(x + m * rng.randrange(3), rng.randrange(-m, 2 * m)) for x in combo]
                    assert interpolate_coeffs(points, t, p) == lagrange_reference(points, t, p)
    assert gfpoly._lagrange_basis.cache_info().hits
