"""Prime-field polynomial helpers.

A coefficient vector (a_1, ..., a_t) stands for the polynomial
P(x) = a_1 x^(t-1) + a_2 x^(t-2) + ... + a_t over GF(modulus).  Its
index is the integer whose base-modulus digits are a_1 ... a_t, so
vectors and integers in [0, modulus^t) convert back and forth exactly.
All arithmetic is on plain Python ints and never wraps.

Field primes are tested and found in time polynomial in their digit
count (Miller-Rabin, and BPSW above its proven bound), so a scheme on
10^300 nodes is sized in milliseconds.
"""

from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import isqrt
from operator import mul

from .lattice import Record, set_field


# Deterministic Miller-Rabin to the first 13 prime bases is exact below
# this bound (Sorenson and Webster 2015); the bound itself is the least
# strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, in time polynomial in its digit count.

    After division by the primes up to 41: below _MR_BOUND, deterministic
    Miller-Rabin to those 13 bases, which is proven exact there; at or
    above it, BPSW, which has no known counterexample (it is verified
    exact for every n < 2^64)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _bpsw(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat test of odd n > a to base a."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _bpsw(n: int) -> bool:
    """Baillie-PSW for odd n > 41: a strong base-2 test, then a strong
    Lucas test with Selfridge's parameters."""
    if not _strong_probable_prime(n, 2) or isqrt(n) ** 2 == n:
        return False
    # Selfridge: the first D in 5, -7, 9, -11, ... with (D/n) = -1, which
    # exists because n is not a square; P = 1 and Q = (1 - D) / 4.  Each D
    # tried is far below n, so (D/n) = 0 means a proper common factor.
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    # n + 1 = d * 2^s with d odd; climb the bits of d to U_d, V_d and Q^d
    # with P = 1, halving mod n by adding n to an odd numerator.
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class FieldPrime(Record):
    """A prime modulus, validated at construction."""

    _fields = ("modulus",)

    def __init__(self, modulus: int) -> None:
        set_field(self, "modulus", modulus)
        if not is_prime(modulus):
            raise ValueError(f"{modulus} is not prime")


def next_prime_above(m: int) -> FieldPrime:
    """Smallest prime strictly greater than m.  The loop has already
    tested the result, so it is built without FieldPrime's own test."""
    n = max(m, 1) + 1
    while not is_prime(n):
        n += 1
    p = object.__new__(FieldPrime)
    set_field(p, "modulus", n)
    return p


def ceil_nth_root(value: int, k: int) -> int:
    """Smallest c >= 1 with c**k >= value.

    That is one more than the floor root f of n = value - 1.  Integer
    Newton starts from 2**ceil(bits / k), where n < 2**bits, so the
    start's k-th power exceeds n and the start lies above f, within a
    factor of two of the true root; each Newton step falls strictly
    until it reaches f.  No float is used, so any int is sized."""
    if k < 1:
        raise ValueError("root degree must be >= 1")
    if value <= 1:
        return 1
    n = value - 1
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x + 1
        x = y


def poly_eval(coeffs: Sequence[int], x: int, p: FieldPrime) -> int:
    """Evaluate the polynomial with the given coefficients at x, mod p."""
    m = p.modulus
    acc = 0
    for a in coeffs:
        acc = (acc * x + a) % m
    return acc


def poly_column(x: int, t: int, p: FieldPrime) -> list[int]:
    """poly_eval(base_digits(i, t, p), x, p) for every index i in
    [0, modulus^t), in index order.

    Horner's rule one coefficient at a time across all indices: after k
    passes the list holds modulus^k entries, entry i being the value at
    x of the k-digit coefficient vector of i.  The next pass extends
    each entry v by every next digit a in turn, which keeps index order.
    Those m values (v * x + a) % m for a = 0, 1, ... are range(m)
    rotated to start at s = v * x % m, so each entry is extended by one
    slice ring[s : s + m] of range(m) laid out twice: one modular step
    per entry, not per entry and digit."""
    m = p.modulus
    ring = [*range(m)] * 2
    values = [0]
    for _ in range(t):
        extended = []
        for v in values:
            s = v * x % m
            extended += ring[s : s + m]
        values = extended
    return values


def coeffs_to_index(coeffs: Sequence[int], p: FieldPrime) -> int:
    """Pack a coefficient vector into its lexicographic index."""
    m = p.modulus
    acc = 0
    for a in coeffs:
        if not 0 <= a < m:
            raise ValueError(f"coefficient {a} outside [0, {m})")
        acc = acc * m + a
    return acc


def base_digits(value: int, t: int, p: FieldPrime) -> tuple[int, ...]:
    """Big-endian base-modulus digits of value, zero-padded to t digits:
    the coefficient vector of index value, the inverse of coeffs_to_index."""
    m = p.modulus
    if not 0 <= value < m**t:
        raise ValueError(f"{value} does not fit in {t} base-{m} digits")
    digits = [0] * t
    for k in range(t - 1, -1, -1):
        value, digits[k] = divmod(value, m)
    return tuple(digits)


def interpolate_coeffs(
    points: Iterable[tuple[int, int]], t: int, p: FieldPrime
) -> tuple[int, ...]:
    """Coefficients of the unique degree-<t polynomial through t points.

    points are (x, value) pairs whose x are distinct mod p.  The result,
    highest power first and zero-padded to length t, is the values' dot
    products with the rows of _lagrange_basis, cached per (p, x mod p)."""
    pts = list(points)
    m = p.modulus
    if len(pts) != t:
        raise ValueError(f"need exactly {t} points, got {len(pts)}")
    xs = tuple(x % m for x, _ in pts)
    if len(set(xs)) != t:
        raise ValueError("interpolation points collide mod modulus")
    values = [v for _, v in pts]
    return tuple(sum(map(mul, row, values)) % m for row in _lagrange_basis(m, xs))


@lru_cache(maxsize=1024)  # one modulus's 924 subsets at d <= 6; past that, bases rebuild
def _lagrange_basis(m: int, xs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Inverse Vandermonde matrix at the distinct points xs mod prime m,
    one row per power of x, highest first."""
    columns = []
    for l, xl in enumerate(xs):
        basis, denom = [1], 1  # prod over j != l of (x - xs[j]), ascending
        for j, xj in enumerate(xs):
            if j != l:
                basis = [(a - xj * b) % m for a, b in zip([0] + basis, basis + [0])]
                denom = denom * (xl - xj) % m
        inverse = pow(denom, m - 2, m)
        columns.append([c * inverse % m for c in basis])
    return tuple(zip(*columns))[::-1]
