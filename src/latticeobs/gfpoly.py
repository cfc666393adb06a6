"""Prime-field polynomial helpers.

A coefficient vector (a_1, ..., a_t) stands for the polynomial
P(x) = a_1 x^(t-1) + a_2 x^(t-2) + ... + a_t over GF(modulus).  Its
index is the integer whose base-modulus digits are a_1 ... a_t, so
vectors and integers in [0, modulus^t) convert back and forth exactly.
All arithmetic is on plain Python ints and never wraps.
"""

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence


def is_prime(n: int) -> bool:
    """Deterministic trial division; meant for small moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldPrime:
    """A prime modulus, validated at construction."""

    modulus: int

    def __post_init__(self) -> None:
        if not is_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime")


def next_prime_above(m: int) -> FieldPrime:
    """Smallest prime strictly greater than m."""
    n = max(m, 1) + 1
    while not is_prime(n):
        n += 1
    return FieldPrime(n)


def ceil_nth_root(value: int, k: int) -> int:
    """Smallest c >= 1 with c**k >= value.

    That is one more than the floor root f of n = value - 1.  A float
    estimate, doubled until its k-th power exceeds n, starts integer
    Newton above f; each Newton step falls strictly until it reaches f,
    and from a start within a factor of two that takes a few steps at
    any size.  A value too large for a float raises OverflowError."""
    if k < 1:
        raise ValueError("root degree must be >= 1")
    if value <= 1:
        return 1
    n = value - 1
    x = int(n ** (1.0 / k)) + 1
    while x**k <= n:
        x *= 2
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
    """Big-endian base-modulus digits of value, zero-padded to t digits."""
    m = p.modulus
    if not 0 <= value < m**t:
        raise ValueError(f"{value} does not fit in {t} base-{m} digits")
    digits = [0] * t
    for k in range(t - 1, -1, -1):
        value, digits[k] = divmod(value, m)
    return tuple(digits)


def index_to_coeffs(index: int, t: int, p: FieldPrime) -> tuple[int, ...]:
    """Inverse of coeffs_to_index."""
    return base_digits(index, t, p)


def interpolate_coeffs(
    points: Iterable[tuple[int, int]], t: int, p: FieldPrime
) -> tuple[int, ...]:
    """Coefficients of the unique degree-<t polynomial through t points.

    points are (x, value) pairs whose x are distinct mod p.  The result
    is highest power first, zero-padded to length t.
    """
    pts = list(points)
    m = p.modulus
    if len(pts) != t:
        raise ValueError(f"need exactly {t} points, got {len(pts)}")
    xs = [x % m for x, _ in pts]
    if len(set(xs)) != t:
        raise ValueError("interpolation points collide mod modulus")
    # Lagrange, accumulated in ascending-power form.
    asc = [0] * t
    for l, (_, v) in enumerate(pts):
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if j == l:
                continue
            shifted = [0] + basis
            scaled = [c * (m - xj) % m for c in basis] + [0]
            basis = [(a + b) % m for a, b in zip(shifted, scaled)]
            denom = denom * (xs[l] - xj) % m
        scale = v * pow(denom, m - 2, m) % m
        for k, c in enumerate(basis):
            asc[k] = (asc[k] + scale * c) % m
    return tuple(reversed(asc))
