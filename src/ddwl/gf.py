"""Arithmetic in GF(q) for odd prime powers q = p**l.

Elements are polynomials of degree < l over GF(p), reduced by a fixed monic
irreducible modulus.  The modulus is canonical: among all monic irreducible
polynomials of degree l, the one whose coefficient tuple (c0, ..., c_{l-1})
is lexicographically smallest.  For l = 1 this is the polynomial t.

Every element carries an integer index

    index(a) = sum(coeffs[k] * p**k)

which is a bijection onto [0, q).  An element is its index: all arithmetic
is table driven on indices, so the group and digraph layers stay fully
vectorised, and row a of `coeff_rows` holds the coefficients of a.

Squareness is decided by exponentiation, a**((q-1)/2) in {0, 1}, not by a
table, so one code path serves every supported q.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arith import prime_power

MAX_Q = 729  # 3**6; keeps every table at desk scale


@dataclass(frozen=True)
class FieldSpec:
    """Shape of the field: characteristic, degree, canonical monic modulus.

    The modulus tuple has length l + 1 and ends with the leading 1.
    """

    p: int
    l: int
    modulus: tuple[int, ...]


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over GF(p); b monic, coefficient lists low-to-high."""
    a = a[:]
    db, da = len(b) - 1, len(a) - 1
    while da >= db:
        c = a[da] % p
        if c:
            for k in range(db + 1):
                a[da - db + k] = (a[da - db + k] - c * b[k]) % p
        da -= 1
        a.pop()
    return a


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(poly)//2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by t
        return False
    for d in range(1, deg // 2 + 1):
        for tail in np.ndindex(*([p] * d)):
            divisor = list(tail) + [1]
            rem = _poly_mod(list(poly), divisor, p)
            if not any(rem):
                return False
    return True


def _canonical_modulus(p: int, l: int) -> tuple[int, ...]:
    for tail in np.ndindex(*([p] * l)):
        cand = tuple(int(c) for c in tail) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible modulus found")  # impossible for prime p


class Field:
    """GF(q) with index-level operation tables.

    add/sub/mul/neg accept plain ints or integer ndarrays of indices and
    return the same shape; inv and pow are scalar.
    """

    def __init__(self, spec: FieldSpec):
        p, l = spec.p, spec.l
        q = p**l
        self.spec = spec
        self.p, self.l, self.q = p, l, q

        powers = p ** np.arange(l, dtype=np.int64)
        coeffs = np.zeros((q, l), dtype=np.int64)
        v = np.arange(q, dtype=np.int64)
        for k in range(l):
            coeffs[:, k] = v % p
            v //= p
        self.coeff_rows = coeffs

        self.add_t = (((coeffs[:, None, :] + coeffs[None, :, :]) % p) @ powers).astype(np.int32)
        self.neg_t = (((p - coeffs) % p) @ powers).astype(np.int32)
        self.sub_t = self.add_t[:, self.neg_t]

        # t**m mod modulus for m in [0, 2l-2], one row per power
        red = np.zeros((2 * l - 1, l), dtype=np.int64)
        top = np.array([(-c) % p for c in spec.modulus[:l]], dtype=np.int64)
        for m in range(l):
            red[m, m] = 1
        for m in range(l, 2 * l - 1):
            prev = red[m - 1]
            shifted = np.concatenate(([0], prev[:-1]))
            red[m] = (shifted + prev[l - 1] * top) % p

        conv = np.zeros((q, q, 2 * l - 1), dtype=np.int64)
        for i in range(l):
            for j in range(l):
                conv[:, :, i + j] += coeffs[:, None, i] * coeffs[None, :, j]
        prod = (conv.reshape(q * q, 2 * l - 1) @ red) % p
        self.mul_t = (prod @ powers).reshape(q, q).astype(np.int32)

        self.inv_t = np.full(q, -1, dtype=np.int32)
        rows, cols = np.nonzero(self.mul_t == 1)
        self.inv_t[rows] = cols

        self.zero, self.one = 0, 1
        self._nonsquare: int | None = None

    # -- index-level operations -------------------------------------------

    def add(self, a, b):
        return self.add_t[a, b]

    def sub(self, a, b):
        return self.sub_t[a, b]

    def mul(self, a, b):
        return self.mul_t[a, b]

    def neg(self, a):
        return self.neg_t[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.inv_t[a])

    def pow(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = int(self.mul_t[result, base])
            base = int(self.mul_t[base, base])
            e >>= 1
        return result

    def from_int(self, c: int) -> int:
        """Index of c * 1, the image of the integer c in the field."""
        return c % self.p

    def is_square(self, a: int) -> bool:
        if a == 0:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def nonsquare(self) -> int:
        """The nonsquare of smallest index; q odd guarantees existence."""
        if self._nonsquare is None:
            self._nonsquare = next(a for a in range(self.q) if not self.is_square(a))
        return self._nonsquare

    def to_json(self) -> dict:
        return {"p": self.p, "l": self.l, "modulus": list(self.spec.modulus[: self.l])}

    def __repr__(self) -> str:
        return f"Field(q={self.q}, p={self.p}, l={self.l}, modulus={self.spec.modulus})"


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, l: int) -> Field:
    return Field(FieldSpec(p, l, _canonical_modulus(p, l)))


def field_create(p: int, l: int) -> Field:
    """Build GF(p**l) with the canonical modulus.

    p must be an odd prime, l >= 1, and p**l must not exceed MAX_Q.
    """
    if p == 2:
        raise ValueError("q must be odd")
    if prime_power(p) != (p, 1):
        raise ValueError(f"{p} is not prime")
    if l < 1:
        raise ValueError("extension degree must be >= 1")
    if p**l > MAX_Q:
        raise ValueError(f"q = {p**l} exceeds the size cap {MAX_Q}")
    return _field_cached(p, l)

