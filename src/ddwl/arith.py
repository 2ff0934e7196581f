"""Small number-theoretic helpers: prime-power shape (n is prime exactly
when it is (n, 1)) and Euler phi; and the width rules: `code_dtype` for
arrays of vertices and codes, `tensor_dtype` for intersection-tensor rows."""

from __future__ import annotations

import numpy as np


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, l) with n = p**l and p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            l, m = 0, n
            while m % p == 0:
                m //= p
                l += 1
            return (p, l) if m == 1 else None
        p += 1
    return (n, 1)


def euler_phi(n: int) -> int:
    """Number of integers in [1, n] coprime to n."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def code_dtype(limit: int) -> np.dtype:
    """The width that holds the values 0..limit-1: uint16 while
    limit <= 2**16, uint32 while limit <= 2**32, int64 beyond.  On
    nonnegative values each orders rows as int64 does.  Vertex arrays (the
    product table, the out-neighbour lists) use code_dtype(n), and the
    refinement and search keys code_dtype of their code count."""
    for dtype in (np.uint16, np.uint32):
        if limit <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def tensor_dtype(rank: int, n: int) -> np.dtype:
    """The one width of a tensor's (r, s, t, count) rows on n vertices:
    `code_dtype(max(rank, n + 1))` holds every color and every count."""
    return code_dtype(max(rank, n + 1))
