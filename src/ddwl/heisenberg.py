"""The Heisenberg group of 3x3 upper unitriangular matrices over GF(q).

A matrix is fixed by the triple (x, y, z) of its free entries; the matrix
product gives

    (x1, y1, z1) * (x2, y2, z2) = (x1 + x2, y1 + y2, z1 + z2 + x1*y2)
    (x, y, z)**-1               = (-x, -y, x*y - z)

The group has q**3 elements, its center Z = {(0, 0, z)} has q elements, and
the right coset of Z containing g is determined by the pair (x, y).

An element is its vertex index, which `GroupTable.vertex` fixes for every
digraph in this package, and no other module computes:

    vertex(x, y, z) = index(x) * q**2 + index(y) * q + index(z)

`element_to_json` reads the triple back.  GroupTable holds the inverses,
center and coset ids, and the q**3 x q**3 multiplication table `mult`,
built on first read, so a check that reads only the field builds no n**2
array.  `mult` holds vertices at `arith.code_dtype(n)`, the width of every
vertex array: uint16 while n <= 2**16 (every q <= 37), uint32 beyond.  It
is read off the q x q field tables over the axes (x1, y1, z1, x2, y2, z2):
the coset part (x1 + x2)*q**2 + (y1 + y2)*q and the z part
z1 + z2 + x1*y2, each of q**4 entries, are added straight into the narrow
table, so no other n**2-sized array exists.  Its readers only index,
compare and gather, so the width changes no value, and adjacency matrices
are bit-exact across runs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .arith import code_dtype
from .gf import Field


class GroupTable:
    """Indexed H3(q) with vectorised multiplication and inverse tables."""

    def __init__(self, field: Field):
        q = field.q
        n = q**3
        self.field = field
        self.q, self.n = q, n
        self.identity = 0

        self.ix, self.iy, self.iz = np.indices((q, q, q), dtype=np.int32).reshape(3, n)
        self.inv = self.inverse(np.arange(n))
        self.center_mask = (self.ix == 0) & (self.iy == 0)
        self.coset_ids = self.ix * q + self.iy

    @cached_property
    def mult(self) -> np.ndarray:
        """mult[u, v] = u * v, an (n, n) array at `code_dtype(n)`, built on
        first read and kept."""
        q, n, add, mul = self.q, self.n, self.field.add_t, self.field.mul_t
        x1, y1, z1, x2, y2, z2 = np.ix_(*[np.arange(q)] * 6)  # lookups of <= q**4 entries
        table = np.empty((n, n), dtype=code_dtype(n))
        coset = (add[x1, x2] * q + add[y1, y2]) * q
        # int32 sums below n, cast to the table's width one buffer at a time
        np.add(coset, add[add[z1, z2], mul[x1, y2]], out=table.reshape((q,) * 6), casting="unsafe")
        return table

    def vertex(self, ix, iy, iz) -> np.ndarray:
        """Vertex indices (x*q + y)*q + z of int32 index arrays, in int32: q**3 < 2**31."""
        q = self.q
        return (ix * q + iy) * q + iz

    def inverse(self, v: np.ndarray) -> np.ndarray:
        """The vertices of the inverses of the vertices v, from the closed form
        (x, y, z)**-1 = (-x, -y, x*y - z), never from `inv`."""
        f, x, y, z = self.field, self.ix[v], self.iy[v], self.iz[v]
        return self.vertex(f.neg(x), f.neg(y), f.sub(f.mul(x, y), z))

    def coset_affine(self, x2, y2, shift, scale) -> np.ndarray:
        """The vertex of (x2, y2, shift + scale*z) for every vertex (x, y, z),
        with x2, y2 and shift given per center coset as q x q index arrays
        over (x, y): a map of that shape is evaluated on the q**2 cosets and
        broadcast once over z, one lookup of n entries.  For a batch of maps,
        scale is an array of shape (m,), x2, y2 and shift are (m, q, q) and
        the result is (m, n)."""
        f, q, lead = self.field, self.q, np.shape(scale)
        cosets = lead + (q * q, 1)
        z = f.mul(np.reshape(scale, lead + (1, 1)), np.arange(q, dtype=np.int32))
        z2 = f.add(np.reshape(shift, cosets), z)
        vertices = self.vertex(np.reshape(x2, cosets), np.reshape(y2, cosets), z2)
        return vertices.reshape(lead + (-1,))

    def right_translations(self) -> tuple[np.ndarray, ...]:
        """The vertex permutations u -> u * h for h = (t**k, 0, 0) and then
        (0, t**k, 0), k < l, with t the field's generator over GF(p), from the
        closed form (x, y, z) * (hx, hy, 0) = (x + hx, y + hy, z + x * hy).
        The 2l elements h generate H3(q), so the translations act transitively."""
        f = self.field
        out = []
        for k in range(f.l):
            tk = f.p**k  # the index of t**k
            out.append(self.vertex(f.add(self.ix, tk), self.iy, self.iz))
            out.append(self.vertex(self.ix, f.add(self.iy, tk), f.add(self.iz, f.mul(self.ix, tk))))
        return tuple(out)

    def element_to_json(self, v: int) -> list[int]:
        return [int(self.ix[v]), int(self.iy[v]), int(self.iz[v])]

    def __repr__(self) -> str:
        return f"GroupTable(H3({self.q}), n={self.n})"
