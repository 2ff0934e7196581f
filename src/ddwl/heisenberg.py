"""The Heisenberg group of 3x3 upper unitriangular matrices over GF(q).

A matrix is fixed by the triple (x, y, z) of its free entries; the matrix
product gives

    (x1, y1, z1) * (x2, y2, z2) = (x1 + x2, y1 + y2, z1 + z2 + x1*y2)
    (x, y, z)**-1               = (-x, -y, x*y - z)

The group has q**3 elements and its center Z = {(0, 0, z)} has q; the pair
(x, y) fixes the right coset of Z containing g.  An element is its vertex
index, which `GroupTable.vertex` fixes for every digraph in this package,
and no other module computes:

    vertex(x, y, z) = index(x) * q**2 + index(y) * q + index(z)

so v lies in the center coset v // q, the center is v < q, and
`element_to_json` reads the triple back.  Each map the checks use fixes Z:
(x, y, z) -> (x'(x, y), y'(x, y), shift(x, y) + c*z).  `coset_affine`, the
one routine that makes the vertices of a map, takes x', y' and shift on the
q x q coset grid `grid`, and c; `Construction.build_X` packs a set.

GroupTable holds the inverses, center and coset ids, and the q**3 x q**3
multiplication table `mult`, built on first read, so a check that reads
only the field builds no n**2 array.  `mult` holds vertices at
`arith.code_dtype(n)`, the width of every vertex array: uint16 while
n <= 2**16 (every q <= 37), uint32 beyond.  It is read off the q x q field
tables over the axes (x1, y1, z1, x2, y2, z2): the coset part
(x1 + x2)*q**2 + (y1 + y2)*q and the z part z1 + z2 + x1*y2, each of q**4
entries, are added straight into the narrow table, so no other n**2-sized
array exists.  Its readers only index, compare and gather, so the width
changes no value, and adjacency matrices are bit-exact across runs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .arith import code_dtype
from .digraph import orbit_mask
from .gf import Field


class GroupTable:
    """Indexed H3(q) with vectorised multiplication and inverse tables."""

    def __init__(self, field: Field):
        q, n = field.q, field.q**3
        self.field, self.q, self.n = field, q, n
        self.identity = 0

        self.grid = np.indices((q, q), dtype=np.int32)  # (x, y) of coset x*q + y
        self.grid.setflags(write=False)
        self.inv = self.quotients([self.identity])[0]
        self._right: tuple[np.ndarray, ...] | None = None
        self.center_mask = np.arange(n) < q
        self.coset_ids = np.arange(n, dtype=np.int32) // q

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

    def coset_affine(self, x2, y2, shift, scale) -> np.ndarray:
        """The vertex of (x2, y2, shift + scale*z) for every vertex (x, y, z),
        with x2, y2 and shift given per center coset as q x q index arrays
        over `grid` (or scalars): a map of that shape is evaluated on the
        q**2 cosets and broadcast once over z, one lookup of n entries.  For
        a batch of maps, scale is an array of shape (m,), x2, y2 and shift
        are (m, q, q) and the result is (m, n)."""
        f, q, lead = self.field, self.q, np.shape(scale)
        x2, y2, shift = (np.asarray(a)[..., None] for a in (x2, y2, shift))  # broadcast over z
        z = f.mul(np.reshape(scale, lead + (1, 1, 1)), np.arange(q, dtype=np.int32))
        return self.vertex(x2, y2, f.add(shift, z)).reshape(lead + (-1,))

    def quotients(self, z) -> np.ndarray:
        """Row k of the (len(z), n) result is v -> z[k] * v**-1: for z[k] =
        (a, b, c) and v = (x, y, w) it is (a - x, b - y, c + (x - a)*y - w),
        one `coset_affine` description per z[k].  At z = [e] it is `inv`."""
        f, (x, y) = self.field, self.grid
        z = np.asarray(z, dtype=np.int32)[:, None, None]
        a, b, c = (z // self.q**k % self.q for k in (2, 1, 0))
        shift = f.add(c, f.mul(f.sub(x, a), y))
        return self.coset_affine(f.sub(a, x), f.sub(b, y), shift, f.neg(np.ones(len(z), int)))

    def right_translations(self) -> tuple[np.ndarray, ...]:
        """The vertex permutations u -> u * h for h = (t**k, 0, 0) and then
        (0, t**k, 0), k < l, with t the field's generator over GF(p), from the
        closed form (x, y, z) * (hx, hy, 0) = (x + hx, y + hy, z + x * hy).
        The 2l elements h generate H3(q), so the translations act transitively.
        Built on the first call and kept read-only, like `grid`: every caller
        gets the same tuple."""
        if self._right is None:
            f, (x, y) = self.field, self.grid
            powers = [f.p**k for k in range(f.l)]  # the indices of t**k
            maps = [m for tk in powers for m in ((f.add(x, tk), y, 0), (x, f.add(y, tk), f.mul(x, tk)))]
            self._right = tuple(self.coset_affine(*m, f.one) for m in maps)
            for s in self._right:
                s.setflags(write=False)
        return self._right

    def translations_generate(self) -> bool:
        """True iff each s of `right_translations()` is u -> u * h on `mult`,
        its column h = s(e), and together they reach every vertex from e:
        every element is then a left-nested product (...(e h1) h2 ...) hk of
        the 2l elements h, so they generate the table's magma."""
        steps = self.right_translations()
        columns = all(np.array_equal(s, self.mult[:, s[self.identity]]) for s in steps)
        return columns and bool(orbit_mask(self.identity, steps, self.n).all())

    def element_to_json(self, v: int) -> list[int]:
        return [*divmod(int(v) // self.q, self.q), int(v) % self.q]

    def __repr__(self) -> str:
        return f"GroupTable(H3({self.q}), n={self.n})"
