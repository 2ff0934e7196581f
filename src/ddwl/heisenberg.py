"""The Heisenberg group of 3x3 upper unitriangular matrices over GF(q).

An element is the triple (x, y, z) of free entries; the matrix product gives

    (x1, y1, z1) * (x2, y2, z2) = (x1 + x2, y1 + y2, z1 + z2 + x1*y2)
    (x, y, z)**-1               = (-x, -y, x*y - z)

The group has q**3 elements, its center Z = {(0, 0, z)} has q elements, and
the right coset of Z containing g is determined by the pair (x, y).

GroupTable fixes the vertex indexing used by every digraph in this package:

    vertex(x, y, z) = index(x) * q**2 + index(y) * q + index(z)

and precomputes the q**3 x q**3 multiplication table plus inverses, center
and coset ids, so adjacency matrices are bit-exact across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field, FieldElement

MAX_VERTICES_DEFAULT = 1331  # 11**3; the largest group the tables will hold


@dataclass(frozen=True)
class GroupElement:
    x: FieldElement
    y: FieldElement
    z: FieldElement

    @property
    def field(self) -> Field:
        return self.x.field

    def __repr__(self) -> str:
        return f"GroupElement({self.x.index}, {self.y.index}, {self.z.index})"


def _common_field(a: GroupElement, b: GroupElement) -> Field:
    if a.field is not b.field:
        raise ValueError("operands come from different fields")
    return a.field


def g_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    f = _common_field(a, b)
    x = f.add(a.x.index, b.x.index)
    y = f.add(a.y.index, b.y.index)
    z = f.add(f.add(a.z.index, b.z.index), f.mul(a.x.index, b.y.index))
    return GroupElement(f.element(x), f.element(y), f.element(z))


def g_inv(a: GroupElement) -> GroupElement:
    f = a.field
    x = f.neg(a.x.index)
    y = f.neg(a.y.index)
    z = f.sub(f.mul(a.x.index, a.y.index), a.z.index)
    return GroupElement(f.element(x), f.element(y), f.element(z))


def is_central(a: GroupElement) -> bool:
    return a.x.index == 0 and a.y.index == 0


def coset_id(a: GroupElement) -> int:
    """Index of the coset Z*a; equal for a, b iff their (x, y) parts agree."""
    return a.x.index * a.field.q + a.y.index


def center(table: "GroupTable") -> list[GroupElement]:
    return [table.element(v) for v in np.flatnonzero(table.center_mask)]


class GroupTable:
    """Indexed H3(q) with vectorised multiplication and inverse tables."""

    def __init__(self, field: Field, max_vertices: int = MAX_VERTICES_DEFAULT):
        q = field.q
        n = q**3
        if n > max_vertices:
            raise ValueError(f"|G| = {n} exceeds the vertex cap {max_vertices}")
        self.field = field
        self.q, self.n = q, n
        self.identity = 0

        v = np.arange(n, dtype=np.int64)
        self.ix = (v // (q * q)).astype(np.int32)
        self.iy = ((v // q) % q).astype(np.int32)
        self.iz = (v % q).astype(np.int32)

        f = field
        xu, yu, zu = self.ix[:, None], self.iy[:, None], self.iz[:, None]
        xv, yv, zv = self.ix[None, :], self.iy[None, :], self.iz[None, :]
        zz = f.add(f.add(zu, zv), f.mul(xu, yv))
        self.mult = self._pack(f.add(xu, xv), f.add(yu, yv), zz)

        self.inv = self._pack(
            f.neg(self.ix), f.neg(self.iy), f.sub(f.mul(self.ix, self.iy), self.iz)
        )

        self.center_mask = (self.ix == 0) & (self.iy == 0)
        self.coset_ids = (self.ix.astype(np.int64) * q + self.iy).astype(np.int32)

    def _pack(self, ix, iy, iz) -> np.ndarray:
        q = self.q
        return (ix.astype(np.int64) * q * q + iy.astype(np.int64) * q + iz).astype(np.int32)

    def vertex_index(self, g: GroupElement) -> int:
        return g.x.index * self.q**2 + g.y.index * self.q + g.z.index

    def element(self, v: int) -> GroupElement:
        f = self.field
        return GroupElement(
            f.element(int(self.ix[v])), f.element(int(self.iy[v])), f.element(int(self.iz[v]))
        )

    def element_to_json(self, v: int) -> list[int]:
        return [int(self.ix[v]), int(self.iy[v]), int(self.iz[v])]

    def __repr__(self) -> str:
        return f"GroupTable(H3({self.q}), n={self.n})"
