"""Group-ring structure over H3(q): basic-set partitions, structure constants
by convolution, closed-form checks, and the power-map algebraic automorphisms.

The partition {e}, Y_0, ..., Y_{q-1}, Z# of the group (cells in that fixed
order) spans a subring of the group ring: the product of two cell indicator
sums expands over cells with nonnegative integer coefficients

    c[X][Y][Z] = #{(x, y) in X x Y : x*y = z},   independent of z in Z.

The independence is proven, not counted.  `SRing.from_construction` takes
the cells that `Construction.k_orbits` proves to be the orbits of K, the
cyclic group of automorphisms whose generator's powers `Construction.build_K`
proves and walks once for those orbits; an automorphism k fixing
every cell carries the pairs (x, y) with x*y = z one to one onto those
with x*y = k(z), so a count over cells is constant on each orbit, the
orbit lemma behind Schur rings (Wielandt, Finite Permutation Groups, ch.
IV; Muzychuk & Ponomarenko, Europ. J. Combin. 30, 2009).  So every count
is made at the least point z of each cell, as #{y : z*y**-1 in X, y in Y}
with z*y**-1 from the closed form `GroupTable.quotients`, not from the
`inv` that the checks test.  A ring without that proof is counted only
where each cell is one point; any other cell raises NotAnSRing.  The
transversal check counts X_i * X_i^-1 the same way: K fixes X_i and
X_i^-1 setwise, so the product is constant on each cell too.

The tensor is checked as the intersection tensor of the partition's Cayley
scheme (one fiber, cell sizes as valencies, inverse cells as converse) by
the routines that check every closure, `coherent.tensor_identities_hold`
and `coherent.verify_algebraic_map`.  A cell bijection sigma is an algebraic
automorphism when it preserves the whole tensor.  The power maps i -> i**m
of the extended index group, m coprime to q + 1, induce such bijections
(tau_hat); each is checked by `coherent.verify_algebraic_map`, and
`isotest.is_induced` searches for a vertex bijection that induces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import tensor_dtype
from .construction import Construction


class NotAnSRing(ValueError):
    pass


@dataclass
class StructureConstantTensor:
    c: np.ndarray                  # (r, r, r) int64, c[X, Y, Z]
    valencies: np.ndarray          # (r,) cell sizes
    converse: np.ndarray           # (r,) cell of elementwise inverses
    names: list[str]

    @property
    def rank(self) -> int:
        return len(self.valencies)

    @property
    def left_fiber(self) -> np.ndarray:
        return np.zeros(self.rank, dtype=np.int64)

    right_fiber = left_fiber

    @property
    def tensor(self) -> np.ndarray:
        """The sorted (r, s, t, count) rows of the nonzero p^Z_XY = c[Y, X, Z]:
        w u^-1 in X and v w^-1 in Y multiply to v u^-1 in Z.  They are held
        at a closure's width, n the group order, the sum of the cell sizes."""
        p = self.c.transpose(1, 0, 2)
        rows = np.argwhere(p)
        narrow = tensor_dtype(self.rank, int(self.valencies.sum()))
        return np.column_stack([rows, p[tuple(rows.T)]]).astype(narrow)

    def to_json(self, q: int) -> dict:
        entries = [
            [int(x), int(y), int(z), int(self.c[x, y, z])]
            for x, y, z in np.argwhere(self.c)
        ]
        return {
            "q": q,
            "cells": [
                {"name": n, "size": int(s)} for n, s in zip(self.names, self.valencies)
            ],
            "constants": entries,
        }


class SRing:
    """An inverse-closed partition of the group with {e} as a cell.
    `cells_are_k_orbits` records whether the cells are proven to be the
    orbits of K, which `from_construction` alone proves."""

    def __init__(self, cons: Construction, cells: list[np.ndarray], names: list[str]):
        self.cons = cons
        self.table = cons.table
        n = cons.n
        self.cells = [np.asarray(c, dtype=np.int64) for c in cells]
        self.names = list(names)
        self.r = len(cells)
        self.cells_are_k_orbits = False

        cell_of = np.full(n, -1, dtype=np.int32)
        for k, members in enumerate(self.cells):
            if not len(members):
                raise NotAnSRing(f"cell {self.names[k]} is empty")
            if (cell_of[members] != -1).any():
                raise NotAnSRing("cells overlap")
            cell_of[members] = k
        if (cell_of == -1).any():
            raise NotAnSRing("cells do not cover the group")
        self.cell_of = cell_of
        self.reps = np.array([members.min() for members in self.cells])   # the least of each cell
        self.rep_quotients = self.table.quotients(self.reps)   # row Z: v -> z * v**-1
        self.sizes = np.array([len(c) for c in self.cells], dtype=np.int64)

        if self.cells[self.cell_of[cons.table.identity]].size != 1:
            raise NotAnSRing("the identity is not a singleton cell")

        inv_cell = np.empty(self.r, dtype=np.int64)
        for k, members in enumerate(self.cells):
            images = cell_of[self.table.inv[members]]
            if (images != images[0]).any():
                raise NotAnSRing(f"cell {self.names[k]} is not inverse-closed")
            inv_cell[k] = images[0]
        self.inv_cell = inv_cell

    @classmethod
    def from_construction(cls, cons: Construction) -> "SRing":
        names = ["e"] + [f"Y_{i}" for i in range(cons.q)] + ["Z#"]
        ring = cls(cons, cons.cells(), names)
        cons.k_orbits()   # raises unless the cells are the orbit partition of K
        ring.cells_are_k_orbits = True
        return ring

    def y_cell(self, i: int) -> int:
        return 1 + i

    @property
    def center_cell(self) -> int:
        return self.r - 1

    def scheme_coloring(self) -> np.ndarray:
        """Pair coloring color(u, v) = cell of v * u**-1, set as color(u, x * u) = cell of x."""
        color = np.empty_like(self.table.mult, dtype=self.cell_of.dtype)
        color[np.arange(self.table.n), self.table.mult] = self.cell_of[:, None]
        return color

    def __repr__(self) -> str:
        return f"SRing(q={self.cons.q}, cells={self.r})"


def _cell_counts(ring: SRing, left: list[np.ndarray], right: list[np.ndarray]) -> np.ndarray:
    """counts[Z, a, b] = #{(u, v) in left[a] x right[b] : u * v = z} at the
    least point z of each cell Z, for two lists of disjoint unions of cells.

    The counts are constant on each cell of a ring whose cells are proven
    K-orbits, and trivially on a cell of one point; a ring with neither
    raises NotAnSRing.  u = z * v**-1 is one gather from `rep_quotients`,
    the closed-form rows `GroupTable.quotients` at the cells' least points,
    and one bincount."""
    if not ring.cells_are_k_orbits and (ring.sizes > 1).any():
        raise NotAnSRing("the cells are not proven K-orbits, so no count on them is constant")
    label, right_label = (_union_labels(ring, sets) for sets in (left, right))
    na, nb = len(left), len(right)
    v = np.concatenate(right)
    u = ring.rep_quotients[:, v]    # row Z: z * v**-1
    key = (np.arange(ring.r)[:, None] * (na + 1) + label[u]) * nb + right_label[v]
    counts = np.bincount(key.ravel(), minlength=ring.r * (na + 1) * nb)
    return counts.reshape(ring.r, na + 1, nb)[:, :na]


def _union_labels(ring: SRing, sets: list[np.ndarray]) -> np.ndarray:
    """label[u] = a for u in sets[a], and len(sets) off them; NotAnSRing
    unless the sets are disjoint unions of cells."""
    label = np.full(ring.cons.n, len(sets), dtype=np.int64)
    for a, members in enumerate(sets):
        label[members] = a
    unions = (label == label[ring.reps][ring.cell_of]).all()
    if not unions or np.count_nonzero(label < len(sets)) != sum(map(len, sets)):
        raise NotAnSRing("the product's factors are not disjoint unions of cells")
    return label


def structure_constants(ring: SRing) -> StructureConstantTensor:
    """The convolution tensor, counted at one point per cell (`_cell_counts`)."""
    counts = _cell_counts(ring, ring.cells, ring.cells)     # [Z, X, Y]
    c = np.ascontiguousarray(counts.transpose(1, 2, 0))
    return StructureConstantTensor(c, ring.sizes.copy(), ring.inv_cell.copy(), list(ring.names))


@dataclass
class ConstsReport:
    q: int
    checked: int
    mismatches: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _expected_consts(cons: Construction) -> np.ndarray:
    """The closed forms of c[Y_i, Y_j, Y_k] at [i, j, k] and of c[Y_i, Y_j, Z#]
    at [i, j, q], a (q, q, q + 1) array; the first rule that applies holds:

        j = -i:       q - 2 at k in {i, -i} when i = 0, q - 1 there otherwise,
                      q at every other k, 0 at Z#;
        k = psi(i, j): 1;
        i != j:       q at k in {i, j};
        k = i = j:    q - 1;
        otherwise:    q + 1."""
    q = cons.q
    i, j, k = np.ix_(range(q), range(q), range(q))
    neg_i = cons.field.neg(i)
    opposite = j == neg_i
    own = (k == i) | (k == j)
    rules = [
        (opposite & ((k == i) | (k == neg_i)), np.where(i == 0, q - 2, q - 1)),
        (opposite, q),
        (k == cons.psi_table()[:q, :q, None], 1),
        ((i != j) & own, q),
        (own, q - 1),
    ]
    conditions, values = zip(*rules)
    want = np.full((q, q, q + 1), q + 1, dtype=np.int64)
    want[:, :, :q] = np.select(conditions, values, q + 1)
    want[:, :, q] = np.where(opposite[:, :, 0], 0, q + 1)
    return want


def verify_consts(ring: SRing, tensor: StructureConstantTensor) -> ConstsReport:
    """Compare every computed c[Y_i, Y_j, Y_k] and c[Y_i, Y_j, Z#] to the
    closed forms; the mismatches in (i, j, k) order, Z# after the Y cells."""
    cons = ring.cons
    q = cons.q
    ys = [ring.y_cell(k) for k in range(q)]
    got = tensor.c[np.ix_(ys, ys, ys + [ring.center_cell])]
    want = _expected_consts(cons)
    report = ConstsReport(q=q, checked=want.size)
    for i, j, k in np.argwhere(got != want).tolist():
        expected, found = int(want[i, j, k]), int(got[i, j, k])
        label = "Z#" if k == q else k
        report.mismatches.append({"i": i, "j": j, "k": label, "expected": expected, "got": found})
    return report


def constants_report(ring: SRing, tensor: StructureConstantTensor) -> dict:
    """Full JSON report: cells, nonzero constants, closed-form mismatches and
    the number of constants checked."""
    report = verify_consts(ring, tensor)
    out = tensor.to_json(ring.cons.q)
    out["closed_form_mismatches"] = report.mismatches
    out["checked"] = report.checked
    return out


@dataclass
class TransversalReport:
    q: int
    i: int
    at_identity: int
    on_center: set
    elsewhere: set
    mirrored_at_identity: int
    mirrored_on_center: set
    mirrored_elsewhere: set

    @property
    def ok(self) -> bool:
        """Both products are q^2 e + 0 (Z - e) + q (G - Z)."""
        q = self.q
        return all(
            at == q * q and center <= {0} and rest == {q}
            for at, center, rest in [
                (self.at_identity, self.on_center, self.elsewhere),
                (self.mirrored_at_identity, self.mirrored_on_center, self.mirrored_elsewhere),
            ]
        )


def verify_transversal(ring: SRing, i: int) -> TransversalReport:
    """Coefficients of X_i * X_i^(-1) (and the mirrored product) over the
    group, X_i^(-1) read through `GroupTable.inv`.  K fixes X_i and X_i^(-1)
    setwise, so both are counted at one point per cell (`_cell_counts`)."""
    cons = ring.cons
    x = cons.build_X(i)
    x_inv = ring.table.inv[x]
    center_rest, outside = cons.punctured_center(), ~ring.table.center_mask

    def split(left, right):  # at the identity, on Z - e, elsewhere
        conv = _cell_counts(ring, [left], [right])[:, 0, 0][ring.cell_of]
        return int(conv[0]), set(conv[center_rest].tolist()), set(conv[outside].tolist())

    return TransversalReport(cons.q, i, *split(x, x_inv), *split(x_inv, x))


def tau_hat(ring: SRing, m: int) -> np.ndarray:
    """Cell bijection induced by the power map i -> i**m of the extended
    index group, read from one `psi_pow` over every finite index; requires
    gcd(m, q+1) = 1.  The center cell plays the role of the identity q."""
    cons = ring.cons
    if math.gcd(m, cons.q + 1) != 1:
        raise ValueError(f"gcd({m}, {cons.q + 1}) != 1")
    finite = np.arange(cons.q)
    image = cons.psi_pow(finite, m)
    if (image == cons.q).any():
        raise RuntimeError("power map moved a finite index to the identity q")
    sigma = np.empty(ring.r, dtype=np.int64)
    sigma[0], sigma[ring.center_cell] = 0, ring.center_cell  # q is fixed by any power map
    sigma[ring.y_cell(finite)] = ring.y_cell(image)
    return sigma


def is_group_closed(perms: list[np.ndarray]) -> bool:
    keys = {p.tobytes() for p in perms}
    for a in perms:
        for b in perms:
            if a[b].tobytes() not in keys:
                return False
    return True
