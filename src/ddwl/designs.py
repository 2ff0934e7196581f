"""Divisible-design verification: common-neighbor counts against the center
cosets, and the explicit isomorphism between the neighbourhood designs of
X_0 and X_i.  The counts are read off row 0 of a Cayley digraph's
out-neighbour lists, by its proven translations (`verify_ddd`); a digraph
without them is refused.

The neighbourhood design of Cay(H3(q), X_i) has one block per group element
g0, its out-neighbourhood X_i * g0: row g0 of the digraph's out-neighbour
lists.  The criterion

    g in X_0 g0  <=>  f(g) in X_i h(g0)

holds on all n**2 pairs (g0, g) once f and h are permutations and, for every
g0, f maps the block X_0 g0 one to one onto the block X_i h(g0): then
g in X_0 g0 gives f(g) in X_i h(g0), and f(g) in X_i h(g0) = f(X_0 g0) gives
g in X_0 g0, f being injective.  `verify_design_iso` checks the blocks with
`digraph.carries_out`, the check that proves a digraph's translations.
The closed form below only derives f and h.
With g = (al, be, ga) and g0 = (al0, be0, ga0), g lies in X_i g0 iff

    ga - ga0 = (al - al0)(be + be0) / 2 + ((al - al0)**2 - eps (be - be0)**2) i.

The point map f adds (al**2 - eps be**2) i to the last coordinate.  The
block-index map h inverts the linear system

    (al0, be0) = A (al0'', be0''),   A = (1, -4 eps i; -4 i, 1),

whose determinant 1 - 16 eps i**2 is nonzero because eps is a nonsquare,
and then translates the last coordinate accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import Construction
from .digraph import Digraph, NotInvariant, as_permutation, carries_out

_TAKE_ELEMENTS = 1 << 14  # list entries per np.take block of verify_ddd's row-0 counts


@dataclass
class DDDReport:
    v: int
    m: int
    n_class: int
    out_degrees: set
    in_degrees: set
    asymmetric: bool
    loopless: bool
    same_in: dict
    same_out: dict
    cross_in: dict
    cross_out: dict
    expected: tuple[int, int]
    witness: dict | None = None

    @property
    def regular(self) -> bool:
        return len(self.out_degrees) == 1 and self.out_degrees == self.in_degrees

    @property
    def counts_match(self) -> bool:
        lam1, lam2 = self.expected
        return (
            set(self.same_in) == ({lam1} if self.same_in else set())
            and set(self.same_out) == ({lam1} if self.same_out else set())
            and set(self.cross_in) == {lam2}
            and set(self.cross_out) == {lam2}
        )

    @property
    def ok(self) -> bool:
        return self.regular and self.asymmetric and self.counts_match


def verify_ddd(g: Digraph, class_ids: np.ndarray, expected: tuple[int, int]) -> DDDReport:
    """Per-direction common-neighbor counts over unordered vertex pairs.

    For each pair, the number of common dominators (w with arcs to both) and
    common dominated vertices (w with arcs from both) is tallied separately
    for same-class and cross-class pairs; the report keeps the distribution
    of observed values and a witness pair, the first deviation from the
    expected (lambda1, lambda2) in row-major order.  The classes are the
    distinct values of class_ids, of any order or dtype.

    The counts come from row 0 of g's (n, k) out-neighbour lists, in O(n k)
    memory, so g must carry `translations`; else ValueError.
    `Digraph.translations` proves on first read that they generate a
    transitive group of automorphisms, and once each is shown here to
    permute the classes, the pairs (u, v) and (0, v') with v' the image of v
    under an element sending u to 0 have the same counts and class relation.
    So each value in row 0 of A.A^T and A^T.A, over v != 0, stands for n/2
    unordered pairs, and the first deviating pair lies in row 0.  Row 0 of
    A.A^T counts, for each v, the out-neighbours of v that 0 dominates; row
    0 of A^T.A counts each v once for every in-neighbour of 0 that
    dominates it.
    """
    class_ids = np.asarray(class_ids)
    if class_ids.shape != (g.n,):
        raise ValueError(f"class_ids has shape {class_ids.shape}; the digraph has {g.n} vertices")
    if not g.translations:
        raise ValueError("verify_ddd counts from row 0, which needs the lists' proven translations")
    _, labels = np.unique(class_ids, return_inverse=True)
    class_sizes = np.bincount(labels)
    m = len(class_sizes)
    if any(np.count_nonzero(np.bincount(labels * m + labels[s])) != m for s in g.translations):
        raise NotInvariant("a translation does not permute the classes")
    out = g.out
    to0 = (out == 0).any(axis=1)  # the in-neighbours of 0
    from0 = np.zeros(g.n, dtype=bool)
    from0[out[0]] = True  # the out-neighbours of 0
    # np.take in blocks of rows: it widens a narrow index to intp whole
    # (3 MB for the lists at q = 13), but gathers twice as fast as from0[out]
    rows = max(1, _TAKE_ELEMENTS // max(1, out.shape[1]))
    common_out = np.concatenate(
        [np.count_nonzero(np.take(from0, out[s : s + rows]), axis=1) for s in range(0, g.n, rows)]
    )
    common_in = np.bincount(out[to0].ravel(), minlength=g.n)
    same = labels == labels[0]
    upper = np.arange(g.n) > 0

    def dist(counts, mask):
        # n ordered pairs per entry, two per unordered pair
        pairs, odd = np.divmod(np.bincount(counts[mask]) * g.n, 2)
        if odd.any():
            raise RuntimeError("row 0 stands for a fractional number of unordered pairs")
        return {int(v): int(pairs[v]) for v in np.flatnonzero(pairs)}

    report = DDDReport(
        v=g.n,
        m=m,
        n_class=int(class_sizes.max()),
        out_degrees={out.shape[1]},
        in_degrees={int(to0.sum())},
        asymmetric=not (from0 & to0)[1:].any(),
        loopless=not from0[0],
        same_in=dist(common_in, same & upper),
        same_out=dist(common_out, same & upper),
        cross_in=dist(common_in, ~same & upper),
        cross_out=dist(common_out, ~same & upper),
        expected=expected,
    )
    want = np.where(same, *expected)
    bad = np.flatnonzero(((common_in != want) | (common_out != want)) & upper)
    if bad.size:
        v = int(bad[0])
        report.witness = {
            "pair": [0, v],
            "same_class": bool(same[v]),
            "common_in": int(common_in[v]),
            "common_out": int(common_out[v]),
        }
    return report


@dataclass
class DesignIsoMaps:
    i: int
    f: np.ndarray            # point bijection
    h: np.ndarray            # block-index bijection
    det_index: int           # field index of det(A) = 1 - 16 eps i**2

    @property
    def det_nonzero(self) -> bool:
        return self.det_index != 0


def desiso_maps(cons: Construction, i: int) -> DesignIsoMaps:
    """The explicit point and block bijections carrying the neighbourhood
    design of X_0 to that of X_i.  Both add to the last coordinate a term
    of the coset (al, be) alone, so they are evaluated on the q x q grid
    and broadcast over ga (`GroupTable.coset_affine`)."""
    f_ = cons.field
    t = cons.table
    eps = cons.epsilon
    four = f_.from_int(4)
    al, be = t.grid

    norm = f_.sub(f_.mul(al, al), f_.mul(eps, f_.mul(be, be)))
    f_map = t.coset_affine(al, be, f_.mul(norm, i), f_.one)

    a12 = f_.neg(f_.mul(four, f_.mul(eps, i)))     # A = (1, a12; a21, 1)
    a21 = f_.neg(f_.mul(four, i))
    det = f_.sub(f_.one, f_.mul(a12, a21))
    # det(A) = 0 only if eps is a square; h then collapses onto the center,
    # so the criterion fails on a named pair and det_nonzero reads false
    det_inv = f_.inv(det) if det else 0
    # (al0'', be0'') = A**-1 (al0, be0)
    al2 = f_.mul(det_inv, f_.sub(al, f_.mul(a12, be)))
    be2 = f_.mul(det_inv, f_.sub(be, f_.mul(a21, al)))
    norm2 = f_.sub(f_.mul(al2, al2), f_.mul(eps, f_.mul(be2, be2)))
    # ga'' = ga - al be / 2 + al'' be'' / 2 - norm'' i
    shift = f_.sub(
        f_.sub(f_.mul(cons.half, f_.mul(al2, be2)), f_.mul(cons.half, f_.mul(al, be))),
        f_.mul(norm2, i),
    )
    h_map = t.coset_affine(al2, be2, shift, f_.one)
    return DesignIsoMaps(
        i=i,
        f=f_map.astype(np.int64),
        h=h_map.astype(np.int64),
        det_index=int(det),
    )


@dataclass
class DesignIsoReport:
    q: int
    i: int
    crit_holds: bool
    det_a_nonzero: bool
    pairs_checked: int
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "q": self.q,
            "i": self.i,
            "crit_holds": self.crit_holds,
            "det_A_nonzero": self.det_a_nonzero,
            "pairs_checked": self.pairs_checked,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def verify_design_iso(cons: Construction, i: int) -> DesignIsoReport:
    """The criterion over all n**2 pairs (g0, g), on the block lists: sorted
    X_0 g0 and X_i g, the out-neighbour lists of `build_cayley(0)` (kept by
    `Construction.blocks0`) and `build_cayley(i)`.
    Design 0's lists are carried by f (`digraph.carries_out`) onto design
    i's reindexed by h f**-1: for every g0, the sorted f[X_0 g0] equals
    X_i h(g0).  A resized X_i is a list of another shape; a repeated point,
    or an f or h that is no permutation, raises NotInvariant and fails the
    criterion.  A failure's witness is the first pair where the moved
    adjacency matrices differ."""
    maps, n = desiso_maps(cons, i), cons.n
    try:
        f, h = (as_permutation(p, n) for p in (maps.f, maps.h))
        moved = cons.build_cayley(i).out[h[np.argsort(f)]]  # row f(g0): X_i h(g0)
        holds = carries_out(cons.blocks0(), moved, [f])
    except NotInvariant:  # det(A) = 0 collapses h
        holds = False
    report = DesignIsoReport(cons.q, i, holds, maps.det_nonzero, pairs_checked=n * n)
    if not holds:
        moved = cons.build_cayley(i).arcs[maps.h][:, maps.f]  # rows, then columns
        g0, g = divmod(int(np.flatnonzero(moved != cons.build_cayley(0).arcs)[0]), n)
        report.witness = {"g": g, "g0": g0}
    return report
