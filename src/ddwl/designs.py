"""Divisible-design verification: common-neighbor counts against the center
cosets, the block development of a connection set, and the explicit
isomorphism between the developments of X_0 and X_i.

Membership of g in the block X_i * g0 has a closed form in coordinates.
With g = (al, be, ga) and g0 = (al0, be0, ga0):

    g in X_0 g0  <=>  ga - ga0 = (al - al0)(be + be0) / 2
    g in X_i g0  <=>  ga - ga0 = (al - al0)(be + be0) / 2
                                 + ((al - al0)**2 - eps (be - be0)**2) i

The point map f adds (al**2 - eps be**2) i to the last coordinate.  The
block-index map h inverts the linear system

    (al0, be0) = A (al0'', be0''),   A = (1, -4 eps i; -4 i, 1),

whose determinant 1 - 16 eps i**2 is nonzero because eps is a nonsquare,
and then translates the last coordinate accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .construction import Construction
from .digraph import Digraph


@dataclass
class IncidenceStructure:
    """Points [0, n); one block per group element g, the set X * g.

    Row g of the incidence matrix is the indicator of block g, so the matrix
    coincides entrywise with the adjacency matrix of the Cayley digraph.
    """

    incidence: np.ndarray

    @property
    def n_points(self) -> int:
        return self.incidence.shape[1]

    @property
    def n_blocks(self) -> int:
        return self.incidence.shape[0]

    def blocks(self) -> list[np.ndarray]:
        return [np.flatnonzero(row) for row in self.incidence]

    def to_text(self) -> str:
        """Same 0/1 text format as the digraph export, one row per block."""
        lines = [str(self.n_blocks)]
        chars = np.where(self.incidence, "1", "0")
        lines.extend("".join(row) for row in chars)
        return "\n".join(lines) + "\n"


def dev(cons: Construction, i: int) -> IncidenceStructure:
    """The development of X_i: blocks X_i * g for every group element g."""
    mask = np.zeros(cons.n, dtype=bool)
    mask[cons.build_X(i)] = True
    incidence = mask[cons.table.quotient()].T   # block g contains p iff p * g**-1 in X_i
    replication = incidence.sum(axis=0)
    if not (replication == cons.q**2).all():
        raise RuntimeError("development is not point-regular")  # contradicts counting
    return IncidenceStructure(incidence)


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
    of observed values and a witness pair for the first deviation from the
    expected (lambda1, lambda2).
    """
    a = g.arcs.astype(np.float64)
    common_out = (a @ a.T).astype(np.int64)
    common_in = (a.T @ a).astype(np.int64)
    class_ids = np.asarray(class_ids)
    same = class_ids[:, None] == class_ids[None, :]
    upper = np.triu(np.ones_like(same), k=1).astype(bool)

    def dist(matrix, mask):
        vals, counts = np.unique(matrix[mask], return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    report = DDDReport(
        v=g.n,
        m=len(np.unique(class_ids)),
        n_class=int(np.bincount(class_ids).max()),
        out_degrees=set(np.unique(g.out_degrees()).tolist()),
        in_degrees=set(np.unique(g.in_degrees()).tolist()),
        asymmetric=g.is_asymmetric(),
        loopless=not g.arcs.diagonal().any(),
        same_in=dist(common_in, same & upper),
        same_out=dist(common_out, same & upper),
        cross_in=dist(common_in, ~same & upper),
        cross_out=dist(common_out, ~same & upper),
        expected=expected,
    )
    if not report.counts_match:
        lam1, lam2 = expected
        bad = (
            ((common_in != lam1) | (common_out != lam1)) & same & upper
        ) | (((common_in != lam2) | (common_out != lam2)) & ~same & upper)
        pairs = np.argwhere(bad)
        if len(pairs):
            al, be = (int(x) for x in pairs[0])
            report.witness = {
                "pair": [al, be],
                "same_class": bool(same[al, be]),
                "common_in": int(common_in[al, be]),
                "common_out": int(common_out[al, be]),
            }
    return report


@dataclass
class DesignIsoMaps:
    i: int
    f: np.ndarray            # point bijection
    h: np.ndarray            # block-index bijection
    det_index: int           # field index of det(A) = 1 - 16 eps i**2
    matrix_a: tuple[tuple[int, int], tuple[int, int]]

    @property
    def det_nonzero(self) -> bool:
        return self.det_index != 0


def desiso_maps(cons: Construction, i: int) -> DesignIsoMaps:
    """The explicit point and block bijections carrying dev(X_0) to dev(X_i)."""
    f_ = cons.field
    t = cons.table
    eps = cons.epsilon
    four = f_.from_int(4)
    al, be, ga = t.ix, t.iy, t.iz

    norm = f_.sub(f_.mul(al, al), f_.mul(eps, f_.mul(be, be)))
    f_map = t._pack(al, be, f_.add(ga, f_.mul(norm, i)))

    a12 = f_.neg(f_.mul(four, f_.mul(eps, i)))     # A = (1, a12; a21, 1)
    a21 = f_.neg(f_.mul(four, i))
    det = f_.sub(f_.one, f_.mul(a12, a21))
    if det == 0:
        raise RuntimeError("det(A) vanished; eps cannot be a nonsquare")
    det_inv = f_.inv(det)
    # (al0'', be0'') = A**-1 (al0, be0)
    al2 = f_.mul(det_inv, f_.sub(al, f_.mul(a12, be)))
    be2 = f_.mul(det_inv, f_.sub(be, f_.mul(a21, al)))
    norm2 = f_.sub(f_.mul(al2, al2), f_.mul(eps, f_.mul(be2, be2)))
    ga2 = f_.sub(
        f_.add(f_.sub(ga, f_.mul(cons.half, f_.mul(al, be))), f_.mul(cons.half, f_.mul(al2, be2))),
        f_.mul(norm2, i),
    )
    h_map = t._pack(al2, be2, ga2)
    return DesignIsoMaps(
        i=i,
        f=f_map.astype(np.int64),
        h=h_map.astype(np.int64),
        det_index=int(det),
        matrix_a=((int(f_.one), int(a12)), (int(a21), int(f_.one))),
    )


def membership_matrix(cons: Construction, i: int) -> np.ndarray:
    """mat[g, g0] = True iff g lies in the block X_i * g0, by the closed form."""
    f_ = cons.field
    t = cons.table
    al, be, ga = t.ix, t.iy, t.iz
    d_al = f_.sub(al[:, None], al[None, :])
    s_be = f_.add(be[:, None], be[None, :])
    rhs = f_.mul(cons.half, f_.mul(d_al, s_be))
    if i != 0:
        d_be = f_.sub(be[:, None], be[None, :])
        quad = f_.sub(f_.mul(d_al, d_al), f_.mul(cons.epsilon, f_.mul(d_be, d_be)))
        rhs = f_.add(rhs, f_.mul(quad, i))
    lhs = f_.sub(ga[:, None], ga[None, :])
    return lhs == rhs


@dataclass
class DesignIsoReport:
    q: int
    i: int
    crit_holds: bool
    det_a_nonzero: bool
    pairs_checked: int
    mode: str
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "i": self.i,
            "crit_holds": self.crit_holds,
            "det_A_nonzero": self.det_a_nonzero,
            "pairs_checked": self.pairs_checked,
            "mode": self.mode,
        }


def verify_design_iso(
    cons: Construction,
    i: int,
    sample: int | None = None,
    seed: int = 20240
) -> DesignIsoReport:
    """Check g in X_0 g0 <=> f(g) in X_i h(g0) over all pairs, or over a
    fixed-seed sample of the given size."""
    maps = desiso_maps(cons, i)
    m0 = membership_matrix(cons, 0)
    mi = membership_matrix(cons, i)
    if sample is None:
        moved = mi[np.ix_(maps.f, maps.h)]
        agree = moved == m0
        pairs_checked = m0.size
        mode = "full"
    else:
        rng = np.random.default_rng(seed)
        gs = rng.integers(0, cons.n, size=sample)
        g0s = rng.integers(0, cons.n, size=sample)
        agree = mi[maps.f[gs], maps.h[g0s]] == m0[gs, g0s]
        pairs_checked = sample
        mode = "sampled"
    report = DesignIsoReport(
        q=cons.q,
        i=i,
        crit_holds=bool(agree.all()),
        det_a_nonzero=maps.det_nonzero,
        pairs_checked=int(pairs_checked),
        mode=mode,
    )
    if not report.crit_holds:
        bad = np.argwhere(~agree)[0]
        report.witness = {"g": int(bad[0]), "g0": int(bad[1])}
    return report
