"""Exact digraph isomorphism testing and automorphism counting by
individualization and refinement over canonically colored pair matrices.

Isomorphisms of two digraphs are exactly the bijections that carry the
canonical stable pair coloring of one onto that of the other (the canonical
names make the colorings of different graphs comparable, and the arc
relation is a union of color classes).  The search therefore works on the
stable colorings: a vertex partition is maintained on both sides in
lockstep, refined by structural signatures against the fixed pair colors,
and a vertex of the first graph is individualized against each compatible
vertex of the second when refinement stalls.

Per node the refinement recolors a vertex x by the multiset over all w of
(cell(w), color(x, w)), color(w, x) being a function of color(x, w) in a
stable coloring; only vertices in splittable cells are recomputed.  Their
codes cell(w) * mult + color(x, w) lie below ncells * mult and are sorted at
the width `arith.code_dtype` gives for it (uint16 while it is at most
2**16), whose order is int64 order.  A child (u -> v) of a stable node
reads its first round off column u (v) alone, refining from the new
singleton cell (McKay & Piperno 2014), with the names of a full round.
Candidate leaves are verified
color-exactly, and every emitted isomorphism witness and searched
automorphism generator arc-exactly (`digraph.carries`) before use, so the
engine never reports a false positive; negatives come from exhausted search.
An isomorphism search prunes its first branching node by the generators cc2
records (g2's translations, when it carries them), else by Aut(g2), searched
for only once a root candidate has failed: a candidate's orbit then fails
with it.  Every search gives up after `NODE_BUDGET` nodes (BudgetExceeded).
`is_induced` runs it between an S-ring's scheme coloring and that coloring
recolored by a cell bijection sigma.

Automorphism group orders use the orbit-stabilizer chain: the order is the
orbit length of the first individualized vertex times the order of its
stabilizer, with found generators closing orbits to skip searches.
`leaf_cells` counts the cells at the root of that chain for given fixed
vertices, the refinement alone: a caller that proves the rest of the chain
(a transitive group, a subgroup filling the next cell) reads the order off
a discrete root with no search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from .arith import code_dtype
from .coherent import CoherentConfiguration, invariants, sorted_unique_rows, wl_close
from .digraph import Digraph, carries, orbit_mask

NODE_BUDGET = 10_000_000  # search nodes per `_PartitionSearch`, read when one is made


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class IsoCertificate:
    kind: str                              # "isomorphic" | "non-isomorphic" | "undetermined"
    mapping: np.ndarray | None = None      # vertex bijection g1 -> g2 when isomorphic
    invariant_diff: dict | None = None     # refinement-based distinguisher
    nodes: int = 0
    detail: str = ""

    @property
    def isomorphic(self) -> bool:
        return self.kind == "isomorphic"

    def to_json(self) -> dict:
        out: dict = {"type": self.kind}
        if self.mapping is not None:
            out["mapping"] = [int(v) for v in self.mapping]
        if self.invariant_diff is not None:
            out["invariant_diff"] = self.invariant_diff
        out.update(nodes=self.nodes, detail=self.detail)
        return out


class _PartitionSearch:
    """Backtracking search for color-preserving bijections between two
    pair-colored vertex sets with a common canonical palette."""

    def __init__(self, c1: np.ndarray, c2: np.ndarray):
        if c1.shape != c2.shape or c1.shape[0] != c1.shape[1]:
            raise ValueError("colorings must be square and of equal order")
        self.c1, self.c2 = c1, c2  # searched as given; `_refine` codes at its own width
        self.n = c1.shape[0]
        self.budget = NODE_BUDGET
        self.nodes = 0
        self.mult = max(int(c1.max()), int(c2.max())) + 1

        vals, cells = np.unique(np.concatenate([c1.diagonal(), c2.diagonal()]), return_inverse=True)
        self.pi1_0, self.pi2_0 = np.split(cells.astype(np.int64), 2)
        self.ncells_0 = len(vals)

    # -- partition refinement -------------------------------------------------

    def _refine(self, pi1, pi2, ncells):
        """Refine both sides to joint stability; None when sides disagree.
        One coloring with equal seeds is one side: both sides' signature rows
        are then the same rows, with the same distinct rows and names, so it is
        refined once and the result mirrored."""
        one = self.c1 is self.c2 and np.array_equal(pi1, pi2)
        sides = [(self.c1, pi1)] if one else [(self.c1, pi1), (self.c2, pi2)]
        while True:
            sizes = [np.bincount(pi, minlength=ncells) for _, pi in sides]
            if not np.array_equal(sizes[0], sizes[-1]):
                return None
            splittable = sizes[0] >= 2
            if not splittable.any():
                break
            actives = [np.flatnonzero(splittable[pi]) for _, pi in sides]
            starts = np.cumsum([0] + [len(active) for active in actives])
            # every side's vertex signatures in one array: the cell, then the
            # sorted codes cell(w) * mult + color(v, w) over all w, each below
            # ncells * mult
            wide = code_dtype(ncells * self.mult)
            rows = np.empty((starts[-1], self.n + 1), dtype=wide)
            for (c, pi), active, start in zip(sides, actives, starts):
                side = rows[start : start + len(active)]
                side[:, 0] = pi[active]
                cells = (pi * self.mult).astype(wide)
                np.add(cells, c[active], out=side[:, 1:], dtype=wide, casting="unsafe")
                side[:, 1:].sort(axis=1)
            _, inverse = sorted_unique_rows(rows)
            news, named = _named([pi for _, pi in sides], actives, inverse, ncells)
            if named == ncells:
                break
            sides = [(c, new) for (c, _), new in zip(sides, news)]
            ncells = named
        return sides[0][1], sides[-1][1], ncells

    # -- search ----------------------------------------------------------------

    def _seeded(self, forced: tuple[tuple[int, int], ...]):
        """The diagonal partitions with each forced pair (u, v) in a fresh cell."""
        pi1, pi2 = self.pi1_0.copy(), self.pi2_0.copy()
        for k, (u, v) in enumerate(forced):
            pi1[u] = pi2[v] = self.ncells_0 + k
        return pi1, pi2, self.ncells_0 + len(forced)

    def fixed_leaf(self, fixed: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """The partition, and its cell count, that refinement of a coloring
        against itself reaches with each vertex of fixed in a cell of its own."""
        state = self._refine(*self._seeded(tuple((w, w) for w in fixed)))
        if state is None:
            raise RuntimeError("self-refinement disagreed with itself")  # engine bug
        return state[0], state[2]

    def search(self, forced: tuple[tuple[int, int], ...], prune=None):
        """A bijection f with c2[f(u), f(v)] = c1[u, v] respecting the forced
        pairs, or None when none exists.

        prune, when given, maps a failed candidate v of the first branching
        node to the mask of its orbit under the automorphisms of the second
        coloring; the rest of that orbit is then skipped (composing a solution
        with an automorphism of the second coloring moves v anywhere in its
        orbit, so the orbit fails with v).  Only sound with no forced pairs.
        """
        self._count_node()
        return self._descend(self._refine(*self._seeded(forced)), prune)

    def _count_node(self):
        if self.nodes >= self.budget:
            raise BudgetExceeded(f"node budget {self.budget} exhausted")
        self.nodes += 1

    def _child(self, pi1, pi2, ncells, u, v):
        """`_refine` of the stable partitions pi1, pi2 with u and v moved to
        the fresh cell ncells, its first round read off column u (column v).

        Stability gives every vertex x of a cell, on either side, the same
        multiset of codes cell(w) * mult + color(x, w).  Moving u changes
        only the code of w = u, from cell(u) * mult + c to ncells * mult + c,
        c = color(x, u): a larger c drops a larger old code and leaves the
        smaller sorted vector.  So the first round sorts x by the key
        (cell(x), mult - 1 - c), and refinement goes on only if it split a cell."""
        b1, b2 = pi1.copy(), pi2.copy()
        b1[u] = b2[v] = ncells
        ncells += 1
        splittable = np.bincount(b1, minlength=ncells) >= 2
        sides = [(self.c1, b1, u), (self.c2, b2, v)]
        actives = [np.flatnonzero(splittable[pi]) for _, pi, _ in sides]
        keys = np.concatenate([
            pi[active] * self.mult + (self.mult - 1 - c[active, w])
            for (c, pi, w), active in zip(sides, actives)
        ])
        _, inverse = np.unique(keys, return_inverse=True)
        news, named = _named([b1, b2], actives, inverse, ncells)
        return (b1, b2, ncells) if named == ncells else self._refine(*news, named)

    def _descend(self, state, prune=None):
        """Search below a node refined to `state`, a stable (pi1, pi2,
        ncells), or None when the sides disagreed."""
        if state is None:
            return None
        pi1, pi2, ncells = state
        target = _target_cell(pi1, ncells)
        if target is None:
            f = np.empty(self.n, dtype=np.int64)
            f[np.argsort(pi1)] = np.argsort(pi2)
            return f if carries(self.c1, self.c2, [f]) else None
        u = int(np.flatnonzero(pi1 == target)[0])
        ruled_out = np.zeros(self.n, dtype=bool)
        for v in np.flatnonzero(pi2 == target).tolist():
            if ruled_out[v]:
                continue
            self._count_node()
            # prune only the outermost branching
            f = self._descend(self._child(pi1, pi2, ncells, u, v))
            if f is not None:
                return f
            if prune is not None:
                ruled_out |= prune(v)
        return None


def _named(pis, actives, inverse, ncells):
    """One refinement round's partitions and cell count: the active vertices
    of each side in turn take cell ncells + their row's index in inverse,
    then the cells that occur are renumbered 0, 1, ... in order of their
    ids, so singleton cells keep their order, first."""
    news = [pi.copy() for pi in pis]
    present = np.zeros(ncells + len(inverse), dtype=bool)
    start = 0
    for new, active in zip(news, actives):
        new[active] = ncells + inverse[start : start + len(active)]
        present[new] = True
        start += len(active)
    names = np.cumsum(present) - 1
    return [names[new] for new in news], int(names[-1]) + 1


def _target_cell(pi: np.ndarray, ncells: int) -> int | None:
    """The branching cell: the smallest splittable one, ties by lowest id;
    None when the partition is discrete."""
    sizes = np.bincount(pi, minlength=ncells)
    if sizes.max() <= 1:
        return None
    return int(np.flatnonzero(sizes == sizes[sizes >= 2].min())[0])


def are_isomorphic(
    g1: Digraph,
    g2: Digraph,
    cc1: CoherentConfiguration | None = None,
    cc2: CoherentConfiguration | None = None,
) -> IsoCertificate:
    """Exact isomorphism test with a verified witness either way."""
    if g1.n != g2.n:
        raise ValueError("graphs must have the same number of vertices")
    cc1 = cc1 if cc1 is not None else wl_close(g1)
    cc2 = cc2 if cc2 is not None else wl_close(g2)
    inv1 = invariants(g1, cc1)
    inv2 = invariants(g2, cc2)
    if inv1 != inv2:
        keys = sorted(k for k in inv1 if inv1[k] != inv2[k])
        return IsoCertificate(
            "non-isomorphic",
            invariant_diff={
                "fields": keys,
                "rank": {"left": inv1["rank"], "right": inv2["rank"]},
            },
            detail=f"canonical closure invariants differ: {keys}",
        )
    search = _PartitionSearch(cc1.color, cc2.color)
    aut_gens = cache(lambda: cc2.generators or automorphism_generators(g2, cc2)[1])
    try:
        f = search.search((), prune=lambda v: orbit_mask(v, aut_gens(), g2.n))
    except BudgetExceeded:
        return IsoCertificate("undetermined", nodes=search.nodes, detail="node budget exhausted")
    if f is None:
        return IsoCertificate(
            "non-isomorphic",
            nodes=search.nodes,
            detail="exhaustive individualization-refinement found no bijection",
        )
    if not carries(g1.arcs, g2.arcs, [f]):
        raise RuntimeError("witness failed the arc-exact check")  # engine bug
    return IsoCertificate("isomorphic", mapping=f, nodes=search.nodes)


# -- automorphism groups -----------------------------------------------------------


def automorphism_generators(
    g: Digraph,
    cc: CoherentConfiguration | None = None,
    fixed: tuple[int, ...] = (),
) -> tuple[int, list[np.ndarray]]:
    """Order of the automorphism group (of the stabilizer of the fixed
    vertices, when given) and generators, each checked arc by arc; raises
    BudgetExceeded when the search cap is hit."""
    cc = cc if cc is not None else wl_close(g)
    search = _PartitionSearch(cc.color, cc.color)

    def rec(points: tuple[int, ...]) -> tuple[int, list[np.ndarray]]:
        pi1, ncells = search.fixed_leaf(points)
        target = _target_cell(pi1, ncells)
        if target is None:
            return 1, []
        members = np.flatnonzero(pi1 == target)
        u = int(members[0])
        sub_order, gens = rec(points + (u,))
        forced = tuple((w, w) for w in points)
        orbit = orbit_mask(u, gens, search.n)
        for v in members[1:]:
            if orbit[v]:
                continue
            f = search.search(forced + ((u, int(v)),))
            if f is not None:
                gens.append(f)
                orbit = orbit_mask(u, gens, search.n)
        return int(np.count_nonzero(orbit[members])) * sub_order, gens

    order, gens = rec(tuple(fixed))
    if not carries(g.arcs, g.arcs, gens):
        raise RuntimeError("generator failed the arc-exact check")  # engine bug
    return order, gens


def automorphism_order(
    g: Digraph,
    cc: CoherentConfiguration | None = None,
    fixed: tuple[int, ...] = (),
) -> int:
    """The order that `automorphism_generators` finds."""
    return automorphism_generators(g, cc, fixed)[0]


def leaf_cells(cc: CoherentConfiguration, fixed: tuple[int, ...]) -> int:
    """The number of cells that vertex refinement over cc's colors reaches
    with each vertex of fixed individualized and no branching: the root of
    the search `automorphism_generators(g, cc, fixed)` runs.  Every
    automorphism of cc that fixes those vertices keeps each cell of every
    refinement step, so at n cells (a discrete leaf) the identity is the only
    one: the stabilizer of fixed in Aut(cc), which holds Aut(g), is trivial."""
    return _PartitionSearch(cc.color, cc.color).fixed_leaf(tuple(fixed))[1]


# -- class counting ------------------------------------------------------------------


@dataclass
class IsoClassResult:
    count: int
    exact: bool
    # (i, j) -> the tested kind, or one read from the classes plus " (via transitivity)"
    pair_results: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)   # tested pairs (i, j) -> IsoCertificate


def iso_class_count(
    graphs: list[Digraph],
    ccs: list[CoherentConfiguration] | None = None,
) -> IsoClassResult:
    """Number of isomorphism classes.  Each graph is tested against one
    representative per class found so far and joins the first class it is
    isomorphic to, or becomes a representative; untested pairs are labelled
    from their classes.  When two representatives are not proven
    non-isomorphic (an undetermined test), the count is a lower bound: the
    representatives proven non-isomorphic to every earlier one."""
    if ccs is None:
        ccs = [wl_close(g) for g in graphs]
    reps: list[int] = []
    rep_of: list[int] = []
    certificates: dict = {}
    for j, g in enumerate(graphs):
        for r in reps:
            cert = are_isomorphic(graphs[r], g, ccs[r], ccs[j])
            certificates[(r, j)] = cert
            if cert.isomorphic:
                rep_of.append(r)
                break
        else:
            rep_of.append(j)
            reps.append(j)

    pair_results: dict = {}
    for i, j in combinations(range(len(graphs)), 2):
        if (i, j) in certificates:
            pair_results[(i, j)] = certificates[(i, j)].kind
        elif rep_of[i] == rep_of[j]:
            pair_results[(i, j)] = "isomorphic (via transitivity)"
        else:
            a, b = sorted((rep_of[i], rep_of[j]))
            pair_results[(i, j)] = certificates[(a, b)].kind + " (via transitivity)"
    distinct = [
        b for b in reps
        if all(certificates[(a, b)].kind == "non-isomorphic" for a in reps if a < b)
    ]
    return IsoClassResult(len(distinct), len(distinct) == len(reps), pair_results, certificates)


# -- inducedness ---------------------------------------------------------------------


@dataclass
class InducednessResult:
    status: str                 # "induced" | "not_induced" | "undetermined"
    mapping: np.ndarray | None = None


def is_induced(ring, sigma) -> InducednessResult:
    """Search for a vertex bijection f with cell(f(v) f(u)^-1) = sigma(cell(v u^-1))
    on the scheme coloring of ring, an `srings.SRing`.  A timeout is reported
    as undetermined, never as a negative answer."""
    scheme = ring.scheme_coloring()
    recolored = np.asarray(sigma, dtype=np.int32)[scheme]
    search = _PartitionSearch(recolored, scheme)
    try:
        f = search.search(())
    except BudgetExceeded:
        return InducednessResult("undetermined")
    if f is None:
        return InducednessResult("not_induced")
    return InducednessResult("induced", mapping=f)
