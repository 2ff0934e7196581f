"""Constructors and scalar references that only the tests use.

`from_text` reads the 0/1 text format that `ddwl build` writes;
`move_one_arc` spoils a Cayley digraph that keeps its translations, and
`relabeled_out` gives the lists of a relabelled copy.
`cayley_arcs_densely` is the n x n scatter that `build_cayley`'s
out-neighbour lists replaced.
`carries_densely` is the n x n comparison that `digraph.carries`
replaced, and `design_iso_densely` the n x n comparison of moved adjacency
matrices that `designs.verify_design_iso` decides on block lists with
`digraph.carries_out`, and still makes for a failure's witness;
`orbit_by_sets` is the set-based closure that `digraph.orbit_mask`
replaced.  `MatrixM` and `rho_apply` are the automorphism map on one
(x, y, z) triple of field indices at a time, that `Construction.rho_perm`
is compared against; `desiso_apply` is the pair of design maps on one
vertex at a time, that `designs.desiso_maps` is compared against.
`corrupt_rho` spoils one closed form of `Construction.rho_perm`, in a
scalar or a batched call.  `psi` is the index group law on one pair at a
time, with its own point `INF` and a case for it, that
`Construction.psi_table` (inf as the index q) is compared against.
`expected_const` is one closed form of a structure constant at a time,
and `consts_mismatches` the loop over all of them that
`srings.verify_consts` replaced by arrays.
`algebraic_automorphisms` enumerates every cell bijection that preserves a
convolution tensor by backtracking, the search that criterion 9's list of
power maps `srings.tau_hat`, each checked by `coherent.verify_algebraic_map`,
replaced.
`difference_multiset` counts the products u * v over two sets at every
point of the group, the full count that `srings` replaced by one point per
cell.  `on_every_row` runs the dense side of an oracle test
and asserts that every refinement in it refined every row.  `dense_tensor`
spreads a closure's sparse tensor rows over a rank**3 array;
`shift_within_a_product` spoils a convolution tensor so that only the
triangle identity sees it.  `refine_round_int64`,
`tensor_from_int64_keys` and `refine_partition_int64` code the sort-layout
pair signatures, read their tensor and code the vertex signatures of the
isomorphism search in int64, as the engines did before they chose the
narrowest width that holds the codes; `child_by_refinement` is the search
child refined in full from u and v in a fresh cell, before its first round
was read off one column; `tensor_key` is the int64 key of (r, s, t) by
which the tensor checks ordered rows before they lexsorted the narrow
columns.  `individualized` is the coloring that
`one_point_extension` refines.  `expand_by_scatter` is the 2-D scatter
color[s(u), s(v)] = color[u, v] by which `coherent.Orbits.expand` filled
the rows down an orbit forest before it gathered each row at s**-1.
`coordinates` is the (x, y, z) index triple of every vertex, the layout
that only `heisenberg` decodes in the program; `unitriangular` and
`field_matmul` are the 3x3 matrices of such triples and their products over
the field, the oracle of every map `GroupTable.coset_affine` evaluates.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from ddwl import coherent
from ddwl.digraph import Digraph


def from_text(text: str) -> Digraph:
    lines = text.strip().split("\n")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError("wrong number of rows")
    if set("".join(lines[1:])) - {"0", "1"}:
        raise ValueError("adjacency rows may hold only '0' and '1'")
    a = np.array([[c == "1" for c in row] for row in lines[1:]], dtype=bool)
    if a.shape != (n, n):
        raise ValueError("ragged adjacency rows")
    return Digraph(a)


def move_one_arc(g: Digraph) -> Digraph:
    """g with its arc (0, v), v the second out-neighbour of 0, moved to
    (0, w), w the first vertex 0 does not dominate; the lists keep their
    shape and the translations are kept."""
    out = g.out.copy()
    out[0, 1] = np.setdiff1d(np.arange(g.n), out[0])[0]
    return Digraph.from_out(out, label=g.label, translations=g.translations)


def relabeled_out(g: Digraph, perm: np.ndarray) -> np.ndarray:
    """The out-neighbour lists of g with vertex u renamed perm[u], the lists
    of `g.relabeled(perm)`."""
    out = np.empty_like(g.out)
    out[perm] = perm[g.out]
    return out


def cayley_arcs_densely(cons, i: int, include_identity: bool = True) -> np.ndarray:
    """The adjacency matrix of Cay(X_i), arcs (g, x * g) scattered from the
    rows of the multiplication table at the connection set."""
    conn = cons.build_X(i) if include_identity else cons.build_Y(i)
    arcs = np.zeros((cons.n, cons.n), dtype=bool)
    arcs[np.arange(cons.n), cons.table.mult[conn]] = True  # row x of mult: g -> x * g
    return arcs


def carries_densely(c1: np.ndarray, c2: np.ndarray, s: np.ndarray) -> bool:
    """c2[s(u), s(v)] == c1[u, v] on all n**2 pairs."""
    return bool(np.array_equal(c2[np.ix_(s, s)], c1))


def dense_tensor(cc) -> np.ndarray:
    """t[r, s, t] = p^t_rs, zero off the tensor rows."""
    dense = np.zeros((cc.rank,) * 3, dtype=np.int64)
    r, s, t, c = cc.tensor.T
    dense[r, s, t] = c
    return dense


def shift_within_a_product(tensor, ring):
    """tensor with one count of Y_1 * Y_1 moved from Y_{q-1} to Y_0, two
    cells of equal size: every mass sum keeps, the triangle identity breaks."""
    c, y1 = tensor.c.copy(), ring.y_cell(1)
    c[y1, y1, ring.y_cell(0)] += 1
    c[y1, y1, ring.y_cell(ring.cons.q - 1)] -= 1
    return replace(tensor, c=c)


def on_every_row(make):
    """make(), asserting that each refinement it ran had every vertex as its
    own representative and no steps: the trivial group, the dense engine."""
    seen, stable = [], coherent._stable_coloring

    def spy(color, rank, orbits):
        seen.append((len(color), orbits))
        return stable(color, rank, orbits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coherent, "_stable_coloring", spy)
        out = make()
    assert seen
    for n, orbits in seen:
        assert np.array_equal(orbits.reps, np.arange(n)) and orbits.steps == []
    return out


def expand_by_scatter(orbits, rows):
    """rows[k] as row orbits.reps[k], then color[s(u), s(v)] = color[u, v]
    for each step (w, u, s) of the forest, one 2-D scatter per step."""
    if not orbits.steps:
        return rows
    color = np.empty((rows.shape[1],) * 2, dtype=rows.dtype)
    color[orbits.reps] = rows
    for w, u, s in orbits.steps:
        color[w[:, None], s] = color[u]
    return color


def refine_round_int64(color, rank: int, rows):
    """One sort-kernel recoloring of the given rows: each pair (u, v) keyed by
    the big-endian int64 row of its old color and its sorted codes
    color(u, w) * rank + color(w, v), one np.unique over all of them.  The
    new colors, the rank and the keys, as `coherent._refine_round` returns."""
    n = len(color)
    c = color.astype(np.int64)
    mine = c[rows]
    codes = np.sort(mine[:, :, None] * rank + c[None, :, :], axis=1)  # axis 1 = w
    keyrows = np.empty((len(rows) * n, n + 1), dtype=">i8")
    keyrows[:, 0] = mine.ravel()
    keyrows[:, 1:] = codes.transpose(0, 2, 1).reshape(len(rows) * n, n)
    keys, inverse = np.unique(keyrows.view(f"V{8 * (n + 1)}").ravel(), return_inverse=True)
    return inverse.astype(np.int32).reshape(len(rows), n), len(keys), keys


def tensor_from_int64_keys(keys, n: int, rank: int) -> np.ndarray:
    """The (r, s, t, count) rows in (r, s, t) order, read off the int64
    sort-layout keys of a confirming round: key t holds its old color t and
    the sorted codes r * rank + s of one pair of color t."""
    codes = keys.view(">i8").reshape(rank, n + 1)[:, 1:].astype(np.int64)
    rows = []
    for t in range(rank):
        code, count = np.unique(codes[t], return_counts=True)
        rows += [(c // rank, c % rank, t, k) for c, k in zip(code.tolist(), count.tolist())]
    return np.array(sorted(rows), dtype=np.int64).reshape(-1, 4)


def tensor_key(r, s, t, rank: int) -> np.ndarray:
    """The int64 key (r * rank + s) * rank + t of each triple, whose argsort
    is (r, s, t) order: the order `coherent._tensor_order` took before it
    lexsorted the narrow columns.  r is widened to int64 before the first
    product, so uint16 columns at rank >= 256 do not wrap; a rank with
    rank**3 >= 2**63 is refused before anything is allocated."""
    if rank**3 >= 2**63:
        raise ValueError("tensor keys support ranks with rank**3 < 2**63")
    key = np.asarray(r).astype(np.int64)
    key *= rank
    key += s
    key *= rank
    key += t
    return key


def individualized(cc, v: int) -> np.ndarray:
    """cc's coloring with (v, v) in a fresh color, renumbered, as
    `coherent.one_point_extension` refines it."""
    seeded = cc.color.copy()
    seeded[v, v] = cc.rank
    return coherent._renumber(seeded)[0]


def refine_partition_int64(search, pi1, pi2, ncells):
    """`isotest._PartitionSearch._refine` with each vertex signature an int64
    row: the vertex's cell, then its sorted codes cell(w) * mult + color(x, w)
    over all w, the rows of both sides named by np.unique in numeric order."""
    while True:
        s1 = np.bincount(pi1, minlength=ncells)
        if not np.array_equal(s1, np.bincount(pi2, minlength=ncells)):
            return None
        splittable = s1 >= 2
        if not splittable.any():
            return pi1, pi2, ncells
        sides = []
        for c, pi in ((search.c1, pi1), (search.c2, pi2)):
            active = np.flatnonzero(splittable[pi])
            codes = np.sort(pi.astype(np.int64) * search.mult + c[active], axis=1)
            sides.append((active, np.column_stack([pi[active], codes])))
        (active1, rows1), (active2, rows2) = sides
        inverse = np.unique(np.vstack([rows1, rows2]), axis=0, return_inverse=True)[1].ravel()
        new1, new2 = pi1.copy(), pi2.copy()
        new1[active1] = ncells + inverse[: len(active1)]
        new2[active2] = ncells + inverse[len(active1):]
        vals = np.unique(np.concatenate([new1, new2]))
        if len(vals) == ncells:
            return pi1, pi2, ncells
        pi1, pi2, ncells = np.searchsorted(vals, new1), np.searchsorted(vals, new2), len(vals)


def child_by_refinement(search, pi1, pi2, ncells, u, v):
    """The child (u -> v) of a stable search node as `_PartitionSearch`
    built it before it read the first round off one column: u and v in the
    fresh cell ncells, then `_refine` from there."""
    b1, b2 = pi1.copy(), pi2.copy()
    b1[u] = b2[v] = ncells
    return search._refine(b1, b2, ncells + 1)


def orbit_by_sets(v: int, perms: list[np.ndarray]) -> set[int]:
    """The orbit of v under the group perms generate, one image at a time."""
    orbit, frontier = {v}, [v]
    while frontier:
        x = frontier.pop()
        for s in perms:
            y = int(s[x])
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def design_iso_densely(cons, maps) -> tuple[bool, list[int] | None]:
    """Whether row h(g0), column f(g) of the adjacency matrix of Cay(X_i)
    equals row g0, column g of that of Cay(X_0) for all n**2 pairs, and the
    first pair [g0, g] in row-major order where it does not."""
    moved = cons.build_cayley(maps.i).arcs[maps.h][:, maps.f]
    bad = np.argwhere(moved != cons.build_cayley(0).arcs)
    return not len(bad), ([int(v) for v in bad[0]] if len(bad) else None)


def complete(n: int) -> Digraph:
    a = np.ones((n, n), dtype=bool)
    np.fill_diagonal(a, False)
    return Digraph(a, label=f"complete({n})")


def directed_cycle(n: int) -> Digraph:
    a = np.zeros((n, n), dtype=bool)
    a[np.arange(n), (np.arange(n) + 1) % n] = True
    return Digraph(a, label=f"cycle({n})")


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < p
    np.fill_diagonal(a, False)
    return Digraph(a, label=f"random({n}, {p}, seed={seed})")


def coordinates(q: int) -> np.ndarray:
    """The (3, q**3) int32 field indices (x, y, z) of every vertex, by
    base-q digits of the vertex index."""
    return np.indices((q, q, q), dtype=np.int32).reshape(3, -1)


def unitriangular(f, x, y, z) -> np.ndarray:
    """The matrices (1, x, z; 0, 1, y; 0, 0, 1) of field indices, stacked over
    the shape of x, y and z."""
    x, y, z = np.broadcast_arrays(x, y, z)
    m = np.zeros(x.shape + (3, 3), dtype=np.int32)
    m[..., [0, 1, 2], [0, 1, 2]] = f.one
    m[..., 0, 1], m[..., 1, 2], m[..., 0, 2] = x, y, z
    return m


def field_matmul(f, a, b):
    """The matrix product of stacks of 3x3 matrices of field indices."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int32)
    for k in range(3):
        out = f.add(out, f.mul(a[..., :, k, None], b[..., None, k, :]))
    return out


@dataclass(frozen=True)
class MatrixM:
    """A matrix (alpha, beta; eps*beta, alpha) with (alpha, beta) != (0, 0),
    its entries field indices."""

    alpha: int
    beta: int
    epsilon: int

    def __post_init__(self):
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("(alpha, beta) = (0, 0) is excluded")


def rho_apply(f, m: MatrixM, g: tuple[int, int, int]) -> tuple[int, int, int]:
    """Image of the group element g = (x, y, z), a triple of indices of the
    field f, under the automorphism induced by m, one scalar at a time."""
    a, b, eps = m.alpha, m.beta, m.epsilon
    x, y, z = g
    half = f.inv(f.from_int(2))
    x2 = f.add(f.mul(a, x), f.mul(eps, f.mul(b, y)))
    y2 = f.add(f.mul(b, x), f.mul(a, y))
    ab = f.mul(a, b)
    quad = f.mul(half, f.add(f.mul(x, x), f.mul(eps, f.mul(y, y))))
    cross = f.mul(f.mul(eps, f.mul(b, b)), f.mul(x, y))
    norm = f.sub(f.mul(a, a), f.mul(eps, f.mul(b, b)))
    z2 = f.add(f.add(f.mul(ab, quad), cross), f.mul(norm, z))
    return int(x2), int(y2), int(z2)


def desiso_apply(cons, i: int, v: int) -> tuple[int, int]:
    """The images f(v) and h(v) of the vertex v = (al, be, ga) under the
    maps carrying the neighbourhood design of X_0 to that of X_i, one
    field scalar at a time."""
    f, eps, half = cons.field, cons.epsilon, cons.half
    al, be, ga = cons.table.element_to_json(v)
    norm = f.sub(f.mul(al, al), f.mul(eps, f.mul(be, be)))
    image_f = (al, be, int(f.add(ga, f.mul(norm, i))))
    four = f.from_int(4)
    a12, a21 = f.neg(f.mul(four, f.mul(eps, i))), f.neg(f.mul(four, i))
    det = f.sub(f.one, f.mul(a12, a21))
    det_inv = f.inv(det) if det else 0
    al2 = f.mul(det_inv, f.sub(al, f.mul(a12, be)))
    be2 = f.mul(det_inv, f.sub(be, f.mul(a21, al)))
    norm2 = f.sub(f.mul(al2, al2), f.mul(eps, f.mul(be2, be2)))
    ga2 = f.sub(ga, f.mul(half, f.mul(al, be)))
    ga2 = f.sub(f.add(ga2, f.mul(half, f.mul(al2, be2))), f.mul(norm2, i))
    image_h = (int(al2), int(be2), int(ga2))
    q = cons.q
    return tuple(int((x * q + y) * q + z) for x, y, z in (image_f, image_h))


def difference_multiset(cons, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Counts of the products u * v for u in left, v in right at every point
    of the group, one bincount over the table block."""
    return np.bincount(cons.table.mult[np.ix_(left, right)].ravel(), minlength=cons.n)


def corrupt_rho(cons, monkeypatch, which: tuple[int, int]) -> None:
    """Swap two images of the permutation `cons.rho_perm` gives for the pair
    which, in a scalar call or as one member of a batched one: still a
    bijection, no longer an automorphism."""
    rho = cons.rho_perm

    def corrupted(a, b):
        perms = rho(a, b)
        for perm, pair in zip(np.atleast_2d(perms), zip(np.ravel(a), np.ravel(b))):
            if pair == which:
                perm[[1, 2]] = perm[[2, 1]]
        return perms

    monkeypatch.setattr(cons, "rho_perm", corrupted)


INF = "inf"   # the point at infinity of `psi`; `Construction.psi_table` calls it q


def psi(cons, i, j):
    """(i*j + delta) / (i + j) on GF(q) + {INF}: INF is the identity, and
    j = -i gives INF."""
    if i == INF:
        return j
    if j == INF:
        return i
    f = cons.field
    if j == f.neg(i):
        return INF
    num = f.add(f.mul(i, j), cons.delta)
    return int(f.mul(num, f.inv(f.add(i, j))))


def expected_const(cons, i: int, j: int, k) -> int:
    """Closed form for the coefficient of cell k (a Y index or 'Z#') in Y_i * Y_j."""
    q = cons.q
    f = cons.field
    neg_i = int(f.neg(i))
    if k == "Z#":
        return 0 if j == neg_i else q + 1
    if j == neg_i:
        if k not in (i, neg_i):
            return q
        return q - 2 if i == 0 else q - 1
    if k == psi(cons, i, j):
        return 1
    if i != j and k in (i, j):
        return q
    if k == i == j:
        return q - 1
    return q + 1


def consts_mismatches(ring, tensor) -> list[dict]:
    """Every c[Y_i, Y_j, Y_k] and c[Y_i, Y_j, Z#] against `expected_const`,
    one at a time, in (i, j, k) order with Z# last."""
    q, out = ring.cons.q, []
    for i in range(q):
        for j in range(q):
            for k in list(range(q)) + ["Z#"]:
                z_cell = ring.center_cell if k == "Z#" else ring.y_cell(k)
                got = int(tensor.c[ring.y_cell(i), ring.y_cell(j), z_cell])
                want = expected_const(ring.cons, i, j, k)
                if got != want:
                    out.append({"i": i, "j": j, "k": k, "expected": want, "got": got})
    return out


def algebraic_automorphisms(t) -> list[np.ndarray]:
    """All cell bijections preserving the tensor, by backtracking.

    Pruning: images must preserve cell sizes and the inverse pairing, and
    every fully assigned triple must transport its constant.
    """
    r = t.rank
    c, sizes, inv = t.c, t.valencies, t.converse
    sigma = np.full(r, -1, dtype=np.int64)
    used = np.zeros(r, dtype=bool)
    found: list[np.ndarray] = []

    def consistent() -> bool:
        assigned = np.flatnonzero(sigma >= 0)
        im = sigma[assigned]
        sub = c[np.ix_(assigned, assigned, assigned)]
        moved = c[np.ix_(im, im, im)]
        return bool(np.array_equal(sub, moved))

    def extend(pos: int):
        if pos == r:
            found.append(sigma.copy())
            return
        for image in range(r):
            if used[image] or sizes[image] != sizes[pos]:
                continue
            inv_pos = inv[pos]
            if sigma[inv_pos] >= 0 and sigma[inv_pos] != inv[image]:
                continue
            sigma[pos] = image
            used[image] = True
            if consistent():
                extend(pos + 1)
            sigma[pos] = -1
            used[image] = False

    extend(0)
    return found
