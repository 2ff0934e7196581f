"""Two-dimensional color refinement of vertex pairs, to a stable
coherent configuration with canonical color names.

The initial coloring separates looped diagonal entries, loop-free diagonal
entries, off-diagonal arcs and off-diagonal non-arcs (when loops are uniform
this is the familiar diagonal / arc / non-arc split).  One round recolors a
pair (u, v) by its old color together with the multiset over all w of the
code pairs (color(u, w), color(w, v)); rounds repeat until the partition
stops splitting, and one extra round confirms stability.

Canonical renaming.  The initial coloring's classes are numbered 0, 1, ...
as it is built, and a refinement runs on the coloring it is handed; only an
individualized coloring is renumbered first, as its fresh diagonal color can
leave a gap.  After each round the new colors are numbered 0, 1, ...
in the order of (old color, signature multiset), where multisets are ordered
by their ascending sorted vectors.  A fingerprint only decides which
signatures are compared: equality is byte for byte and order structural, so
color names agree between runs and between graphs of equal order; that is
what makes tensor and multiset comparisons across graphs meaningful, and
why WL-equivalence is decided by comparing the closures of the two graphs,
each refined on its own.

One key layout and two kernels.  A key is the old color, then the sorted
code vector, codes r * rank + s, in one fixed-width big-endian byte string,
whose bytewise order is the order above; `sorted_unique_rows` orders the
keys of a block, and the same helper orders the vertex signatures of
`isotest`.  The codes are held at the width `code_dtype` gives for rank**2,
and the vertex signatures of `isotest` for ncells * mult: uint16 while the
codes fit 2**16, uint32 while they fit 2**32, int64 beyond.  On nonnegative
codes unsigned order is int64 order, so the width changes no name.  Work is
blocked over rows to bound scratch memory.

The sort kernel writes each block's codes and sorts them along w.  A round
that refines every row at rank at most `_PRODUCT_MAX_RANK` runs the product
kernel instead.  There the count of code r * rank + s at (u, v) is the
intersection number #{w : color(u, w) = r, color(w, v) = s} =
(A_r A_s)[u, v], A_r the 0/1 matrix of color r: the coherent-algebra form of
2-WL (Weisfeiler & Leman 1968).  One float64 product per block gives the
counts: the 0/1 rows of the A_r times a right operand that packs the digits
most - count(r, s), base most + 1, as many to a word as keep it below 2**53,
big-endian and in code order.  Here most is the largest number of times one
color occurs in one column, so count(r, s) <= #{w : color(w, v) = s} <= most
bounds every digit.  Every partial sum is then a nonnegative integer below
2**53, exact in any summation order.  The packed words order the multisets
as their sorted code vectors do: where two multisets first differ, at code
c, the one with more c's has the smaller digit most - count and the smaller
sorted vector, which holds c where the other holds a larger code.  So the
words name the colors as sorted codes would.  Two kinds of color r need
no product.  A color on the diagonal alone has products right[u] at row u
where color(u, u) = r, and 0 elsewhere.  The most frequent other color's
words are what the column totals of the right operand leave after the
other colors' words, exact in int64.  The bincount that gives most counts
both.  Only the confirming round's keys, one per color, are unpacked to
the sort layout: each code repeated count times.

Orbit rows.  Given generators of a group of automorphisms of the initial
coloring, a round computes the keys of one representative row per vertex
orbit (its least vertex) only and copies every other row down one
breadth-first forest over the generators (`digraph.breadth_first`, the walk
behind `digraph.orbit_mask`): the vertices w = s(u) first reached from u by
a generator s take row u moved by s, as color(s(u), s(v)) = color(u, v),
gathered as row u at s**-1, each inverse made once per forest.
The stable coloring is invariant under the group, so every color class meets
a representative row; the key set, hence the canonical names, the rank, the
rounds and the tensor, are those of a round on every row.  That round, the
dense engine, is the trivial group: every vertex is its own representative
and there are no steps.  `wl_close` refines from a digraph's translations,
proven once on its out-neighbour lists by `Digraph.translations` (a Cayley
digraph's right translations: one row; none for any other digraph), and
`one_point_extension` runs `orbit_close`, which proves its generators on the
coloring (`digraph.carries`), from the generators it is given, which must
fix the individualized vertex (none by default).

Intersection numbers.  The round that confirms stability gives every pair
of color t the same key, so that key is the multiset of codes
(color(u, w), color(w, v)) shared by all pairs of color t: the intersection
numbers of t, proven well defined for every pair.  Once sorted rows,
scatters and bincounts have checked the valencies, the tensor is read off
those keys in code order, then t, which is (r, s, t) order.  Its rows are
held at `arith.tensor_dtype(rank, n)`, the width of every color and count.
Every ordering of tensor rows is one stable `np.lexsort` of those narrow
columns: the build's, and the one by which the checks lay moved
rows onto a tensor's, so no rank is too large to order.  The checks widen
to int64 only to multiply, in the weights val[t] * count.  They read only
rank, valencies, converse, fiber ids and tensor rows, so they check an
S-ring's convolution tensor (one fiber) as they check a closure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .arith import code_dtype, tensor_dtype
from .digraph import Digraph, NotInvariant, as_permutation, breadth_first, carries
from .heisenberg import GroupTable

# The product kernel on full-matrix rounds up to this rank.  On a 2-core
# x86-64 VM with one BLAS thread, one round on a random n = 343 coloring
# (nearly every key distinct) took 69-72 ms by products and 273-289 ms by
# the sort kernel at rank 6, and 126-129 against 255-265 ms at rank 10
# (best of 5, three runs); each round of the seeded relabelled q = 7
# closure took 10-19 against 72-80 ms (best of 7).  Orbit-row rounds sort:
# one row would pay for an operand of all n**2 pairs.
_PRODUCT_MAX_RANK = 10
_BLOCK_ELEMENT_BUDGET = 500_000  # scratch elements per block; larger blocks measured slower
_COMPARE_BYTES = 1 << 16  # sorted rows gathered per pass of `sorted_unique_rows`
_FINGERPRINT_MULTIPLIER = 0x9E3779B97F4A7C15  # odd: 2**64 / golden ratio


class Orbits(NamedTuple):
    """One representative row per vertex orbit of a group of automorphisms of
    an initial coloring, and the breadth-first forest that reaches every
    other vertex from them: step (w, u, s) reaches the vertices w = s(u)
    from the vertices u by a generator s."""

    reps: np.ndarray  # (r,) the least vertex of each orbit, ascending
    steps: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    inverses: tuple[np.ndarray, ...] = ()  # each step's s**-1, made once per generator

    def expand(self, rows: np.ndarray) -> np.ndarray:
        """rows[k] as row reps[k], then for each step row w = s(u) as row u
        gathered at s**-1, color[s(u), v] = color[u, s**-1(v)], a block of
        at most `_BLOCK_ELEMENT_BUDGET` entries at a time."""
        if not self.steps:
            return rows  # every vertex is a representative
        n = rows.shape[1]
        color = np.empty((n, n), dtype=rows.dtype)
        color[self.reps] = rows
        block = max(1, _BLOCK_ELEMENT_BUDGET // n)
        for (w, u, _), inverse in zip(self.steps, self.inverses, strict=True):
            for start in range(0, len(w), block):
                part = slice(start, start + block)
                color[w[part]] = np.take(color[u[part]], inverse, axis=1)
        return color


class CoherentConfiguration:
    """Stable pair coloring with fibers, valencies and intersection numbers.

    The tensor is kept sparse: an (m, 4) array of rows (r, s, t, count), in
    (r, s, t) order and stored column by column, where count is the number
    of middle vertices w with color(u, w) = r, color(w, v) = s for any pair
    (u, v) of color t.  Its dtype is `tensor_dtype(rank, n)`, which holds
    every color and every count (uint16 while rank <= 2**16), so it depends
    on (rank, n) alone.  It is read off the signature keys of the
    round that confirmed stability.
    """

    def __init__(self, color: np.ndarray, rounds: int, keys: np.ndarray):
        self.color = color    # (n, n) int32, contiguous ids 0..rank-1
        self.rounds = rounds  # refinement rounds run, including the confirming one
        self.n = len(color)
        self.rank = int(color.max()) + 1 if self.n else 0
        if not self.color_multiset().all():
            raise ValueError("color ids are not exactly 0..rank-1")

        # fibers in order of their diagonal color; heads[k] is the least vertex of fiber k
        _, heads, self.fiber_of = np.unique(
            color.diagonal(), return_index=True, return_inverse=True
        )
        sizes = np.bincount(self.fiber_of)
        self.fibers = np.split(np.argsort(self.fiber_of, kind="stable"), np.cumsum(sizes)[:-1])

        self._row_counts_check(color, heads, sizes)
        self.tensor = _tensor_from_keys(keys, self.n, self.rank)
        self.converse = np.empty(self.rank, dtype=np.int64)
        self.converse[color] = color.T
        self.generators: list[np.ndarray] = []  # proven automorphisms of the initial coloring

    # -- structure ----------------------------------------------------------

    def _row_counts_check(self, color, heads, sizes):
        """Valencies: each color occurs equally often in every row of its left fiber
        (equal sorted rows) and in no other fiber; the first fiber that fails raises."""
        srt = np.sort(color, axis=1)
        vary = np.bincount(self.fiber_of, (srt != srt[heads[self.fiber_of]]).any(axis=1)) > 0
        # left[s]: the first fiber whose head row holds s; a later one holding s clashes
        head_rows = color[heads]
        # full-shape operands: numpy 2.4's ufunc.at misreads 1-D values over 2-D indices
        fiber, col = np.indices(head_rows.shape)
        left = np.full(self.rank, len(heads), dtype=np.int64)
        np.minimum.at(left, head_rows, fiber)
        bad = np.flatnonzero(vary | (left[head_rows] != fiber).any(axis=1))
        if len(bad) and vary[bad[0]]:
            raise RuntimeError("row counts vary inside a fiber; coloring unstable")
        if len(bad):
            raise RuntimeError("color occurs in two distinct left fibers")
        # each color now lies in one head row: its count there, and the fiber of
        # the first column that holds it
        valencies = np.bincount(head_rows.ravel(), minlength=self.rank)
        column = np.full(self.rank, self.n, dtype=np.int64)
        np.minimum.at(column, head_rows, col)
        right = self.fiber_of[column]
        # row sums: colors inside one fiber product account for the whole block
        sums = np.bincount(left * len(heads) + right, valencies, len(heads) ** 2)
        if (sums.reshape(len(heads), -1) != sizes).any():
            raise RuntimeError("fiber-block row sum mismatch")
        self.valencies, self.left_fiber, self.right_fiber = valencies, left, right

    # -- views ---------------------------------------------------------------

    def color_multiset(self) -> np.ndarray:
        return np.bincount(self.color.ravel(), minlength=self.rank)

    def tensor_json(self) -> dict:
        return {
            "rank": self.rank,
            "valencies": [int(v) for v in self.valencies],
            "tensor": self.tensor.tolist(),
        }

    def refines(self, other: "CoherentConfiguration") -> bool:
        """True if every color class of self lies inside one class of other."""
        # one pair's color in other per color of self, then every pair against it
        image = np.empty(self.rank, dtype=other.color.dtype)
        image[self.color] = other.color
        return bool(np.array_equal(image[self.color], other.color))

    def __repr__(self) -> str:
        return f"CoherentConfiguration(n={self.n}, rank={self.rank}, rounds={self.rounds})"


# -- refinement core ----------------------------------------------------------


def _renumber(color: np.ndarray) -> tuple[np.ndarray, int]:
    present = np.zeros(int(color.max()) + 1, dtype=bool)
    present[color] = True
    names = np.cumsum(present, dtype=np.int32) - 1
    return names[color], int(names[-1]) + 1


def _initial_coloring(g: Digraph) -> np.ndarray:
    """Looped diagonal, loop-free diagonal, arcs, non-arcs, numbered 0, 1, ...
    in that order over the classes that occur."""
    n = g.n
    loops = np.count_nonzero(g.arcs.diagonal())
    arcs = np.count_nonzero(g.arcs) - loops  # off the diagonal
    ids = np.cumsum([loops > 0, loops < n, arcs > 0, arcs < n * n - n], dtype=np.int32) - 1
    color = np.full((n, n), ids[3], dtype=np.int32)
    color[g.arcs] = ids[2]
    d = np.arange(n)
    color[d, d] = np.where(g.arcs.diagonal(), ids[0], ids[1])
    return color


def sorted_unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array of nonnegative integers in ascending
    lexicographic order, each as one big-endian byte string (a V{width}
    scalar; `.view(">u2")` or `.view(">u4")` reads it back), and the index
    of each input row among them: `np.unique` of the V{width} rows.

    Only the run heads are sorted as byte strings.  The rows are grouped by
    a fingerprint, the sum mod 2**64 of their words times odd weights (so
    rows one word apart never collide), in runs of equal fingerprints in
    whatever order the argsort leaves ties.  Each row is compared, in input
    order, with its run's head; when every one equals it, the runs are the
    distinct rows.  Else a fingerprint collided, and the runs are cut
    wherever two neighbours in the sorted order differ byte for byte.
    `np.unique` of the heads orders them and merges equal heads that a
    collision put in separate runs, so no tie order changes the result."""
    rows = np.ascontiguousarray(rows)
    m, nbytes = len(rows), rows.shape[1] * rows.itemsize
    words = rows.view(f"u{next(s for s in (8, 4, 2, 1) if nbytes % s == 0)}")
    weights = np.arange(1, 2 * words.shape[1], 2, dtype=np.uint64)
    weights *= np.uint64(_FINGERPRINT_MULTIPLIER)
    # einsum widens the words to uint64 in buffered pieces, never the whole array
    fingerprint = np.einsum("ij,j->i", words, weights)
    order = np.argsort(fingerprint)
    fingerprint = fingerprint[order]
    head = np.ones(m, dtype=bool)
    np.not_equal(fingerprint[1:], fingerprint[:-1], out=head[1:])
    step = max(1, _COMPARE_BYTES // nbytes)  # rows compared per gather
    run, first = _runs(order, head)
    if any(
        (words[start : start + step] != words[first[run[start : start + step]]]).any()
        for start in range(0, m, step)
    ):
        for start in range(1, m, step):
            ordered = words[order[start - 1 : start + step]]
            head[start : start + step] |= (ordered[1:] != ordered[:-1]).any(axis=1)
        run, first = _runs(order, head)
    heads = rows[first].astype(rows.dtype.newbyteorder(">"), copy=False)
    keys, inverse = np.unique(heads.view(f"V{nbytes}").ravel(), return_inverse=True)
    return keys, inverse[run]


def _runs(order: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the sorted rows, head[k] marking where one starts: the run
    of each input row, and the input index of each run's first row."""
    run = np.empty(len(order), dtype=np.intp)
    run[order] = np.cumsum(head) - 1
    return run, order[head]


def _refine_round(
    color: np.ndarray, rank: int, rows: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray | None]:
    """One recoloring of the given ascending rows, as a (len(rows), n) matrix,
    the new rank and the sorted keys in the sort layout, key i naming new
    color i.  A product round returns keys only when it splits no color (the
    confirming round); its other rounds name colors from packed words alone."""
    n = color.shape[0]
    if n >= 65536:
        raise ValueError("refinement supports fewer than 2**16 vertices")
    m = len(rows)
    ncodes = rank * rank
    wide = code_dtype(ncodes)  # the codes r * rank + s
    products = m == n and rank <= _PRODUCT_MAX_RANK  # rows are then 0..n-1
    if products:
        # most, the largest number of times one color occurs in one column (one
        # bincount of v * rank + color(w, v)), bounds every count(r, s) at (u, v)
        # by #{w : color(w, v) = s}: the digits most - count(r, s), base most + 1,
        # `width` to a float64 word so that a word stays below 2**53; digit s of
        # r lies in word s // width
        column = np.arange(n, dtype=np.int32) * np.int32(rank)
        counts = np.bincount((color + column).ravel(), minlength=n * rank).reshape(n, rank)
        most = int(counts.max())
        # off[r], the times r occurs off the diagonal: the colors with none need
        # no product, nor does the most frequent other one, `rest`
        diag = color.diagonal()
        counts[np.arange(n), diag] -= 1
        off = counts.sum(axis=0)
        rest = int(np.argmax(off))
        others = np.arange(rank) != rest
        diagonal_only = (off == 0) & others
        multiplied = np.flatnonzero((off > 0) & others).astype(np.int32)
        base, width = most + 1, 1
        while width < rank and base ** (width + 1) <= 2**53:
            width += 1
        nwords = -(-rank // width)
        # float64 products and int64 key words, 8 bytes each, counted twice: the
        # half-size block holds the dense q = 7 closure's traced peak at 6.1 MB
        per_row = 8 * n * rank * nwords
    else:
        # cw[v, w] = color(w, v): a block's codes are (u, v, w), sorted along w in place
        cw = np.ascontiguousarray(color.T, dtype=wide)
        per_row = n * n
    block = max(1, min(m, _BLOCK_ELEMENT_BUDGET // per_row))

    pieces = []
    if products:
        # big-endian: the power of digit s is base ** (digits after s in its word)
        s = np.arange(rank)
        place = np.zeros((rank, nwords))
        after = np.minimum(width, rank - s // width * width) - 1 - s % width
        place[s, s // width] = base**after
        top = most * place.sum(axis=0)  # word j with every digit most: all counts 0
        right = place[color].reshape(n, n * nwords)  # [w, (v, j)] = place[color(w, v), j]
        # the products of all colors at (u, v) sum to right's column total at v
        total = right.sum(axis=0).reshape(n, nwords)
        own = right.reshape(n, n, nwords)  # [u, v, j]: row u of right, for the diagonal colors
        left = np.empty((block, len(multiplied), n))  # reused per block
        prod = np.empty((block * len(multiplied), n * nwords))  # reused per block
        buffer = np.empty((block * n, 1 + rank * nwords), dtype=np.int64)  # reused per block
    else:
        scratch = np.empty((block, n, n), dtype=wide)  # reused per block
        buffer = np.empty((block * n, n + 1), dtype=wide.newbyteorder(">"))  # reused per block
    for start in range(0, m, block):
        stop = min(m, start + block)
        nb = stop - start
        mine = color[rows[start:stop]]
        keyrows = buffer[: nb * n]
        keyrows[:, 0] = mine.reshape(nb * n)
        if products:
            # left[(u, r), w] = [color(u, w) = r], so [(u, r), (v, j)] packs the counts
            # (A_r A_s)[u, v] of word j, exact as every partial sum is an integer
            # below 2**53; top - packed counts, written to words[u, v, r, j]
            k = len(multiplied)
            np.equal(mine[:, None, :], multiplied[:, None], out=left[:nb])
            packed = np.matmul(left[:nb].reshape(nb * k, n), right, out=prod[: nb * k])
            packed = packed.reshape(nb, k, n, nwords)
            words = keyrows[:, 1:].reshape(nb, n, rank, nwords)
            # rest's products: the column totals less the others', each an integer
            # below 2**53, so exact in float64
            remaining = np.subtract(total, packed.sum(axis=1))
            for r in np.flatnonzero(diagonal_only):
                # on the diagonal alone: row u's products are right[u] where
                # color(u, u) = r, 0 elsewhere
                alone = (diag[start:stop] == r)[:, None, None] * own[start:stop]
                np.subtract(top, alone, out=words[:, :, r], casting="unsafe")
                remaining -= alone
            np.subtract(top, remaining, out=words[:, :, rest], casting="unsafe")
            np.subtract(top, packed, out=packed)
            for i, r in enumerate(multiplied):
                words[:, :, r] = packed[:, i]
        else:
            shifted = mine.astype(wide) * wide.type(rank)
            codes = np.add(shifted[:, None, :], cw[None, :, :], out=scratch[:nb])  # axis 2 = w
            codes.sort(axis=2)
            keyrows[:, 1:] = codes.reshape(nb * n, n)
        pieces.append(sorted_unique_rows(keyrows))
    scratch = buffer = codes = keyrows = None  # the block buffers go before the merge

    keys, merged = np.unique(np.concatenate([local for local, _ in pieces]), return_inverse=True)
    starts = np.cumsum([0] + [len(local) for local, _ in pieces])
    new = np.concatenate([merged[start:][inv] for start, (_, inv) in zip(starts, pieces)])
    new = new.astype(np.int32).reshape(m, n)
    if not products:
        return new, len(keys), keys
    if len(keys) != rank:
        return new, len(keys), None
    # the confirming round's keys, one per color, in the sort layout: count(r, s)
    # is most less digit s of r, read off word s // width at its power, and code
    # r * rank + s is repeated count(r, s) times
    words = keys.view(">i8").reshape(rank, 1 + rank * nwords).astype(np.int64)
    power = place[s, s // width].astype(np.int64)  # exact: each is below 2**53
    digits = words[:, 1:].reshape(rank, rank, nwords)[:, :, s // width] // power % base
    codes = np.repeat(np.tile(np.arange(ncodes), rank), (most - digits).ravel()).reshape(rank, n)
    flat = np.column_stack([words[:, 0], codes]).astype(wide.newbyteorder(">"))
    return new, rank, flat.view(f"V{(n + 1) * wide.itemsize}").ravel()


def _stable_coloring(
    color: np.ndarray, rank: int, orbits: Orbits
) -> tuple[np.ndarray, int, np.ndarray]:
    """The stable coloring, the rounds run and the confirming round's keys;
    each round refines the representative rows only."""
    rounds = 0
    while True:
        new, rank2, keys = _refine_round(color, rank, orbits.reps)
        rounds += 1
        if rank2 == rank:
            if not np.array_equal(new, color[orbits.reps]):
                raise RuntimeError("renaming not canonical at the stable point")
            return color, rounds, keys
        color, rank = orbits.expand(new), rank2


def _tensor_from_keys(keys: np.ndarray, n: int, rank: int) -> np.ndarray:
    """The (r, s, t, count) rows of the intersection tensor, in (r, s, t)
    order, at `tensor_dtype(rank, n)`.

    In the confirming round every pair of color t received key t, so key t
    holds the sorted code vector of all of them: code r * rank + s counts
    the w with color(u, w) = r and color(w, v) = s.  Code order, then t, is
    (r, s, t) order: that of the t-major run heads after one stable lexsort
    by (r, s), which keeps their t order.  The build holds one intp array of
    tensor length at a time, the run starts and then the sort order: t and
    the run lengths are narrowed as each is made, the starts are freed
    before the rows are allocated, and the order permutes the columns in
    place.
    """
    narrow = tensor_dtype(rank, n)
    flat = keys.view(code_dtype(rank * rank).newbyteorder(">"))  # row t: old color, codes
    codes = flat.reshape(rank, n + 1)[:, 1:]
    runs = np.ones((rank, n), dtype=bool)     # each sorted row split into runs of equal codes
    runs[:, 1:] = codes[:, 1:] != codes[:, :-1]
    starts = np.flatnonzero(runs)
    del runs
    t = np.floor_divide(starts, n, out=np.empty(len(starts), narrow), casting="unsafe")
    count = np.empty_like(t)
    np.subtract(starts[1:], starts[:-1], out=count[:-1], casting="unsafe")
    count[-1] = rank * n - starts[-1]
    starts += t  # the run heads' places in flat, past each row's old color
    starts += 1
    code = flat[starts]  # only the run heads are read
    del starts
    rows = np.empty((len(code), 4), dtype=narrow, order="F")  # contiguous columns
    np.divmod(code, rank, out=(rows[:, 0], rows[:, 1]), casting="unsafe")
    rows[:, 2], rows[:, 3] = t, count
    del code, t, count
    order = np.lexsort((rows[:, 1], rows[:, 0]))  # stable: equal (r, s) keep their t order
    for column in rows.T:
        column[:] = column[order]
    return rows


def _tensor_order(cc: CoherentConfiguration, r, s, t) -> np.ndarray | None:
    """The order that sorts the triples (r, s, t) onto the rows of
    cc.tensor: triple order[i] is row i.  None unless they are those rows
    in some order and no row of the tensor repeats the one before it, so a
    tensor holding a triple twice is refused.  The order is one lexsort of
    the narrow columns, the one intp array of tensor length; each moved
    column is gathered in it and compared with the tensor's.  Sorted
    triples equal to the rows prove the rows sorted, so with no repeat they
    strictly increase."""
    tensor = cc.tensor
    if len(r) != len(tensor) or (tensor[1:, :3] == tensor[:-1, :3]).all(axis=1).any():
        return None
    order = np.lexsort((t, s, r))
    if not all(np.array_equal(moved[order], column) for moved, column in zip((r, s, t), tensor.T)):
        return None
    return order


# -- public operations ---------------------------------------------------------


def wl_close(g: Digraph) -> CoherentConfiguration:
    """Smallest coherent configuration whose colors refine the arc relation,
    refined from one row per orbit of g's translations, which reading
    `Digraph.translations` proves automorphisms of g, hence of its initial
    coloring (else NotInvariant); a digraph without them refines every row."""
    if g.n < 1:
        raise ValueError("need at least one vertex")
    return _orbit_refine(_initial_coloring(g), list(g.translations))


def _orbits(perms: list[np.ndarray], n: int) -> Orbits:
    """The least vertex of each orbit of the group perms generate and the
    breadth-first forest from all of them.  Every vertex starts labelled by
    itself; each sweep gives u and s(u) the lesser of their labels for every
    generator s, then jumps each label to its label's label, until a sweep
    changes nothing.  Labels only fall and stay inside their orbit, and at
    the end they agree across every generator, so each is its orbit's least
    vertex: the orbits are the components of the graph u -- s(u)."""
    label = np.arange(n)
    while True:
        new = label
        for s in perms:
            new = np.minimum(new, new[s])
            new[s] = np.minimum(new[s], new)
        new = new[new]
        if np.array_equal(new, label):
            reps = np.flatnonzero(label == np.arange(n))
            steps = breadth_first(reps, perms, n)[1]
            inverse = {id(s): np.argsort(s) for s in perms}  # the steps hold perms' arrays
            return Orbits(reps, steps, tuple(inverse[id(s)] for _, _, s in steps))
        label = new


def orbit_close(color0: np.ndarray, gens: list[np.ndarray]) -> CoherentConfiguration:
    """The stable refinement of the int32 pair coloring color0, whose ids
    are 0..rank-1, from one row per orbit (its least vertex) of the group
    the permutations gens generate; with no gens, of every row.  `carries`
    proves the generators automorphisms of color0 once, else NotInvariant.
    One breadth-first forest from all representatives copies the other rows
    down: row s(u) is row u moved by s, a proven automorphism.  The result
    keeps the proven generators as `generators`."""
    perms = [as_permutation(s, len(color0)) for s in gens]
    if perms and not carries(color0, color0, perms):
        raise NotInvariant("a generator is not an automorphism of the coloring")
    return _orbit_refine(color0, perms)


def _orbit_refine(color0: np.ndarray, perms: list[np.ndarray]) -> CoherentConfiguration:
    """`orbit_close` from proven automorphisms perms of color0."""
    orbits = _orbits(perms, len(color0))
    cc = CoherentConfiguration(*_stable_coloring(color0, int(color0.max()) + 1, orbits))
    cc.generators = perms
    return cc


def one_point_extension(cc: CoherentConfiguration, v: int, gens=()) -> CoherentConfiguration:
    """Re-refine with vertex v given a fresh diagonal color; {v} becomes a
    fiber.  The individualized coloring is renumbered, as v's old diagonal
    color is gone when {v} was a fiber already, and refined from one row per
    orbit of the group gens generate: for a family closure and v = e, K's
    generator gives one row per K-orbit.  Each generator must fix v and be
    an automorphism of cc, as `orbit_close` checks on the individualized
    coloring; else NotInvariant."""
    seeded = cc.color.copy()
    seeded[v, v] = cc.rank
    seeded = _renumber(seeded)[0]
    out = orbit_close(seeded, gens)
    if not out.refines(cc):
        raise RuntimeError("extension does not refine the base configuration")
    if not any(len(f) == 1 and f[0] == v for f in out.fibers):
        raise RuntimeError("extension did not isolate the chosen vertex")
    return out


def as_sring_partition(cc: CoherentConfiguration, table: GroupTable) -> list[np.ndarray]:
    """Cells {g : color(e, g) = c}, one per color in the identity row.

    For the closure of a Cayley digraph over the indexed group this is the
    basic-set partition of the closure's group-ring structure.
    """
    row = cc.color[table.identity]
    return [np.flatnonzero(row == c) for c in np.flatnonzero(np.bincount(row))]


def invariants(g: Digraph, cc: CoherentConfiguration) -> dict:
    """What the canonical closure cc of g shows of g up to 2-WL equivalence:
    rank, color multiset, intersection tensor and the colors of the arcs."""
    return {
        "rank": cc.rank,
        "color_multiset": tuple(cc.color_multiset().tolist()),
        "tensor": cc.tensor.tobytes(),
        "arc_colors": tuple(np.flatnonzero(np.bincount(cc.color[g.arcs])).tolist()),
    }


def wl_equivalent(g1: Digraph, g2: Digraph) -> bool:
    """2-WL equivalence from the two closures, each refined on its own.

    Color names are canonical, so equal invariants make the identity on
    colors an algebraic isomorphism of the closures that maps arcs to arcs,
    which holds exactly when the graphs are WL-equivalent (Chen &
    Ponomarenko, Lectures on Coherent Configurations, 2019)."""
    if g1.n != g2.n:
        raise ValueError("graphs must have the same number of vertices")
    return invariants(g1, wl_close(g1)) == invariants(g2, wl_close(g2))


def verify_algebraic_map(
    cc1: CoherentConfiguration, cc2: CoherentConfiguration, sigma
) -> bool:
    """True iff the color bijection sigma transports the full intersection
    tensor of cc1 onto that of cc2; NotInvariant unless sigma is a
    permutation of the colors.  Either side may be an S-ring's tensor."""
    if cc1.rank != cc2.rank:
        raise ValueError("rank mismatch")
    r, s, t, c = cc1.tensor.T
    sigma = as_permutation(sigma, cc1.rank).astype(r.dtype)  # colors fit the tensor's width
    order = _tensor_order(cc2, sigma[r], sigma[s], sigma[t])
    return order is not None and bool(np.array_equal(c[order], cc2.tensor[:, 3]))


def tensor_identities_hold(cc: CoherentConfiguration) -> bool:
    """Fiber compatibility, mass conservation and the triangle identity on
    the sorted tensor rows, of a closure or of an S-ring's tensor.  The
    colors, fiber ids and valencies are gathered at the tensor's width, and
    in int64 only where they multiply a count."""
    r, s, t, c = cc.tensor.T
    val = cc.valencies
    left, right, converse = (a.astype(r.dtype) for a in (cc.left_fiber, cc.right_fiber, cc.converse))
    if (right[r] != left[s]).any() or (left[r] != left[t]).any() or (right[s] != right[t]).any():
        return False
    # sum over t of p^t_rs * val[t] = val[r] * val[s], for every (r, s) meeting
    # in a fiber: with val[r] * val[s] taken off at the last row of each
    # (r, s), the running sum of the weights is 0 at each such row iff all hold
    last = np.r_[(r[1:] != r[:-1]) | (s[1:] != s[:-1]), True]
    meeting = np.bincount(right) @ np.bincount(left)  # every fiber id is some color's
    if np.count_nonzero(last) != meeting:
        return False
    excess = val[t]
    excess *= c
    taken = val[r]
    taken *= val.astype(r.dtype)[s]
    taken *= last
    excess -= taken
    del taken
    if np.any(np.cumsum(excess, out=excess), where=last):
        return False
    del excess, last
    # val[t] p^t_rs = val[r] p^r_{t s'} with s' the converse of s: the map
    # (r, s, t) -> (t, s', r) is an involution, so it permutes the rows and
    # keeps the weight val[t] p^t_rs of each.  Row order[j] lands on row j,
    # so its weight is val[r_j] * c[order[j]] (its t is r_j); row j's is
    # val[t_j] * c_j
    order = _tensor_order(cc, t, converse[s], r)
    if order is None:
        return False
    moved = val[r]
    moved *= c[order]
    del order
    weight = val[t]
    weight *= c
    return bool(np.array_equal(moved, weight))
