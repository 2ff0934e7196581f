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

Two interchangeable signature encodings realise the same order:

  * count mode (small color count): the vector of code multiplicities,
    stored as (n - count) so that lexicographic comparison of the encoded
    rows equals sorted-vector comparison of the multisets;
  * sort mode (large color count): the sorted code vector itself.

A round uses one mode throughout, chosen from the current rank, and work is
blocked over rows to bound scratch memory.  In count mode the count of code
r * rank + s at (u, v) is the intersection number #{w : color(u, w) = r,
color(w, v) = s} = (A_r A_s)[u, v], A_r the 0/1 matrix of color r: the
coherent-algebra form of 2-WL (Weisfeiler & Leman 1968).  A round that
refines every row at rank at most `_PRODUCT_MAX_RANK` computes the counts
by one float64 product per block: the 0/1 rows of the A_r times a right
operand that packs the digits n - count(r, s), base n + 1, as many to a
word as keep it below 2**53, big-endian and in code order.  Every partial
sum is then a nonnegative integer below 2**53, exact in any summation
order, and the words order the keys as the digits do; the distinct keys
are unpacked to those of the other count-mode kernel, one bincount of the
codes, which orbit-row rounds and higher ranks use.  Each key is one
fixed-width big-endian byte string, whose bytewise order is the numeric
order above; `sorted_unique_rows` orders the keys of a block, and the same
helper orders the vertex signatures of `isotest`.
Count-mode keys hold n - counts <= n < 2**16 as uint16.  Sort-mode keys
hold codes below rank**2, and the vertex signatures of `isotest` codes below
ncells * mult, at the width `code_dtype` gives: uint16 while the codes fit
2**16, uint32 while they fit 2**32, int64 beyond.  On nonnegative codes
unsigned order is int64 order, so the width changes no name.

Orbit rows.  Given generators of a group of automorphisms of the initial
coloring, a round computes the keys of one representative row per vertex
orbit (its least vertex) only and copies every other row down one
breadth-first forest over the generators: the vertices w = s(u) first
reached from u by a generator s take row u moved by s, as color(s(u), s(v))
= color(u, v).  The stable coloring is invariant under the group,
so every color class meets a representative row; the key set, hence the
canonical names, the rank, the rounds and the tensor, are those of a
round on every row.  That round, the dense engine, is the trivial group:
every vertex is its own representative and there are no steps.
`wl_close` refines from a digraph's translations, proven once on its
out-neighbour lists by `Digraph.translations` (a Cayley digraph's right
translations: one row; none for any other digraph), and `orbit_extension`
runs `orbit_close`, which proves its generators on the coloring, from a
group fixing the individualized vertex (none for `one_point_extension`).

Intersection numbers.  The round that confirms stability gives every pair
of color t the same key, so that key is the multiset of codes
(color(u, w), color(w, v)) shared by all pairs of color t: the intersection
numbers of t, proven well defined for every pair.  Once sorted rows,
scatters and bincounts have checked the valencies, the tensor is read off
those keys in code order, then t, which is (r, s, t) order.  Its rows are
held at `tensor_dtype(rank, n)`, the width of every color and count.
The checks on a tensor widen to int64 only to multiply: the key
(r * rank + s) * rank + t by which they compare moved rows with it, and
the weights val[t] * count; they hold at most two int64 arrays of tensor
length at once.  They read only rank, valencies, converse, fiber ids and
tensor rows, so they check an S-ring's convolution tensor (one fiber) as
they check a closure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .arith import code_dtype
from .digraph import Digraph
from .heisenberg import GroupTable

_MODE_A_MAX_CODES = 8192       # count mode while rank**2 stays at most this
# Count mode by packed-digit products on full-matrix rounds up to this rank.
# On a 2-core x86-64 VM with one BLAS thread, one round on a random n = 343
# coloring (nearly every key distinct) took 175 ms by products and 309 ms by
# bincount at rank 6, 407 against 438 ms at rank 10, but 781 against 587 ms
# at rank 14; the dense q = 7 closure's rank-9 round took 0.08 against 0.19 s.
# Orbit-row rounds keep the bincount: one row would pay for all n**2 pairs.
_PRODUCT_MAX_RANK = 10
_BLOCK_ELEMENT_BUDGET = 500_000  # scratch elements per block; larger blocks measured slower
_COMPARE_BYTES = 1 << 16  # sorted rows gathered per pass of `sorted_unique_rows`
_FINGERPRINT_MULTIPLIER = 0x9E3779B97F4A7C15  # odd: 2**64 / golden ratio
_TAKE_ELEMENTS = 1 << 16  # entries per block of `carries_out` and of the tensor comparison


class NotInvariant(ValueError):
    """Group data that does not describe automorphisms of the coloring it is given with."""


class Orbits(NamedTuple):
    """One representative row per vertex orbit of a group of automorphisms of
    an initial coloring, and the breadth-first forest that reaches every
    other vertex from them: step (w, u, s) reaches the vertices w = s(u)
    from the vertices u by a generator s."""

    reps: np.ndarray  # (r,) the least vertex of each orbit, ascending
    steps: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def expand(self, rows: np.ndarray) -> np.ndarray:
        """rows[k] as row reps[k], then color[s(u), s(v)] = color[u, v] for each step."""
        if not self.steps:
            return rows  # every vertex is a representative
        color = np.empty((rows.shape[1],) * 2, dtype=rows.dtype)
        color[self.reps] = rows
        for w, u, s in self.steps:
            color[w[:, None], s] = color[u]
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

    Only the run heads are sorted as byte strings.  The rows are ordered by
    a fingerprint, the sum mod 2**64 of their words times odd weights (so
    rows one word apart never collide), and cut into runs wherever two
    neighbours differ byte for byte; `np.unique` of the heads orders them
    and merges equal heads that a collision put in separate runs."""
    rows = np.ascontiguousarray(rows)
    m, nbytes = len(rows), rows.shape[1] * rows.itemsize
    words = rows.view(f"u{next(s for s in (8, 4, 2, 1) if nbytes % s == 0)}")
    weights = np.arange(1, 2 * words.shape[1], 2, dtype=np.uint64)
    weights *= np.uint64(_FINGERPRINT_MULTIPLIER)
    # einsum widens the words to uint64 in buffered pieces, never the whole array
    fingerprint = np.einsum("ij,j->i", words, weights)
    order = np.argsort(fingerprint, kind="stable")
    fingerprint = fingerprint[order]
    head = np.ones(m, dtype=bool)
    np.not_equal(fingerprint[1:], fingerprint[:-1], out=head[1:])
    step = max(1, _COMPARE_BYTES // nbytes)  # rows compared per gather
    for start in range(1, m, step):
        ordered = words[order[start - 1 : start + step]]
        head[start : start + step] |= (ordered[1:] != ordered[:-1]).any(axis=1)
    heads = rows[order[head]].astype(rows.dtype.newbyteorder(">"), copy=False)
    keys, inverse = np.unique(heads.view(f"V{nbytes}").ravel(), return_inverse=True)
    inverse = inverse[np.cumsum(head) - 1]  # of each sorted row
    out = np.empty_like(inverse)  # the one array kept, made once the scratch is freed
    out[order] = inverse
    return keys, out


def _refine_round(
    color: np.ndarray, rank: int, rows: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray]:
    """One recoloring of the given ascending rows, as a (len(rows), n) matrix;
    also returns the sorted signature keys, key i naming new color i."""
    n = color.shape[0]
    if n >= 65536:
        raise ValueError("refinement supports fewer than 2**16 vertices")
    m = len(rows)
    ncodes = rank * rank
    count_mode = ncodes <= _MODE_A_MAX_CODES
    products = m == n and rank <= _PRODUCT_MAX_RANK  # rows are then 0..n-1
    wide = None if count_mode else code_dtype(ncodes)  # the codes r * rank + s
    # cw[v, w] = color(w, v): a block's codes are (u, v, w), sorted along w in place
    cw = None if count_mode else np.ascontiguousarray(color.T, dtype=wide)
    if products:
        # the digits n - count(r, s) <= n, base n + 1, `width` to a float64 word
        # so that a word stays below 2**53; digit s of r lies in word s // width
        base, width = n + 1, 1
        while width < rank and base ** (width + 1) <= 2**53:
            width += 1
        nwords = -(-rank // width)
        per_row = 4 * n * rank * nwords  # float64 products and int64 key words, 8 bytes each
    else:
        per_row = n * max(n, ncodes) if count_mode else n * n
    block = max(1, min(m, _BLOCK_ELEMENT_BUDGET // max(1, per_row)))

    pieces = []
    if products:
        # big-endian: the power of digit s is base ** (digits after s in its word)
        s = np.arange(rank)
        place = np.zeros((rank, nwords))
        after = np.minimum(width, rank - s // width * width) - 1 - s % width
        place[s, s // width] = base**after
        top = n * place.sum(axis=0)  # word j with every digit n: all counts 0
        right = place[color].reshape(n, n * nwords)  # [w, (v, j)] = place[color(w, v), j]
        left = np.empty((block, rank, n))  # reused per block
        prod = np.empty((block * rank, n * nwords))  # reused per block
    elif count_mode:
        scratch = np.empty((block, n, n), dtype=np.int32)  # reused per block
    for start in range(0, m, block):
        stop = min(m, start + block)
        nb = stop - start
        mine = color[rows[start:stop]]
        if products:
            # left[(u, r), w] = [color(u, w) = r], so [(u, r), (v, j)] packs the counts
            # (A_r A_s)[u, v] of word j, exact as every partial sum is an integer
            # below 2**53; top - packed counts, moved to [u, v, r, j]
            np.equal(mine[:, None, :], np.arange(rank, dtype=np.int32)[:, None], out=left[:nb])
            packed = np.matmul(left[:nb].reshape(nb * rank, n), right, out=prod[: nb * rank])
            keyrows = np.empty((nb * n, 1 + rank * nwords), dtype=np.int64)
            keyrows[:, 0] = mine.reshape(nb * n)
            np.subtract(
                top,
                packed.reshape(nb, rank, n, nwords).transpose(0, 2, 1, 3),
                out=keyrows[:, 1:].reshape(nb, n, rank, nwords),
                casting="unsafe",
            )
        elif count_mode:
            keyrows = np.empty((nb * n, ncodes + 1), dtype=">u2")  # old < rank < 2**16
            keyrows[:, 0] = mine.reshape(nb * n)
            # nb * n * ncodes stays below the block budget, so int32 suffices
            codes = np.add(mine[:, :, None] * np.int32(rank), color[None, :, :], out=scratch[:nb])
            offs = (
                np.arange(nb, dtype=np.int32)[:, None, None] * np.int32(n)
                + np.arange(n, dtype=np.int32)[None, None, :]
            ) * np.int32(ncodes)
            codes += offs
            counts = np.bincount(codes.ravel(), minlength=nb * n * ncodes)
            counts = counts.reshape(nb * n, ncodes)
            np.subtract(n, counts, out=keyrows[:, 1:], casting="unsafe")  # n - counts, in place
        else:
            codes = mine.astype(wide)[:, None, :] * wide.type(rank) + cw[None, :, :]  # axis 2 = w
            codes.sort(axis=2)
            keyrows = np.empty((nb * n, n + 1), dtype=wide.newbyteorder(">"))
            keyrows[:, 0] = mine.reshape(nb * n)
            keyrows[:, 1:] = codes.reshape(nb * n, n)
        pieces.append(sorted_unique_rows(keyrows))

    keys, merged = np.unique(np.concatenate([local for local, _ in pieces]), return_inverse=True)
    starts = np.cumsum([0] + [len(local) for local, _ in pieces])
    new = np.concatenate([merged[start:][inv] for start, (_, inv) in zip(starts, pieces)])
    if products:
        # the distinct keys in the bincount kernel's layout: old color, then n - count
        # of code r * rank + s, peeled off word j = s // width of r, last digit first
        words = keys.view(">i8").reshape(len(keys), 1 + rank * nwords)
        flat = np.empty((len(keys), ncodes + 1), dtype=">u2")
        flat[:, 0] = words[:, 0]
        digits = flat[:, 1:].reshape(len(keys), rank, rank)
        rest = words[:, 1:].reshape(len(keys), rank, nwords).transpose(2, 0, 1)
        rest = np.ascontiguousarray(rest, dtype=np.int64)  # [j, key, r]
        for i in reversed(range(rank)):
            rest[i // width], digits[:, :, i] = np.divmod(rest[i // width], base)
        keys = flat.view(f"V{2 * (ncodes + 1)}").ravel()
    return new.astype(np.int32).reshape(m, n), len(keys), keys


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


def tensor_dtype(rank: int, n: int) -> np.dtype:
    """The one width of a tensor's (r, s, t, count) rows on n vertices:
    `code_dtype(max(rank, n + 1))` holds every color and every count."""
    return code_dtype(max(rank, n + 1))


def _tensor_from_keys(keys: np.ndarray, n: int, rank: int) -> np.ndarray:
    """The (r, s, t, count) rows of the intersection tensor, in (r, s, t)
    order, at `tensor_dtype(rank, n)`.

    In the confirming round every pair of color t received key t, so key t
    holds the code multiset of all of them: code r * rank + s counts the w
    with color(u, w) = r and color(w, v) = s.  Code order, then t, is
    (r, s, t) order: that of count mode's counts read transposed, and of
    sort mode's t-major run heads after a stable sort by s, then by r, at
    the rows' width.  Sort mode holds at most two int64 arrays of tensor
    length, the run starts and then one sort order: t and the run lengths
    are narrowed as each is made, and the starts are freed before the rows
    are allocated.
    """
    narrow = tensor_dtype(rank, n)
    count_mode = rank * rank <= _MODE_A_MAX_CODES
    if count_mode:
        counts = n - keys.view(">u2").reshape(rank, -1)[:, 1:].T  # [code, t]
        code, t = np.nonzero(counts)
        count = counts[code, t]
    else:
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
    if not count_mode:
        # stable by s, then by r: equal (r, s) keep their t order
        for k in (1, 0):
            order = np.argsort(rows[:, k], kind="stable")
            for column in rows.T:
                column[:] = column[order]
            del order
    return rows


def _tensor_key(r: np.ndarray, s: np.ndarray, t: np.ndarray, rank: int) -> np.ndarray:
    """The int64 key (r * rank + s) * rank + t of each triple, in (r, s, t)
    order: `_tensor_order` compares moved triples with a tensor by it.  The
    columns may be of any unsigned or int64 width: r is widened to int64
    before the first product, so uint16 columns at rank >= 256 do not wrap,
    and the key is the one int64 array made."""
    if rank**3 >= 2**63:
        raise ValueError("tensor order supports ranks with rank**3 < 2**63")
    key = r.astype(np.int64)
    key *= rank
    key += s
    key *= rank
    key += t
    return key


def _tensor_order(cc: CoherentConfiguration, r, s, t) -> np.ndarray | None:
    """The order that sorts the triples (r, s, t) onto the rows of
    cc.tensor: triple order[i] is row i.  None unless they are those rows in
    some order and the tensor's keys strictly increase, so a tensor holding
    a triple twice is refused.  The triples' keys and the order are the two
    int64 arrays of tensor length; the tensor's keys are made for blocks of
    `_TAKE_ELEMENTS` rows."""
    tensor, rank = cc.tensor, cc.rank
    if len(r) != len(tensor):
        return None
    key = _tensor_key(r, s, t, rank)
    order = np.argsort(key)
    last = -1  # the previous block's last key; every key is at least 0
    for start in range(0, len(order), _TAKE_ELEMENTS):
        stop = start + _TAKE_ELEMENTS
        ref = _tensor_key(*tensor[start:stop, :3].T, rank)
        if (np.diff(ref, prepend=last) <= 0).any() or not np.array_equal(key[order[start:stop]], ref):
            return None
        last = ref[-1]
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


def as_permutation(s, n: int) -> np.ndarray:
    """s as an integer array of shape (n,) holding 0..n-1 once each; else NotInvariant."""
    s = np.asarray(s)
    if s.shape != (n,) or s.dtype.kind not in "iu" or not np.array_equal(np.sort(s), np.arange(n)):
        raise NotInvariant(f"a map is not a permutation of 0..{n - 1}")
    return s


def carries(c1: np.ndarray, c2: np.ndarray, perms: list[np.ndarray]) -> bool:
    """True iff c2[s(u), s(v)] == c1[u, v] for all pairs and every vertex
    permutation s in perms (see `as_permutation`), compared on the whole
    moved matrix."""
    return all(np.array_equal(c2[s][:, s], c1) for s in perms)  # faster than np.ix_


def carries_out(out1: np.ndarray, out2: np.ndarray, perms: list[np.ndarray]) -> bool:
    """True iff every vertex permutation s in perms (see `as_permutation`)
    carries the digraph with out-neighbour lists out1 onto the one with
    out2: sort(s[out1[u]]) == out2[s(u)] for every u.  Lists of another
    shape hold another number of arcs.  Each row of both (n, k) lists must
    strictly ascend, else NotInvariant; then s maps the n k arcs of out1 one
    to one into the n k arcs of out2, hence onto them.

    The lists are read in blocks of rows of about `_TAKE_ELEMENTS` entries:
    each block is cast to intp once and serves every permutation, as
    `np.take` gathers from an intp index without widening it, while a
    narrow index is widened whole on every gather.  The images are gathered
    from s held in out1's dtype, which must hold n - 1, as a `Digraph`'s
    `code_dtype(n)` (uint16 to n = 2**16) does, and sorted in it."""
    if out1.shape != out2.shape:
        return False
    for out in (out1,) if out2 is out1 else (out1, out2):
        if not (out[:, 1:] > out[:, :-1]).all():
            raise NotInvariant("an out-neighbour list repeats a vertex or is out of order")
    narrow = [np.asarray(s, dtype=out1.dtype) for s in perms]
    rows = max(1, _TAKE_ELEMENTS // max(1, out1.shape[1]))
    for start in range(0, len(out1), rows):
        block = out1[start : start + rows].astype(np.intp)
        for s, images in zip(perms, narrow):
            moved = np.take(images, block)
            moved.sort(axis=1)
            if not np.array_equal(moved, out2[s[start : start + rows]]):
                return False
    return True


def _breadth_first(roots, perms: list[np.ndarray], n: int) -> tuple[np.ndarray, list]:
    """The vertices reached from roots by the permutations perms, a boolean
    mask over [0, n), and the breadth-first forest: the steps (w, u, s), one
    layer at a time, list the vertices w = s(u) first reached from u by s in
    perms (distinct, as one permutation sends distinct vertices apart)."""
    reached, frontier, steps = np.zeros(n, dtype=bool), np.asarray(roots), []
    reached[frontier] = True
    while perms and frontier.size:
        layer = []
        for s in perms:
            images = s[frontier]
            new = ~reached[images]
            w = images[new]
            reached[w] = True
            layer.append(w)
            if w.size:
                steps.append((w, frontier[new], s))
        frontier = np.concatenate(layer)
    return reached, steps


def orbit_mask(v: int, perms: list[np.ndarray], n: int) -> np.ndarray:
    """The orbit of vertex v under the group perms generate, as a boolean
    mask over [0, n)."""
    return _breadth_first([v], perms, n)[0]


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
            return Orbits(reps, _breadth_first(reps, perms, n)[1])
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


def _individualized(cc: CoherentConfiguration, v: int) -> np.ndarray:
    """cc's coloring with (v, v) in a fresh color, renumbered: v's old
    diagonal color is gone when {v} was a fiber already."""
    seeded = cc.color.copy()
    seeded[v, v] = cc.rank
    return _renumber(seeded)[0]


def _checked_extension(
    cc: CoherentConfiguration, v: int, out: CoherentConfiguration
) -> CoherentConfiguration:
    if not out.refines(cc):
        raise RuntimeError("extension does not refine the base configuration")
    if not any(len(f) == 1 and f[0] == v for f in out.fibers):
        raise RuntimeError("extension did not isolate the chosen vertex")
    return out


def one_point_extension(cc: CoherentConfiguration, v: int) -> CoherentConfiguration:
    """Re-refine with vertex v given a fresh diagonal color; {v} becomes a fiber."""
    return orbit_extension(cc, v, [])


def orbit_extension(
    cc: CoherentConfiguration, v: int, gens: list[np.ndarray]
) -> CoherentConfiguration:
    """one_point_extension(cc, v), refined from one row per orbit of the group
    gens generate: for a family closure and v = e, K's generator gives one
    row per K-orbit.  Each generator must fix v and be an automorphism of cc,
    as `orbit_close` checks on the individualized coloring; else NotInvariant."""
    return _checked_extension(cc, v, orbit_close(_individualized(cc, v), gens))


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
