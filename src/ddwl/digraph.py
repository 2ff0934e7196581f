"""Digraphs on a fixed vertex set [0, n), held as out-neighbour lists or,
for irregular digraphs and relabelled copies, as a dense adjacency matrix,
with a plain-text export format.

A digraph built from lists (`Digraph.from_out`, as `build_cayley` builds the
family) holds an (n, k) array whose row u lists the k out-neighbours of u in
ascending order, at `arith.code_dtype(n)`: uint16 while n <= 2**16 (every
family digraph to q = 37), uint32 beyond.  Its users only index, compare and
count the lists, so the width changes no value.  Its n x n `arcs` matrix is
scattered from the lists on first read and kept.  Only lists carry
translations, proven on first read of `translations`; a digraph built from
`arcs` has neither lists nor translations, and reading its `out` raises
ValueError.

Vertex maps are proven here for every module: `as_permutation` proves a
map a permutation, `carries` proves permutations carry one pair coloring
onto another, and `carries_out` one digraph onto another on their lists, in
blocks of `_TAKE_ELEMENTS` entries; a failed proof raises `NotInvariant`.
`breadth_first` walks the group the permutations generate, from roots:
`orbit_mask` and `coherent`'s orbit rows read its mask and its forest.

The text format is: first line n, then n lines of n characters '0'/'1'
giving the adjacency matrix row by row.  It is bit-exact across platforms.
`ddwl build` writes it; the tests read it back.
"""

from __future__ import annotations

import numpy as np

from .arith import code_dtype

_TAKE_ELEMENTS = 1 << 16  # entries per block of `carries_out`


class NotInvariant(ValueError):
    """Group data that does not describe automorphisms of the coloring it is given with."""


class Digraph:
    """A digraph on [0, n).  The `translations` claimed with its lists (a
    Cayley digraph's right translations, as `build_cayley` gives them) are
    proven once, on first read of `translations`: `designs.verify_ddd`
    counts from one row and `coherent.wl_close` refines one row from them.
    `Digraph(arcs)`, an n x n matrix, claims none."""

    def __init__(self, arcs, label: str = ""):
        a = np.asarray(arcs, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("arcs must be a square matrix")
        self._arcs, self._out = a, None
        self.label, self._claimed, self._translations = label, (), None

    @classmethod
    def from_out(cls, out, label: str = "", translations: tuple = ()) -> "Digraph":
        """The digraph whose vertex u dominates the vertices out[u], for an
        (n, k) integer array with entries in [0, n); the rows are kept sorted,
        at the narrowest width that holds 0..n-1 (`arith.code_dtype`)."""
        out = np.asarray(out)
        if out.ndim != 2 or out.dtype.kind not in "iu":
            raise ValueError("out must be a two-dimensional integer array")
        if out.size and (out.min() < 0 or out.max() >= len(out)):
            raise ValueError(f"out-neighbours must lie in [0, {len(out)})")
        g = cls.__new__(cls)
        g._arcs, g._out = None, np.array(out, dtype=code_dtype(len(out)), order="C")  # a copy
        g._out.sort(axis=1)
        g.label, g._claimed, g._translations = label, translations, None
        return g

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, label={self.label!r})"

    @property
    def n(self) -> int:
        return len(self._out) if self._arcs is None else len(self._arcs)

    @property
    def translations(self) -> tuple:
        """The claimed translations, proven on first read and kept: each is a
        permutation (`as_permutation`) that maps the out-neighbour lists
        onto themselves (`carries_out`), and together they reach every
        vertex from 0 (`orbit_mask`), so they generate a transitive group of
        automorphisms; else NotInvariant."""
        if self._translations is None:
            perms = tuple(as_permutation(s, self.n) for s in self._claimed)
            if perms and not carries_out(self.out, self.out, perms):
                raise NotInvariant("a translation maps an arc to a non-arc")
            if perms and not orbit_mask(0, perms, self.n).all():
                raise NotInvariant("the translations do not act transitively")
            self._translations = perms
        return self._translations

    def without_loops(self) -> "Digraph":
        """This digraph minus its loops, from its lists, holding the
        translations proven on this one (proving them first): an
        automorphism maps loops to loops, so it maps the other arcs onto the
        other arcs.  NotInvariant unless every vertex or none has a loop."""
        proven, out = self.translations, self.out
        keep = out != np.arange(self.n)[:, None]
        if np.count_nonzero(~keep) not in (0, self.n):
            raise NotInvariant("some vertices have loops and some do not")
        g = Digraph.from_out(out[keep].reshape(self.n, -1), label=f"{self.label} minus loops")
        g._claimed = g._translations = proven
        return g

    @property
    def arcs(self) -> np.ndarray:
        """The n x n bool adjacency matrix, scattered from the lists once."""
        if self._arcs is None:
            a = np.zeros((self.n, self.n), dtype=bool)
            a[np.arange(self.n)[:, None], self._out] = True
            self._arcs = a
        return self._arcs

    @property
    def out(self) -> np.ndarray:
        """The (n, k) out-neighbour lists at `arith.code_dtype(n)`, each
        row ascending; a digraph built from `arcs` has none."""
        if self._out is None:
            raise ValueError("a digraph built from arcs has no out-neighbour lists")
        return self._out

    def relabeled(self, perm: np.ndarray) -> "Digraph":
        """Rename vertex u to perm[u], as a `Digraph(arcs)` that claims no
        translations; `as_permutation` proves perm (its NotInvariant is a
        ValueError)."""
        perm = as_permutation(perm, self.n)
        a = np.empty_like(self.arcs)
        a[np.ix_(perm, perm)] = self.arcs
        return Digraph(a, label=self.label)

    def to_text(self) -> str:
        lines = [str(self.n)]
        chars = np.where(self.arcs, "1", "0")
        lines.extend("".join(row) for row in chars)
        return "\n".join(lines) + "\n"


# -- proofs of vertex maps ------------------------------------------------------


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


def breadth_first(roots, perms: list[np.ndarray], n: int) -> tuple[np.ndarray, list]:
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
    return breadth_first([v], perms, n)[0]
