"""Dense digraphs on a fixed vertex set [0, n), with a plain-text export format.

The text format is: first line n, then n lines of n characters '0'/'1'
giving the adjacency matrix row by row.  It is bit-exact across platforms.
`ddwl build` writes it; the tests read it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Digraph:
    arcs: np.ndarray
    label: str = field(default="")
    # claimed automorphisms acting transitively (a Cayley digraph's right translations,
    # set only by `build_cayley`): `designs.verify_ddd` proves the claim and counts from
    # one row, `coherent.wl_close` proves them automorphisms and refines one row per orbit.
    translations: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.arcs, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("arcs must be a square matrix")
        self.arcs = a

    @property
    def n(self) -> int:
        return self.arcs.shape[0]

    def out_degrees(self) -> np.ndarray:
        return self.arcs.sum(axis=1)

    def in_degrees(self) -> np.ndarray:
        return self.arcs.sum(axis=0)

    def is_asymmetric(self) -> bool:
        """No 2-cycles between distinct vertices; loops are ignored."""
        both = self.arcs & self.arcs.T
        np.fill_diagonal(both, False)
        return not both.any()

    def relabeled(self, perm: np.ndarray) -> "Digraph":
        """Rename vertex u to perm[u]; `coherent.as_permutation` proves perm
        (its NotInvariant is a ValueError)."""
        from .coherent import as_permutation  # coherent imports this module

        perm = as_permutation(perm, self.n)
        a = np.empty_like(self.arcs)
        a[np.ix_(perm, perm)] = self.arcs
        return Digraph(a, label=self.label)

    def to_text(self) -> str:
        lines = [str(self.n)]
        chars = np.where(self.arcs, "1", "0")
        lines.extend("".join(row) for row in chars)
        return "\n".join(lines) + "\n"
