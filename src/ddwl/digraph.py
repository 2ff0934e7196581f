"""Dense digraphs on a fixed vertex set [0, n), with a plain-text exchange format.

The text format is: first line n, then n lines of n characters '0'/'1'
giving the adjacency matrix row by row.  It is bit-exact across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Digraph:
    arcs: np.ndarray
    label: str = field(default="")

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
        """Rename vertex u to perm[u]."""
        perm = np.asarray(perm)
        n = self.n
        if sorted(perm.tolist()) != list(range(n)):
            raise ValueError("perm must be a permutation of [0, n)")
        a = np.empty_like(self.arcs)
        a[np.ix_(perm, perm)] = self.arcs
        return Digraph(a, label=self.label)

    def to_text(self) -> str:
        lines = [str(self.n)]
        chars = np.where(self.arcs, "1", "0")
        lines.extend("".join(row) for row in chars)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Digraph":
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

    @staticmethod
    def complete(n: int) -> "Digraph":
        a = np.ones((n, n), dtype=bool)
        np.fill_diagonal(a, False)
        return Digraph(a, label=f"complete({n})")

    @staticmethod
    def directed_cycle(n: int) -> "Digraph":
        a = np.zeros((n, n), dtype=bool)
        a[np.arange(n), (np.arange(n) + 1) % n] = True
        return Digraph(a, label=f"cycle({n})")

    @staticmethod
    def random(n: int, p: float, seed: int) -> "Digraph":
        rng = np.random.default_rng(seed)
        a = rng.random((n, n)) < p
        np.fill_diagonal(a, False)
        return Digraph(a, label=f"random({n}, {p}, seed={seed})")
