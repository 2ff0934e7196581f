"""Connection sets and Cayley digraphs over H3(q), plus the companion
cyclic group law on GF(q) extended by an infinity point, the index q.

Fix a nonsquare eps in GF(q).  The 2x2 matrices

    M(a, b) = (a, b; eps*b, a),   (a, b) != (0, 0)

form a cyclic group of order q**2 - 1 (M(a, b) is a + b*sqrt(eps) in
GF(q**2)*), and each induces an automorphism rho(M(a, b)) of H3(q):

    (x, y, z) |-> (a*x + eps*b*y,  b*x + a*y,  F_ab(x, y, z))
    F_ab(x, y, z) = a*b*(x**2/2 + eps*y**2/2) + eps*b**2*x*y + (a**2 - eps*b**2)*z

so K = <rho(M(a0, b0))> for any M(a0, b0) of order q**2 - 1.  Conjugation
by diag(1, 1, -1), sigma(x, y, z) = (x, -y, -z), is one more automorphism:
it maps each X_i onto X_chi(i) (both below), so Cay(X_i) onto Cay(X_chi(i)).

The orbits of the resulting group K on H3(q) are {e}, the nontrivial center,
and q sets Y_i (one per i in GF(q)), where

    Y_i = {(a, b, gamma_i(a, b)) : (a, b) != (0, 0)},
    gamma_i(a, b) = a*b/2 + (a**2 - eps*b**2)*i.

X_i = Y_i + {e} meets every center coset exactly once, and the Cayley
digraph on arcs (g, x*g), x in X_i, is the divisible design digraph studied
here (it has a loop at every vertex; the loopless companion is available
via include_identity=False).

On the index set GF(q) + {inf}, with inf the index q, the operation

    psi(i, j) = (i*j + delta) / (i + j),   delta = 1/(16*eps)

(with psi(i, q) = psi(q, i) = i, and psi(i, -i) = q) is a cyclic group of
order q + 1 with identity q and inverse chi(i) = -i.  `psi_table` holds it as
one (q + 1) x (q + 1) array.  The generators of that group single out the
digraph labels i for which the family is studied.
"""

from __future__ import annotations

import numpy as np

from .arith import prime_power
from .digraph import Digraph, as_permutation
from .gf import field_create
from .heisenberg import GroupTable

# 11**3; the default cap on n, not a limit of the tables: `mult` holds n**2
# vertices at `code_dtype(n)`, 3.5 MB here and 5.1 GB at q = 37
MAX_VERTICES_DEFAULT = 1331
# closed forms per `rho_perm` call in `build_K`: all q**2 - 1 at once held
# (q**2 - 1, n) arrays and raised the q = 13 peak RSS by 2.8 MB
_POWERS_PER_CALL = 16


class Construction:
    """All of the above for one odd prime power q, with heavy parts cached."""

    def __init__(self, q: int, max_vertices: int = MAX_VERTICES_DEFAULT):
        pp = prime_power(q)
        if pp is None:
            raise ValueError(f"q = {q} is not a prime power")
        if q**3 > max_vertices:
            raise ValueError(f"|G| = {q**3} exceeds the vertex cap {max_vertices}")
        self.field = field_create(*pp)
        self.table = GroupTable(self.field)
        f = self.field
        self.q = q
        self.n = self.table.n
        self.epsilon = f.nonsquare()
        self.half = f.inv(f.from_int(2))
        # the coupling constant of psi: 1/(16*eps), a nonsquare.  It is the
        # unique value for which the singleton structure constant of the
        # cell products Y_i * Y_j lands at the cell labelled psi(i, j).
        self.delta = f.inv(f.mul(f.from_int(16), self.epsilon))
        self._generator: tuple[int, int] | None = None
        self._K: list[tuple[int, int]] | None = None
        self._least: np.ndarray | None = None
        self._orbits: list[np.ndarray] | None = None
        self._cells: list[np.ndarray] | None = None
        self._X: dict[int, np.ndarray] = {}
        self._blocks0: np.ndarray | None = None

    # -- the automorphism group K ------------------------------------------

    def rho_perm(self, a, b) -> np.ndarray:
        """Vertex permutation of the automorphism induced by (a, b; eps*b, a).
        Every term but norm*z depends on the coset (x, y) alone, so it is
        evaluated on the q x q grid (`GroupTable.coset_affine`).  For index
        arrays a and b of shape (m,), the (m, n) permutations of the pairs."""
        f, t = self.field, self.table
        eps, (x, y) = self.epsilon, t.grid
        a, b = (np.reshape(v, np.shape(v) + (1, 1)) for v in (a, b))
        x2 = f.add(f.mul(a, x), f.mul(eps, f.mul(b, y)))
        y2 = f.add(f.mul(b, x), f.mul(a, y))
        ab = f.mul(a, b)
        s_x2 = f.mul(ab, self.half)                    # coefficient of x**2
        s_y2 = f.mul(f.mul(ab, eps), self.half)        # coefficient of y**2
        s_xy = f.mul(eps, f.mul(b, b))                 # coefficient of x*y
        norm = f.sub(f.mul(a, a), f.mul(eps, f.mul(b, b)))
        quad = f.add(
            f.add(f.mul(s_x2, f.mul(x, x)), f.mul(s_y2, f.mul(y, y))), f.mul(s_xy, f.mul(x, y))
        )
        return t.coset_affine(x2, y2, quad, norm[..., 0, 0])

    def sigma_perm(self) -> np.ndarray:
        """sigma(x, y, z) = (x, -y, -z), on the coset grid (x, -y), shift 0 and
        scale -1; gamma_{-i}(a, -b) = -gamma_i(a, b), so sigma(X_i) = X_chi(i)."""
        t, f, (x, y) = self.table, self.field, self.table.grid
        return t.coset_affine(x, f.neg(y), 0, f.neg(f.one))

    def _m_powers(self, m: tuple[int, int]) -> list[tuple[int, int]]:
        """M(a, b), M(a, b)**2, ... up to the identity (1, 0), in field arithmetic."""
        f, (a, b), out = self.field, m, [m]
        while out[-1] != (1, 0) and len(out) < self.q**2:
            c, d = out[-1]
            ac_bd = f.add(f.mul(a, c), f.mul(self.epsilon, f.mul(b, d)))
            out.append((int(ac_bd), int(f.add(f.mul(a, d), f.mul(b, c)))))
        return out

    def k_generator(self) -> tuple[int, int]:
        """The first (a, b) in lexicographic order with M(a, b) of order
        q**2 - 1, found once and kept."""
        if self._generator is None:
            pairs = ((a, b) for a in range(self.q) for b in range(self.q) if a or b)
            gen = next((m for m in pairs if len(self._m_powers(m)) == self.q**2 - 1), None)
            if gen is None:
                raise RuntimeError("no M(a, b) has order q**2 - 1; eps is not a nonsquare")
            self._generator = gen
        return self._generator

    def build_K(self) -> list[tuple[int, int]]:
        """The q**2 - 1 labels (a, b) of K = <rho(M(a0, b0))>, sorted, from
        one walk of the generator's powers that proves K, checks its order
        and finds its orbits; no power is kept.

        g = rho(M(a0, b0)) for (a0, b0) = `k_generator()` must be a bijection with
        g(u h) == g(u) g(h) for all u and each h = s(e) of a right translation s,
        proven u -> u h, whose orbit of e is H3(q) (`GroupTable.translations_generate`):
        the h generate, so by induction on word length g is a homomorphism
        (O(n l)), and its powers automorphisms.
        The k-th must equal `rho_perm` of M(a0, b0)**k (O(n) each), evaluated
        `_POWERS_PER_CALL` at a time, and be the identity exactly when
        M(a0, b0)**k is (1, 0), so g has order q**2 - 1.  The walk keeps
        least[v], the least g**k(v) over all k: the least point of v's orbit."""
        if self._K is not None:
            return self._K
        mult, gen = self.table.mult, self.k_generator()
        g = as_permutation(self.rho_perm(*gen), self.n)
        steps = self.table.right_translations()
        if not self.table.translations_generate():
            raise RuntimeError("the right translations are not u -> u * h for h generating H3(q)")
        if not all(np.array_equal(g[s], mult[g, g[s[0]]]) for s in steps):
            raise RuntimeError(f"rho{gen} is not a homomorphism")
        powers, identity = self._m_powers(gen), np.arange(self.n, dtype=g.dtype)
        if len(set(powers)) != self.q**2 - 1:
            raise RuntimeError(f"M{gen} has {len(set(powers))} powers, not q**2 - 1")
        least, perm = identity.copy(), g
        for start in range(0, len(powers), _POWERS_PER_CALL):
            chunk = powers[start : start + _POWERS_PER_CALL]
            for m, closed in zip(chunk, self.rho_perm(*np.array(chunk).T)):
                if not np.array_equal(perm, closed):
                    raise RuntimeError(f"rho{m} is not the matching power of rho{gen}")
                if np.array_equal(perm, identity) != (m == (1, 0)):
                    raise RuntimeError(f"rho{gen} does not have order q**2 - 1")
                np.minimum(least, perm, out=least)
                perm = g[perm]
        self._least, self._K = least, sorted(powers)
        return self._K

    def k_orbits(self) -> list[np.ndarray]:
        """Orbit partition of K on the group; exactly q + 2 cells: the
        vertices grouped by the least point of their orbit, which `build_K`'s
        walk keeps, and checked against the analytic `cells()`."""
        if self._orbits is not None:
            return self._orbits
        self.build_K()
        least = self._least
        orbits = [np.flatnonzero(least == r) for r in np.flatnonzero(least == np.arange(self.n))]
        got = {arr.tobytes() for arr in orbits}
        want = {arr.tobytes() for arr in self.cells()}
        if got != want or len(orbits) != self.q + 2:
            raise RuntimeError("K-orbits do not match the analytic cell list")
        self._orbits = orbits
        return orbits

    def cells(self) -> list[np.ndarray]:
        """The analytic K-orbits in S-ring order: {e}, Y_0, ..., Y_{q-1}, Z#."""
        if self._cells is None:
            ys = [self.build_Y(i) for i in range(self.q)]
            self._cells = [np.array([0], dtype=np.int64)] + ys + [self.punctured_center()]
        return self._cells

    def punctured_center(self) -> np.ndarray:
        """The q - 1 central vertices other than the identity."""
        return np.flatnonzero(self.table.center_mask)[1:].astype(np.int64)  # e = 0 first

    # -- connection sets and digraphs --------------------------------------

    def gamma(self, i: int, a: int, b: int):
        """a*b/2 + (a**2 - eps*b**2)*i; accepts scalars or index arrays."""
        f = self.field
        quad = f.sub(f.mul(a, a), f.mul(self.epsilon, f.mul(b, b)))
        return f.add(f.mul(f.mul(a, b), self.half), f.mul(quad, i))

    def build_X(self, i: int) -> np.ndarray:
        """The q**2 vertices (a, b, gamma_i(a, b)); meets every coset of Z once.
        ValueError unless 0 <= i < q."""
        if not 0 <= i < self.q:
            raise ValueError(f"label i = {i} is outside [0, {self.q})")
        if i not in self._X:
            a, b = self.table.grid.reshape(2, -1)
            self._X[i] = np.sort(self.table.vertex(a, b, self.gamma(i, a, b))).astype(np.int64)
        return self._X[i]

    def build_Y(self, i: int) -> np.ndarray:
        """X_i minus the identity; the K-orbit of size q**2 - 1 labelled by i."""
        x = self.build_X(i)
        return x[x != 0]

    def build_cayley(self, i: int, include_identity: bool = True) -> Digraph:
        """Cayley digraph with arcs (g, x*g); loops at every vertex iff e is kept.
        It holds the (n, |X|) out-neighbour lists X*g, column g of the rows
        of `mult` at the connection set, gathered at the table's width
        `code_dtype(n)`, which is the lists' width, and sorted; its n x n
        `arcs` are built on first read."""
        conn = self.build_X(i) if include_identity else self.build_Y(i)
        suffix = "" if include_identity else ", loopless"
        return Digraph.from_out(
            self.table.mult[conn].T,  # row x of mult: g -> x * g
            label=f"Cay(q={self.q}, i={i}{suffix})",
            translations=self.table.right_translations(),
        )

    def blocks0(self) -> np.ndarray:
        """The block lists of design 0, `build_cayley(0).out`, built once and
        kept: `designs.verify_design_iso` carries them onto every design."""
        if self._blocks0 is None:
            self._blocks0 = self.build_cayley(0).out
        return self._blocks0

    # -- the extended index group ------------------------------------------

    def chi(self, i):
        """The inverse -i of an index or index array i, by field negation;
        the identity q is its own."""
        inverse = np.append(self.field.neg_t, self.q)[i]
        return inverse if np.ndim(inverse) else int(inverse)

    def psi_table(self) -> np.ndarray:
        """psi[i, j] for every pair of indices in [0, q], as a (q + 1) x (q + 1)
        array: row and column q, the identity, are [0, q], and psi[i, -i] = q.
        Computed from delta on each call."""
        f, q = self.field, self.q
        i, j = np.indices((q, q), dtype=np.int32)
        total = f.add(i, j)
        num = f.add(f.mul(i, j), self.delta)
        table = np.empty((q + 1, q + 1), dtype=np.int32)
        table[:q, :q] = np.where(total == 0, q, f.mul(num, f.inv_t[total]))
        table[q] = table[:, q] = np.arange(q + 1)
        return table

    def psi_pow(self, i, m):
        """i**m by square and multiply on one `psi_table()`; the index i and
        the exponent m broadcast as arrays."""
        m = np.asarray(m)
        if (m < 0).any():
            raise ValueError("exponent must be nonnegative")
        table = self.psi_table()
        result = np.full(np.broadcast(i, m).shape, self.q, dtype=table.dtype)
        base = np.asarray(i)
        while m.any():
            result = np.where(m % 2 == 1, table[result, base], result)
            base, m = table[base, base], m >> 1
        return result if result.ndim else int(result)

    def psi_order(self, i) -> int:
        table, order, acc = self.psi_table(), 1, i
        while acc != self.q:
            acc = table[acc, i]
            order += 1
            if order > self.q + 2:
                raise RuntimeError("order exceeded group size")  # psi is broken
        return order

    def generators_I(self) -> list[int]:
        """Indices of full order q + 1, ascending; there are phi(q+1) of them:
        the finite x whose powers x**k, k = 1, ..., q + 1, from one `psi_pow`
        call, first reach the identity q at k = q + 1."""
        powers = self.psi_pow(np.arange(self.q)[:, None], np.arange(1, self.q + 2))
        full = (powers[:, :-1] != self.q).all(axis=1) & (powers[:, -1] == self.q)
        return np.flatnonzero(full).tolist()

    def __repr__(self) -> str:
        return f"Construction(q={self.q}, eps={self.epsilon}, delta={self.delta})"
