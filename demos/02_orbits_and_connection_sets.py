"""The twist automorphisms, their orbits, and the connection-set family.

For q = 5: builds the q^2 - 1 automorphisms induced by the 2x2 matrices
(a, b; eps*b, a), shows that their orbits are the identity, the punctured
center and five parabolic sheets Y_i, and checks that each X_i = Y_i + {e}
meets every center coset exactly once.
"""

import numpy as np

from ddwl import Construction
from ddwl.arith import euler_phi


def index_name(cons, k):
    """An element of the index group as printed: inf for the index q."""
    return "inf" if k == cons.q else int(k)


def main():
    cons = Construction(5)
    print(f"{cons}")
    ks = cons.build_K()
    print(f"|K| = {len(ks)} automorphisms, e.g. {ks[3]}")

    orbits = cons.k_orbits()
    print(f"K-orbit sizes: {sorted(len(o) for o in orbits)}")
    print("  (identity, punctured center, and q sheets of size q^2 - 1)\n")

    for i in (0, 1):
        x = cons.build_X(i)
        counts = np.bincount(cons.table.coset_ids[x], minlength=25)
        print(f"X_{i}: size {len(x)}, meets every coset once: {bool((counts == 1).all())}")

    print("\nthe index group law on GF(5) + {inf}:")
    psi = cons.psi_table()   # inf is the index q = 5
    print(f"  psi(1, inf) = {index_name(cons, psi[1, cons.q])}")
    print(f"  psi(1, 4)   = {index_name(cons, psi[1, 4])}   (4 = -1, the inverse of 1)")
    print(f"  psi(1, 1)   = {index_name(cons, psi[1, 1])}")
    orders = {i: cons.psi_order(i) for i in range(5)}
    print(f"  element orders: {orders}")
    gens = cons.generators_I()
    print(f"  generators I = {gens}, |I| = phi({cons.q + 1}) = {euler_phi(cons.q + 1)}")

    g = cons.build_cayley(gens[0])
    print(f"\n{g.label}: {g.n} vertices, out-degree {{{g.out.shape[1]}}}, "
          f"loop at every vertex: {bool(g.arcs.diagonal().all())}")


if __name__ == "__main__":
    main()
