"""Difference-multiset and divisible-design checks, plus the explicit
isomorphism between the neighbourhood designs of X_0 and X_i.

Everything here is an exact integer computation: convolution coefficients,
common-neighbor counts per direction, and a full q^6 membership check of
the criterion  g in X_0*g0  <=>  f(g) in X_i*h(g0).  Block g0 of the
design of X_i is the out-neighbourhood X_i*g0, row g0 of the adjacency
matrix of Cay(H3(q), X_i).
"""

from ddwl import Construction, SRing, verify_ddd, verify_design_iso, verify_transversal
from ddwl.designs import desiso_maps


def main():
    q = 5
    cons = Construction(q)
    ring = SRing.from_construction(cons)

    i = cons.generators_I()[0]
    rep = verify_transversal(ring, i)
    print(f"X_{i} * X_{i}^(-1): {rep.at_identity} at e, {rep.on_center} on the "
          f"punctured center, {rep.elsewhere} elsewhere -> ok = {rep.ok}")

    loopy = cons.build_cayley(i)
    ddd = verify_ddd(loopy, cons.table.coset_ids, expected=(0, q))
    print(f"\n{loopy.label}: same-class counts {ddd.same_in}, "
          f"cross-class counts {ddd.cross_in} -> ok = {ddd.ok}")

    loopless = cons.build_cayley(i, include_identity=False)
    ddd2 = verify_ddd(loopless, cons.table.coset_ids, expected=(0, q))
    print(f"{loopless.label}: cross-class counts {ddd2.cross_in}")
    print("  (arc-joined cross pairs drop to q - 1 without the loops)")

    blocks = loopy.arcs   # block g0 = row g0 = X_i * g0
    print(f"\nneighbourhood design of X_{i}: block g0 is row g0 of the adjacency matrix")
    print(f"  {blocks.shape[0]} blocks of size {set(blocks.sum(axis=1).tolist())}, "
          f"every point in {set(blocks.sum(axis=0).tolist())} blocks")

    for j in range(q):
        maps = desiso_maps(cons, j)
        report = verify_design_iso(cons, j)
        print(f"design(X_0) ~ design(X_{j}): det(A) index {maps.det_index}, "
              f"criterion holds on {report.pairs_checked} pairs: {report.crit_holds}")


if __name__ == "__main__":
    main()
