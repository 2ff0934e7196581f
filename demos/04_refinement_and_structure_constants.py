"""Pair-color refinement, structure constants, and algebraic automorphisms.

Runs the refinement engine on one family digraph, recovers the cell
partition from the identity row, compares the intersection tensor with the
group-ring convolution tensor, and enumerates the tensor-preserving cell
bijections.
"""

from ddwl import (
    Construction,
    SRing,
    algebraic_automorphisms,
    as_sring_partition,
    structure_constants,
    tau_hat,
    verify_algebraic_map,
    verify_consts,
    wl_close,
    wl_equivalent,
)


def main():
    q = 5
    cons = Construction(q)
    gens = cons.generators_I()
    g = cons.build_cayley(gens[0])

    cc = wl_close(g)
    print(f"{g.label}: stable rank {cc.rank} (= q + 2) after {cc.rounds} rounds")
    print(f"valencies: {sorted(cc.valencies.tolist())}")
    cells = as_sring_partition(cc, cons.table)
    print(f"identity-row cells: {sorted(len(c) for c in cells)}\n")

    ring = SRing.from_construction(cons)
    tensor = structure_constants(ring)
    report = verify_consts(ring, tensor)
    print(f"closed-form check: {report.checked} constants, "
          f"{len(report.mismatches)} mismatches")
    k = cons.psi(1, 2)
    print(f"the singleton coupling: c[Y_1, Y_2, Y_{k}] = "
          f"{tensor.c[ring.y_cell(1), ring.y_cell(2), ring.y_cell(k)]}\n")

    autos = algebraic_automorphisms(tensor)
    print(f"tensor-preserving cell bijections: {len(autos)}")
    sigma = tau_hat(ring, m=5)
    print(f"power-map bijection (m=5) transports the tensor: "
          f"{verify_algebraic_map(tensor, tensor, sigma)}")

    print(f"\nrefinement cannot tell the family apart: "
          f"wl_equivalent = {wl_equivalent(g, cons.build_cayley(gens[1]))}")


if __name__ == "__main__":
    main()
