"""Pair-color refinement, structure constants, and algebraic automorphisms.

Runs the refinement engine on one family digraph, recovers the cell
partition from the identity row, compares the intersection tensor with the
group-ring convolution tensor, and checks that the cell bijections induced
by the power maps of the index group preserve it.
"""

from math import gcd

from ddwl import (
    Construction,
    SRing,
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
    k = int(cons.psi_table()[1, 2])   # finite: 2 != -1
    print(f"the singleton coupling: c[Y_1, Y_2, Y_{k}] = "
          f"{tensor.c[ring.y_cell(1), ring.y_cell(2), ring.y_cell(k)]}\n")

    exponents = [m for m in range(1, q + 1) if gcd(m, q + 1) == 1]
    print(f"power-map cell bijections (m coprime to q + 1): {len(exponents)}")
    for m in exponents:
        sigma = tau_hat(ring, m)
        print(f"  m={m}: {sigma.tolist()} transports the tensor: "
              f"{verify_algebraic_map(tensor, tensor, sigma)}")

    print(f"\nrefinement cannot tell the family apart: "
          f"wl_equivalent = {wl_equivalent(g, cons.build_cayley(gens[1]))}")


if __name__ == "__main__":
    main()
