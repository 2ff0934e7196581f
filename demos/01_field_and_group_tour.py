"""A walk through the two algebraic layers: GF(q) and the Heisenberg group.

Builds GF(9) with its canonical modulus, finds the least nonsquare, and then
multiplies a few unitriangular matrices, each held as its vertex index and
read back as the (x, y, z) triple of its free entries.
"""

import numpy as np

from ddwl import GroupTable, field_create


def main():
    f9 = field_create(3, 2)
    print(f"GF(9) as GF(3)[t] modulo t^2 + 1: {f9}")
    eps = f9.nonsquare()
    squares = sorted({int(f9.mul(a, a)) for a in range(9)})
    print(f"squares (as indices): {squares}")
    print(f"least nonsquare: index {eps}, coefficients {f9.coeff_rows[eps].tolist()}\n")

    f3 = field_create(3, 1)
    table = GroupTable(f3)
    print(f"{table}: vertex of (x, y, z) is ix*9 + iy*3 + iz")
    g, h = 9, 3  # (1, 0, 0) and (0, 1, 0)
    mt, show = table.mult, table.element_to_json
    print(f"g = {show(g)}, h = {show(h)}")
    print(f"g * h = {show(mt[g, h])}   (the central coordinate picks up x1*y2)")
    print(f"h * g = {show(mt[h, g])}   (noncommutative)")
    print(f"g^-1  = {show(table.inv[g])}")

    zs = np.flatnonzero(table.center_mask)
    print(f"\ncenter has {len(zs)} elements: {[show(v) for v in zs]}")
    print(f"distinct center-coset ids: {len(np.unique(table.coset_ids))} (= q^2)")

    # the multiplication table is exact and vectorised
    print(f"\nassociativity spot check: "
          f"{bool((mt[mt[4, 11], 17] == mt[4, mt[11, 17]]).all())}")


if __name__ == "__main__":
    main()
