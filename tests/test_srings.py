import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ddwl import isotest
from ddwl.arith import euler_phi
from ddwl.coherent import orbit_close, tensor_identities_hold, verify_algebraic_map
from ddwl.construction import Construction
from ddwl.srings import (
    NotAnSRing,
    SRing,
    _cell_counts,
    is_group_closed,
    structure_constants,
    tau_hat,
    verify_consts,
    verify_transversal,
)
from reference import (
    algebraic_automorphisms,
    consts_mismatches,
    corrupt_rho,
    difference_multiset,
    shift_within_a_product,
)


def brute_tensor_q3(cons):
    """Oracle: structure constants by a full triple loop in plain Python."""
    ring = SRing.from_construction(cons)
    r, n = ring.r, cons.n
    mult = cons.table.mult
    cell = ring.cell_of
    reps = [int(members[0]) for members in ring.cells]
    c = np.zeros((r, r, r), dtype=np.int64)
    for zc, z in enumerate(reps):
        for x in range(n):
            for y in range(n):
                if mult[x, y] == z:
                    c[cell[x], cell[y], zc] += 1
    return c


def test_ring_shape(ring3):
    assert ring3.names == ["e", "Y_0", "Y_1", "Y_2", "Z#"]
    assert ring3.sizes.tolist() == [1, 8, 8, 8, 2]
    assert ring3.inv_cell.tolist() == [0, 1, 3, 2, 4]  # Y_i inverts to Y_{-i}


def test_invalid_partition_rejected(cons3):
    # split the center cell: inverse-closed but the identity is not alone
    cells = [np.arange(2), np.arange(2, 27)]
    with pytest.raises(NotAnSRing):
        SRing(cons3, cells, ["a", "b"])


def test_non_inverse_closed_rejected(cons3):
    y0, y1, y2 = (cons3.build_Y(i) for i in range(3))
    # Y_0 + Y_1 inverts to Y_0 + Y_2, which is not a cell of this partition
    cells = [np.array([0]), np.sort(np.concatenate([y0, y1])), y2, cons3.punctured_center()]
    with pytest.raises(NotAnSRing):
        SRing(cons3, cells, list("abcd"))


def test_structure_constants_match_brute_force_q3(cons3, tensor3):
    assert np.array_equal(tensor3.c, brute_tensor_q3(cons3))


def add_at_counts(ring):
    """Oracle: counts[X, Y, z] = #{(x, y) in X x Y : x * y = z}, by np.add.at
    over three n**2-long index arrays."""
    n = ring.cons.n
    cu = ring.cell_of.astype(np.int64)
    counts = np.zeros((ring.r, ring.r, n), dtype=np.int64)
    left = np.broadcast_to(cu[:, None], (n, n))
    right = np.broadcast_to(cu[None, :], (n, n))
    np.add.at(counts, (left.ravel(), right.ravel(), ring.table.mult.ravel()), 1)
    return counts


def _ring(q, contexts, cons13):
    return contexts[q].ring if q in contexts else SRing.from_construction(cons13)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_structure_constants_match_add_at_oracle(q, contexts, cons13):
    """The full count is constant on every cell, as K proves, and its value
    at the least point of each cell is the one-point count."""
    ring = _ring(q, contexts, cons13)
    counts = add_at_counts(ring)
    for members in ring.cells:
        assert (counts[:, :, members] == counts[:, :, members[:1]]).all()
    at_reps = counts[:, :, ring.reps]
    assert np.array_equal(_cell_counts(ring, ring.cells, ring.cells).transpose(1, 2, 0), at_reps)
    assert np.array_equal(structure_constants(ring).c, at_reps)


def test_structure_constants_hold_no_n2_scratch(contexts):
    ring = contexts[9].ring
    tracemalloc.start()
    try:
        structure_constants(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * ring.r * ring.cons.n  # 249,724 B measured: 34.3 bytes per (cell, point)


def test_an_unproven_ring_is_counted_only_on_one_point_cells(cons3):
    """The analytic cells without the proof that they are K-orbits are not
    counted; singleton cells are, as each count is at its only point."""
    names = ["e"] + [f"Y_{i}" for i in range(3)] + ["Z#"]
    with pytest.raises(NotAnSRing, match="not proven K-orbits"):
        structure_constants(SRing(cons3, cons3.cells(), names))
    singletons = SRing(cons3, [[g] for g in range(cons3.n)], [str(g) for g in range(cons3.n)])
    assert structure_constants(singletons).c.sum() == cons3.n**2


def _swap_two_images_of_a_power(cons, monkeypatch):
    corrupt_rho(cons, monkeypatch, cons._m_powers(cons.k_generator())[1])


def _move_the_identity(cons, monkeypatch):
    """The closed form of one power reversed: a bijection that moves e."""
    power, rho = cons._m_powers(cons.k_generator())[1], cons.rho_perm

    def reversed_power(a, b):
        perms = rho(a, b)
        for perm, pair in zip(np.atleast_2d(perms), zip(np.ravel(a), np.ravel(b))):
            if pair == power:
                perm[:] = perm[::-1].copy()
        return perms

    monkeypatch.setattr(cons, "rho_perm", reversed_power)


@pytest.mark.parametrize(
    "forge",
    [
        _swap_two_images_of_a_power,
        _move_the_identity,
        # M(0, 1) has order at most 2 (q - 1): its powers are a truncated K
        lambda cons, monkeypatch: monkeypatch.setattr(cons, "k_generator", lambda: (0, 1)),
    ],
    ids=["perm_swapped", "identity_moved", "truncated"],
)
def test_a_forged_k_makes_from_construction_raise(forge, monkeypatch):
    """No ring, so no one-point count, comes from a K that is not proven:
    `k_orbits` reads the generator `build_K` proves, so each forgery is of
    what that proof reads."""
    cons = Construction(5)
    forge(cons, monkeypatch)
    monkeypatch.setattr("ddwl.srings._cell_counts", None)
    with pytest.raises(RuntimeError):
        SRing.from_construction(cons)


def test_identity_convolution(tensor3):
    for x in range(tensor3.rank):
        assert tensor3.c[0, x, x] == 1
        assert tensor3.c[x, 0, x] == 1


def test_representative_dependence_detected(cons5):
    # splitting the center cell into inverse-closed halves keeps the
    # partition axioms but breaks convolution constancy; no K-orbit proof
    # covers such cells, so the one-point counter refuses them
    cells = (
        [np.array([0])]
        + [cons5.build_Y(i) for i in range(5)]
        + [np.array([1, 4]), np.array([2, 3])]
    )
    ring = SRing(cons5, cells, ["e", "a", "b", "c", "d", "f", "z1", "z2"])
    with pytest.raises(NotAnSRing):
        structure_constants(ring)


@pytest.mark.parametrize("q", [3, 5])
def test_closed_forms(q, request):
    ring = request.getfixturevalue(f"ring{q}")
    tensor = request.getfixturevalue(f"tensor{q}")
    report = verify_consts(ring, tensor)
    assert report.ok
    assert report.checked == q * q * (q + 1)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_closed_forms_match_the_scalar_oracle(q, contexts, cons13):
    """The closed-form array against `reference.expected_const`, one constant
    at a time: on the true tensor, and with one entry off by one of each
    kind (a Y cell, Z#, the psi singleton, and a k in {i, -i} with j = -i),
    the same checked count and the same mismatches in the same order."""
    cons = cons13 if q == 13 else contexts[q].cons
    ring = SRing.from_construction(cons)
    tensor = structure_constants(ring)
    report = verify_consts(ring, tensor)
    assert report.ok and report.checked == q * q * (q + 1) and consts_mismatches(ring, tensor) == []
    psi = int(cons.psi_table()[1, 1])
    other = next(k for k in range(q) if k != psi)
    entries = [  # (i, j, cell of k)
        (1, 1, ring.y_cell(other)),
        (1, 1, ring.center_cell),
        (1, 1, ring.y_cell(psi)),
        (1, cons.chi(1), ring.y_cell(1)),
    ]
    for i, j, z in entries:
        c = tensor.c.copy()
        c[ring.y_cell(i), ring.y_cell(j), z] += 1
        forged = replace(tensor, c=c)
        report = verify_consts(ring, forged)
        assert report.checked == q * q * (q + 1)
        assert len(report.mismatches) == 1 and report.mismatches == consts_mismatches(ring, forged)


def test_closed_form_spot_values(cons3, ring3, tensor3, cons5, ring5, tensor5):
    # coupling case: c[Y_1, Y_1, Y_psi(1,1)] = 1
    k = cons3.psi_table()[1, 1]
    assert tensor3.c[ring3.y_cell(1), ring3.y_cell(1), ring3.y_cell(k)] == 1
    # center cases
    assert tensor3.c[ring3.y_cell(1), ring3.y_cell(2), ring3.center_cell] == 0
    assert tensor3.c[ring3.y_cell(1), ring3.y_cell(1), ring3.center_cell] == 4
    # q - 2 case at i = j = k = 0
    assert tensor3.c[ring3.y_cell(0), ring3.y_cell(0), ring3.y_cell(0)] == 1
    # q - 1 case at q = 5, i = j = k = 1
    assert tensor5.c[ring5.y_cell(1), ring5.y_cell(1), ring5.y_cell(1)] == 4


@pytest.mark.parametrize("q", [3, 5])
def test_tensor_identities(q, request):
    """The identities hold, and one count moved between two cells of equal
    size in one product keeps every mass sum but breaks the triangles."""
    ring, tensor = request.getfixturevalue(f"ring{q}"), request.getfixturevalue(f"tensor{q}")
    assert tensor_identities_hold(tensor)
    shifted = shift_within_a_product(tensor, ring)
    sizes = shifted.valencies
    assert ((shifted.c * sizes).sum(axis=2) == np.outer(sizes, sizes)).all()
    assert not tensor_identities_hold(shifted)


@pytest.mark.parametrize("cells", ["orbits", "singletons"])
def test_tensor_rows_are_those_of_the_cayley_scheme(cells, cons3, ring3):
    """The rows equal the intersection tensor of the partition's Cayley
    scheme, refined as a coloring, on the K-orbits and on the singletons,
    whose products do not commute, so the order of X and Y shows."""
    ring = ring3 if cells == "orbits" else SRing(
        cons3, [[g] for g in range(cons3.n)], [str(g) for g in range(cons3.n)]
    )
    tensor = structure_constants(ring)
    cc = orbit_close(ring.scheme_coloring(), [])
    assert np.array_equal(cc.color, ring.scheme_coloring())  # stable, names kept
    assert np.array_equal(tensor.tensor, cc.tensor)
    assert tensor.tensor.dtype == cc.tensor.dtype == np.uint16  # one width rule for both
    assert tensor_identities_hold(tensor)


@pytest.mark.parametrize("q", [3, 5])
def test_transversal(q, request):
    ring = request.getfixturevalue(f"ring{q}")
    for i in range(q):
        rep = verify_transversal(ring, i)
        assert rep.ok
        assert rep.at_identity == q * q
        assert rep.on_center == {0}
        assert rep.elsewhere == {q}
        assert rep.mirrored_at_identity == q * q


def _split(cons, conv):
    center_rest = cons.punctured_center()
    outside = np.ones(cons.n, dtype=bool)
    outside[[0, *center_rest]] = False
    return int(conv[0]), set(conv[center_rest].tolist()), set(conv[outside].tolist())


def _full_transversal(cons, i):
    x = cons.build_X(i)
    x_inv = np.sort(cons.table.inv[x])
    fwd, mir = difference_multiset(cons, x, x_inv), difference_multiset(cons, x_inv, x)
    return (*_split(cons, fwd), *_split(cons, mir))


def _fields(rep):
    return (
        rep.at_identity, rep.on_center, rep.elsewhere,
        rep.mirrored_at_identity, rep.mirrored_on_center, rep.mirrored_elsewhere,
    )


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_transversal_matches_the_full_count(q, contexts, cons13):
    ring = _ring(q, contexts, cons13)
    for i in range(q):
        assert _fields(verify_transversal(ring, i)) == _full_transversal(ring.cons, i), i


def test_transversal_reads_the_inverse_table(ring3, monkeypatch):
    """X_i^-1 comes from `GroupTable.inv`: with the identity there, each
    product is X_i * X_i, counted as in full, which fails by verdict for
    every X_i but the symmetric X_0; with a table whose X_i^-1 is no union
    of cells, the one-point count refuses."""
    cons = ring3.cons
    monkeypatch.setattr(cons.table, "inv", np.arange(cons.n))
    reports = [verify_transversal(ring3, i) for i in range(3)]
    assert [_fields(rep) for rep in reports] == [_full_transversal(cons, i) for i in range(3)]
    assert [rep.ok for rep in reports] == [True, False, False]
    monkeypatch.setattr(cons.table, "inv", np.roll(np.arange(cons.n), 1))
    with pytest.raises(NotAnSRing, match="not disjoint unions of cells"):
        verify_transversal(ring3, 1)


def test_algebraic_automorphisms_q3(tensor3):
    autos = algebraic_automorphisms(tensor3)
    assert len(autos) >= euler_phi(4)
    assert is_group_closed(autos)
    keys = {a.tobytes() for a in autos}
    assert np.arange(5, dtype=np.int64).tobytes() in keys
    for a in autos:
        assert a[0] == 0                       # the identity cell is fixed
        assert a[tensor3.rank - 1] == tensor3.rank - 1   # the center cell too


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_the_search_finds_exactly_the_power_maps(q, contexts, cons13):
    """Oracle: every tensor-preserving cell bijection, found by backtracking,
    is a power map tau_hat_m with m coprime to q + 1, and every such map is
    found: the phi(q + 1) maps that criterion 9 checks are the whole group."""
    ring = _ring(q, contexts, cons13)
    searched = {a.tobytes() for a in algebraic_automorphisms(structure_constants(ring))}
    powers = {tau_hat(ring, m).tobytes() for m in range(1, q + 1) if np.gcd(m, q + 1) == 1}
    assert searched == powers and len(powers) == euler_phi(q + 1)


def test_tau_hat(cons3, ring3, tensor3):
    assert tau_hat(ring3, 1).tolist() == [0, 1, 2, 3, 4]
    for m in (1, 3):
        assert verify_algebraic_map(tensor3, tensor3, tau_hat(ring3, m))
    with pytest.raises(ValueError):
        tau_hat(ring3, 2)   # gcd(2, 4) != 1


def test_tau_hat_reaches_every_generator_pair(cons5, ring5, tensor5):
    gens = cons5.generators_I()
    q1 = cons5.q + 1
    for i in gens:
        for j in gens:
            m = next(
                m for m in range(1, q1) if np.gcd(m, q1) == 1 and cons5.psi_pow(i, m) == j
            )
            sigma = tau_hat(ring5, m)
            assert sigma[ring5.y_cell(i)] == ring5.y_cell(j)
            assert verify_algebraic_map(tensor5, tensor5, sigma)


def test_verify_algebraic_map_agrees_with_the_automorphism_search(tensor5):
    """Every listed automorphism transports the tensor, and every swap of two
    cells that is not listed fails, the swap of Y_0 and Y_1 among them."""
    autos = algebraic_automorphisms(tensor5)
    listed = {a.tobytes() for a in autos}
    assert all(verify_algebraic_map(tensor5, tensor5, a) for a in autos)
    rejected = []
    for a in range(tensor5.rank):
        for b in range(a + 1, tensor5.rank):
            sigma = np.arange(tensor5.rank)
            sigma[[a, b]] = sigma[[b, a]]
            if sigma.tobytes() not in listed:
                assert not verify_algebraic_map(tensor5, tensor5, sigma), (a, b)
                rejected.append((a, b))
    assert (1, 2) in rejected  # Y_0 and Y_1


def test_constants_report_json(ring3, tensor3):
    from ddwl.srings import constants_report

    report = constants_report(ring3, tensor3)
    assert report["q"] == 3
    assert [c["name"] for c in report["cells"]] == ["e", "Y_0", "Y_1", "Y_2", "Z#"]
    assert report["closed_form_mismatches"] == []
    assert report["checked"] == 3 * 3 * 4
    assert all(len(entry) == 4 and entry[3] > 0 for entry in report["constants"])


def test_induced_identity(ring3):
    res = isotest.is_induced(ring3, np.arange(5))
    assert res.status == "induced"


def test_induced_with_tiny_budget_is_undetermined(ring3, monkeypatch):
    moving = tau_hat(ring3, 3)
    assert moving.tolist() != list(range(5))
    monkeypatch.setattr(isotest, "NODE_BUDGET", 1)
    res = isotest.is_induced(ring3, moving)
    assert res.status == "undetermined"


def test_scheme_coloring(cons3, ring3):
    c = ring3.scheme_coloring()
    t = cons3.table
    for u in range(0, 27, 4):
        for v in range(27):
            assert c[u, v] == ring3.cell_of[t.mult[v, t.inv[u]]]
