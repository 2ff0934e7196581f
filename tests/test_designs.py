import numpy as np
import pytest

from ddwl.designs import desiso_maps, verify_ddd, verify_design_iso


def test_verify_ddd_on_looped_digraph(cons3):
    g = cons3.build_cayley(1)
    rep = verify_ddd(g, cons3.table.coset_ids, expected=(0, 3))
    assert rep.ok
    assert rep.out_degrees == {9}
    assert rep.same_in == {0: 27} and rep.same_out == {0: 27}
    assert set(rep.cross_in) == {3} and set(rep.cross_out) == {3}
    assert rep.asymmetric and not rep.loopless
    assert rep.m == 9 and rep.n_class == 3


def test_verify_ddd_loopless_counts(cons3):
    """The loopless companion keeps lambda1 = 0 but the cross-class counts
    drop to q - 1 exactly on arc-joined pairs."""
    g = cons3.build_cayley(1, include_identity=False)
    rep = verify_ddd(g, cons3.table.coset_ids, expected=(0, 3))
    assert rep.regular and rep.out_degrees == {8}
    assert rep.asymmetric and rep.loopless
    assert rep.same_in == {0: 27} and rep.same_out == {0: 27}
    assert set(rep.cross_in) == {2, 3} and set(rep.cross_out) == {2, 3}
    assert not rep.counts_match and rep.witness is not None
    # the deficient pairs are exactly the arc-joined ones
    a = g.arcs
    common_out = (a.astype(np.int64) @ a.T.astype(np.int64))
    same = cons3.table.coset_ids[:, None] == cons3.table.coset_ids[None, :]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not same[u, v]:
                expected = 2 if (a[u, v] or a[v, u]) else 3
                assert common_out[u, v] == expected


def test_verify_ddd_nonconstant_witness_fields(cons3):
    g = cons3.build_cayley(1, include_identity=False)
    rep = verify_ddd(g, cons3.table.coset_ids, expected=(0, 3))
    w = rep.witness
    assert set(w) == {"pair", "same_class", "common_in", "common_out"}
    u, v = w["pair"]
    assert not w["same_class"]
    assert cons3.table.coset_ids[u] != cons3.table.coset_ids[v]


def test_desiso_identity_case(cons3):
    maps = desiso_maps(cons3, 0)
    assert np.array_equal(maps.f, np.arange(27))
    assert np.array_equal(maps.h, np.arange(27))
    assert maps.det_nonzero and maps.det_index == 1


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_det_nonzero_for_all_i(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    for i in range(q):
        maps = desiso_maps(cons, i)
        assert maps.det_nonzero
        # f keeps the first two coordinates of every point
        t = cons.table
        assert (t.ix[maps.f] == t.ix).all()
        assert (t.iy[maps.f] == t.iy).all()
        # both maps are bijections
        assert np.array_equal(np.sort(maps.f), np.arange(cons.n))
        assert np.array_equal(np.sort(maps.h), np.arange(cons.n))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_design_iso_exhaustive(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    for i in range(q):
        rep = verify_design_iso(cons, i)
        assert rep.crit_holds and rep.det_a_nonzero
        assert rep.pairs_checked == cons.n**2
        assert rep.witness is None and "witness" not in rep.to_json()


def _assert_blocks_map_onto_blocks(cons):
    """Independent of `build_cayley`: the point map sends every block
    X_0 * g0, built from the multiplication table, onto the block X_i * h(g0)."""
    t = cons.table
    for i in range(cons.q):
        maps = desiso_maps(cons, i)
        x0, xi = cons.build_X(0), cons.build_X(i)
        for g0 in range(cons.n):
            image = sorted(int(maps.f[t.mult[x, g0]]) for x in x0)
            block = sorted(int(t.mult[x, maps.h[g0]]) for x in xi)
            assert image == block


def test_design_iso_block_sets_q3(cons3):
    _assert_blocks_map_onto_blocks(cons3)


def test_design_iso_block_sets_q5(cons5):
    _assert_blocks_map_onto_blocks(cons5)
