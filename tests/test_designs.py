import dataclasses
import tracemalloc

import numpy as np
import pytest

from ddwl import designs
from ddwl.construction import Construction
from ddwl.designs import desiso_maps, verify_ddd, verify_design_iso
from ddwl.digraph import Digraph, NotInvariant
from reference import design_iso_densely, desiso_apply, move_one_arc


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


def _ddd_oracle(arcs, class_ids, expected):
    """Every `DDDReport` field, in field order, from int64 counts over all
    n**2 pairs: the distributions over the unordered pairs in ascending value
    order, and the witness at the first deviating pair in row-major order.
    The counts are float64 products cast to int64, exact as every partial
    sum is an integer at most n; the int64 matmuls took 7 s per q = 11
    digraph on a 2-core x86-64 VM."""
    f = arcs.astype(np.float64)
    common = {"in": (f.T @ f).astype(np.int64), "out": (f @ f.T).astype(np.int64)}
    n = len(arcs)
    same = class_ids[:, None] == class_ids[None, :]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    sizes = np.unique(class_ids, return_counts=True)[1]
    both = arcs & arcs.T
    report = {
        "v": n,
        "m": len(sizes),
        "n_class": int(sizes.max()),
        "out_degrees": set(arcs.sum(axis=1).tolist()),
        "in_degrees": set(arcs.sum(axis=0).tolist()),
        "asymmetric": not (both & ~np.eye(n, dtype=bool)).any(),
        "loopless": not arcs.diagonal().any(),
    }
    for kind, mask in (("same", same & upper), ("cross", ~same & upper)):
        for d in ("in", "out"):
            vals, counts = np.unique(common[d][mask], return_counts=True)
            report[f"{kind}_{d}"] = dict(zip(vals.tolist(), counts.tolist()))
    report["expected"] = expected
    want = np.where(same, *expected)
    bad = np.argwhere(((common["in"] != want) | (common["out"] != want)) & upper)
    report["witness"] = None
    if len(bad):
        u, v = (int(x) for x in bad[0])
        report["witness"] = {
            "pair": [u, v],
            "same_class": bool(same[u, v]),
            "common_in": int(common["in"][u, v]),
            "common_out": int(common["out"][u, v]),
        }
    return report


def _ordered(value):
    """A report field with the order of every dict made visible."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    return value


def _assert_ddd_matches_oracle(g, class_ids, expected):
    """The row-0 report equals the int64 oracle field for field, in dict order."""
    assert g.translations
    rep = verify_ddd(g, class_ids, expected)
    want = _ddd_oracle(g.arcs, np.asarray(class_ids), expected)
    assert _ordered(vars(rep)) == _ordered(want)
    return rep


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("loops", [True, False], ids=["looped", "loopless"])
def test_verify_ddd_matches_int64_oracle_on_cayley(q, loops, request):
    cons = request.getfixturevalue(f"cons{q}")
    g = cons.build_cayley(cons.generators_I()[0], include_identity=loops)
    rep = _assert_ddd_matches_oracle(g, cons.table.coset_ids, (0, q))
    assert rep.counts_match == loops


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_verify_ddd_one_row_equals_dense_on_every_label(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    for i in range(q):
        for loops in (True, False):
            g = cons.build_cayley(i, include_identity=loops)
            rep = _assert_ddd_matches_oracle(g, cons.table.coset_ids, (0, q))
            assert rep.counts_match == loops and (rep.witness is None) == loops


def test_verify_ddd_one_row_equals_dense_on_generators_q11(contexts):
    cons = contexts[11].cons
    for i in cons.generators_I():
        for loops in (True, False):
            g = cons.build_cayley(i, include_identity=loops)
            _assert_ddd_matches_oracle(g, cons.table.coset_ids, (0, 11))


@pytest.mark.parametrize("loops", [True, False], ids=["looped", "loopless"])
def test_verify_ddd_one_row_equals_dense_across_take_blocks(cons5, loops, monkeypatch):
    """Row 0's common out-neighbour counts gathered three rows of lists at a
    time, the last block shorter, equal the dense counts."""
    g = cons5.build_cayley(1, include_identity=loops)
    monkeypatch.setattr(designs, "_TAKE_ELEMENTS", 3 * g.out.shape[1])
    assert g.n % 3
    _assert_ddd_matches_oracle(g, cons5.table.coset_ids, (0, 5))


@pytest.mark.parametrize(
    "relabel", [lambda ids: ids - 5, lambda ids: ids.astype(float)], ids=["shifted", "float"]
)
def test_verify_ddd_counts_classes_of_any_ids(cons3, relabel):
    """Class ids shifted below 0, or held as floats, name the same classes:
    the report is that of the coset ids, the class sizes included."""
    g, ids = cons3.build_cayley(1, include_identity=False), cons3.table.coset_ids
    want = verify_ddd(g, ids, (0, 3))
    got = verify_ddd(g, relabel(ids.astype(np.int64)), (0, 3))
    assert _ordered(vars(got)) == _ordered(vars(want))
    assert (want.m, want.n_class) == (9, 3)


def test_verify_ddd_refuses_a_digraph_without_translations(cons3):
    """The counts come from row 0 alone: a digraph built from arcs, and lists
    that claim no translations, are refused by name."""
    g = cons3.build_cayley(1)
    for plain in (Digraph(g.arcs), Digraph.from_out(g.out)):
        with pytest.raises(ValueError, match="needs the lists' proven translations"):
            verify_ddd(plain, cons3.table.coset_ids, (0, 3))


def test_verify_ddd_refuses_a_moved_arc(cons5):
    with pytest.raises(NotInvariant, match="non-arc"):
        verify_ddd(move_one_arc(cons5.build_cayley(1)), cons5.table.coset_ids, (0, 5))


def test_verify_ddd_refuses_translations_that_are_not_transitive(cons5):
    g = cons5.build_cayley(1)
    y_step = cons5.table.right_translations()[1]   # u -> u * (0, 1, 0)
    with pytest.raises(NotInvariant, match="transitively"):
        verify_ddd(Digraph.from_out(g.out, translations=(y_step,)), cons5.table.coset_ids, (0, 5))


def test_verify_ddd_refuses_classes_the_translations_do_not_permute(cons5):
    g = cons5.build_cayley(1)
    class_ids = np.random.default_rng(0).integers(0, 25, cons5.n)
    with pytest.raises(NotInvariant, match="classes"):
        verify_ddd(g, class_ids, (0, 5))


@pytest.mark.parametrize("loops", [True, False], ids=["looped", "loopless"])
def test_verify_ddd_refuses_an_out_list_with_a_repeated_neighbour(cons5, loops):
    """Row 0 names its first out-neighbour twice and its second not at all:
    the rows keep their length, but not their count of arcs."""
    g = cons5.build_cayley(1, include_identity=loops)
    out = g.out.copy()
    out[0, 1] = out[0, 0]
    forged = Digraph.from_out(out, translations=g.translations)
    with pytest.raises(NotInvariant, match="repeats a vertex"):
        verify_ddd(forged, cons5.table.coset_ids, (0, 5))


def test_verify_ddd_on_q13_lists_stays_below_one_n2_matrix(cons13):
    """The one-row path reads the (n, q**2) out-neighbour lists only: its
    traced peak stays below the n**2 bytes of one bool adjacency matrix, which
    reading `arcs` anywhere on the path would allocate, and below one intp
    copy of the lists, which one unblocked `np.take` of them would make."""
    for loops in (True, False):
        g = cons13.build_cayley(cons13.generators_I()[0], include_identity=loops)
        tracemalloc.start()
        try:
            rep = verify_ddd(g, cons13.table.coset_ids, (0, 13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok == loops and rep.out_degrees == {169 - (not loops)}
        assert peak < min(cons13.n**2, g.out.size * np.dtype(np.intp).itemsize)


@pytest.mark.parametrize(
    "spoil",
    [lambda s: np.where(s == s[1], s[0], s), lambda s: s[:-1], lambda s: s.astype(np.float64)],
    ids=["repeated", "short", "float"],
)
def test_verify_ddd_refuses_a_translation_that_is_not_a_permutation(cons5, spoil):
    g = cons5.build_cayley(1)
    steps = list(g.translations)
    steps[0] = spoil(steps[0])
    with pytest.raises(NotInvariant, match="permutation"):
        verify_ddd(Digraph.from_out(g.out, translations=tuple(steps)), cons5.table.coset_ids, (0, 5))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_verify_ddd_one_row_fails_a_swapped_connection_element(q, request):
    """Cay(H, X') for X' = X_i with one element swapped for a vertex outside
    it is still Cayley, so the proofs pass; the counts fail, with the int64
    oracle's witness."""
    cons = request.getfixturevalue(f"cons{q}")
    i = cons.generators_I()[0]
    conn = cons.build_X(i).copy()
    conn[1] = np.setdiff1d(np.arange(cons.n), conn)[0]
    g = Digraph.from_out(cons.table.mult[conn].T, translations=cons.table.right_translations())
    rep = _assert_ddd_matches_oracle(g, cons.table.coset_ids, (0, q))
    assert not rep.counts_match and rep.witness is not None


@pytest.mark.parametrize("plain", [False, True], ids=["one-row", "arcs"])
def test_verify_ddd_refuses_class_ids_of_the_wrong_length(cons3, plain):
    """The shape is checked first, before an arcs-built digraph is refused."""
    g = cons3.build_cayley(1)
    g = Digraph(g.arcs) if plain else g
    with pytest.raises(ValueError, match=r"shape \(5,\); the digraph has 27 vertices"):
        verify_ddd(g, cons3.table.coset_ids[:5], (0, 3))


@pytest.mark.parametrize("seed", range(6))
def test_verify_ddd_matches_int64_oracle_on_random_digraphs(seed, contexts):
    """Cayley digraphs over H3(3) and H3(5) on random connection sets, loops
    or none, against coset classes, one class, or every vertex its own
    class: each partition is permuted by the right translations."""
    rng = np.random.default_rng(seed)
    cons = contexts[int(rng.choice([3, 5]))].cons
    conn = np.flatnonzero(rng.random(cons.n) < rng.uniform(0.05, 0.9))
    class_ids = [cons.table.coset_ids, np.zeros(cons.n, dtype=int), np.arange(cons.n)][seed % 3]
    g = Digraph.from_out(cons.table.mult[conn].T, translations=cons.table.right_translations())
    _assert_ddd_matches_oracle(g, class_ids, (0, 1))


def test_vanishing_determinant_is_reported_not_raised():
    cons = Construction(5)
    f = cons.field
    cons.epsilon = f.inv(f.mul(f.from_int(16), 1))   # 1/(16 i**2) at i = 1, a square
    assert f.is_square(cons.epsilon)
    assert not desiso_maps(cons, 1).det_nonzero
    rep = verify_design_iso(cons, 1).to_json()
    assert rep["det_A_nonzero"] is False and rep["crit_holds"] is False
    assert set(rep["witness"]) == {"g", "g0"}


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
        # f keeps the first two coordinates of every point: its center coset
        t = cons.table
        assert (t.coset_ids[maps.f] == t.coset_ids).all()
        # both maps are bijections
        assert np.array_equal(np.sort(maps.f), np.arange(cons.n))
        assert np.array_equal(np.sort(maps.h), np.arange(cons.n))


@pytest.mark.parametrize("q", [3, 5, 9])
def test_desiso_maps_equal_the_per_vertex_maps(q, request):
    """The coset-grid evaluation against `desiso_apply` on every vertex, for
    every label; q = 9 is l = 2."""
    cons = request.getfixturevalue(f"cons{q}")
    for i in range(q):
        maps = desiso_maps(cons, i)
        want = np.array([desiso_apply(cons, i, v) for v in range(cons.n)], dtype=np.int64)
        assert maps.f.dtype == maps.h.dtype == np.int64
        assert np.array_equal(maps.f, want[:, 0]) and np.array_equal(maps.h, want[:, 1]), i


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
def test_design_iso_exhaustive(q, request):
    """Every label passes, as the dense comparison of the adjacency matrices does."""
    cons = request.getfixturevalue(f"cons{q}")
    for i in range(q):
        rep = verify_design_iso(cons, i)
        assert rep.crit_holds and rep.det_a_nonzero
        assert rep.pairs_checked == cons.n**2
        assert rep.witness is None and "witness" not in rep.to_json()
        assert design_iso_densely(cons, desiso_maps(cons, i)) == (True, None)


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


def _spoil_x(change):
    """build_X(i) for i != 0 changed by change(x, outside), outside the
    vertices not in X_i."""

    def spoil(cons, monkeypatch):
        build = cons.build_X

        def spoiled(i):
            x = build(i)
            return x if i == 0 else change(x.copy(), np.setdiff1d(np.arange(cons.n), x))

        monkeypatch.setattr(cons, "build_X", spoiled)

    return spoil


def _spoil_maps(change):
    def spoil(cons, monkeypatch):
        build = designs.desiso_maps
        monkeypatch.setattr(designs, "desiso_maps", lambda c, i: change(build(c, i)))

    return spoil


def _swap(x, outside):
    """|X_i| stays q**2, so only the block check can fail."""
    x[1] = outside[0]
    return x


SPOILS = {
    "swap-X_i": _spoil_x(_swap),
    # every block of design 0 still maps into a block of design i
    "grow-X_i": _spoil_x(lambda x, outside: np.append(x, outside[0])),
    "roll-f": _spoil_maps(lambda m: dataclasses.replace(m, f=np.roll(m.f, 1))),
    "roll-h": _spoil_maps(lambda m: dataclasses.replace(m, h=np.roll(m.h, 1))),
    # f and h stay permutations; blocks 0 and 1 trade their images
    "swap-h": _spoil_maps(lambda m: dataclasses.replace(m, h=m.h[np.r_[1, 0, 2 : len(m.h)]])),
    # not a permutation: as_permutation's NotInvariant reads as a failed criterion
    "repeat-f": _spoil_maps(
        lambda m: dataclasses.replace(m, f=np.where(m.f == m.f[1], m.f[0], m.f))
    ),
    # f(x g0) h(g0)**-1 = e lies in X_i, but f and h are no bijections
    "collapse-f-h": _spoil_maps(
        lambda m: dataclasses.replace(m, f=np.zeros_like(m.f), h=np.zeros_like(m.h))
    ),
}


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("spoil", list(SPOILS.values()), ids=list(SPOILS))
def test_design_iso_fails_a_spoiled_input_with_the_dense_witness(q, spoil, request, monkeypatch):
    cons = request.getfixturevalue(f"cons{q}")
    spoil(cons, monkeypatch)
    for i in range(1, q):
        rep = verify_design_iso(cons, i)
        holds, first = design_iso_densely(cons, designs.desiso_maps(cons, i))
        assert not holds and not rep.crit_holds
        assert [rep.witness["g0"], rep.witness["g"]] == first


def test_design_iso_builds_no_n2_array_on_a_passing_label(cons13, monkeypatch):
    """A passing label is decided on the block lists: no Cayley digraph's
    adjacency matrix is built, and the traced peak stays below one n x n
    int32 array."""
    calls = []
    monkeypatch.setattr(Digraph, "arcs", property(lambda g: calls.append(g.label)))
    for i in (1, 5):
        tracemalloc.start()
        try:
            rep = verify_design_iso(cons13, i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.crit_holds and rep.pairs_checked == cons13.n**2
        assert peak < 4 * cons13.n**2
    assert calls == []


def test_design_iso_peak_stays_below_ten_bytes_per_incidence(cons13):
    """The block lists of both designs are uint16, and design i's lists are
    let go once reindexed: at q = 13 the traced peak stays below 10 bytes
    for each of the n q**2 incidences (3.7 MB; 3.4 MB measured).  int32
    lists peak at 6.4 MB, and the gather from the n x n product table that
    this check replaced at 4.6 MB."""
    for i in (2, 7):
        tracemalloc.start()
        try:
            assert verify_design_iso(cons13, i).crit_holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * cons13.n * cons13.q**2
