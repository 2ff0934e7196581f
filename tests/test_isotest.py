import math
from itertools import combinations

import numpy as np
import pytest

from ddwl import isotest, suite
from ddwl.coherent import wl_close
from ddwl.digraph import Digraph
from ddwl.isotest import (
    BudgetExceeded,
    are_isomorphic,
    automorphism_generators,
    automorphism_order,
    iso_class_count,
)
from ddwl.srings import SRing, tau_hat
from reference import (
    child_by_refinement,
    complete,
    directed_cycle,
    random_digraph,
    refine_partition_int64,
)


def test_self_isomorphism(cons3, closures3):
    g = cons3.build_cayley(1)
    cert = are_isomorphic(g, g, closures3[1], closures3[1])
    assert cert.isomorphic
    assert np.array_equal(g.arcs[np.ix_(cert.mapping, cert.mapping)], g.arcs)


def test_permuted_copy(cons3, closures3):
    g = cons3.build_cayley(1)
    rng = np.random.default_rng(23)
    for _ in range(3):
        perm = rng.permutation(g.n)
        cert = are_isomorphic(g, g.relabeled(perm))
        assert cert.isomorphic
        h = g.relabeled(perm)
        assert np.array_equal(h.arcs[np.ix_(cert.mapping, cert.mapping)], g.arcs)


def test_invariant_distinguisher():
    g1 = complete(5)
    a = g1.arcs.copy()
    a[0, 1] = False
    g2 = Digraph(a)
    cert = are_isomorphic(g1, g2)
    assert cert.kind == "non-isomorphic"
    assert cert.invariant_diff is not None


def test_random_digraph_pairs():
    g = random_digraph(14, 0.35, seed=41)
    perm = np.random.default_rng(1).permutation(14)
    assert are_isomorphic(g, g.relabeled(perm)).isomorphic
    a = g.arcs.copy()
    u, v = np.argwhere(a)[0]
    a[u, v] = False
    assert are_isomorphic(g, Digraph(a)).kind == "non-isomorphic"


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        are_isomorphic(complete(3), complete(4))


def test_automorphism_orders_known_graphs():
    assert automorphism_order(complete(5)) == 120
    assert automorphism_order(directed_cycle(6)) == 6
    assert automorphism_order(directed_cycle(9)) == 9


def test_automorphism_order_family_q3(cons3, closures3):
    for i in cons3.generators_I():
        order = automorphism_order(cons3.build_cayley(i), closures3[i])
        assert order == 216 and type(order) is int   # a plain int, as the JSON report needs


def test_automorphism_order_relabeling_invariant(cons3):
    g = cons3.build_cayley(1)
    rng = np.random.default_rng(3)
    orders = {automorphism_order(g.relabeled(rng.permutation(g.n))) for _ in range(3)}
    assert orders == {216}


def test_stabilizer_structure_q3(cons3, closures3):
    g = cons3.build_cayley(1)
    stab = automorphism_order(g, closures3[1], fixed=(0,))
    assert stab == 8                  # q**2 - 1
    assert (3**2 - 1) % stab == 0
    order, gens = automorphism_generators(g, closures3[1], fixed=(0,))
    ring = SRing.from_construction(cons3)
    for f in gens:
        assert f[0] == 0
        # stabilizer orbits refine the basic-set partition
        assert (ring.cell_of[f] == ring.cell_of).all()


def test_stabilizer_structure_q5(cons5, closures5):
    i = cons5.generators_I()[0]
    g = cons5.build_cayley(i)
    stab = automorphism_order(g, closures5[i], fixed=(0,))
    assert stab == 24
    _, gens = automorphism_generators(g, closures5[i], fixed=(0,))
    ring = SRing.from_construction(cons5)
    for f in gens:
        assert (ring.cell_of[f] == ring.cell_of).all()


def test_forged_generator_raises(cons3, closures3, shrikhande_and_rook, monkeypatch):
    """Every generator the search returns is checked arc by arc, whether it
    is reported or only prunes an isomorphism search.  The Shrikhande and
    rook's graphs are WL-equivalent and not isomorphic, so the first root
    candidate fails and the search asks for the rook's graph's generators."""
    g = cons3.build_cayley(1)
    forged = np.arange(g.n)
    forged[[0, 1]] = [1, 0]
    assert not np.array_equal(g.arcs[np.ix_(forged, forged)], g.arcs)
    _forge_generator_searches(monkeypatch, forged)
    with pytest.raises(RuntimeError, match="generator failed the arc-exact"):
        automorphism_order(g, closures3[1])
    with pytest.raises(RuntimeError, match="generator failed the arc-exact"):
        automorphism_generators(g, closures3[1])
    shrikhande, rook = shrikhande_and_rook
    forged = np.arange(rook.n)
    forged[[0, 1]] = [1, 0]
    assert not np.array_equal(rook.arcs[np.ix_(forged, forged)], rook.arcs)
    _forge_generator_searches(monkeypatch, forged)
    with pytest.raises(RuntimeError, match="generator failed the arc-exact"):
        are_isomorphic(shrikhande, rook)


def _forge_generator_searches(monkeypatch, forged):
    """Each search with forced pairs, as the automorphism-generator search
    runs, returns forged; the unforced search of `are_isomorphic` runs as
    it is, so it still prunes by the generators its failed root asks for."""
    search = isotest._PartitionSearch.search
    monkeypatch.setattr(
        isotest._PartitionSearch,
        "search",
        lambda self, forced, prune=None: forged if forced else search(self, forced, prune),
    )


def _count_generator_searches(monkeypatch) -> list:
    calls = []
    search = isotest.automorphism_generators

    def spy(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(isotest, "automorphism_generators", spy)
    return calls


def test_automorphisms_searched_only_after_a_root_candidate_fails(
    contexts, shrikhande_and_rook, monkeypatch
):
    """Isomorphic pairs of vertex-transitive digraphs succeed at the first
    root candidate.  The two non-isomorphic pairs at q = 7 fail a root
    candidate, but their Cayley closures record the right translations,
    which make the root one orbit, so Aut(g2) is never searched.  Dense
    closures record no generators: the WL-equivalent Shrikhande and rook's
    graphs fail the first candidate and search Aut(rook) exactly once."""
    calls = _count_generator_searches(monkeypatch)
    assert suite._iso_classes(contexts[5], True)[0] == "pass"
    assert suite._reverse_pair_isomorphism(contexts[5], True)[0] == "pass"
    assert calls == []
    ctx = contexts[7]
    gens = ctx.cons.generators_I()
    closures = [ctx.closure(i) for i in gens]
    assert all(len(cc.generators) == 2 * ctx.cons.field.l for cc in closures)
    res = iso_class_count([ctx.cons.build_cayley(i) for i in gens], closures)
    assert (res.count, res.exact) == (2, True)
    assert calls == []
    shrikhande, rook = shrikhande_and_rook
    closures = [wl_close(shrikhande), wl_close(rook)]
    assert closures[1].generators == []
    cert = are_isomorphic(shrikhande, rook, *closures)
    assert cert.kind == "non-isomorphic"
    assert len(calls) == 1 and calls[0] is rook


def test_budget_exhaustion(cons3, closures3, monkeypatch):
    monkeypatch.setattr(isotest, "NODE_BUDGET", 1)
    g1, g2 = cons3.build_cayley(1), cons3.build_cayley(2)
    cert = are_isomorphic(g1, g2, closures3[1], closures3[2])
    assert cert.kind == "undetermined"
    with pytest.raises(BudgetExceeded):
        automorphism_order(g1, closures3[1])


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_undetermined_certificate_stays_within_budget(cons3, closures3, budget, monkeypatch):
    """The budget is tested before a node is counted: an undetermined answer
    reports at most `budget` nodes, and a search that needs exactly `budget`
    nodes completes."""
    c6 = directed_cycle(6).arcs
    hexagon = Digraph(c6 | c6.T)
    relabeled = hexagon.relabeled(np.array([3, 1, 2, 0, 4, 5]))
    monkeypatch.setattr(isotest, "NODE_BUDGET", budget)
    cert = are_isomorphic(hexagon, relabeled)
    assert cert.kind == ("isomorphic" if budget == 3 else "undetermined")
    assert cert.nodes == budget
    g1, g2 = cons3.build_cayley(1), cons3.build_cayley(2)
    cert = are_isomorphic(g1, g2, closures3[1], closures3[2])
    assert cert.kind == "undetermined" and 1 <= cert.nodes <= budget


def test_iso_class_count_copies(cons3):
    g = cons3.build_cayley(1)
    res = iso_class_count([g, g, g])
    assert res.count == 1 and res.exact


def test_iso_class_count_q3(cons3, closures3):
    gens = cons3.generators_I()
    res = iso_class_count(
        [cons3.build_cayley(i) for i in gens], [closures3[i] for i in gens]
    )
    assert res.exact
    assert res.count >= 1
    # measured: the two generator-labelled digraphs are isomorphic at q = 3
    assert res.count == 1


def test_iso_class_count_lower_bound_on_budget_exhaustion(cons3, closures3, monkeypatch):
    gens = cons3.generators_I()
    graphs = [cons3.build_cayley(i) for i in gens]
    monkeypatch.setattr(isotest, "NODE_BUDGET", 1)
    res = iso_class_count(graphs, [closures3[i] for i in gens])
    assert not res.exact
    assert res.count == 1  # a lower bound, not a class count
    assert all(v == "undetermined" for v in res.pair_results.values())


def test_iso_class_count_mixed():
    g1 = complete(8)
    g2 = directed_cycle(8)
    g3 = g2.relabeled(np.random.default_rng(5).permutation(8))
    res = iso_class_count([g1, g2, g3])
    assert res.exact and res.count == 2
    assert res.pair_results[(1, 2)] == "isomorphic"


def _scripted_class_count(monkeypatch, kinds: dict):
    """iso_class_count over four placeholder graphs, with each tested pair's
    answer taken from kinds; returns the result and the tested pairs in order."""
    tested = []

    def scripted(g1, g2, *args):
        tested.append((g1, g2))
        return isotest.IsoCertificate(kinds[(g1, g2)])

    monkeypatch.setattr(isotest, "are_isomorphic", scripted)
    return iso_class_count([0, 1, 2, 3], [None] * 4), tested


def test_iso_class_count_tests_one_representative_per_class(monkeypatch):
    kinds = {
        (0, 1): "non-isomorphic",
        (0, 2): "non-isomorphic",
        (1, 2): "isomorphic",
        (0, 3): "isomorphic",
    }
    res, tested = _scripted_class_count(monkeypatch, kinds)
    assert tested == [(0, 1), (0, 2), (1, 2), (0, 3)]
    assert (res.count, res.exact) == (2, True)
    assert sorted(res.certificates) == sorted(kinds)
    assert res.pair_results == {
        **kinds,
        (1, 3): "non-isomorphic (via transitivity)",
        (2, 3): "non-isomorphic (via transitivity)",
    }


def test_iso_class_count_lower_bound_rule(monkeypatch):
    """Representatives 0, 1 and 2, with 0 and 1 undetermined: 1 is not proven
    distinct from 0, so the count is the lower bound 2 ({0, 2})."""
    kinds = {
        (0, 1): "undetermined",
        (0, 2): "non-isomorphic",
        (1, 2): "non-isomorphic",
        (0, 3): "isomorphic",
    }
    res, tested = _scripted_class_count(monkeypatch, kinds)
    assert tested == [(0, 1), (0, 2), (1, 2), (0, 3)]
    assert (res.count, res.exact) == (2, False)
    assert res.pair_results == {
        **kinds,
        (1, 3): "undetermined (via transitivity)",
        (2, 3): "non-isomorphic (via transitivity)",
    }
    kinds[(0, 2)] = "undetermined"
    res, _ = _scripted_class_count(monkeypatch, kinds)
    assert (res.count, res.exact) == (1, False)  # 2 is proven distinct from 1 only


def test_iso_class_count_empty():
    res = iso_class_count([])
    assert (res.count, res.exact, res.pair_results, res.certificates) == (0, True, {}, {})


def test_certificate_json(cons3, closures3, monkeypatch):
    cert = are_isomorphic(cons3.build_cayley(1), cons3.build_cayley(1))
    payload = cert.to_json()
    assert payload["type"] == "isomorphic"
    assert len(payload["mapping"]) == 27
    assert payload["nodes"] == cert.nodes > 0 and payload["detail"] == ""
    g = complete(5)
    arcs = g.arcs.copy()
    arcs[0, 1] = False
    payload = are_isomorphic(g, Digraph(arcs)).to_json()
    assert payload["nodes"] == 0
    assert payload["detail"].startswith("canonical closure invariants differ")
    g = directed_cycle(6)
    monkeypatch.setattr(isotest, "NODE_BUDGET", 1)
    cert = are_isomorphic(g, g.relabeled(np.array([1, 0, 2, 3, 4, 5])))
    payload = cert.to_json()
    assert payload == {"type": "undetermined", "nodes": cert.nodes, "detail": cert.detail}
    assert cert.nodes == 1 and cert.detail == "node budget exhausted"


# -- signature code widths ------------------------------------------------------------


def _spy_widths(monkeypatch) -> list:
    """The dtype of each signature matrix the search sorts, in call order."""
    widths, unique = [], isotest.sorted_unique_rows

    def spy(rows):
        widths.append(rows.dtype)
        return unique(rows)

    monkeypatch.setattr(isotest, "sorted_unique_rows", spy)
    return widths


def _family_searches(ctx) -> list:
    gens = ctx.cons.generators_I()
    out = []
    for i, j in combinations(gens, 2):
        g1, g2 = ctx.cons.build_cayley(i), ctx.cons.build_cayley(j)
        cert = are_isomorphic(g1, g2, ctx.closure(i), ctx.closure(j))
        mapping = None if cert.mapping is None else cert.mapping.tobytes()
        out.append((i, j, cert.kind, mapping, cert.nodes))
    return out


@pytest.mark.parametrize("q", [5, 7])
def test_family_searches_equal_the_int64_signatures(q, contexts, monkeypatch):
    """Every pair of the family, searched on uint16 vertex signatures, gives
    the verdict, witness and node count of int64 signatures."""
    widths = _spy_widths(monkeypatch)
    got = _family_searches(contexts[q])
    assert set(widths) == {np.dtype(np.uint16)}
    assert sum(nodes for *_, nodes in got) > 0
    monkeypatch.setattr(isotest._PartitionSearch, "_refine", refine_partition_int64)
    assert _family_searches(contexts[q]) == got


@pytest.mark.parametrize("mult, width", [(2**16, np.uint16), (2**16 + 1, np.uint32)])
def test_vertex_signatures_either_side_of_the_uint16_switch(mult, width, monkeypatch):
    """One cell and colors below mult: the first round's codes stay below
    ncells * mult = mult.  Only vertex 0 sees color mult - 1, which at
    mult = 2**16 + 1 would wrap to 0 in uint16 and leave vertex 0 in the cell
    of the rest; the refinement and the search equal the int64 ones."""
    c1 = np.zeros((6, 6), dtype=np.int32)
    c1[0, 1], c1[2, 3] = mult - 1, 7
    perm = np.random.default_rng(mult).permutation(6)
    c2 = np.empty_like(c1)
    c2[np.ix_(perm, perm)] = c1
    monkeypatch.setattr(isotest, "NODE_BUDGET", 100)
    search = isotest._PartitionSearch(c1, c2)
    widths = _spy_widths(monkeypatch)
    pi1, pi2, ncells = search._refine(*search._seeded(()))
    assert widths[0] == np.dtype(width) and pi1[0] != pi1[4]
    want = refine_partition_int64(search, *search._seeded(()))
    assert ncells == want[2] and np.array_equal(pi1, want[0]) and np.array_equal(pi2, want[1])
    f = search.search(())
    assert np.array_equal(f[np.argsort(f)], np.arange(6)) and np.array_equal(c2[np.ix_(f, f)], c1)
    nodes, search.nodes = search.nodes, 0
    monkeypatch.setattr(isotest._PartitionSearch, "_refine", refine_partition_int64)
    assert np.array_equal(search.search(()), f) and search.nodes == nodes


def test_refinement_renumbers_both_sides_as_the_oracle(monkeypatch):
    """On permuted copies of random 6-vertex colorings `_refine` gives the
    int64 oracle's partitions; on unrelated ones, whose cells differ between
    the sides, both say None."""
    rng = np.random.default_rng(5)
    monkeypatch.setattr(isotest, "NODE_BUDGET", 100)
    for copy in (True, False) * 25:
        c1, c2 = ((rng.random((6, 6)) < 0.4).astype(np.int32) for _ in range(2))
        if copy:
            perm = rng.permutation(6)
            c2[np.ix_(perm, perm)] = c1
        np.fill_diagonal(c1, 2)
        np.fill_diagonal(c2, 2)
        search = isotest._PartitionSearch(c1, c2)
        got = search._refine(*search._seeded(()))
        want = refine_partition_int64(search, *search._seeded(()))
        assert (got is None) == (want is None) == (not copy)
        if copy:
            assert got[2] == want[2] and all(map(np.array_equal, got[:2], want[:2]))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_one_sided_leaf_equals_the_two_sided_refinement(q, contexts, monkeypatch):
    """A coloring refined against itself is refined once: the leaf with e
    and y0 = min Y_i fixed, with e alone, and with nothing fixed, sorts at
    most n signature rows per round, half of what `_refine` sorts on both
    sides (the second side a copy, refined as a coloring of its own); the
    partitions and cell counts are the two-sided ones, and leaf_cells': n
    cells, q + 2 and 1."""
    ctx = contexts[q]
    i = ctx.cons.generators_I()[0]
    cc = ctx.closure(i)
    e, y0 = ctx.cons.table.identity, int(ctx.cons.build_Y(i)[0])
    unique, sorted_rows = isotest.sorted_unique_rows, []

    def spy(rows):
        sorted_rows.append(len(rows))
        return unique(rows)

    monkeypatch.setattr(isotest, "sorted_unique_rows", spy)
    for fixed, cells in (((e, y0), cc.n), ((e,), q + 2), ((), 1)):
        sorted_rows.clear()
        pi, ncells = isotest._PartitionSearch(cc.color, cc.color).fixed_leaf(fixed)
        one = list(sorted_rows)
        assert one and max(one) <= cc.n
        sorted_rows.clear()
        two = isotest._PartitionSearch(cc.color, cc.color.copy())
        pi1, pi2, want = two._refine(*two._seeded(tuple((w, w) for w in fixed)))
        assert sorted_rows == [2 * rows for rows in one]
        assert ncells == want and np.array_equal(pi, pi1) and np.array_equal(pi, pi2)
        assert isotest.leaf_cells(cc, fixed) == ncells == cells


# -- search children -----------------------------------------------------------------


def _spy_children(monkeypatch) -> list:
    """Hold every child a search makes to `reference.child_by_refinement`:
    the same partitions and cell count, or None on both.  The list returned
    fills with each child's outcome: "None", "stable" (the first round split
    nothing) or "refined"."""
    child, outcomes = isotest._PartitionSearch._child, []

    def both(search, pi1, pi2, ncells, u, v):
        got = child(search, pi1, pi2, ncells, u, v)
        want = child_by_refinement(search, pi1, pi2, ncells, u, v)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[2] == want[2] and all(map(np.array_equal, got[:2], want[:2]))
            outcomes.append("stable" if got[2] == ncells + 1 else "refined")
        else:
            outcomes.append("None")
        return got

    monkeypatch.setattr(isotest._PartitionSearch, "_child", both)
    return outcomes


@pytest.mark.parametrize("q", [3, 5, 7])
def test_search_children_equal_the_full_refinement(q, contexts, monkeypatch):
    """Every child of every label's class count, of labels against a
    relabelled copy, of an automorphism group's search and of inducedness
    searches equals the child refined in full from u and v in a fresh cell;
    from q = 5 on some children's sides disagree (None).  At q = 7 the
    relabelled copies are the generator labels' and only tau-hat 1 and 7 are
    searched for inducedness: label 0's relabelled search makes 1,349
    children, and tau-hat 3 and 5's exhaustive searches take seconds."""
    ctx = contexts[q]
    outcomes = _spy_children(monkeypatch)
    graphs = [ctx.cons.build_cayley(i) for i in range(q)]
    closures = [wl_close(g) for g in graphs]
    assert iso_class_count(graphs, closures).exact
    perm = np.random.default_rng(q).permutation(ctx.cons.n)
    for i in range(q) if q < 7 else ctx.cons.generators_I():
        assert are_isomorphic(graphs[i], graphs[i].relabeled(perm), closures[i]).isomorphic
    i = ctx.cons.generators_I()[0]
    assert automorphism_order(ctx.digraph(i), ctx.closure(i)) == q**3 * (q**2 - 1)
    powers = [m for m in range(1, q + 1) if math.gcd(m, q + 1) == 1]
    for m in powers if q < 7 else [1, q]:
        status = isotest.is_induced(ctx.ring, tau_hat(ctx.ring, m)).status
        assert status in ("induced", "not_induced")
    assert set(outcomes) == ({"refined"} if q == 3 else {"None", "refined"})


def test_search_children_equal_the_full_refinement_on_small_digraphs(
    shrikhande_and_rook, monkeypatch
):
    """Children whose first round splits nothing ("stable": every other
    vertex sees u in one color) and children whose sides disagree, on
    complete digraphs, a directed cycle, WL-equivalent non-isomorphic
    strongly regular graphs and random digraphs, equal the full refinement."""
    outcomes = _spy_children(monkeypatch)
    assert automorphism_order(complete(5)) == 120
    assert automorphism_order(directed_cycle(9)) == 9
    shrikhande, rook = shrikhande_and_rook
    assert are_isomorphic(shrikhande, rook).kind == "non-isomorphic"
    for seed in range(4):
        g = random_digraph(12, 0.4, seed)
        perm = np.random.default_rng(seed).permutation(12)
        assert are_isomorphic(g, g.relabeled(perm)).isomorphic
    assert set(outcomes) == {"None", "stable", "refined"}
