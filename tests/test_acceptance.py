"""Acceptance suite: every check of the `ddwl.suite` registry at each
q in (3, 5, 7, 9) where the full suite runs it, one test per (check, q),
plus the independent oracles the registry must not stand in for.  All
checks are exact; one pass/fail line per test in the terminal summary.
"""

import itertools
import math
import time

import numpy as np
import pytest

from ddwl.coherent import wl_close
from ddwl.designs import desiso_maps
from ddwl.isotest import is_induced
from ddwl.suite import REGISTRY
from reference import algebraic_automorphisms, directed_cycle, random_digraph

# the acceptance test that asserts each registry check
TEST_NAMES = {
    "field_axioms": "test_criterion_12_field_axioms",
    "group_axioms": "test_criterion_12_axiom_suites",
    "k_automorphisms": "test_criterion_08_k_elements_are_automorphisms",
    "orbit_partition": "test_criterion_05_orbit_partition",
    "psi_group": "test_criterion_03_group_law",
    "dds_transversal": "test_criterion_02_difference_multiset",
    "structure_constants": "test_criterion_04_structure_constants",
    "tensor_identities": "test_criterion_12_tensor_identities",
    "ddd_parameters": "test_criterion_01c_looped_digraph_parameters_exact",
    "wl_closure": "test_criterion_05_wl_closure",
    "wl_equivalence": "test_criterion_06_wl_equivalence",
    "tau_hat_transport": "test_criterion_06_tau_hat_transport",
    "algebraic_automorphisms": "test_criterion_09_algebraic_automorphism_count",
    "design_isomorphism": "test_criterion_10_design_iso",
    "one_point_extension": "test_criterion_11_one_point_extension",
    "iso_classes": "test_criterion_07_iso_classes",
    "reverse_pair_isomorphism": "test_criterion_07_reverse_pair_isomorphism",
    "automorphism_order": "test_criterion_08_automorphism_order",
}

# wall-clock ceilings, in seconds, on the slow checks; the closures and the
# one-point extension must stay on the orbit-row engine (dense: about 70 s
# for the q = 9 closures and 36 s for the q = 7 extension; the orbit-row
# q = 9 extension and its identities take about 2 s)
TIME_LIMITS = {
    ("ddd_parameters", 7): 60.0,
    ("wl_equivalence", 7): 60.0,
    ("iso_classes", 7): 600.0,
    ("wl_closure", 9): 30.0,
    ("one_point_extension", 7): 60.0,
    ("one_point_extension", 9): 30.0,
}


def _registry_test(check):
    @pytest.mark.parametrize("q", [q for q in (3, 5, 7, 9) if check.variant(q, "full")])
    def test(q, contexts, acceptance_log):
        variant = check.variant(q, "full")
        t0 = time.perf_counter()
        status, data = check.fn(contexts[q], variant == "exhaustive")
        elapsed = time.perf_counter() - t0
        assert status == "pass", data
        assert elapsed < TIME_LIMITS.get((check.name, q), math.inf)
        acceptance_log(
            f"criterion {check.criterion} ({check.name}: {check.fn.__doc__}; "
            f"{variant}, q={q}): PASS [{elapsed:.1f}s]"
        )

    test.__name__ = TEST_NAMES[check.name]
    return test


for _check in REGISTRY:
    globals()[TEST_NAMES[_check.name]] = _registry_test(_check)


# -- independent oracles ---------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_01a_loopless_regularity_asymmetry_sameclass(q, contexts, acceptance_log):
    """The loopless companion read off its adjacency matrix, independently of
    verify_ddd: q^2 classes of size q, no loops, no reciprocated arcs, in- and
    out-degree q^2 - 1 at every vertex, no arc inside a class."""
    cons = contexts[q].cons
    classes = cons.table.coset_ids
    assert np.array_equal(np.bincount(classes), np.full(q * q, q))
    same = classes[:, None] == classes[None, :]
    for i in cons.generators_I():
        a = cons.build_cayley(i, include_identity=False).arcs
        assert not a.diagonal().any() and not (a & a.T).any(), i
        assert set(a.sum(axis=0)) == set(a.sum(axis=1)) == {q * q - 1}, i
        assert not (a & same).any(), i
    acceptance_log(
        f"criterion 1a (loopless: regular q^2-1, asymmetric, same-class 0; q={q}): PASS"
    )


def test_criterion_01b_loopless_crossclass_counts_exactly_q(contexts, acceptance_log):
    """Cross-class counts on the loopless companion are exactly q once the
    arc joining the pair, if any, is counted back.

    With A the loopless arcs, B the center-coset indicator and J all ones,
    criterion 1c's AA^T = A^TA = q^2 I + q(J - B) for the looped digraph
    gives

        A A^T = A^T A = (q^2 - 1) I + q (J - B) - (A + A^T),

    and A + A^T is 0/1 because A is asymmetric.  Both products are computed
    here by integer matmul, independently of verify_ddd, whose distributions
    and witness the ddd_parameters check asserts.
    """
    for q in (3, 5, 7):
        cons = contexts[q].cons
        n = q**3
        classes = cons.table.coset_ids
        b = (classes[:, None] == classes[None, :]).astype(np.int64)
        for i in cons.generators_I():
            a = cons.build_cayley(i, include_identity=False).arcs.astype(np.int64)
            expected = (q * q - 1) * np.eye(n, dtype=np.int64) + q * (1 - b) - (a + a.T)
            assert np.array_equal(a @ a.T, expected), (q, i, "common out")
            assert np.array_equal(a.T @ a, expected), (q, i, "common in")
    acceptance_log(
        "criterion 1b (loopless cross-class counts = q - [arc-joined], all i, "
        "q=3,5,7, integer matmul): PASS"
    )


def test_criterion_04_brute_force_triple_loop(contexts, acceptance_log):
    ctx = contexts[3]
    mult, cell = ctx.cons.table.mult, ctx.ring.cell_of
    brute = np.zeros_like(ctx.tensor.c)
    for zc, members in enumerate(ctx.ring.cells):
        z = int(members[0])
        for x in range(27):
            for y in range(27):
                if mult[x, y] == z:
                    brute[cell[x], cell[y], zc] += 1
    assert np.array_equal(brute, ctx.tensor.c)
    acceptance_log("criterion 4 (structure constants by a plain triple loop, q=3): PASS")


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_06_wl_equivalence_union_oracle(q, contexts, union_equivalent, acceptance_log):
    """The digraphs of each generator pair are WL-equivalent by refinement of
    their disjoint union, and criterion 6 (the wl_equivalence check, which
    compares the two closures as `wl_equivalent` does) agrees.  Every pair at
    q = 3, 5; the first at q = 7, where one union takes about half a minute."""
    ctx = contexts[q]
    wl = next(c for c in REGISTRY if c.name == "wl_equivalence")
    _, verdicts = wl.fn(ctx, True)
    pairs = list(itertools.combinations(ctx.cons.generators_I(), 2))
    for a, b in pairs if q < 7 else pairs[:1]:
        assert union_equivalent(ctx.cons.build_cayley(a), ctx.cons.build_cayley(b)), (a, b)
        assert verdicts[f"{a},{b}"] is True, (a, b)
    acceptance_log(f"criterion 6 (union refinement agrees with the closures, q={q}): PASS")


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_criterion_07_reverse_pair_witness(q, contexts, acceptance_log):
    """sigma(x, y, z) = (x, -y, -z) is a group automorphism with
    sigma(X_i) = X_chi(i), hence an isomorphism Cay(X_i) -> Cay(X_chi(i))."""
    cons = contexts[q].cons
    t, sigma = cons.table, cons.sigma_perm()
    assert np.array_equal(sigma[t.mult], t.mult[np.ix_(sigma, sigma)])
    for i in cons.generators_I():
        g1, g2 = cons.build_cayley(i), cons.build_cayley(cons.chi(i))
        assert np.array_equal(g2.arcs[np.ix_(sigma, sigma)], g1.arcs), i
    acceptance_log(f"criterion 7 (Cay(X_i) ~ Cay(X_chi(i)) by (x, -y, -z), q={q}): PASS")


@pytest.mark.parametrize("q", [3, 5])
def test_criterion_09_induced_count(q, contexts, acceptance_log):
    """Every inducedness search ends in a verdict, and at most 2 log_p q = 2
    algebraic automorphisms are induced (q prime), the identity among them."""
    ctx = contexts[q]
    autos = algebraic_automorphisms(ctx.tensor)
    results = [is_induced(ctx.ring, sigma).status for sigma in autos]
    assert set(results) <= {"induced", "not_induced"}
    assert 1 <= results.count("induced") <= 2
    acceptance_log(
        f"criterion 9 (induced algebraic automorphisms {results.count('induced')} <= 2, "
        f"q={q}): PASS"
    )


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_criterion_10_determinant_nonzero(q, contexts, acceptance_log):
    cons = contexts[q].cons
    assert all(desiso_maps(cons, i).det_nonzero for i in range(q))
    acceptance_log(f"criterion 10 (det(A) nonzero for every i, q={q}): PASS")


@pytest.mark.parametrize("q", [7, 9])
def test_criterion_12_wl_tensor_matches_structure_constants(
    q, contexts, request, acceptance_log
):
    """Intersection numbers counted from row 0 of each closure's colour
    matrix, independently of its stored tensor: p[a, b, color(0, y)] =
    #{z : color(0, z) = a, color(z, y) = b} is the same for every y and
    equals the convolution tensor on the K-orbit cells.  Closures are the
    ones the wl_closure check builds at this q, on the orbit-row engine; at
    q = 7 the first one must equal the dense closure, which keeps one
    independent q = 7 refinement in the suite."""
    ctx = contexts[q]
    gens = ctx.cons.generators_I()
    if q == 7:
        dense = request.getfixturevalue("dense_closure7")
        assert dense.generators == [] and ctx.closure(gens[0]).generators
        assert np.array_equal(dense.color, ctx.closure(gens[0]).color)
    wl = next(c for c in REGISTRY if c.name == "wl_closure")
    for i in gens if wl.variant(q, "full") == "exhaustive" else gens[:1]:
        cc = ctx.closure(i)
        row = cc.color[0]
        first = (row[:, None] == np.arange(cc.rank)).argmax(axis=0)  # a y of each colour
        rows = (row[None, :] == np.arange(cc.rank)[:, None]).astype(np.float64)
        p = np.zeros((cc.rank,) * 3, dtype=np.int64)
        for b in range(cc.rank):
            count = np.rint(rows @ (cc.color == b)).astype(np.int64)  # [a, y]
            assert np.array_equal(count, count[:, first][:, row]), (i, b)
            p[:, b, :] = count[:, first]
        color_of_cell = [int(row[members[0]]) for members in ctx.cons.cells()]
        mapped = p[np.ix_(color_of_cell, color_of_cell, color_of_cell)]
        assert np.array_equal(mapped, ctx.tensor.c.transpose(1, 0, 2)), i
    acceptance_log(f"criterion 12 (closure tensor equals convolution tensor, q={q}): PASS")


def test_criterion_12_relabeling_invariance(cons3, acceptance_log):
    graphs = [
        cons3.build_cayley(1),
        cons3.build_cayley(1, include_identity=False),
        random_digraph(20, 0.3, seed=12),
        directed_cycle(7),
    ]
    rng = np.random.default_rng(2024)
    for g in graphs:
        cc = wl_close(g)
        for _ in range(10):
            cc2 = wl_close(g.relabeled(rng.permutation(g.n)))
            assert cc2.generators == []   # a relabelled copy carries no translations
            assert cc2.rank == cc.rank
            assert np.array_equal(cc2.color_multiset(), cc.color_multiset())
            assert np.array_equal(cc2.tensor, cc.tensor)
    acceptance_log("criterion 12 (canonical invariance under 10 relabelings per graph): PASS")
