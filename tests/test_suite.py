"""Each registry check that decides its status by a comparison reports
`fail` on one corrupted input at q = 3, so no check can pass by comparing a
computation with itself."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ddwl import designs, isotest, srings, suite
from ddwl.cli import main
from ddwl.construction import Construction
from ddwl.digraph import Digraph
from reference import move_one_arc, relabeled_out, shift_within_a_product


def _wrap_cayley(cons, change):
    build = cons.build_cayley
    cons.build_cayley = lambda i, include_identity=True: change(i, build(i, include_identity))


def _relabel(cons, mp):
    """Relabels the digraphs' lists, which then claim no translations."""
    perm = np.random.default_rng(0).permutation(cons.n)
    _wrap_cayley(cons, lambda i, g: Digraph.from_out(relabeled_out(g, perm)))


def _relabel_keeping_translations(cons, mp):
    """Relabels the digraphs but leaves them the table's right translations,
    which are then no automorphisms of the digraphs they are attached to."""
    perm = np.random.default_rng(0).permutation(cons.n)
    _wrap_cayley(
        cons, lambda i, g: Digraph.from_out(relabeled_out(g, perm), translations=g.translations)
    )


def _perturb_delta(cons, mp):
    cons.delta = 0


def _join_next_orbit(cons, mp):
    """Adds Y_{i+1} to the connection set of X_i: the digraph stays Cayley and
    K-invariant and keeps its translations, so the closure and extension
    engines accept it."""
    build = cons.build_cayley
    _wrap_cayley(
        cons,
        lambda i, g: Digraph.from_out(
            np.hstack([g.out, build((i + 1) % cons.q, False).out]), translations=g.translations
        ),
    )


def _swap_between_cells(cons, mp):
    """Swaps the least points of Y_0 and Y_1 in the analytic cell list: the
    cells still partition the group, but they are not the orbits of K."""
    cells = [cell.copy() for cell in cons.cells()]
    cells[1][0], cells[2][0] = cells[2][0], cells[1][0]
    cons._cells = cells


def _bump_constant(x, y, z):
    """Adds one to the convolution constant c[X, Y, Z] at cells x, y and z
    ({e} is cell 0, Y_i cell 1 + i)."""

    def corrupt(cons, mp):
        build = srings.structure_constants

        def bumped(ring):
            t = build(ring)
            c = t.c.copy()
            c[x, y, z] += 1
            return dataclasses.replace(t, c=c)

        mp.setattr(srings, "structure_constants", bumped)

    return corrupt


def _count_e_times_e_on_the_center(cons, mp):
    """Counts e * e once more at the point of Z# that the one-point counter
    reads for the whole cell: the tensor is built, with c[e, e, Z#] = 1,
    which breaks mass conservation but no closed form of Y_i * Y_j."""
    count, e = srings._cell_counts, cons.table.identity

    def miscounted(ring, left, right):
        counts = count(ring, left, right)
        for a, x in enumerate(left):
            for b, y in enumerate(right):
                if len(x) == len(y) == 1 and x[0] == y[0] == e:
                    counts[ring.center_cell, a, b] += 1
        return counts

    mp.setattr(srings, "_cell_counts", miscounted)


def _roll_design_map(cons, mp, name="f"):
    build = designs.desiso_maps

    def rolled(c, i):
        maps = build(c, i)
        return dataclasses.replace(maps, **{name: np.roll(getattr(maps, name), 1)})

    mp.setattr(designs, "desiso_maps", rolled)


CORRUPTIONS = {
    "field_axioms": lambda cons, mp: mp.setattr(
        cons.field, "inv_t", np.roll(cons.field.inv_t, 1)
    ),
    "group_axioms": lambda cons, mp: setattr(
        cons.table, "mult", cons.table.mult[[0, 2, 1, *range(3, cons.n)]]
    ),
    "k_automorphisms": _relabel,
    # k_orbits itself raises when the cycles of K's generator miss the cells
    "orbit_partition": _swap_between_cells,
    "psi_group": _perturb_delta,
    "dds_transversal": lambda cons, mp: setattr(cons.table, "inv", np.arange(cons.n)),
    "structure_constants": _perturb_delta,
    "tensor_identities": _bump_constant(0, 0, 0),
    # a Cayley digraph on X_i and Y_(i+1): proven translations, wrong counts
    "ddd_parameters": _join_next_orbit,
    "wl_closure": _join_next_orbit,
    "wl_equivalence": lambda cons, mp: _wrap_cayley(
        cons, lambda i, g: g if i == 1 else g.without_loops()
    ),
    "tau_hat_transport": lambda cons, mp: mp.setattr(
        srings, "tau_hat", lambda ring, m: np.arange(ring.r)
    ),
    "algebraic_automorphisms": lambda cons, mp: mp.setattr(suite, "euler_phi", lambda n: 100),
    "design_isomorphism": _roll_design_map,
    "one_point_extension": _join_next_orbit,
    "iso_classes": lambda cons, mp: mp.setattr(suite, "euler_phi", lambda n: 100),
    # Cay(X_i) against itself: sigma moves X_i onto X_chi(i), not onto X_i
    "reverse_pair_isomorphism": lambda cons, mp: setattr(cons, "chi", lambda i: i),
    "automorphism_order": _join_next_orbit,
}


def _run_one(name, monkeypatch, q=3):
    monkeypatch.setattr(suite, "REGISTRY", [c for c in suite.REGISTRY if c.name == name])
    (result,) = suite.run_suite(q).checks
    return result


def test_every_check_has_a_corruption():
    assert set(CORRUPTIONS) == {c.name for c in suite.REGISTRY}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_corrupted_input_fails(name, monkeypatch):
    cons = Construction(3)
    CORRUPTIONS[name](cons, monkeypatch)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one(name, monkeypatch)
    assert result.status == "fail", result.data
    assert ("error" in result.data) == (name == "orbit_partition"), result.data


@pytest.mark.parametrize(
    "name, status", [("structure_constants", "pass"), ("tensor_identities", "fail")]
)
def test_miscounted_tensor_fails_criterion_12_by_verdict(name, status, monkeypatch):
    """A tensor that breaks a group-counting identity is built, and only the
    identity check says so, by its verdict."""
    cons = Construction(3)
    _count_e_times_e_on_the_center(cons, monkeypatch)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one(name, monkeypatch)
    assert result.status == status and "error" not in result.data, result.data


@pytest.mark.parametrize("q", [3, 5])
def test_triangle_only_shift_fails_tensor_identities_by_verdict(q, monkeypatch):
    build = srings.structure_constants
    monkeypatch.setattr(
        srings, "structure_constants", lambda ring: shift_within_a_product(build(ring), ring)
    )
    result = _run_one("tensor_identities", monkeypatch, q)
    assert result.status == "fail" and "error" not in result.data, result.data


def _swap_in_a_psi_row(cons, mp):
    """Swaps psi[1, 0] and psi[1, 1], two finite entries of a finite row, in
    every table `cons.psi_table` returns: no group law, and a singleton
    coupling c[Y_1, Y_j, Y_psi(1, j)] = 1 moved for j = 0 and 1."""
    build = cons.psi_table

    def swapped():
        table = build()
        table[1, [0, 1]] = table[1, [1, 0]]
        return table

    mp.setattr(cons, "psi_table", swapped)


@pytest.mark.parametrize("name", ["psi_group", "structure_constants"])
def test_a_swapped_psi_row_fails_criteria_3_and_4(name, monkeypatch):
    """Criterion 3 proves the very table criterion 4's closed forms read."""
    cons = Construction(3)
    _swap_in_a_psi_row(cons, monkeypatch)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one(name, monkeypatch)
    assert result.status == "fail" and "error" not in result.data, result.data


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(ValueError, match="suite must be"):
        suite.run_suite(3, "bogus")


def _assert_verify_reports_not_invariant(cons, name, tmp_path, monkeypatch, capsys):
    """`ddwl verify 3` on cons, with only the named check, exits 1 and reports
    the engine's NotInvariant as the check's error."""
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    monkeypatch.setattr(suite, "REGISTRY", [c for c in suite.REGISTRY if c.name == name])
    out = tmp_path / "r.json"
    assert main(["verify", "3", "--no-timings", "--out", str(out)]) == 1
    (check,) = json.loads(out.read_text())["checks"]
    assert check["status"] == "fail"
    assert check["data"]["error"].startswith("NotInvariant: "), check["data"]
    capsys.readouterr()


@pytest.mark.parametrize("name", ["wl_closure", "one_point_extension"])
def test_non_cayley_digraph_fails_loudly(name, tmp_path, monkeypatch, capsys):
    """A relabelled digraph that still carries the table's translations is not
    Cayley over the table: the orbit-row engine refuses it, and the check
    reports the refusal."""
    cons = Construction(3)
    _relabel_keeping_translations(cons, monkeypatch)
    _assert_verify_reports_not_invariant(cons, name, tmp_path, monkeypatch, capsys)


def test_plain_relabeled_digraph_fails_wl_closure(monkeypatch):
    """A relabelled digraph without translations is refined densely; its
    closure's identity row misses the cells, a plain comparison failure."""
    cons = Construction(3)
    _relabel(cons, monkeypatch)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one("wl_closure", monkeypatch)
    assert result.status == "fail" and "error" not in result.data, result.data


def test_plain_relabeled_digraph_fails_ddd_parameters_loudly(monkeypatch):
    """Lists without translations give `verify_ddd` no row 0 to count from:
    the check reports the refusal."""
    cons = Construction(3)
    _relabel(cons, monkeypatch)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one("ddd_parameters", monkeypatch)
    assert result.status == "fail"
    assert result.data["error"].startswith("ValueError: verify_ddd counts from row 0"), result.data


def test_moved_arc_fails_ddd_parameters_loudly(tmp_path, monkeypatch, capsys):
    """The one-row counts prove the translations on the lists: a digraph that
    carries them but is not invariant is refused, never counted."""
    cons = Construction(3)
    _wrap_cayley(cons, lambda i, g: move_one_arc(g))
    _assert_verify_reports_not_invariant(cons, "ddd_parameters", tmp_path, monkeypatch, capsys)


def test_moved_arc_fails_k_automorphisms(monkeypatch):
    cons = Construction(3)
    _wrap_cayley(cons, lambda i, g: move_one_arc(g))
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one("k_automorphisms", monkeypatch)
    assert result.status == "fail" and "error" not in result.data, result.data


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("corrupt", [False, True])
def test_k_automorphisms_agrees_with_every_element_on_every_label(q, corrupt, monkeypatch):
    """Oracle: each of the q^2 - 1 elements of K against the arcs of every label."""
    cons = Construction(q)
    if corrupt:
        _relabel(cons, monkeypatch)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    ks = [cons.rho_perm(a, b) for a, b in cons.build_K()]
    every = all(
        np.array_equal(arcs[np.ix_(k, k)], arcs)
        for arcs in (cons.build_cayley(i).arcs for i in cons.generators_I())
        for k in ks
    )
    assert every != corrupt
    result = _run_one("k_automorphisms", monkeypatch, q)
    assert result.status == ("pass" if every else "fail"), result.data


def test_k_automorphisms_checks_each_label_once(monkeypatch):
    result = _run_one("k_automorphisms", monkeypatch, 9)
    assert result.status == "pass"
    assert result.data == {"k_order": 80, "graph_checks": len(Construction(9).generators_I())}


@pytest.mark.parametrize("name", ["k_automorphisms", "ddd_parameters"])
def test_list_checks_read_no_adjacency_matrix(name, monkeypatch):
    """Both checks read the out-neighbour lists only: with `arcs` unreadable
    they still pass."""

    def unreadable(g):
        raise AssertionError("read the n x n arcs")

    monkeypatch.setattr(Digraph, "arcs", property(unreadable))
    result = _run_one(name, monkeypatch, 5)
    assert result.status == "pass", result.data


def test_run_suite_proves_each_digraph_once(monkeypatch):
    """`Context` builds each label's Cay(X_i) once and `ddd_parameters`
    derives each loopless companion from it with the proof kept, so the full
    q = 7 suite proves translations 4 times, once per generator label."""
    proven, translations = [], Digraph.translations

    def counting(g):
        if g._translations is None and g._claimed:
            proven.append(g)
        return translations.fget(g)

    monkeypatch.setattr(Digraph, "translations", property(counting))
    assert suite.run_suite(7, "full").ok
    assert len(proven) == len({g.label for g in proven}) == 4


def test_context_holds_only_the_looped_digraphs():
    """`ddd_parameters` reads the loopless companions and drops them: the
    `Context` then holds Cay(X_i) alone, keyed by label, loops at every vertex."""
    ctx = suite.Context(5)
    assert suite._ddd_parameters(ctx, True)[0] == "pass"
    gens = ctx.cons.generators_I()
    assert sorted(ctx.digraphs) == sorted(gens)
    for i in gens:
        g = ctx.digraphs[i]
        assert g.out.shape == (125, 25) and (g.out == np.arange(125)[:, None]).any(axis=1).all()


class _NoSearch:
    """Stands in for the `isotest` module: any read of it raises."""

    def __getattr__(self, name):
        raise AssertionError(f"isotest.{name} was read")


@pytest.mark.parametrize("q", [3, 5, 7])
def test_reverse_pair_is_decided_by_sigma_alone(q, monkeypatch):
    """The row reads neither the search nor a closure: sigma, proven a
    permutation and checked on the out-lists, is its whole verdict.  A read
    of either would raise and fail the row."""

    def refuse(*args):
        raise AssertionError("the search or a closure was read")

    monkeypatch.setattr(isotest, "are_isomorphic", refuse)
    monkeypatch.setattr(suite, "isotest", _NoSearch())
    monkeypatch.setattr(suite.Context, "closure", refuse)
    result = _run_one("reverse_pair_isomorphism", monkeypatch, q)
    assert (result.status, result.data["result"]) == ("pass", "isomorphic"), result.data


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("forgery", ["transposition", "y-only"])
def test_reverse_pair_fails_a_forged_witness(forgery, q, monkeypatch):
    """sigma composed with the transposition of vertices 0 and 1, and
    (x, y, z) -> (x, -y, z), which maps no X_i onto any X_j, are
    permutations that carry no arcs: the row fails by its verdict."""
    cons = Construction(q)
    t, f = cons.table, cons.field
    if forgery == "transposition":
        forged = cons.sigma_perm()
        forged[[0, 1]] = forged[[1, 0]]
    else:
        x, y = t.grid
        forged = t.coset_affine(x, f.neg(y), 0, f.one)
        images = {frozenset(forged[cons.build_X(i)].tolist()) for i in range(q)}
        assert images.isdisjoint(frozenset(cons.build_X(j).tolist()) for j in range(q))
    monkeypatch.setattr(cons, "sigma_perm", lambda: forged)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one("reverse_pair_isomorphism", monkeypatch, q)
    assert result.status == "fail" and "error" not in result.data, result.data
    assert result.data["result"] != "isomorphic"


@pytest.mark.parametrize("q, searches", [(3, 1), (5, 1), (7, 4)])
def test_the_suite_searches_no_pair_twice(q, searches, monkeypatch):
    """Only `iso_classes` asks the isomorphism search, once per pair it has
    to decide: one pair at q = 3 and 5, four of the six at q = 7."""
    pairs, search = [], isotest.are_isomorphic

    def spy(g1, g2, *args):
        pairs.append((g1.label, g2.label))
        return search(g1, g2, *args)

    monkeypatch.setattr(isotest, "are_isomorphic", spy)
    assert suite.run_suite(q).ok
    assert len(pairs) == len(set(pairs)) == searches


# -- criterion 12 by Light's test ---------------------------------------------


def _associative(mult):
    """The n**3 oracle: (a b) c = a (b c) for every triple, as `mult[mult]`
    against `mult[:, mult]`."""
    return np.array_equal(mult[mult], mult[:, mult])


def _move_one_product(cons):
    """A copy of cons's table with mult[a, b] moved to another vertex, for a
    and b in the last row and column but one, neither e, central nor an h of
    a right translation, and b not a**-1."""
    t, q = cons.table, cons.q
    a, b = t.n - 1, t.n - 2
    hs = {int(s[t.identity]) for s in t.right_translations()}
    assert {a, b}.isdisjoint(hs | set(range(q))) and t.inv[a] != b
    mult = t.mult.copy()
    mult[a, b] = (int(mult[a, b]) + 1) % t.n
    return mult


@pytest.mark.parametrize("rows", [0, 3], ids=["default-blocks", "three-row-blocks"])
def test_one_wrong_product_fails_lights_test(rows, monkeypatch):
    """One moved product at q = 5, in the last row: the identities, the
    inverses, the center and the translations' columns all still hold, so
    only Light's 2l n**2 products see it, in the last of the blocks as in
    one block.  The n**3 oracle agrees on the table before and after."""
    cons = Construction(5)
    t = cons.table
    if rows:
        monkeypatch.setattr(suite, "_LIGHT_BLOCK_ELEMENTS", rows * t.n)
    steps = t.right_translations()
    assert suite._light_associative(t.mult, steps) and _associative(t.mult)
    mult = _move_one_product(cons)
    assert not suite._light_associative(mult, steps) and not _associative(mult)
    t.mult = mult
    assert t.translations_generate()
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one("group_axioms", monkeypatch, 5)
    assert result.status == "fail" and "error" not in result.data, result.data
    assert result.data["sampled_triples"] == 125**3


def test_one_translation_fails_the_generation_premise(monkeypatch):
    """The first right translation alone is a column of `mult`, and its
    products hold, but it reaches only q vertices from e: the premise of
    Light's test fails, and the row with it, by its verdict."""
    cons = Construction(5)
    first = cons.table.right_translations()[:1]
    assert suite._light_associative(cons.table.mult, first)
    monkeypatch.setattr(cons.table, "right_translations", lambda: first)
    assert not cons.table.translations_generate()
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one("group_axioms", monkeypatch, 5)
    assert result.status == "fail" and "error" not in result.data, result.data


def _imported(argv):
    """The modules a fresh interpreter running argv imports, read from
    `python -X importtime`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


def test_verify_5_never_imports_numpy_random():
    """numpy 2 loads numpy.random on first use; `python -m ddwl verify 5`
    samples nothing, so it never does.  The sampled branch does."""
    verify = _imported(["-m", "ddwl", "verify", "5", "--no-timings"])
    assert "numpy.random" not in verify and {"numpy", "ddwl.suite"} <= verify
    sampled = "from ddwl import suite; suite._group_axioms(suite.Context(3), False)"
    assert "numpy.random" in _imported(["-c", sampled])


# -- criterion 8 by the discrete leaf ---------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7])
def test_the_leaf_order_equals_the_search_on_every_label(q):
    """With e and min Y_i individualized the leaf is discrete on every
    generator label, and n |K| is the order the search finds."""
    ctx = suite.Context(q)
    for i in ctx.cons.generators_I():
        order, cells = suite._leaf_order(ctx, i)
        assert cells == ctx.cons.n
        assert order == isotest.automorphism_order(ctx.digraph(i), ctx.closure(i)), i
        assert order == q**3 * (q * q - 1)


def _spy_on_the_search(monkeypatch):
    """The calls the row makes to `isotest.automorphism_order`, each still
    answered by the search."""
    calls, search = [], isotest.automorphism_order

    def spy(g, cc):
        calls.append(g.label)
        return search(g, cc)

    monkeypatch.setattr(isotest, "automorphism_order", spy)
    return calls


def _assert_searched(q, cons, monkeypatch, cells):
    calls = _spy_on_the_search(monkeypatch)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one("automorphism_order", monkeypatch, q)
    assert result.status == "pass", result.data
    assert (result.data["decided_by"], result.data["leaf_cells"]) == ("search", cells)
    assert result.data["order"] == result.data["expected"] and len(calls) == 1


@pytest.mark.parametrize("q", [5, 7])
def test_a_central_point_leaves_q_squared_cells_and_the_search_decides(q, monkeypatch):
    """Negative control: e with a central z0 in place of y0 leaves q**2
    cells (e alone leaves q + 2), so the row runs the search."""
    cons = Construction(q)
    ctx = suite.Context(q)
    cc, e, z0 = ctx.closure(cons.generators_I()[0]), cons.table.identity, q - 1
    assert cons.table.center_mask[z0] and z0 != e
    assert isotest.leaf_cells(cc, (e, z0)) == q * q
    assert isotest.leaf_cells(cc, (e,)) == q + 2
    monkeypatch.setattr(cons, "build_Y", lambda i: np.array([z0]))
    _assert_searched(q, cons, monkeypatch, q * q)


def _forge_k_generator(cons, change):
    """Hands the row K's generator changed by change, once K is proven."""
    cons.build_K()
    forged = change(cons, cons.rho_perm(*cons.k_generator()))
    cons.rho_perm = lambda a, b: forged


def _transpose_1_and_2(cons, g):
    g[[1, 2]] = g[[2, 1]]
    return g


def _one_cell_short(cons, mp):
    count = isotest.leaf_cells
    mp.setattr(isotest, "leaf_cells", lambda cc, fixed: count(cc, fixed) - 1)


PREMISES = {
    # no automorphism: `carries_out` refuses it
    "transposed-k": lambda cons, mp: _forge_k_generator(cons, _transpose_1_and_2),
    # an automorphism, after a right translation, that moves e: not in Aut_e
    "k-moving-e": lambda cons, mp: _forge_k_generator(
        cons, lambda cons, g: cons.table.right_translations()[0][g]
    ),
    # |K| one short of y0's color class
    "short-k": lambda cons, mp: setattr(cons, "build_K", lambda k=cons.build_K(): k[1:]),
    # the same arcs with no translations: a dense closure, no transitive group
    "no-translations": lambda cons, mp: _wrap_cayley(cons, lambda i, g: Digraph(g.arcs)),
    # a leaf reported one cell short of discrete
    "coarse-leaf": _one_cell_short,
}


@pytest.mark.parametrize("premise", list(PREMISES))
@pytest.mark.parametrize("q", [3, 5])
def test_a_failed_premise_makes_the_row_search(q, premise, monkeypatch):
    """Each premise of the leaf broken in turn, the others holding: the row
    then asks the search, which finds the order."""
    cons = Construction(q)
    PREMISES[premise](cons, monkeypatch)
    _assert_searched(q, cons, monkeypatch, q**3 - (premise == "coarse-leaf"))


# -- criterion 9's witnesses ------------------------------------------------------


def _coprime(q):
    return [m for m in range(1, q + 1) if math.gcd(m, q + 1) == 1]


@pytest.mark.parametrize("q", [3, 5])
def test_the_witnesses_give_every_tau_hat_the_search_status(q):
    ctx = suite.Context(q)
    for m in _coprime(q):
        sigma = srings.tau_hat(ctx.ring, m)
        assert suite._induced_status(ctx, sigma) == isotest.is_induced(ctx.ring, sigma).status, m


@pytest.mark.parametrize("q", [3, 5])
def test_a_forged_sigma_is_no_witness_and_the_search_decides(q, monkeypatch):
    """sigma with vertices 0 and 1 swapped carries no recolored scheme
    coloring: the row searches tau-hat_q alone and counts what it did."""
    cons = Construction(q)
    forged = cons.sigma_perm()
    forged[[0, 1]] = forged[[1, 0]]
    monkeypatch.setattr(cons, "sigma_perm", lambda: forged)
    asked, search = [], isotest.is_induced

    def spy(ring, sigma):
        asked.append(sigma.tolist())
        return search(ring, sigma)

    monkeypatch.setattr(isotest, "is_induced", spy)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one("algebraic_automorphisms", monkeypatch, q)
    assert result.status == "pass" and result.data["induced"] == 2, result.data
    assert asked == [srings.tau_hat(suite.Context(q).ring, q).tolist()]


def test_the_witnesses_decide_tau_hat_1_and_7_at_q7_with_no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(isotest._PartitionSearch, "search", refuse)
    ctx = suite.Context(7)
    for m in (1, 7):
        assert suite._induced_status(ctx, srings.tau_hat(ctx.ring, m)) == "induced", m


@pytest.mark.parametrize("name", ["f", "h"])
def test_design_isomorphism_names_the_failing_pair(name, monkeypatch):
    cons = Construction(3)
    _roll_design_map(cons, monkeypatch, name)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    result = _run_one("design_isomorphism", monkeypatch)
    assert result.status == "fail"
    arcs_0 = cons.build_cayley(0).arcs
    for i in range(cons.q):
        entry = result.data[f"i={i}"]
        assert not entry["crit_holds"]
        maps = designs.desiso_maps(cons, i)
        g, g0 = entry["witness"]["g"], entry["witness"]["g0"]
        assert arcs_0[g0, g] != cons.build_cayley(i).arcs[maps.h[g0], maps.f[g]]


def test_vanishing_determinant_fails_the_design_check(tmp_path, monkeypatch, capsys):
    cons = Construction(5)
    f = cons.field
    cons.epsilon = f.inv(f.mul(f.from_int(16), 1))   # 1/(16 i**2) at i = 1, a square
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    monkeypatch.setattr(
        suite, "REGISTRY", [c for c in suite.REGISTRY if c.name == "design_isomorphism"]
    )
    out = tmp_path / "r.json"
    assert main(["verify", "5", "--suite", "fast", "--out", str(out)]) == 1
    (check,) = json.loads(out.read_text())["checks"]
    assert check["status"] == "fail"
    entry = check["data"]["i=1"]
    assert entry["det_A_nonzero"] is False and entry["crit_holds"] is False
    capsys.readouterr()


def test_size_table():
    def plan(q, s):
        return {c.name: c.variant(q, s) for c in suite.REGISTRY if c.variant(q, s)}

    assert list(plan(5, "full")) == [c.name for c in suite.REGISTRY]
    assert set(plan(5, "full")) - set(plan(7, "full")) == set()
    assert set(plan(7, "full")) - set(plan(9, "full")) == {
        "wl_equivalence", "tau_hat_transport",
    }
    # criterion 7's class count runs to q = 11 in the full suite, exhaustive throughout
    assert plan(11, "full")["iso_classes"] == "exhaustive"
    assert "iso_classes" not in plan(13, "full")
    # criterion 11 runs to q = 11 in the full suite, to q = 7 in the fast one
    assert plan(9, "full")["one_point_extension"] == "exhaustive"
    assert plan(11, "full")["one_point_extension"] == "exhaustive"
    assert "one_point_extension" not in plan(13, "full")
    assert set(plan(9, "full")) - set(plan(9, "fast")) == {
        "one_point_extension", "automorphism_order", "iso_classes",
    }
    assert set(plan(5, "full")) - set(plan(5, "fast")) == {
        "wl_equivalence", "tau_hat_transport", "iso_classes", "automorphism_order",
    }
    # criterion 8's |Aut| runs to q = 9 in the full suite, exhaustive throughout
    assert plan(9, "full")["automorphism_order"] == "exhaustive"
    assert "automorphism_order" not in plan(11, "full")
    # Light's test decides associativity to q = 13, in both suites
    assert plan(13, "fast")["group_axioms"] == plan(13, "full")["group_axioms"] == "exhaustive"
    assert plan(17, "fast")["group_axioms"] == plan(17, "full")["group_axioms"] == "sampled"
    sampled = {"wl_closure"}
    assert {n for n, v in plan(5, "fast").items() if v == "sampled"} == sampled
    assert {n for n, v in plan(9, "full").items() if v == "sampled"} == sampled | {
        "algebraic_automorphisms"
    }


@pytest.mark.parametrize(
    "q, classes",
    [(7, {(2, 5), (3, 4)}), (9, {(1, 2, 4, 8)}), (11, {(3, 8), (4, 7)})],
    ids=["q7", "q9", "q11"],
)
def test_iso_classes_partition_the_generator_labels(q, classes, contexts):
    """Criterion 7's classes, every pair decided: {2, 5} | {3, 4} at q = 7,
    one class at q = 9 and {3, 8} | {4, 7} at q = 11, as README states."""
    status, data = suite._iso_classes(contexts[q], True)
    assert status == "pass" and data["exact"] and data["classes"] == len(classes)
    labels, pairs = data["labels"], data["pairs"]

    def joined(a, b):
        return a == b or pairs[f"{min(a, b)},{max(a, b)}"].startswith("isomorphic")

    assert {tuple(b for b in labels if joined(a, b)) for a in labels} == classes


def test_readme_registry_table_matches_the_registry():
    """README's table of `ddwl verify` checks names the registry's checks and
    criteria, in registry order, and its fast-suite cell reads "not run"
    exactly for the checks the fast suite never runs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text.split("`ddwl verify` runs the checks of one registry")[1]
    table = after.split("| check | criterion | full suite | fast suite |\n|---|---|---|---|\n")[1]
    rows = [line.split("|")[1:5] for line in table.split("\n\n")[0].splitlines()]
    got = [(name.strip().strip("`"), criterion.strip()) for name, criterion, _, _ in rows]
    assert got == [(c.name, c.criterion) for c in suite.REGISTRY]
    not_run = [fast.strip() == "not run" for _, _, _, fast in rows]
    assert not_run == [c.fast == suite.NEVER for c in suite.REGISTRY]


def test_peak_memory_is_reported_with_the_timings_only():
    """Each check's process high-water mark, in MB, appears beside its
    seconds, which stay floats; without timings neither appears."""
    report = suite.run_suite(3, "fast")
    names = [c.name for c in report.checks]
    assert list(report.timings) == list(report.peak_rss_mb) == names
    assert all(type(report.timings[name]) is float for name in names)
    peaks = list(report.peak_rss_mb.values())
    assert all(type(mb) is float and mb > 0 for mb in peaks) and peaks == sorted(peaks)
    timed = report.to_json()
    assert (timed["timings"], timed["peak_rss_mb"]) == (report.timings, report.peak_rss_mb)
    untimed = report.to_json(include_timings=False)
    assert "timings" not in untimed and "peak_rss_mb" not in untimed
    assert untimed == {k: v for k, v in timed.items() if k not in ("timings", "peak_rss_mb")}


def test_run_suite_takes_any_q(monkeypatch):
    """The registry says where each check runs, and the command line's
    DDWL_MAX_Q is the one cap on q: `run_suite` builds the q it is given."""
    monkeypatch.setattr(suite, "REGISTRY", suite.REGISTRY[:1])
    report = suite.run_suite(13, "fast")
    assert report.ok and [c.name for c in report.checks] == ["field_axioms"]


@pytest.mark.parametrize("conjugate", [False, True], ids=["composed", "conjugated"])
@pytest.mark.parametrize("q", [3, 5])
def test_tau_hat_composed_with_a_y_swap_fails_criterion_9(q, conjugate, monkeypatch):
    """Each power map after the transposition s of Y_0 and Y_1 is still a cell
    bijection, but no algebraic automorphism.  Conjugated by s, the maps are
    still phi(q + 1) distinct ones closed under composition, so only the
    tensor check can refuse them."""
    tau = srings.tau_hat

    def swapped(ring, m):
        swap = np.arange(ring.r)
        swap[[ring.y_cell(0), ring.y_cell(1)]] = ring.y_cell(1), ring.y_cell(0)
        sigma = tau(ring, m)[swap]
        return swap[sigma] if conjugate else sigma

    monkeypatch.setattr(srings, "tau_hat", swapped)
    result = _run_one("algebraic_automorphisms", monkeypatch, q)
    assert result.status == "fail" and "error" not in result.data, result.data


def test_one_map_for_every_exponent_fails_criterion_9(monkeypatch):
    """phi(q + 1) copies of the identity each transport the tensor and close
    under composition, but they are one map, not phi(q + 1)."""
    monkeypatch.setattr(srings, "tau_hat", lambda ring, m: np.arange(ring.r))
    result = _run_one("algebraic_automorphisms", monkeypatch, 5)
    assert result.status == "fail" and "error" not in result.data, result.data


@pytest.mark.parametrize(
    "cell, name, status",
    [
        (2, "algebraic_automorphisms", "fail"),
        (1, "algebraic_automorphisms", "pass"),
        (1, "structure_constants", "fail"),
    ],
)
def test_a_bumped_constant_fails_criterion_9_where_a_tau_hat_moves_it(
    cell, name, status, monkeypatch
):
    """c[Y, Y, Y] + 1 at q = 5.  For Y_1 (cell 2), tau_hat_5 (i -> -i) carries
    the triple to (Y_4, Y_4, Y_4), whose constant was not bumped.  For Y_0
    (cell 1): label 0 has order 2 in the index group, so every power map with
    odd m, hence every tau_hat, fixes the triple and transports the bumped
    tensor; the closed forms catch it instead."""
    _bump_constant(cell, cell, cell)(None, monkeypatch)
    result = _run_one(name, monkeypatch, 5)
    assert result.status == status and "error" not in result.data, result.data


def test_k_automorphisms_holds_no_second_copy_of_k():
    """With K and the digraphs built, the list check proves the generator
    alone: its traced peak stays below one list of K's permutations."""
    ctx = suite.Context(13)
    labels = ctx.cons.build_K()
    for i in ctx.cons.generators_I():
        ctx.digraph(i)
    tracemalloc.start()
    try:
        status, _ = suite._k_automorphisms(ctx, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "pass"
    assert peak < len(labels) * ctx.cons.n * 4  # q**2 - 1 int32 permutations


# The q = 5 suite, then the calls of perfbench's family plan at q = 5.
_PLANS_AT_Q5 = """
import sys
import numpy as np
from ddwl import coherent, isotest, suite
from ddwl.construction import Construction
assert suite.run_suite(5, "full").ok
cons = Construction(5)
gens = cons.generators_I()
cons.k_orbits()
graphs = [cons.build_cayley(i) for i in gens]
closures = [coherent.wl_close(g) for g in graphs]
for cc in closures:
    coherent.as_sring_partition(cc, cons.table)
assert isotest.iso_class_count(graphs, closures).exact
relabeled = graphs[0].relabeled(np.random.default_rng(1).permutation(cons.n))
cc = coherent.wl_close(relabeled)
assert isotest.are_isomorphic(graphs[0], relabeled, closures[0], cc).isomorphic
print("numpy.ma" in sys.modules)
"""


def test_the_plans_never_import_numpy_ma():
    """`np.unique` with no return flag imports numpy.ma, 10 to 17 ms on its
    first call in a process; the suite and the family calls make none."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _PLANS_AT_Q5], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["False"]


def test_field_checks_at_q37_build_no_product_table():
    """Criteria 12 and 3 read only the field, so `Context(37)` answers them
    without the n**2 product table (5.1 GB at uint16) and far below it."""
    tracemalloc.start()
    try:
        ctx = suite.Context(37)
        statuses = [suite._field_axioms(ctx, True)[0], suite._psi_group(ctx, True)[0]]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert statuses == ["pass", "pass"]
    assert "mult" not in vars(ctx.cons.table)
    assert peak < 32 * 2**20


def _table_readers(wide):
    """What the product table's readers compute at q = 9 (l = 2), as bytes,
    with `mult` at its own width or as an int64 copy."""
    ctx = suite.Context(9)
    cons, t = ctx.cons, ctx.cons.table
    if wide:
        t.mult = t.mult.astype(np.int64)
    ring = ctx.ring
    tensor = srings.structure_constants(ring)
    lists = [
        cons.build_cayley(i, loops).out
        for i in range(cons.q)
        for loops in (True, False)
    ]
    coloring = ring.scheme_coloring()
    return {
        "structure_constants": [tensor.c.tobytes(), tensor.c.dtype.str],
        "transversals": [repr(srings.verify_transversal(ring, i)) for i in range(cons.q)],
        "cayley_lists": [(out.tobytes(), out.dtype.str) for out in lists],
        "scheme_coloring": [coloring.tobytes(), coloring.dtype.str],
        "one_point_extension": json.dumps(suite._one_point_extension(ctx, True)),
    }


def test_the_table_readers_do_not_depend_on_its_width():
    """Every reader of `mult` only indexes, compares and gathers: each result
    is the same bytes from the narrow table and from an int64 copy."""
    narrow, wide = _table_readers(False), _table_readers(True)
    for name, value in narrow.items():
        assert value == wide[name], name
