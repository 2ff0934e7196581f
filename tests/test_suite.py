"""Each registry check that decides its status by a comparison reports
`fail` on one corrupted input at q = 3, so no check can pass by comparing a
computation with itself."""

import dataclasses
import json
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
from reference import move_one_arc, shift_within_a_product


def _wrap_cayley(cons, change):
    build = cons.build_cayley
    cons.build_cayley = lambda i, include_identity=True: change(i, build(i, include_identity))


def _relabel(cons, mp):
    perm = np.random.default_rng(0).permutation(cons.n)
    _wrap_cayley(cons, lambda i, g: g.relabeled(perm))


def _relabel_keeping_translations(cons, mp):
    """Relabels the digraphs but leaves them the table's right translations,
    which are then no automorphisms of the digraphs they are attached to."""
    perm = np.random.default_rng(0).permutation(cons.n)
    _wrap_cayley(
        cons, lambda i, g: Digraph(g.relabeled(perm).arcs, translations=g.translations)
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
        lambda i, g: Digraph(
            g.arcs | build((i + 1) % cons.q, False).arcs, translations=g.translations
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
    "ddd_parameters": _relabel,
    "wl_closure": _join_next_orbit,
    "wl_equivalence": lambda cons, mp: _wrap_cayley(
        cons,
        lambda i, g: g if i == 1 else Digraph(
            g.arcs & ~np.eye(cons.n, dtype=bool), translations=g.translations
        ),
    ),
    "tau_hat_transport": lambda cons, mp: mp.setattr(
        srings, "tau_hat", lambda ring, m: np.arange(ring.r)
    ),
    "algebraic_automorphisms": lambda cons, mp: mp.setattr(suite, "euler_phi", lambda n: 100),
    "design_isomorphism": _roll_design_map,
    "one_point_extension": _join_next_orbit,
    "iso_classes": lambda cons, mp: mp.setattr(suite, "euler_phi", lambda n: 100),
    # Cay(X_i) against itself: the search finds the identity, sigma moves X_i
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


@pytest.mark.parametrize("kind", ["non-isomorphic", "undetermined"])
def test_reverse_pair_takes_the_search_answer(kind, monkeypatch):
    monkeypatch.setattr(
        isotest, "are_isomorphic", lambda g1, g2, *args: isotest.IsoCertificate(kind)
    )
    result = _run_one("reverse_pair_isomorphism", monkeypatch)
    assert result.status == {"non-isomorphic": "fail", "undetermined": "undetermined"}[kind]
    assert result.data["result"] == kind


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
    assert set(plan(5, "full")) - set(plan(7, "full")) == {"automorphism_order"}
    assert set(plan(7, "full")) - set(plan(9, "full")) == {
        "wl_equivalence", "tau_hat_transport", "iso_classes", "reverse_pair_isomorphism",
    }
    # criterion 11 runs to q = 9 in the full suite, to q = 7 in the fast one
    assert plan(9, "full")["one_point_extension"] == "exhaustive"
    assert "one_point_extension" not in plan(11, "full")
    assert set(plan(9, "full")) - set(plan(9, "fast")) == {"one_point_extension"}
    assert set(plan(5, "full")) - set(plan(5, "fast")) == {
        "wl_equivalence", "tau_hat_transport", "iso_classes", "reverse_pair_isomorphism",
        "automorphism_order",
    }
    sampled = {"wl_closure", "group_axioms"}
    assert {n for n, v in plan(5, "fast").items() if v == "sampled"} == sampled
    assert {n for n, v in plan(9, "full").items() if v == "sampled"} == sampled | {
        "algebraic_automorphisms"
    }


def test_readme_registry_table_matches_the_registry():
    """README's table of `ddwl verify` checks names the registry's checks and
    criteria, in registry order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| check | criterion | full suite | fast suite |\n|---|---|---|---|\n")[1]
    rows = [line.split("|")[1:3] for line in table.split("\n\n")[0].splitlines()]
    got = [(name.strip().strip("`"), criterion.strip()) for name, criterion in rows]
    assert got == [(c.name, c.criterion) for c in suite.REGISTRY]


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
