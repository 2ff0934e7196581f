import re
import tracemalloc

import numpy as np
import pytest

from ddwl import construction, suite
from ddwl.arith import code_dtype, euler_phi
from ddwl.construction import Construction
from ddwl.digraph import Digraph, NotInvariant, orbit_mask
from reference import (
    INF,
    MatrixM,
    cayley_arcs_densely,
    coordinates,
    corrupt_rho,
    field_matmul,
    from_text,
    move_one_arc,
    psi,
    rho_apply,
    unitriangular,
)


def test_rho_identity_matrix_is_identity_map(cons3):
    m = MatrixM(1, 0, cons3.epsilon)
    for v in range(cons3.n):
        g = tuple(cons3.table.element_to_json(v))
        assert rho_apply(cons3.field, m, g) == g


def test_rho_fixes_identity_and_example(cons3):
    m = MatrixM(0, 1, cons3.epsilon)
    assert rho_apply(cons3.field, m, (0, 0, 0)) == (0, 0, 0)
    assert rho_apply(cons3.field, m, (1, 0, 0)) == (0, 1, 0)


def test_rho_perm_agrees_with_typed_map(cons3, cons5, cons9):
    """The coset-grid evaluation against `rho_apply` on every vertex, for
    every (a, b) != (0, 0) at q = 3, 5 and 9 (l = 2); one batched call on
    all the pairs gives the scalar calls' rows."""
    for cons in (cons3, cons5, cons9):
        q = cons.q
        triples = [tuple(cons.table.element_to_json(v)) for v in range(cons.n)]
        pairs = [(a, b) for a in range(q) for b in range(q) if a or b]
        for a, b in pairs:
            m = MatrixM(a, b, cons.epsilon)
            images = (rho_apply(cons.field, m, g) for g in triples)
            perm = cons.rho_perm(a, b)
            assert perm.dtype == np.int32, (q, a, b)
            assert perm.tolist() == [(x * q + y) * q + z for x, y, z in images], (q, a, b)
        batch = cons.rho_perm(*np.array(pairs).T)
        assert batch.dtype == np.int32 and batch.shape == (len(pairs), cons.n)
        assert np.array_equal(batch, np.stack([cons.rho_perm(a, b) for a, b in pairs]))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_sigma_perm_is_conjugation_by_diag_1_1_minus_1(q):
    """`sigma_perm()` sends the unitriangular matrix M of every vertex to
    D M D**-1, D = diag(1, 1, -1) its own inverse, computed as 3x3 matrix
    products over the field (l = 2 at q = 9).  It is a group automorphism,
    and it maps X_i onto X_chi(i) as sets for every i in [0, q)."""
    cons = Construction(q, max_vertices=q**3)
    t, f, sigma = cons.table, cons.field, cons.sigma_perm()
    m = unitriangular(f, *coordinates(q))
    d = np.diag([f.one, f.one, f.neg(f.one)]).astype(np.int32)
    image = field_matmul(f, field_matmul(f, d, m), d)
    assert np.array_equal(image[:, [0, 1, 2], [0, 1, 2]], np.ones((cons.n, 3)))
    assert not image[:, [1, 2, 2], [0, 0, 1]].any()
    x, y, z = (image[:, r, c].astype(np.int64) for r, c in ((0, 1), (1, 2), (0, 2)))
    assert sigma.dtype == np.int32 and np.array_equal(sigma, (x * q + y) * q + z)
    assert np.array_equal(sigma[t.mult], t.mult[np.ix_(sigma, sigma)])
    for i in range(q):
        assert np.array_equal(np.sort(sigma[cons.build_X(i)]), cons.build_X(cons.chi(i))), i


def test_matrix_m_excludes_zero_pair(cons3):
    with pytest.raises(ValueError):
        MatrixM(0, 0, cons3.epsilon)


def test_vertex_cap(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("built past the vertex cap")

    monkeypatch.setattr(construction, "field_create", unbuilt)
    monkeypatch.setattr(construction, "GroupTable", unbuilt)
    with pytest.raises(ValueError, match="2197 exceeds the vertex cap 1331"):
        Construction(13)
    monkeypatch.undo()
    assert Construction(13, max_vertices=13**3).n == 13**3


@pytest.mark.parametrize("q", [3, 5, 9])
def test_build_k_size_and_homomorphism(q):
    cons = Construction(q)
    labels = cons.build_K()
    assert len(labels) == q * q - 1
    # rho is multiplicative as a matrix action: composition stays inside K
    ks = [cons.rho_perm(a, b) for a, b in labels]
    perms = {k.tobytes() for k in ks}
    for a in ks[:5]:
        for b in ks[:5]:
            assert a[b].tobytes() in perms


def _build_k_per_element(cons):
    """The oracle for `build_K`: every rho(a, b), in (a, b) order, checked on
    its own to be a bijection and a homomorphism on all n**2 products."""
    mult, out = cons.table.mult, []
    for a in range(cons.q):
        for b in range(cons.q):
            if a == 0 and b == 0:
                continue
            perm = cons.rho_perm(a, b)
            assert np.array_equal(np.sort(perm), np.arange(cons.n)), (a, b)
            assert np.array_equal(perm[mult], mult[np.ix_(perm, perm)]), (a, b)
            out.append((a, b, perm.dtype, perm.tobytes()))
    return out


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_build_k_matches_the_per_element_proof(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    labels = cons.build_K()
    assert all(type(a) is int and type(b) is int for a, b in labels)
    perms = (cons.rho_perm(a, b) for a, b in labels)
    got = [(a, b, perm.dtype, perm.tobytes()) for (a, b), perm in zip(labels, perms)]
    assert got == _build_k_per_element(cons)


def test_build_k_rejects_a_wrong_closed_form_for_a_power(monkeypatch):
    cons = Construction(5)
    gen = cons.k_generator()
    power = cons._m_powers(gen)[1]
    corrupt_rho(cons, monkeypatch, power)
    with pytest.raises(RuntimeError, match=re.escape(f"rho{power} is not the matching power")):
        cons.build_K()


@pytest.mark.parametrize("position", [1, -2], ids=["first_chunk", "last_partial_chunk"])
def test_build_k_checks_every_chunk_of_closed_forms(position, monkeypatch):
    """At q = 5 the 24 powers go to `rho_perm` as one chunk of 16 and one
    of 8; a wrong closed form in either is found."""
    cons = Construction(5)
    powers = cons._m_powers(cons.k_generator())
    sizes, rho = [], cons.rho_perm
    monkeypatch.setattr(cons, "rho_perm", lambda a, b: sizes.append(np.size(a)) or rho(a, b))
    assert len(cons.build_K()) == 24 and sizes == [1, 16, 8]
    cons = Construction(5)
    corrupt_rho(cons, monkeypatch, powers[position])
    with pytest.raises(RuntimeError, match=re.escape(f"rho{powers[position]} is not the matching")):
        cons.build_K()


def test_build_k_rejects_a_generator_that_is_not_a_homomorphism(monkeypatch):
    cons = Construction(5)
    corrupt_rho(cons, monkeypatch, cons.k_generator())
    with pytest.raises(RuntimeError, match="is not a homomorphism"):
        cons.build_K()


@pytest.mark.parametrize("q", [3, 5])
def test_build_k_rejects_a_generator_of_low_order(q, monkeypatch):
    cons = Construction(q)
    # M(0, 1) = sqrt(eps) has order 2 * ord(eps), at most 2 (q - 1) < q**2 - 1;
    # rho(0, 1) is a genuine automorphism, so only the count of powers fails
    monkeypatch.setattr(cons, "k_generator", lambda: (0, 1))
    with pytest.raises(RuntimeError, match=r"has \d+ powers, not q\*\*2 - 1"):
        cons.build_K()
    assert cons._K is None


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
@pytest.mark.parametrize("corrupt", [False, True])
def test_build_k_generator_proof_equals_the_dense_one(q, corrupt, monkeypatch):
    """Oracle: the generator's homomorphism check over all n**2 products."""
    cons = Construction(q, max_vertices=q**3)
    if corrupt:
        corrupt_rho(cons, monkeypatch, cons.k_generator())
    g, mult = cons.rho_perm(*cons.k_generator()), cons.table.mult
    dense = np.array_equal(g[mult], mult[np.ix_(g, g)])
    assert dense != corrupt
    if dense:
        assert len(cons.build_K()) == q * q - 1
    else:
        with pytest.raises(RuntimeError, match="is not a homomorphism"):
            cons.build_K()


def _spoil_translations(cons, monkeypatch, spoil):
    steps = list(cons.table.right_translations())
    monkeypatch.setattr(cons.table, "right_translations", lambda: tuple(spoil(steps)))


def test_build_k_rejects_a_translation_that_is_not_right_multiplication(monkeypatch):
    cons = Construction(5)
    mult = cons.table.mult
    # u -> h * u for h = (0, 1, 0) joins the translations: a permutation sending e
    # to h, not u -> u * h, next to steps that do generate H3(q)
    _spoil_translations(cons, monkeypatch, lambda steps: steps + [mult[steps[1][0]]])
    with pytest.raises(RuntimeError, match="right translations are not"):
        cons.build_K()


def test_build_k_rejects_translations_that_do_not_generate(monkeypatch):
    cons = Construction(5)
    # the steps by (1, 0, 0) reach only the vertices (x, 0, 0)
    _spoil_translations(cons, monkeypatch, lambda steps: steps[::2])
    with pytest.raises(RuntimeError, match="right translations are not"):
        cons.build_K()


def test_build_k_peak_stays_below_one_n2_array():
    cons = Construction(13, max_vertices=13**3)
    tracemalloc.start()
    try:
        assert len(cons.build_K()) == 168
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * cons.n**2


def test_build_k_keeps_no_permutation_list():
    """After the walk, what `build_K` leaves behind is far below one list
    of the q**2 - 1 int32 permutations (1.48 MB at q = 13).  The product
    table, which `build_K` reads and the table keeps, is built first."""
    cons = Construction(13, max_vertices=13**3)
    cons.table.mult
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        labels = cons.build_K()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < len(labels) * cons.n * 4 // 10


def test_build_k_rejects_a_generator_of_the_wrong_order(monkeypatch):
    """The identity for every (a, b) is a homomorphism and matches every
    closed form, so only the order check sees that g**k is the identity
    before M(a0, b0)**k is (1, 0); criterion 8 then fails."""
    cons = Construction(5)
    identity = np.arange(cons.n)
    monkeypatch.setattr(cons, "rho_perm", lambda a, b: np.tile(identity, np.shape(a) + (1,)))
    with pytest.raises(RuntimeError, match=r"does not have order q\*\*2 - 1"):
        cons.build_K()
    assert cons._K is None
    only = [c for c in suite.REGISTRY if c.name == "k_automorphisms"]
    monkeypatch.setattr(suite, "REGISTRY", only)
    monkeypatch.setattr(suite, "Construction", lambda q, max_vertices: cons)
    (result,) = suite.run_suite(5).checks
    assert result.status == "fail" and "does not have order" in result.data["error"], result.data


def _matmul(f, x, y):
    """The product of two 2x2 matrices over GF(q), given as rows of indices."""
    return tuple(
        tuple(int(f.add(f.mul(x[r][0], y[0][c]), f.mul(x[r][1], y[1][c]))) for c in range(2))
        for r in range(2)
    )


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_k_generator_has_full_order(q):
    cons = Construction(q)
    f = cons.field
    a, b = cons.k_generator()
    m = ((a, b), (int(f.mul(cons.epsilon, b)), a))
    powers, p = [], m
    while p != ((1, 0), (0, 1)):
        powers.append(p[0])
        p = _matmul(f, p, m)
    assert len(powers) + 1 == q * q - 1
    assert powers + [(1, 0)] == cons._m_powers((a, b))


def test_k_generator_searches_once():
    cons = Construction(5)
    gen = cons.k_generator()

    def searched(m):
        raise AssertionError("searched again")

    cons._m_powers = searched
    assert cons.k_generator() == gen


def test_k_generator_needs_a_nonsquare():
    cons = Construction(5)
    cons.epsilon = 1
    with pytest.raises(RuntimeError, match="eps is not a nonsquare"):
        cons.k_generator()


def test_k_composition_closure_exhaustive_q3(cons3):
    ks = [cons3.rho_perm(a, b) for a, b in cons3.build_K()]
    perms = {k.tobytes() for k in ks}
    for a in ks:
        for b in ks:
            assert a[b].tobytes() in perms


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_k_orbits_match_analytic_cells(q):
    cons = Construction(q)
    orbits = cons.k_orbits()
    assert len(orbits) == q + 2
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, q - 1] + [q * q - 1] * q
    e_orbit = [o for o in orbits if len(o) == 1]
    assert e_orbit[0][0] == 0


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_k_orbits_are_the_orbits_of_the_generator(q):
    """Oracle: the orbits that a breadth-first search under K's generator
    finds from each vertex not yet reached, in order of least point."""
    cons = Construction(q, max_vertices=q**3)
    gen = [cons.rho_perm(*cons.k_generator())]
    seen, want = np.zeros(cons.n, dtype=bool), []
    for v in range(cons.n):
        if not seen[v]:
            mask = orbit_mask(v, gen, cons.n)
            seen |= mask
            want.append(np.flatnonzero(mask).tolist())
    assert [orbit.tolist() for orbit in cons.k_orbits()] == want


def test_orbit_of_simple_element_is_y0(cons3):
    orbits = cons3.k_orbits()
    v110 = cons3.q**2  # the vertex of (1, 0, 0)
    orbit = next(o for o in orbits if v110 in o)
    assert np.array_equal(orbit, cons3.build_Y(0))


def test_gamma_examples(cons3):
    assert cons3.gamma(0, 1, 1) == 2          # 1/2 in GF(3)
    assert cons3.gamma(1, 0, 0) == 0
    assert cons3.gamma(1, 1, 1) == 1          # 2 + (1 - 2) * 1


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_connection_sets(q):
    cons = Construction(q)
    f = cons.field
    for i in range(q):
        y = cons.build_Y(i)
        x = cons.build_X(i)
        assert len(y) == q * q - 1
        assert len(x) == q * q
        assert 0 in x and 0 not in y
        # no element of Y_i is central
        assert not cons.table.center_mask[y].any()
        # elementwise inverses give the set labelled by -i
        inv_set = np.sort(cons.table.inv[y])
        assert np.array_equal(inv_set, cons.build_Y(int(f.neg(i))))
        # exactly one member in every coset of the center
        counts = np.bincount(cons.table.coset_ids[x], minlength=q * q)
        assert (counts == 1).all()


@pytest.mark.parametrize("i", [-1, 3])
def test_build_x_refuses_a_label_outside_the_field(i):
    """-1 would index the field tables from the end and return X_2."""
    cons = Construction(3)
    for build in (cons.build_X, cons.build_Y, cons.build_cayley):
        with pytest.raises(ValueError, match="outside"):
            build(i)
    assert i not in cons._X


def test_cayley_digraph_shape(cons3):
    g = cons3.build_cayley(1)
    assert g.n == 27
    assert set(g.arcs.sum(axis=1).tolist()) == {9} and g.out.shape == (27, 9)
    assert set(g.arcs.sum(axis=0).tolist()) == {9}
    assert g.arcs.diagonal().all()          # identity in the connection set
    assert int(g.arcs.sum()) == 27 * 9
    assert not (g.arcs & g.arcs.T & ~np.eye(g.n, dtype=bool)).any()   # no 2-cycles
    loopless = cons3.build_cayley(1, include_identity=False)
    assert not loopless.arcs.diagonal().any()
    assert set(loopless.arcs.sum(axis=1).tolist()) == {8}
    # each vertex dominates exactly one vertex in every center coset
    for v in range(g.n):
        targets = np.flatnonzero(g.arcs[v])
        assert (np.bincount(cons3.table.coset_ids[targets], minlength=9) == 1).all()


def test_cayley_arc_rule(cons3):
    g = cons3.build_cayley(1)
    t = cons3.table
    mask = np.zeros(cons3.n, dtype=bool)
    mask[cons3.build_X(1)] = True
    for u in range(0, 27, 5):
        for v in range(27):
            assert g.arcs[u, v] == mask[t.mult[v, t.inv[u]]]


def test_psi_special_cases(cons3):
    """The identity, inf, is the index q = 3."""
    table = cons3.psi_table()
    assert table[1, 3] == 1
    assert table[3, 2] == 2
    assert table[3, 3] == 3
    assert table[1, 2] == 3                  # j = -i
    assert table[1, 1] == 0                  # (1 + 2) / 2 in GF(3)
    assert cons3.chi(3) == 3
    assert cons3.chi(1) == 2
    assert cons3.chi(np.arange(4)).tolist() == [0, 2, 1, 3]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_psi_table_matches_the_scalar_oracle(q, contexts, cons13):
    """`psi_table` against `reference.psi`, with its own point INF and its
    cases for it, on every pair: inf is the index q."""
    cons = cons13 if q == 13 else contexts[q].cons
    els = list(range(q)) + [INF]
    want = [[q if v == INF else v for v in (psi(cons, i, j) for j in els)] for i in els]
    assert cons.psi_table().tolist() == want


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_psi_group_axioms_exhaustive(q):
    cons = Construction(q)
    table, els = cons.psi_table(), range(q + 1)
    for i in els:
        assert table[i, q] == i == table[q, i]
        assert table[i, cons.chi(i)] == q
        for j in els:
            assert table[i, j] == table[j, i]
            for k in els:
                assert table[table[i, j], k] == table[i, table[j, k]]
    # closure: results stay inside the carrier set
    assert set(table.ravel().tolist()) <= set(els)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_generators(q):
    cons = Construction(q)
    gens = cons.generators_I()
    assert len(gens) == euler_phi(q + 1)
    assert gens == sorted(gens)
    assert gens == [i for i in range(q) if cons.psi_order(i) == q + 1]
    # the generator list never contains the identity element
    assert q not in gens
    assert cons.psi_order(q) == 1


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_psi_pow_broadcasts_against_repeated_products(q):
    """`psi_pow` on every index and every exponent m <= q + 2 in one call,
    against m products by the table one at a time."""
    cons = Construction(q)
    table, els = cons.psi_table(), np.arange(q + 1)
    got = cons.psi_pow(els[:, None], np.arange(q + 3))
    for i in els:
        acc = q
        for m in range(q + 3):
            assert got[i, m] == acc and cons.psi_pow(int(i), m) == acc
            acc = table[acc, i]
    with pytest.raises(ValueError, match="nonnegative"):
        cons.psi_pow(1, -1)


def test_generators_small_cases(cons3, cons7):
    # powers of 1 in GF(3): 1, 0, 2, inf (the index 3) -> order 4
    table, seq = cons3.psi_table(), [1]
    while seq[-1] != 3:
        seq.append(table[seq[-1], 1])
    assert len(seq) == 4
    assert cons3.generators_I() == [1, 2]
    assert len(cons7.generators_I()) == 4


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("loops", [True, False], ids=["looped", "loopless"])
def test_cayley_lists_scatter_to_the_dense_arcs_byte_for_byte(q, loops, request):
    """`build_cayley` holds sorted out-neighbour lists at `code_dtype(n)`; the
    `arcs` built from them on every label, and the text of a generator
    label's digraph, are the bytes of the old multiplication-table scatter."""
    cons = request.getfixturevalue(f"cons{q}")
    for i in range(q):
        g = cons.build_cayley(i, include_identity=loops)
        want = cayley_arcs_densely(cons, i, loops)
        assert g.out.dtype == code_dtype(cons.n)
        assert g.out.shape == (cons.n, cons.q**2 - (not loops))
        assert np.array_equal(g.out, np.nonzero(want)[1].reshape(cons.n, -1))
        assert g.arcs.dtype == want.dtype and g.arcs.shape == want.shape
        assert g.arcs.tobytes() == want.tobytes()
        if i == cons.generators_I()[0]:
            assert g.to_text() == Digraph(want).to_text()


@pytest.mark.parametrize("q", [3, 5, 9])
def test_without_loops_is_the_loopless_cayley_digraph_proven_once(q, request, monkeypatch):
    """The lists of `build_cayley(i, include_identity=False)`, byte for byte,
    holding the looped digraph's proven translations: reading them proves
    nothing again."""
    cons = request.getfixturevalue(f"cons{q}")
    for i in range(q):
        g = cons.build_cayley(i)
        loopless = g.without_loops()
        want = cons.build_cayley(i, include_identity=False).out
        assert loopless.out.dtype == want.dtype and np.array_equal(loopless.out, want)
        with monkeypatch.context() as m:
            m.setattr("ddwl.digraph.carries_out", None)
            assert loopless.translations is g.translations and len(g.translations) > 0


def test_without_loops_needs_loops_at_every_vertex_or_none():
    assert Digraph.from_out(np.arange(3)[:, None]).without_loops().out.shape == (3, 0)
    with pytest.raises(NotInvariant, match="some vertices have loops"):
        Digraph.from_out(np.array([[0], [0]])).without_loops()


def test_only_lists_carry_translations(cons3):
    """A digraph built from arcs has no lists to prove translations on: it
    claims none, takes none, and reading its lists raises."""
    g = Digraph(cons3.build_cayley(1).arcs)
    assert g.translations == ()
    with pytest.raises(ValueError, match="built from arcs has no out-neighbour lists"):
        g.out
    with pytest.raises(ValueError, match="built from arcs has no out-neighbour lists"):
        g.without_loops()
    with pytest.raises(TypeError, match="translations"):
        Digraph(g.arcs, translations=cons3.table.right_translations())


@pytest.mark.parametrize("n, dtype", [(2**16, np.uint16), (2**16 + 1, np.uint32)])
def test_digraph_from_out_holds_the_narrowest_width_that_names_every_vertex(n, dtype):
    """(n, 1) lists u -> n - 1 - u at the first n that needs uint32; their
    values are kept.  No `arcs` are read: n**2 of them would not fit."""
    out = (n - 1 - np.arange(n, dtype=np.int64))[:, None]
    g = Digraph.from_out(out)
    assert g.out.dtype == code_dtype(n) == dtype and g.out.flags.c_contiguous
    assert np.array_equal(g.out, out) and g.out.max() == n - 1


@pytest.mark.parametrize(
    "out", [[[0, 3]], [[0, -1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], [0, 1]],
    ids=["too-large", "negative", "float", "one-dimensional"],
)
def test_digraph_from_out_refuses_lists_that_name_no_vertices(out):
    with pytest.raises(ValueError, match="out"):
        Digraph.from_out(np.array(out))


def test_digraph_text_round_trip(cons3):
    g = cons3.build_cayley(2)
    again = from_text(g.to_text())
    assert np.array_equal(again.arcs, g.arcs)


@pytest.mark.parametrize(
    "text", ["2\n1x\n21\n", "2\n1 \n01\n", "1\nT\n"], ids=["letter", "space", "word"]
)
def test_digraph_from_text_rejects_characters_other_than_0_and_1(text):
    with pytest.raises(ValueError, match="'0' and '1'"):
        from_text(text)


def test_only_cayley_digraphs_carry_translations(cons3, cons9):
    for cons in (cons3, cons9):
        for loops in (True, False):
            g = cons.build_cayley(1, include_identity=loops)
            want = cons.table.right_translations()
            assert len(g.translations) == len(want) == 2 * cons.field.l
            assert all(np.array_equal(s, w) for s, w in zip(g.translations, want))
            assert "translations" not in repr(g)
            relabeled = g.relabeled(np.arange(cons.n)[::-1])
            assert relabeled.translations == () and from_text(g.to_text()).translations == ()


def test_every_cayley_digraph_is_handed_the_tables_one_tuple_of_translations():
    """The table builds its right translations once, read-only, and every
    `build_cayley` digraph claims that same tuple; each still proves it on
    its own lists, so a digraph with one arc moved refuses it."""
    cons = Construction(5)
    want = cons.table.right_translations()
    assert cons.table.right_translations() is want
    assert not any(s.flags.writeable for s in want)
    with pytest.raises(ValueError, match="read-only"):
        want[0][0] = want[0][1]
    graphs = [cons.build_cayley(i, include_identity=loops) for i in range(cons.q) for loops in (True, False)]
    assert all(g._claimed is want for g in graphs)
    for g in graphs[:2]:   # the proven arrays are the claimed ones
        assert len(g.translations) == len(want) and all(a is b for a, b in zip(g.translations, want))
    with pytest.raises(NotInvariant, match="maps an arc to a non-arc"):
        move_one_arc(graphs[0]).translations


def test_translation_proof_peak_stays_below_three_uint16_lists(cons13):
    """The q = 13 translations are proven on uint16 lists: the traced peak
    stays below three lists' worth of uint16 (2.2 MB; 1.9 MB measured),
    where int32 lists peak at 3.3 MB."""
    g = cons13.build_cayley(1)
    tracemalloc.start()
    try:
        assert len(g.translations) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 * g.out.size


def test_relabeled_refuses_a_float_permutation():
    g = Digraph(np.eye(4, dtype=bool))
    with pytest.raises(ValueError, match="permutation"):
        g.relabeled(np.arange(4, dtype=float))


@pytest.mark.parametrize("perm", [[0, 1, 2], [0, 1, 1, 3]], ids=["short", "repeated"])
def test_relabeled_refuses_a_short_or_repeating_permutation(perm):
    g = Digraph(np.eye(4, dtype=bool))
    with pytest.raises(ValueError, match="permutation"):
        g.relabeled(np.array(perm))
