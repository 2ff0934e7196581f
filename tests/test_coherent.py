import copy
import hashlib
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ddwl import arith, coherent, digraph
from ddwl.coherent import (
    as_sring_partition,
    one_point_extension,
    tensor_identities_hold,
    verify_algebraic_map,
    wl_close,
    wl_equivalent,
)
from ddwl.designs import verify_ddd
from ddwl.digraph import Digraph
from ddwl.isotest import are_isomorphic
from ddwl.srings import SRing, structure_constants
from reference import (
    carries_densely,
    complete,
    coordinates,
    dense_tensor,
    directed_cycle,
    expand_by_scatter,
    individualized,
    move_one_arc,
    on_every_row,
    orbit_by_sets,
    random_digraph,
    refine_round_int64,
    relabeled_out,
    tensor_from_int64_keys,
    tensor_key,
)


def test_complete_digraph_rank_two():
    cc = wl_close(complete(6))
    assert cc.rank == 2
    assert cc.valencies.tolist() == [1, 5]


def test_directed_cycle_rank_n():
    cc = wl_close(directed_cycle(5))
    assert cc.rank == 5
    assert (cc.valencies == 1).all()


def test_single_vertex():
    cc = wl_close(Digraph(np.zeros((1, 1), dtype=bool)))
    assert cc.rank == 1


def test_closure_rank_q_plus_two(cons3, closures3):
    for i, cc in closures3.items():
        assert cc.rank == 5
        assert cc.n == 27


def test_closure_partition_matches_cells(cons3, closures3):
    want = {c.tobytes() for c in cons3.cells()}
    for cc in closures3.values():
        cells = as_sring_partition(cc, cons3.table)
        assert {c.astype(np.int64).tobytes() for c in cells} == want
        # identity sits alone in its cell, and the cell count matches the
        # number of colors in one row (single fiber here)
        assert [len(c) for c in cells if 0 in c] == [1]
        assert len(cells) == len(np.unique(cc.color[0]))


def test_closure_of_non_generator_runs(cons3):
    # i = 0 is not a generator; the rank is measured, not asserted
    cc = wl_close(cons3.build_cayley(0))
    assert 1 <= cc.rank <= 5
    assert tensor_identities_hold(cc)


def test_stability_second_run_identical(cons3):
    g = cons3.build_cayley(1)
    a, b = wl_close(g), wl_close(g)
    assert np.array_equal(a.color, b.color)
    assert a.rounds == b.rounds


def test_refinement_refines_initial_classes(cons3):
    g = cons3.build_cayley(1)
    cc = wl_close(g)
    # the arc relation is a union of stable colors
    arc_colors = set(np.unique(cc.color[g.arcs]))
    non_arc_colors = set(np.unique(cc.color[~g.arcs]))
    assert arc_colors.isdisjoint(non_arc_colors)


def test_initial_coloring_numbers_the_classes_that_occur():
    """Every digraph on one and two vertices meets each combination of the
    four classes; the coloring equals the classes 0..3 renumbered."""
    for n in (1, 2):
        for bits in range(2 ** (n * n)):
            arcs = np.array([(bits >> k) & 1 for k in range(n * n)], dtype=bool).reshape(n, n)
            raw = np.where(arcs, 2, 3).astype(np.int32)
            np.fill_diagonal(raw, np.where(arcs.diagonal(), 0, 1))
            want = coherent._renumber(raw)[0]
            assert np.array_equal(coherent._initial_coloring(Digraph(arcs)), want)


@pytest.mark.parametrize(
    "maker",
    [
        lambda cons: cons.build_cayley(1),
        lambda cons: cons.build_cayley(1, include_identity=False),
        lambda cons: random_digraph(20, 0.3, seed=3),
        lambda cons: directed_cycle(7),
    ],
)
def test_canonical_invariance_under_relabeling(cons3, maker):
    g = maker(cons3)
    cc = wl_close(g)
    rng = np.random.default_rng(17)
    for _ in range(10):
        perm = rng.permutation(g.n)
        cc2 = wl_close(g.relabeled(perm))
        assert cc2.generators == []   # a relabelled copy carries no translations
        assert cc2.rank == cc.rank
        assert np.array_equal(cc2.color_multiset(), cc.color_multiset())
        assert np.array_equal(cc2.tensor, cc.tensor)


def _plain(g):
    """g without its translations, which `wl_close` refines densely."""
    return Digraph(g.arcs)


# each with the kernel of its confirming round: products at rank up to the
# limit (every row is refined), the sort kernel above it
_DENSE_REFINEMENTS = pytest.mark.parametrize(
    "maker, encoding",
    [
        (lambda cons: wl_close(_plain(cons.build_cayley(1))), "products"),
        (lambda cons: wl_close(_plain(cons.build_cayley(1, include_identity=False))), "products"),
        (lambda cons: one_point_extension(wl_close(_plain(cons.build_cayley(1))), 0), "sort"),
        (lambda cons: wl_close(random_digraph(40, 0.3, seed=3)), "sort"),
        (lambda cons: wl_close(directed_cycle(9)), "products"),
    ],
    ids=["closure", "loopless-closure", "extension", "random", "cycle"],
)


def _spy_key_rows(monkeypatch) -> list[tuple[int, int, int, set]]:
    """Record each later refinement round as (rank, rows refined, n, the
    (dtype, width) of every block of key rows it sorts)."""
    refine, unique, rounds = coherent._refine_round, coherent.sorted_unique_rows, []

    def spy_refine(color, rank, rows):
        rounds.append((rank, len(rows), len(color), set()))
        return refine(color, rank, rows)

    def spy_unique(rows):
        rounds[-1][3].add((rows.dtype, rows.shape[1]))
        return unique(rows)

    monkeypatch.setattr(coherent, "_refine_round", spy_refine)
    monkeypatch.setattr(coherent, "sorted_unique_rows", spy_unique)
    return rounds


def _sort_layout(rank: int, n: int) -> set:
    """The key rows of a sort-kernel round: the old color and n sorted codes,
    big-endian at the width that holds rank**2."""
    return {(arith.code_dtype(rank * rank).newbyteorder(">"), n + 1)}


def _kernel(rank: int, n: int, layouts: set) -> str:
    """The kernel whose key rows a round sorted: the sort layout, or the
    product kernel's int64 words."""
    if layouts == _sort_layout(rank, n):
        return "sort"
    assert {dtype for dtype, _ in layouts} == {np.dtype(np.int64)}
    return "products"


@_DENSE_REFINEMENTS
def test_tensor_brute_force_oracle(cons3, maker, encoding, monkeypatch):
    """Every pair (u, v) of color t has #{w : c(u, w) = r, c(w, v) = s}
    equal to the stored p^t_rs, counted from the color matrix alone."""
    rounds = _spy_key_rows(monkeypatch)
    cc = maker(cons3)
    rank, m, n, layouts = rounds[-1]
    assert (rank, m, n) == (cc.rank, cc.n, cc.n)
    assert encoding == _kernel(rank, n, layouts)
    by_t = cc.tensor[np.argsort(cc.tensor[:, 2], kind="stable")]
    rows = np.split(by_t[:, [0, 1, 3]], np.flatnonzero(np.diff(by_t[:, 2])) + 1)
    assert len(rows) == cc.rank
    c = cc.color.astype(np.int64)
    for u in range(cc.n):
        for v in range(cc.n):
            codes, counts = np.unique(c[u] * cc.rank + c[:, v], return_counts=True)
            got = np.column_stack([codes // cc.rank, codes % cc.rank, counts])
            assert np.array_equal(got, rows[c[u, v]]), (u, v)


@_DENSE_REFINEMENTS
def test_refinement_is_independent_of_the_block_size(cons3, maker, encoding, monkeypatch):
    """One row per block merges the keys of every block: the colors, rank,
    rounds and tensor are those of the default blocking."""
    want = maker(cons3)
    monkeypatch.setattr(coherent, "_BLOCK_ELEMENT_BUDGET", 1)
    got = maker(cons3)
    assert got.rank == want.rank and got.generators == want.generators == []
    _assert_same_coloring(got, want)


def _compare_kernels(monkeypatch) -> tuple[list[int], list[int]]:
    """Run every later refinement round twice, on the kernel `_refine_round`
    picks and with `_PRODUCT_MAX_RANK = 0`, which forces the sort kernel,
    and assert the two return the same colors and rank, and on a confirming
    round the same key bytes; a product round that splits a color returns
    no keys.  The lists returned fill with the ranks of the rounds that ran
    on matrix products, and of those that confirmed stability."""
    refine, limit = coherent._refine_round, coherent._PRODUCT_MAX_RANK
    by_products: list[int] = []
    confirmed: list[int] = []

    def _same(a, b):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()

    def both(color, rank, rows):
        got = refine(color, rank, rows)
        monkeypatch.setattr(coherent, "_PRODUCT_MAX_RANK", 0)
        want = refine(color, rank, rows)
        monkeypatch.setattr(coherent, "_PRODUCT_MAX_RANK", limit)
        on_products = len(rows) == len(color) and rank <= limit
        assert got[1] == want[1]
        _same(got[0], want[0])
        if got[1] == rank:
            _same(got[2], want[2])
        else:
            assert (got[2] is None) == on_products and want[2] is not None
        if on_products:
            by_products.append(rank)
            if got[1] == rank:
                confirmed.append(rank)
        return got

    monkeypatch.setattr(coherent, "_refine_round", both)
    return by_products, confirmed


@pytest.mark.parametrize("loops", [True, False], ids=["looped", "loopless"])
@pytest.mark.parametrize("q", [3, 5, 7])
def test_product_rounds_equal_the_sort_kernel_on_every_label(q, loops, request, monkeypatch):
    """Relabelled plain copies refine densely, so every round of rank up to
    the limit runs on products and is held to the sort kernel, whose keys
    every label's confirming round equals byte for byte."""
    cons = request.getfixturevalue(f"cons{q}")
    perm = np.random.default_rng(q).permutation(cons.n)
    by_products, confirmed = _compare_kernels(monkeypatch)
    for i in range(q):
        g = cons.build_cayley(i, include_identity=loops).relabeled(perm)
        assert wl_close(g).generators == []
    assert len(by_products) >= q and len(confirmed) == q


def _seeded_dense_q7(cons7) -> Digraph:
    """The seeded relabelled copy the benchmark refines on the dense engine."""
    return cons7.build_cayley(cons7.generators_I()[0]).relabeled(
        np.random.default_rng(1).permutation(cons7.n)
    )


def test_dense_q7_closure_peak_stays_below_7_mb(cons7):
    """The seeded relabelled copy the benchmark refines: its product rounds
    hold the packed-digit right operand of n * n * ceil(rank / width) float64
    words (0.9 MB at rank 9, one word per colour) and one block of products
    and key words, a tracemalloc peak of 6.1 MB with numpy 2.4; the bound
    leaves 0.9 MB of margin.  Digits in base n + 1 (two words per colour at
    rank 9; a 7.8 MB peak) fail 7 MB, as does a float32 one-hot of
    n * n * rank entries in their place (4.2 MB at rank 9; a 9.9 MB peak)."""
    g = _seeded_dense_q7(cons7)
    tracemalloc.start()
    try:
        assert wl_close(g).rank == 9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.0e6


def test_dense_q7_rounds_pack_one_word_per_colour(cons7, monkeypatch):
    """Every round of the seeded relabelled q = 7 closure runs on products,
    and each key row it sorts holds the old color and one int64 word per
    colour r: rank digits in base most + 1 fit one word.  At ranks 3, 4, 6
    and 9 the rounds multiply 1, 2, 4 and 7 colours: the diagonal's and the
    most frequent other colour's words need no product."""
    rounds = _spy_key_rows(monkeypatch)
    multiplied = _spy_multiplied(monkeypatch)
    assert wl_close(_seeded_dense_q7(cons7)).rank == 9
    assert len(rounds) == 4
    for rank, m, _, layouts in rounds:
        assert m == cons7.n and rank <= coherent._PRODUCT_MAX_RANK
        assert layouts == {(np.dtype(np.int64), 1 + rank)}
    assert [rank for rank, *_ in rounds] == [3, 4, 6, 9] and multiplied == [1, 2, 4, 7]


@pytest.mark.parametrize("engine, q", [("extension", 5), ("closure", 7)])
def test_orbit_row_rounds_key_in_the_sort_layout(contexts, engine, q, monkeypatch):
    """Every orbit-row round keys its rows as the old color and n sorted
    codes at the width of rank**2, whatever rank**2 is: the q = 5
    extension's rounds at ranks 8, 20, 205 and 657 (rank**2 from 64 to
    431,649), and the q = 7 closures' at ranks 3, 4, 6 and 9, on every
    generator label."""
    ctx = contexts[q]
    refine = {"extension": ctx.extension, "closure": lambda i: wl_close(ctx.digraph(i))}[engine]
    ranks = set()
    for i in ctx.cons.generators_I():
        ctx.closure(i)
        rounds = _spy_key_rows(monkeypatch)
        refine(i)
        monkeypatch.undo()
        for rank, m, n, layouts in rounds:
            assert m < n and layouts == _sort_layout(rank, n)
            ranks.add(rank)
    assert ranks == ({8, 20, 205, 657} if engine == "extension" else {3, 4, 6, 9})


def test_q13_closure_peak_stays_below_seven_colour_matrices(cons13):
    """The q = 13 closure from row e keeps no n x n table of permutations
    beside its colour matrices: its tracemalloc peak stays below 7 n**2
    int32 entries (135 MB), which one more n x n int32 table would pass."""
    g = cons13.build_cayley(cons13.generators_I()[0])
    tracemalloc.start()
    try:
        assert wl_close(g).rank == 15
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * g.n**2 * 4


def test_q13_closure_refines_its_initial_coloring_without_a_copy(cons13):
    """The initial coloring is numbered as it is built, and `orbit_close`
    refines it as it is handed, with no renumbered copy beside it: the
    q = 13 closure's tracemalloc peak stays below 6 n**2 int32 entries
    (115.8 MB), which that one more n x n int32 copy would pass."""
    g = cons13.build_cayley(cons13.generators_I()[0])
    tracemalloc.start()
    try:
        assert wl_close(g).rank == 15
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * g.n**2 * 4


def _digits_per_word(most: int) -> int:
    """The most digits 0..most, base most + 1, one float64 word holds
    exactly: the largest w with (most + 1)**w <= 2**53."""
    w = 0
    while (most + 1) ** (w + 1) <= 2**53:
        w += 1
    return w


def _most(color: np.ndarray) -> int:
    """The largest number of times one color occurs in one column."""
    return max(int(np.bincount(column).max()) for column in color.T)


def _spy_multiplied(monkeypatch) -> list[int]:
    """The number of colors each product round multiplies: the rows of its
    left operands, over all blocks, divided by n."""
    refine, matmul, counts = coherent._refine_round, np.matmul, []

    def spy_refine(color, rank, rows):
        counts.append(0)
        out = refine(color, rank, rows)
        counts[-1] //= len(color)
        return out

    def spy_matmul(a, b, out=None):
        counts[-1] += a.shape[0]
        return matmul(a, b, out=out)

    monkeypatch.setattr(coherent, "_refine_round", spy_refine)
    monkeypatch.setattr(np, "matmul", spy_matmul)
    return counts


@pytest.mark.parametrize("budget", [None, 1], ids=["default-blocks", "one-row-blocks"])
@pytest.mark.parametrize(
    "case",
    [
        "cycle", "random-at-limit", "random-above-limit", "width-switch-below", "width-switch-at",
        "some-loops", "complete", "one-vertex", "color-on-and-off-the-diagonal",
    ],
)
def test_product_rounds_equal_the_sort_kernel_on_small_inputs(case, budget, monkeypatch):
    """The directed 9-cycle, and random colorings whose rank is the product
    limit (the first round runs on products) and one more (it does not).
    At the product limit, one round on either side of the least column
    count `most` whose base most + 1 packs 6 digits per word, not 7: color
    0 fills the first `most` entries of column 0 of n = 200, so each r's
    codes fill one word of exactly that many digits and one of fewer.
    The colors that need no product: a digraph with loops at some vertices
    only (two colors on the diagonal alone), digraphs with nothing left to
    multiply (complete, one vertex), and an `orbit_close` coloring with one
    color on the diagonal alone and one both on and off it."""
    if budget is not None:
        monkeypatch.setattr(coherent, "_BLOCK_ELEMENT_BUDGET", budget)
    limit = coherent._PRODUCT_MAX_RANK
    by_products, confirmed = _compare_kernels(monkeypatch)
    multiplied = _spy_multiplied(monkeypatch)
    if case == "some-loops":
        arcs = complete(6).arcs
        arcs[np.diag_indices(6)] = np.arange(6) < 3
        assert wl_close(Digraph(arcs)).rank == 6
        # rank 3 (two loop colors and the arcs) multiplies none, rank 6 three
        assert by_products == [3, 6] and confirmed == [6] and multiplied == [0, 3]
    elif case in ("complete", "one-vertex"):
        n = 6 if case == "complete" else 1
        assert wl_close(complete(n)).rank == min(n, 2)
        assert by_products == confirmed == [min(n, 2)] and multiplied == [0]
    elif case == "color-on-and-off-the-diagonal":
        # color 0 at u - v = 0 or 3 mod 6 and on the even vertices' diagonal,
        # color 1 on the odd vertices' diagonal alone, color 2 elsewhere
        u = np.arange(6)
        color = np.where((u[:, None] - u) % 3 == 0, 0, 2).astype(np.int32)
        color[u, u] = u % 2
        assert coherent.orbit_close(color, []).rank == 8
        assert by_products == [3, 8] and confirmed == [8] and multiplied[0] == 1
    elif case == "cycle":
        assert wl_close(directed_cycle(9)).rank == 9
        assert by_products and max(by_products) == 9 and confirmed == [9]
    elif case.startswith("width-switch"):
        switch = next(m for m in range(1, 2**16) if _digits_per_word(m) < 7)
        most = switch - (case == "width-switch-below")
        width = _digits_per_word(most)
        assert (_digits_per_word(switch - 1), _digits_per_word(switch)) == (7, 6)
        assert limit // width == 1 and 0 < limit % width  # one full word, one shorter
        n = 200
        color = np.random.default_rng(most).integers(1, limit, size=(n, n), dtype=np.int32)
        color[:most, 0] = 0   # every other color occurs in every column far less often
        assert _most(color) == most and len(np.unique(color)) == limit
        coherent._refine_round(color, limit, np.arange(n))
        assert by_products == [limit]
    else:
        rank = limit + (case == "random-above-limit")
        color = np.random.default_rng(rank).integers(0, rank, size=(30, 30), dtype=np.int32)
        color.flat[:rank] = np.arange(rank)   # every color occurs
        coherent._stable_coloring(color, rank, coherent.Orbits(np.arange(30), []))
        assert by_products == ([limit] if rank == limit else [])


def _assert_as_np_unique(rows):
    """sorted_unique_rows(rows) is np.unique of the big-endian V{width} rows,
    byte for byte: keys, inverse, dtypes and shapes."""
    be = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    want_keys, want_inv = np.unique(
        be.view(f"V{be.shape[1] * be.itemsize}").ravel(), return_inverse=True
    )
    keys, inv = coherent.sorted_unique_rows(rows)
    assert (keys.dtype, keys.shape) == (want_keys.dtype, want_keys.shape)
    assert keys.tobytes() == want_keys.tobytes()
    assert (inv.dtype, inv.shape) == (want_inv.dtype, want_inv.shape)
    assert np.array_equal(inv, want_inv)


@pytest.mark.parametrize(
    "dtype, big", [(np.uint16, 256), (np.int64, 2**32), (">u2", 256), (">i8", 2**32)]
)
def test_sorted_unique_rows_in_numeric_lexicographic_order(dtype, big):
    """The keys ascend in the order the canonical names are defined by, with
    entries of several bytes, tied prefixes and duplicate rows."""
    vals = np.array([0, 1, 127, 128, 255, big - 1, big, big + 1, 3 * big + 200], dtype=dtype)
    rng = np.random.default_rng(11)
    rows = vals[rng.integers(0, len(vals), size=(400, 3))]
    rows = np.concatenate([rows, rows[:50]])
    keys, inv = coherent.sorted_unique_rows(rows)
    want = sorted(set(map(tuple, rows.tolist())))
    assert keys.view(np.dtype(dtype).newbyteorder(">")).reshape(len(keys), 3).tolist() == [
        list(r) for r in want
    ]
    index = {r: i for i, r in enumerate(want)}
    assert inv.tolist() == [index[r] for r in map(tuple, rows.tolist())]
    _assert_as_np_unique(rows)


def _rows(dtype, m, width, values, seed=3):
    return np.random.default_rng(seed).integers(0, values, size=(m, width)).astype(dtype)


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(_rows(">u2", 600, 17, 3), id="u2-odd-words"),
        pytest.param(_rows(">u2", 600, 10, 3), id="u2-4-byte-words"),
        pytest.param(_rows(">i8", 300, 40, 2**40), id="i8"),
        pytest.param(_rows("<i8", 300, 126, 4), id="native-i8"),
        pytest.param(_rows(">u2", 0, 5, 3), id="m0"),
        pytest.param(_rows(">i8", 1, 5, 3), id="m1"),
        pytest.param(np.full((50, 7), 9, dtype=">u2"), id="all-equal"),
        pytest.param(np.arange(240, dtype=">i8").reshape(80, 3)[::-1], id="all-distinct"),
        pytest.param(_rows(">u2", 300, 3, 2), id="6-byte-rows"),
        pytest.param(_rows(np.uint8, 300, 5, 2), id="5-byte-rows"),
        pytest.param(_rows(">u2", 5000, 20, 2), id="several-compare-passes"),
    ],
)
def test_sorted_unique_rows_is_np_unique_of_the_byte_rows(rows):
    _assert_as_np_unique(rows)


@pytest.mark.parametrize("compare_bytes", [1, 1 << 16])
@pytest.mark.parametrize("dtype", [">u2", ">i8"])
def test_sorted_unique_rows_where_every_fingerprint_collides(dtype, compare_bytes, monkeypatch):
    """With zero weights every row has one fingerprint: equal rows A, B, A
    interleaved fall in separate runs, and the heads' sort still merges them."""
    monkeypatch.setattr(coherent, "_FINGERPRINT_MULTIPLIER", 0)
    monkeypatch.setattr(coherent, "_COMPARE_BYTES", compare_bytes)
    a, b = np.array([[0, 2, 1], [0, 1, 2]], dtype=dtype)
    _assert_as_np_unique(np.array([a, b, a], dtype=dtype))
    _assert_as_np_unique(_rows(dtype, 400, 3, 3)[np.random.default_rng(5).permutation(400)])


def test_sorted_unique_rows_where_only_a_late_block_collides(monkeypatch):
    """Two-word rows (a, b) fingerprint to K * (a + 3b) mod 2**64, so (3, 0)
    and (0, 1) collide.  With four rows compared per gather, the first
    three blocks of rows each equal their run's head and only the last
    block finds the collision; the neighbour pass then cuts the runs, and
    the result is still np.unique of the rows."""
    monkeypatch.setattr(coherent, "_COMPARE_BYTES", 4 * 16)
    runs, calls = coherent._runs, []

    def spy(order, head):
        calls.append(len(order))
        return runs(order, head)

    monkeypatch.setattr(coherent, "_runs", spy)
    early = np.random.default_rng(8).integers(100, 10**6, size=(12, 2))
    early[5] = early[1]   # an equal pair in its own run
    late = np.array([[3, 0], [0, 1], [3, 0], [5, 5]])
    sums = (early[:, 0] + 3 * early[:, 1]).tolist()
    assert len(set(sums)) == 11 and min(sums) > 5 + 3 * 5   # no collision before the last block
    for rows, want_calls in ((early, 1), (np.concatenate([early, late]), 2)):
        calls.clear()
        _assert_as_np_unique(rows)
        assert len(calls) == want_calls   # a second pass only after a collision


@pytest.mark.parametrize("multiplier", [coherent._FINGERPRINT_MULTIPLIER, 0], ids=["default", "all-collide"])
@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(_rows(">u2", 3000, 10, 3), id="u2"),
        pytest.param(_rows(">i8", 500, 4, 2), id="i8"),
        pytest.param(np.full((40, 3), 7, dtype=">u2"), id="all-equal"),
    ],
)
def test_sorted_unique_rows_does_not_depend_on_the_input_order(rows, multiplier, monkeypatch):
    """Permuting the rows permutes the inverse and leaves the keys and both
    dtypes as they were, however the argsort breaks fingerprint ties."""
    monkeypatch.setattr(coherent, "_FINGERPRINT_MULTIPLIER", multiplier)
    keys, inv = coherent.sorted_unique_rows(rows)
    perm = np.random.default_rng(len(rows)).permutation(len(rows))
    moved_keys, moved_inv = coherent.sorted_unique_rows(rows[perm])
    assert (moved_keys.dtype, moved_inv.dtype) == (keys.dtype, inv.dtype)
    assert moved_keys.tobytes() == keys.tobytes()
    assert np.array_equal(moved_inv, inv[perm])


# -- signature code widths ------------------------------------------------------------


@pytest.mark.parametrize(
    "limit, width",
    [(1, np.uint16), (2**16, np.uint16), (2**16 + 1, np.uint32), (2**32, np.uint32),
     (2**32 + 1, np.int64), (2**40, np.int64)],
)
def test_code_dtype_is_the_narrowest_width_holding_the_codes(limit, width):
    assert arith.code_dtype(limit) == np.dtype(width)


def _assert_round_equals_int64(got, color, rank, rows):
    """got, a sort-kernel `_refine_round(color, rank, rows)`, equals the int64
    key builder: the same new colors and rank, and keys at the width that
    holds rank**2 which widen to the int64 keys row for row."""
    new, rank2, keys = got
    want_new, want_rank, want_keys = refine_round_int64(color, rank, rows)
    n = len(color)
    wide = arith.code_dtype(rank * rank).newbyteorder(">")
    assert keys.dtype == np.dtype(f"V{(n + 1) * wide.itemsize}")
    assert (new.dtype, rank2) == (want_new.dtype, want_rank)
    assert new.tobytes() == want_new.tobytes()
    narrow = keys.view(wide).reshape(rank2, n + 1).astype(">i8")
    assert narrow.tobytes() == want_keys.tobytes()


@pytest.mark.parametrize("q, width", [(3, np.uint16), (5, np.uint32)])
def test_extension_rounds_equal_the_int64_keys(q, width, contexts, monkeypatch):
    """Every round of each one-point extension, from the first (rank 6 at
    q = 3, 8 at q = 5), and the tensor read off its confirming round, equal
    those of int64 keys; the q = 3 extension (rank 95) keys in uint16, the
    q = 5 one (rank 657) in uint32, and both tensors are held in uint16, the
    width of their ranks and counts."""
    ctx = contexts[q]
    refine, confirming, ranks = coherent._refine_round, [], set()

    def checked(color, rank, rows):
        got = refine(color, rank, rows)
        _assert_round_equals_int64(got, color, rank, rows)
        confirming[:] = [got[2], len(color), rank]
        ranks.add(rank)
        return got

    monkeypatch.setattr(coherent, "_refine_round", checked)
    for i in ctx.cons.generators_I():
        ext = ctx.extension(i)
        assert arith.code_dtype(ext.rank**2) == width and confirming[2] == ext.rank
        keys, n, rank = confirming
        got = coherent._tensor_from_keys(keys, n, rank)
        assert got.tobytes() == ext.tensor.tobytes()
        wide_keys = refine_round_int64(ext.color, rank, np.arange(n))[2]
        want = tensor_from_int64_keys(wide_keys, n, rank)
        assert got.dtype == arith.tensor_dtype(rank, n) == np.uint16
        assert got.shape == want.shape and got.astype(np.int64).tobytes() == want.tobytes()
    assert ranks == ({6, 14, 59, 95} if q == 3 else {8, 20, 205, 657})


def _coloring(n, rank, seed):
    """A random (n, n) int32 coloring in which each of 0..rank-1 occurs."""
    color = np.random.default_rng(seed).integers(0, rank, size=(n, n), dtype=np.int32)
    color.flat[:rank] = np.arange(rank)
    return color


@pytest.mark.parametrize("rank, width", [(256, np.uint16), (257, np.uint32)])
def test_pair_keys_either_side_of_the_uint16_switch(rank, width):
    """rank 256 codes up to 256**2 - 1 keys in uint16; at rank 257 the code
    257**2 - 1 would wrap there, and the keys are uint32."""
    color = _coloring(20, rank, seed=rank)
    for rows in (np.arange(20), np.arange(0, 20, 3)):
        got = coherent._refine_round(color, rank, rows)
        assert got[2].itemsize == 21 * np.dtype(width).itemsize
        _assert_round_equals_int64(got, color, rank, rows)


@pytest.mark.parametrize("rank", [256, 257])
def test_tensor_from_keys_either_side_of_the_uint16_switch(rank):
    """Rows of sorted codes up to rank**2 - 1, read at the width that holds
    them, give the tensor rows of the same keys held as int64, stored in
    uint16 on either side of the codes' switch."""
    n, rng = 12, np.random.default_rng(rank)
    rows = np.empty((rank, n + 1), dtype=np.int64)
    rows[:, 0] = np.arange(rank)
    rows[:, 1:] = np.sort(rng.integers(rank * rank - 40, rank * rank, size=(rank, n)), axis=1)
    rows[::2, 1:] = np.sort(rng.integers(0, 3, size=(len(rows[::2]), n)), axis=1)
    wide = arith.code_dtype(rank * rank).newbyteorder(">")
    keys = rows.astype(wide).view(f"V{(n + 1) * wide.itemsize}").ravel()
    got = coherent._tensor_from_keys(keys, n, rank)
    want = tensor_from_int64_keys(rows.astype(">i8").view(f"V{8 * (n + 1)}").ravel(), n, rank)
    assert got.dtype == arith.tensor_dtype(rank, n) == np.uint16
    assert got.shape == want.shape and got.astype(np.int64).tobytes() == want.tobytes()


EXTENSION_TENSOR_SHA256 = {
    5: "a298fb4696f3e5b5bbc16b3786307953e6ac0b3cc26a0cc141269b35c6cf74fe",
    7: "01feee0df187023bc55f9983da42846c11f95e9945e3dd842d3741d25f3b0ac5",
}


@pytest.mark.parametrize("q", sorted(EXTENSION_TENSOR_SHA256))
def test_extension_tensor_pinned(contexts, q):
    """The tensor of the one-point extension at the first generator
    label (rank 657 at q = 5, 2459 at q = 7) byte for byte: every row, in
    order, widened to int64; it is held at the width of its rank and counts."""
    ctx = contexts[q]
    ext = ctx.extension(ctx.cons.generators_I()[0])
    tensor = ext.tensor
    assert tensor.dtype == arith.tensor_dtype(ext.rank, ext.n) == np.uint16
    assert tensor.flags.f_contiguous
    wide = tensor.astype(np.int64)
    assert hashlib.sha256(wide.tobytes()).hexdigest() == EXTENSION_TENSOR_SHA256[q]


def test_q7_extension_peak_stays_below_the_int64_keys(contexts):
    """The q = 7 extension (rank 2459) keys its last rounds in uint32,
    takes its tensor's (r, s, t) order from the confirming keys and holds
    the 840,751 tensor rows in uint16 (6.7 MB): its tracemalloc peak, 22.8 MB
    with numpy 2.4, stays below 25.0 MB.  The same rows in int64 take
    26.9 MB alone, so an int64 tensor fails it (its int64 build peaked at
    48.2 MB)."""
    ctx = contexts[7]
    i = ctx.cons.generators_I()[0]
    ctx.closure(i)
    tracemalloc.start()
    try:
        assert ctx.extension(i).rank == 2459
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25.0e6


def test_q9_extension_and_its_identities_peak_below_an_int64_tensor(contexts):
    """Criterion 11's work at q = 9: the extension (rank 6653, 4,842,839
    tensor rows, 38.7 MB in uint16) and `tensor_identities_hold` on it.  The
    build holds one intp array of tensor length at a time and the check at
    most two int64 ones, for a tracemalloc peak of 133.2 MB with numpy 2.4,
    below 145 MB.
    The same rows in int64 take 155.0 MB alone, so an int64 tensor fails it
    (the int64 build and check peaked near 300 MB)."""
    ctx = contexts[9]
    i = ctx.cons.generators_I()[0]
    ctx.closure(i)
    tracemalloc.start()
    try:
        ext = ctx.extension(i)
        assert (ext.rank, len(ext.tensor)) == (6653, 4842839)
        assert tensor_identities_hold(ext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 145.0e6


def _int64_tensor_of_codes(codes, rank):
    """tests/reference's int64 tensor of sorted code rows, codes[t] those of color t."""
    n = codes.shape[1]
    rows = np.empty((rank, n + 1), dtype=">i8")
    rows[:, 0], rows[:, 1:] = np.arange(rank), codes
    return tensor_from_int64_keys(rows.view(f"V{8 * (n + 1)}").ravel(), n, rank)


@pytest.mark.parametrize(
    "rank, width", [(2**16 - 1, np.uint16), (2**16, np.uint16), (2**16 + 1, np.uint32)]
)
def test_tensor_width_either_side_of_rank_2_16(rank, width):
    """Synthetic keys on n = 2 columns: every color t holds the
    code of (rank - 1, rank - 1) once, and codes near 0 or rank**2 - 1.  The
    rows are held at the width that holds rank - 1: uint16 to rank 2**16,
    uint32 beyond, equal to the int64 oracle's at each rank."""
    n, rng = 2, np.random.default_rng(rank)
    codes = np.empty((rank, n), dtype=np.int64)
    codes[:, 0] = rng.integers(0, 3, size=rank)
    codes[:, 1] = rank * rank - 1
    codes[::3, 0] = rank * rank - 2
    codes.sort(axis=1)
    wide = arith.code_dtype(rank * rank).newbyteorder(">")
    keys = np.column_stack([np.arange(rank), codes]).astype(wide)
    got = coherent._tensor_from_keys(keys.view(f"V{(n + 1) * wide.itemsize}").ravel(), n, rank)
    assert got.dtype == arith.tensor_dtype(rank, n) == width
    assert got[:, :3].max() == rank - 1
    want = _int64_tensor_of_codes(codes, rank)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_tensor_width_at_n_plus_1_2_16():
    """At n = 2**16 - 1 a count reaches n = 65535, the largest uint16: the
    keys of a rank-3 coloring, one code held n times, give uint16 rows equal
    to the int64 oracle's."""
    n, rank = 2**16 - 1, 3
    counts = np.zeros((rank, rank * rank), dtype=np.int64)  # [t, code]
    counts[0, 0] = n                      # every w counted once by code 0
    counts[1, [1, 5, 8]] = [1, n - 2, 1]
    counts[2, [2, 7]] = [n - 1, 1]
    codes = np.array([np.repeat(np.arange(rank * rank), row) for row in counts])
    keys = np.column_stack([np.arange(rank), codes]).astype(">u2")
    got = coherent._tensor_from_keys(keys.view(f"V{2 * (n + 1)}").ravel(), n, rank)
    assert got.dtype == arith.tensor_dtype(rank, n) == np.uint16
    assert got[:, 3].max() == n
    want = _int64_tensor_of_codes(codes, rank)
    assert got.shape == want.shape and np.array_equal(got, want)


def _with_tensor(cc, tensor):
    bad = copy.copy(cc)
    bad.tensor = tensor
    return bad


def _identities_by_loop(cc):
    """Reference: the three identities entry by entry over a dict of the rows."""
    val, left, right, conv = cc.valencies, cc.left_fiber, cc.right_fiber, cc.converse
    p = {(r, s, t): c for r, s, t, c in cc.tensor.tolist()}
    sums: dict = {}
    for (r, s, t), c in p.items():
        if right[r] != left[s] or left[r] != left[t] or right[s] != right[t]:
            return False
        sums[(r, s)] = sums.get((r, s), 0) + c * int(val[t])
        if int(val[t]) * c != int(val[r]) * p.get((t, int(conv[s]), r), 0):
            return False
    return all(
        sums.get((r, s), 0) == val[r] * val[s]
        for r in range(cc.rank) for s in range(cc.rank) if right[r] == left[s]
    )


def test_tensor_identities_reject_corrupted_tensors(cons3, closures3):
    cc = closures3[1]
    ext = one_point_extension(cc, cons3.table.identity)
    assert len(ext.fibers) > 1
    r, s, t, _ = ext.tensor.T
    # p^d_dd of a diagonal color d is its own triangle image: only the mass
    # conservation sum sees a bump there
    k = int(np.flatnonzero((r == t) & (ext.converse[s] == s))[0])
    bumped = ext.tensor.copy()
    bumped[k, 3] += 1
    k = len(ext.tensor) // 2
    # move one entry to a color t whose left fiber is not that of r
    crossed = ext.tensor.copy()
    crossed[k, 2] = int(np.flatnonzero(ext.left_fiber != ext.left_fiber[r[k]])[0])
    # shift one count between two colors of equal valency in the same (r, s)
    # group: the mass sums stay, only the triangle identity sees it
    r, s, t, c = cc.tensor.T
    key = np.column_stack([r, s, cc.valencies[t]]).tolist()
    a, b = next(
        (a, b) for a in range(len(key)) for b in range(a + 1, len(key))
        if key[a] == key[b] and c[b] >= 2
    )
    shifted = cc.tensor.copy()  # at the tensor's own dtype
    shifted[a, 3] += 1
    shifted[b, 3] -= 1
    for good in (cc, ext):
        assert tensor_identities_hold(good) and _identities_by_loop(good)
    for base, tensor in [
        (ext, bumped), (ext, np.delete(ext.tensor, k, axis=0)), (ext, crossed), (cc, shifted)
    ]:
        bad = _with_tensor(base, tensor)
        assert not tensor_identities_hold(bad) and not _identities_by_loop(bad)


def test_verify_algebraic_map_rejects_corrupted_tensors(cons3, closures3):
    cc = closures3[1]
    dropped = _with_tensor(cc, cc.tensor[1:])
    bumped = _with_tensor(cc, cc.tensor.copy())
    bumped.tensor[0, 3] += 1
    identity = np.arange(cc.rank)
    assert not verify_algebraic_map(cc, dropped, identity)
    assert not verify_algebraic_map(dropped, cc, identity)
    assert not verify_algebraic_map(cc, bumped, identity)


@pytest.mark.parametrize("first", [1, 2], ids=["count-1-first", "count-2-first"])
def test_tensor_checks_reject_a_triple_held_twice(closures3, contexts, first):
    """An entry of count c split into counts `first` and c - first keeps
    every mass sum; both checks refuse the split, in either row order.  The
    entries: (1, 4, 1, 3) of the q = 3 closure (rank 5), and the first of
    count 3 or more in the q = 5 extension, a rank-657 tensor of 81,407
    rows."""
    cc = closures3[1]
    k = int(np.flatnonzero((cc.tensor[:, :3] == [1, 4, 1]).all(axis=1))[0])
    assert cc.tensor[k].tolist() == [1, 4, 1, 3]
    ctx = contexts[5]
    ext = ctx.extension(ctx.cons.generators_I()[0])
    assert len(ext.tensor) == 81407 and (cc.rank, ext.rank) == (5, 657)
    for base, k in [(cc, k), (ext, int(np.flatnonzero(ext.tensor[:, 3] >= 3)[0]))]:
        *triple, c = base.tensor[k].tolist()
        split = [triple + [first], triple + [c - first]]
        bad = _with_tensor(base, np.insert(np.delete(base.tensor, k, axis=0), k, split, axis=0))
        identity = np.arange(base.rank)
        assert tensor_identities_hold(base)
        assert not tensor_identities_hold(bad)
        assert not verify_algebraic_map(bad, bad, identity)
        assert not verify_algebraic_map(base, bad, identity)


@pytest.mark.parametrize("q", [3, 5])
def test_wl_tensor_matches_structure_constants(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    closures = request.getfixturevalue(f"closures{q}")
    ring = SRing.from_construction(cons)
    tensor = structure_constants(ring)
    for cc in closures.values():
        color_of_cell = [int(cc.color[0, members[0]]) for members in cons.cells()]
        mapped = dense_tensor(cc)[np.ix_(color_of_cell, color_of_cell, color_of_cell)]
        # intersection numbers count w with u->w->v, i.e. products y*x
        assert np.array_equal(mapped, tensor.c.transpose(1, 0, 2))
        assert verify_algebraic_map(tensor, cc, np.array(color_of_cell))


def test_one_point_extension_of_complete_digraph():
    cc = wl_close(complete(5))
    ext = one_point_extension(cc, 2)
    fibers = {tuple(f.tolist()) for f in ext.fibers}
    assert (2,) in fibers
    assert {len(f) for f in ext.fibers} == {1, 4}


def test_one_point_extension_fibers_are_cells(cons3, closures3):
    cc = closures3[1]
    ext = one_point_extension(cc, cons3.table.identity)
    got = {np.sort(f).astype(np.int64).tobytes() for f in ext.fibers}
    assert got == {c.tobytes() for c in cons3.cells()}
    assert ext.refines(cc) and not cc.refines(ext)
    assert tensor_identities_hold(ext)


def test_wl_equivalent_reflexive_and_family(cons3):
    g1, g2 = cons3.build_cayley(1), cons3.build_cayley(2)
    assert wl_equivalent(g1, g1)
    assert wl_equivalent(g1, g2)
    assert not wl_equivalent(g1, complete(27))


def test_wl_equivalent_rejects_size_mismatch():
    with pytest.raises(ValueError):
        wl_equivalent(complete(3), complete(4))


def test_wl_equivalent_matches_union_oracle_on_family_q3(cons3, union_equivalent):
    graphs = [
        cons3.build_cayley(i, include_identity=loops)
        for i in range(cons3.q) for loops in (True, False)
    ]
    verdicts = set()
    for g1, g2 in itertools.combinations_with_replacement(graphs, 2):
        verdict = wl_equivalent(g1, g2)
        assert verdict == union_equivalent(g1, g2), (g1.label, g2.label)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_wl_equivalent_shrikhande_and_rook_graph(shrikhande_and_rook, union_equivalent):
    """Both are strongly regular (16, 6, 2, 2): WL-equivalent, not isomorphic."""
    shrikhande, rook = shrikhande_and_rook
    assert wl_equivalent(shrikhande, rook) and union_equivalent(shrikhande, rook)
    assert are_isomorphic(shrikhande, rook).kind == "non-isomorphic"


def test_wl_equivalent_separates_hexagon_from_two_triangles(union_equivalent):
    c6 = directed_cycle(6).arcs
    c3 = directed_cycle(3).arcs
    two_c3 = np.zeros((6, 6), dtype=bool)
    two_c3[:3, :3] = two_c3[3:, 3:] = c3 | c3.T
    hexagon, triangles = Digraph(c6 | c6.T), Digraph(two_c3)
    assert not wl_equivalent(hexagon, triangles)
    assert not union_equivalent(hexagon, triangles)


@st.composite
def _digraph_pairs(draw):
    """A digraph on at most 12 vertices, loops allowed, with a relabeled
    copy, a copy with one arc flipped or an unrelated digraph."""
    n = draw(st.integers(1, 12))
    arcs = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    g = Digraph(arcs.reshape(n, n))
    kind = draw(st.sampled_from(["relabeled", "flipped", "unrelated"]))
    if kind == "relabeled":
        return g, g.relabeled(np.array(draw(st.permutations(range(n)))))
    if kind == "flipped":
        other = g.arcs.copy()
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        other[u, v] = not other[u, v]
        return g, Digraph(other)
    arcs = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    return g, Digraph(arcs.reshape(n, n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_digraph_pairs())
def test_wl_equivalent_matches_union_oracle_on_random_pairs(union_equivalent, pair):
    g1, g2 = pair
    verdict = wl_equivalent(g1, g2)
    event(f"equivalent: {verdict}")
    assert verdict == union_equivalent(g1, g2)


def test_verify_algebraic_map_identity_and_bad_swap(cons3, closures3):
    cc = closures3[1]
    assert verify_algebraic_map(cc, cc, np.arange(cc.rank))
    # swapping two colors of different valency cannot transport the tensor
    v = cc.valencies
    a, b = 0, int(np.flatnonzero(v != v[0])[0])
    sigma = np.arange(cc.rank)
    sigma[[a, b]] = sigma[[b, a]]
    assert not verify_algebraic_map(cc, cc, sigma)


def test_verify_algebraic_map_rank_mismatch(cons3, closures3):
    small = wl_close(complete(27))
    with pytest.raises(ValueError):
        verify_algebraic_map(closures3[1], small, np.arange(2))


def test_rounds_reported(cons3, closures3):
    for cc in closures3.values():
        assert cc.rounds >= 2
        assert f"rounds={cc.rounds})" in repr(cc)


# -- orbit-row engine against the dense engine -----------------------------------


def _assert_same_coloring(a, b):
    assert np.array_equal(a.color, b.color)
    assert np.array_equal(a.tensor, b.tensor)
    assert a.rounds == b.rounds
    assert np.array_equal(a.converse, b.converse)


def _assert_same_closure(orbit, dense):
    """The orbit-row refinement equals its dense oracle, and each ran on the
    engine it is named after: only the orbit side proved generators."""
    assert len(orbit.generators) > 0 and dense.generators == []
    _assert_same_coloring(orbit, dense)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("loops", [True, False], ids=["looped", "loopless"])
def test_cayley_close_matches_dense_every_label(q, loops, request):
    cons = request.getfixturevalue(f"cons{q}")
    for i in range(q):
        g = cons.build_cayley(i, include_identity=loops)
        _assert_same_closure(wl_close(g), on_every_row(lambda: wl_close(_plain(g))))


def test_cayley_close_matches_dense_q7(cons7, dense_closure7):
    g = cons7.build_cayley(cons7.generators_I()[0])
    _assert_same_closure(wl_close(g), dense_closure7)


@pytest.mark.parametrize("q", [3, 5])
def test_orbit_extension_matches_dense(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    gen = cons.rho_perm(*cons.k_generator())
    for i in cons.generators_I() if q == 3 else cons.generators_I()[:1]:
        g = cons.build_cayley(i)
        orbit = one_point_extension(wl_close(g), cons.table.identity, [gen])
        dense = on_every_row(
            lambda: one_point_extension(wl_close(_plain(g)), cons.table.identity)
        )
        _assert_same_closure(orbit, dense)


def test_orbit_extension_q7_pinned(contexts):
    """The q = 7 extension of the first generator, pinned byte for byte: its
    dense oracle takes about 5 s, too long for the module tests."""
    ctx = contexts[7]
    ext = ctx.extension(ctx.cons.generators_I()[0])
    assert (ext.rank, ext.rounds) == (2459, 4)
    assert (ext.color.dtype, ext.tensor.dtype) == (np.int32, np.uint16)
    assert ext.tensor.dtype == arith.tensor_dtype(ext.rank, ext.n)
    assert all(column.flags.c_contiguous for column in ext.tensor.T)
    assert hashlib.sha256(ext.color.tobytes()).hexdigest() == (
        "1e740de7bc1cff5629771773474f8ce9867e512acfe24c973d6764e42d48dfc1"
    )
    assert hashlib.sha256(ext.tensor.astype(np.int64).tobytes()).hexdigest() == (
        "01feee0df187023bc55f9983da42846c11f95e9945e3dd842d3741d25f3b0ac5"
    )
    pins = {
        "valencies": "46c253ea36698235011ee717bd9ce33c569e326f3f8e864941deca674547372c",
        "left_fiber": "115888566a3af819e81829e234e1f84375090cc654e8bf4d79b7d1b525ea43d9",
        "right_fiber": "1e29dcc48a92b31d7dc00d488e9b1755a567fea03260cf788386f120688bc8d6",
        "converse": "ad5f9e40315252d2d18a77e448a7137aa68272388e3ee125155bc374699d1a04",
    }
    for name, digest in pins.items():
        got = getattr(ext, name)
        assert got.dtype == np.int64 and hashlib.sha256(got.tobytes()).hexdigest() == digest


@st.composite
def _connection_sets(draw, cons, toggles):
    """A subset of the group: arbitrary, or a union of K-orbit cells with at
    most `toggles` elements toggled."""
    n = cons.n
    if draw(st.sampled_from(["cells", "cells", "arbitrary"])) == "arbitrary":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mask = np.zeros(n, dtype=bool)
    for cell in draw(st.lists(st.sampled_from(cons.cells()), max_size=cons.q + 2)):
        mask[cell] = True
    for v in draw(st.lists(st.integers(0, n - 1), max_size=toggles)):
        mask[v] = not mask[v]
    return mask


# no toggles at q = 5: they give closures of rank 15 to 65, on which the
# dense oracle spends 1.5 to 10 s each; the arbitrary sets still reach rank n
@pytest.mark.parametrize("q, examples, toggles", [(3, 60, 2), (5, 6, 0)])
def test_cayley_close_matches_dense_on_generated_connection_sets(
    q, examples, toggles, request
):
    cons = request.getfixturevalue(f"cons{q}")
    quot = cons.table.mult[:, cons.table.inv]   # quot[v, u] = v * u**-1
    translations = cons.table.right_translations()
    ranks = set()

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(_connection_sets(cons, toggles))
    # a random half of the group, whose closure is discrete (rank n), so the
    # sort kernel above the product limit is reached whatever is generated
    @example(np.random.default_rng(0).random(cons.n) < 0.5)
    def check(mask):
        arcs = mask[quot].T   # arc (u, v) iff v * u**-1 in the set
        out = cons.table.mult[np.flatnonzero(mask)].T   # row u: x * u for x in the set
        orbit = wl_close(Digraph.from_out(out, translations=translations))
        ranks.add(orbit.rank)
        _assert_same_closure(orbit, on_every_row(lambda: wl_close(Digraph(arcs))))

    check()
    # ranks on both sides of the product limit: the dense side confirms
    # stability on products up to it and on the sort kernel above it, up to
    # rank n, the most a Cayley closure has
    kernels = {r <= coherent._PRODUCT_MAX_RANK for r in ranks}
    assert kernels == {True, False} and max(ranks) == cons.n


def _spy_orbits(monkeypatch):
    """Record the Orbits each refinement is run with."""
    seen, stable = [], coherent._stable_coloring

    def spy(color, rank, orbits):
        seen.append(orbits)
        return stable(color, rank, orbits)

    monkeypatch.setattr(coherent, "_stable_coloring", spy)
    return seen


def _assert_forest(orbits, color0, gens):
    """Each step (w, u, s) moves by s, an automorphism of color0, u to w;
    each vertex is reached exactly once, after its parent; each
    representative is the least vertex of its orbit under gens.  Returns
    the representative of every vertex."""
    n = len(color0)
    root = np.full(n, -1)
    root[orbits.reps] = orbits.reps
    for w, u, s in orbits.steps:
        assert np.array_equal(np.sort(s), np.arange(n)) and np.array_equal(s[u], w)
        assert carries_densely(color0, color0, s)
        assert (root[u] >= 0).all() and (root[w] < 0).all() and len(set(w.tolist())) == len(w)
        root[w] = root[u]
    assert (root >= 0).all()
    for s in gens:
        assert np.array_equal(root[s], root)   # the trees are the orbits
    for r in orbits.reps:
        assert r == np.flatnonzero(root == r).min()
    return root


def test_cayley_close_has_one_orbit(cons3, monkeypatch):
    """`wl_close` refines a family digraph from row e by its translations,
    which the closure records as its generators."""
    seen = _spy_orbits(monkeypatch)
    g = cons3.build_cayley(1)
    cc = wl_close(g)
    (orbits,) = seen
    assert orbits.reps.tolist() == [cons3.table.identity]
    _assert_forest(orbits, coherent._initial_coloring(g), g.translations)
    assert len(cc.generators) == len(g.translations) == 2 * cons3.field.l
    assert all(np.array_equal(a, b) for a, b in zip(cc.generators, g.translations))


def test_wl_close_is_dense_without_translations(cons3, monkeypatch):
    """A relabelled family digraph and a plain copy carry no translations:
    the dense engine refines them and records no generators."""
    g = cons3.build_cayley(1)
    seen = _spy_orbits(monkeypatch)
    for plain in (g.relabeled(np.random.default_rng(0).permutation(g.n)), _plain(g)):
        assert wl_close(plain).generators == []
    assert len(seen) == 2
    for orbits in seen:
        assert np.array_equal(orbits.reps, np.arange(g.n)) and orbits.steps == []


@pytest.mark.parametrize(
    "spoil",
    [lambda s: np.where(s == s[1], s[0], s), lambda s: s[:-1], lambda s: s.astype(np.float64)],
    ids=["repeated", "short", "float"],
)
def test_wl_close_refuses_a_translation_that_is_not_a_permutation(cons3, spoil):
    g = cons3.build_cayley(1)
    steps = list(g.translations)
    steps[0] = spoil(steps[0])
    with pytest.raises(digraph.NotInvariant, match="permutation"):
        wl_close(Digraph.from_out(g.out, translations=tuple(steps)))


def test_translations_are_proven_once_on_the_lists(cons3, monkeypatch):
    """`verify_ddd` and then `wl_close` on one family digraph prove its
    translations once, by `carries_out`; the closure never calls `carries`,
    which still proves the generator of a K-orbit `one_point_extension` on
    its coloring."""
    dense = {i: on_every_row(lambda: wl_close(_plain(cons3.build_cayley(i)))) for i in range(3)}
    calls, carries_out = [], digraph.carries_out
    monkeypatch.setattr(digraph, "carries_out", lambda *a: calls.append(a) or carries_out(*a))
    g = cons3.build_cayley(1)
    verify_ddd(g, cons3.table.coset_ids, (0, 3))
    cc = wl_close(g)
    assert len(calls) == 1

    def refuse(*args):
        raise AssertionError("carries was called")

    monkeypatch.setattr(coherent, "carries", refuse)
    for i in range(3):
        _assert_same_closure(wl_close(cons3.build_cayley(i)), dense[i])
    gen = cons3.rho_perm(*cons3.k_generator())
    with pytest.raises(AssertionError, match="carries was called"):
        one_point_extension(cc, cons3.table.identity, [gen])


def test_orbit_close_rejects_a_forged_generator(cons3):
    g = cons3.build_cayley(1)
    color0 = coherent._initial_coloring(g)
    u = 5
    forged = np.arange(g.n)
    forged[[u, 0]] = [0, u]   # sends u to e, but is not an automorphism
    assert not np.array_equal(color0[np.ix_(forged, forged)], color0)
    translations = [cons3.table.mult[:, 9], cons3.table.mult[:, 3]]  # by (1, 0, 0), (0, 1, 0)
    coherent.orbit_close(color0, translations)
    with pytest.raises(digraph.NotInvariant):
        coherent.orbit_close(color0, translations + [forged])
    # a relabeled family digraph is not Cayley over the table
    relabeled = relabeled_out(g, np.random.default_rng(0).permutation(g.n))
    with pytest.raises(digraph.NotInvariant):
        wl_close(Digraph.from_out(relabeled, translations=cons3.table.right_translations()))


def test_orbit_extension_rejects_a_colour_moving_automorphism(cons3, closures3):
    """sigma(x, y, z) = (x, -y, -z) is a group automorphism that maps X_i onto
    X_chi(i), so it moves the colours of row e of the closure of i; a right
    translation is an automorphism of the closure that moves e."""
    t, sigma = cons3.table, cons3.sigma_perm()
    cc = closures3[1]
    assert not np.array_equal(cc.color[0][sigma], cc.color[0])
    gen = cons3.rho_perm(*cons3.k_generator())
    with pytest.raises(digraph.NotInvariant):
        one_point_extension(cc, t.identity, [gen, sigma])
    translation = t.mult[:, 9]   # u -> u * (1, 0, 0)
    assert np.array_equal(cc.color[np.ix_(translation, translation)], cc.color)
    with pytest.raises(digraph.NotInvariant):
        one_point_extension(cc, t.identity, [gen, translation])


@pytest.mark.parametrize("q", [3, 5])
def test_orbit_extension_from_a_subgroup_of_k(q, request, monkeypatch):
    """The square of K's generator generates a subgroup of index 2, whose
    orbits split each Y_i in two halves: more representative rows, the same
    extension as the dense engine's."""
    cons = request.getfixturevalue(f"cons{q}")
    gen = cons.rho_perm(*cons.k_generator())
    cc = wl_close(cons.build_cayley(cons.generators_I()[0]))
    seen = _spy_orbits(monkeypatch)
    orbit = one_point_extension(cc, cons.table.identity, [gen[gen]])
    _assert_same_closure(orbit, one_point_extension(cc, cons.table.identity))
    forest, trivial = seen
    assert np.array_equal(trivial.reps, np.arange(cons.n)) and trivial.steps == []
    root = _assert_forest(forest, individualized(cc, cons.table.identity), [gen[gen]])
    for i in range(q):
        _, halves = np.unique(root[cons.build_Y(i)], return_counts=True)
        assert halves.tolist() == [(q * q - 1) // 2] * 2


def _candidate_perms(cons):
    """The right translations and K's generator, automorphisms of every family
    digraph, and two permutations that are not: u -> h * u for a non-central
    h, and a transposition."""
    t = cons.table
    steps = list(t.right_translations())
    swap = np.arange(cons.n)
    swap[[1, 2]] = [2, 1]
    return steps + [cons.rho_perm(*cons.k_generator()), t.mult[steps[1][0]], swap]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
def test_fixes_coloring_equals_the_dense_oracle_on_every_label(q, request):
    """On the arcs of every label; at q <= 9 also on their complement, where
    the arcs are the largest class, and on the initial coloring."""
    cons = request.getfixturevalue(f"cons{q}")
    perms = _candidate_perms(cons)
    for i in range(q):
        g = cons.build_cayley(i)
        colorings = [g.arcs] + ([~g.arcs, coherent._initial_coloring(g)] if q <= 9 else [])
        for color in colorings:
            got = [digraph.carries(color, color, [s]) for s in perms]
            assert got == [carries_densely(color, color, s) for s in perms]
            assert got[: len(perms) - 2] == [True] * (len(perms) - 2) and not got[-1]


@pytest.mark.parametrize("q", [3, 5])
def test_fixes_coloring_equals_the_dense_oracle_on_an_individualized_closure(q, request):
    """K's generator fixes e and carries the individualized coloring; a
    translation moves e."""
    cons = request.getfixturevalue(f"cons{q}")
    perms = _candidate_perms(cons)
    for cc in request.getfixturevalue(f"closures{q}").values():
        color = individualized(cc, cons.table.identity)
        got = [digraph.carries(color, color, [s]) for s in perms]
        assert got == [carries_densely(color, color, s) for s in perms]
        assert got[len(perms) - 3] and not got[0]   # K's generator fixes e; a translation moves it


@pytest.mark.parametrize("q", [3, 5, 7])
def test_carries_equals_the_dense_oracle_between_two_digraphs(q, contexts):
    """A relabelling carries a family digraph onto its relabelled copy, arcs
    and closures alike; it fails once one arc of the copy is moved, and the
    identity fails g1 against g1 with one arc added, where every arc still
    lands on an arc and only the count of the target's arcs tells."""
    ctx = contexts[q]
    i = ctx.cons.generators_I()[0]
    g1 = ctx.cons.build_cayley(i)
    p = np.random.default_rng(q).permutation(g1.n)
    g2 = g1.relabeled(p)
    pairs = [(g1.arcs, g2.arcs), (ctx.closure(i).color, wl_close(g2).color)]
    pairs.append((g1.arcs, move_one_arc(Digraph.from_out(relabeled_out(g1, p))).arcs))
    grown = g1.arcs.copy()
    grown[0, np.flatnonzero(~grown[0])[0]] = True
    ident = np.arange(g1.n)
    cases = [(c1, c2, p) for c1, c2 in pairs] + [(g1.arcs, grown, ident)]
    got = [digraph.carries(c1, c2, [s]) for c1, c2, s in cases]
    assert got == [carries_densely(c1, c2, s) for c1, c2, s in cases] == [True, True, False, False]
    assert grown[g1.arcs].all()


def test_carries_on_a_discrete_coloring_gathers_densely():
    """Every pair its own color: only the relabelling carries c1 onto c2."""
    n = 343
    c1 = np.arange(n * n).reshape(n, n)
    p = np.random.default_rng(0).permutation(n)
    c2 = np.empty_like(c1)
    c2[np.ix_(p, p)] = c1
    perms = [p, np.arange(n), p[::-1]]
    got = [digraph.carries(c1, c2, [s]) for s in perms]
    assert got == [carries_densely(c1, c2, s) for s in perms] == [True, False, False]


@pytest.mark.parametrize("q", [3, 5])
def test_carries_out_equals_carries_on_the_arcs(q, request):
    """The list check agrees with `carries` on the arcs and on the initial
    colorings, which `wl_close` refines from translations proven on the
    lists, for the translations, K's generator, a left multiplication, a
    transposition and the identity: on every label, looped and loopless, on
    a copy with one arc moved, and from the digraph onto that copy."""
    cons = request.getfixturevalue(f"cons{q}")
    perms = _candidate_perms(cons) + [np.arange(cons.n)]
    for i in range(q):
        for loops in (True, False):
            g = cons.build_cayley(i, include_identity=loops)
            moved = move_one_arc(g)
            for a, b in ((g, g), (moved, moved), (g, moved)):
                got = [digraph.carries_out(a.out, b.out, [s]) for s in perms]
                assert got == [digraph.carries(a.arcs, b.arcs, [s]) for s in perms]
                c1, c2 = coherent._initial_coloring(a), coherent._initial_coloring(b)
                assert got == [digraph.carries(c1, c2, [s]) for s in perms]
            assert digraph.carries_out(g.out, g.out, perms[:-3])   # translations, K
            assert not digraph.carries_out(g.out, moved.out, perms[-1:])


@pytest.mark.parametrize("q", [5, 7])
def test_carries_out_gives_the_same_verdicts_on_uint16_and_int32_lists(q, request):
    """A family digraph's lists are uint16; int32 copies of them, on either
    side or both, get the same verdict for the translations, K's generator,
    the two non-automorphisms and the identity, on every label and on a copy
    with one arc moved."""
    cons = request.getfixturevalue(f"cons{q}")
    perms = _candidate_perms(cons) + [np.arange(cons.n)]
    for i in range(q):
        g = cons.build_cayley(i)
        moved = move_one_arc(g)
        assert g.out.dtype == moved.out.dtype == np.uint16
        for a, b in ((g.out, g.out), (moved.out, moved.out), (g.out, moved.out)):
            a32, b32 = a.astype(np.int32), b.astype(np.int32)
            verdicts = [
                [digraph.carries_out(x, y, [s]) for s in perms]
                for x, y in ((a, b), (a32, b), (a, b32), (a32, b32))
            ]
            assert all(v == verdicts[0] for v in verdicts)
        assert digraph.carries_out(g.out, g.out, perms[:-3])   # translations, K
        assert not digraph.carries_out(g.out, moved.out, perms[-1:])


@pytest.mark.parametrize("where", ["middle_block", "last_row"])
def test_carries_out_reads_every_block(where, cons13):
    """The q = 13 lists span six blocks of `_TAKE_ELEMENTS` entries; one arc
    moved in the first row of a middle block or in the last row is found on
    either side, by the identity and by the translations, on uint16 and
    int32 lists alike, and the unmoved lists are carried."""
    out = cons13.build_cayley(1).out
    rows = digraph._TAKE_ELEMENTS // out.shape[1]
    blocks = -(-len(out) // rows)
    assert blocks >= 3
    u = rows * (blocks // 2) if where == "middle_block" else len(out) - 1
    moved = out.copy()
    moved[u, 0] = np.setdiff1d(np.arange(cons13.n), out[u])[0]
    moved[u].sort()
    ident, steps = [np.arange(cons13.n)], list(cons13.table.right_translations())
    for dtype in (np.uint16, np.int32):
        a, b = out.astype(dtype), moved.astype(dtype)
        assert digraph.carries_out(a, a, ident + steps) and digraph.carries_out(b, b, ident)
        for perms in (ident, steps):
            assert not digraph.carries_out(a, b, perms)
            assert not digraph.carries_out(b, a, perms)


def test_carries_out_refuses_a_list_that_repeats_a_vertex(cons3):
    """On either side; lists of another shape are simply not carried."""
    g, ident = cons3.build_cayley(1), [np.arange(cons3.n)]
    repeated = g.out.copy()
    repeated[0, 1] = repeated[0, 0]
    for a, b in ((repeated, g.out), (g.out, repeated), (repeated, repeated)):
        with pytest.raises(digraph.NotInvariant, match="repeats a vertex"):
            digraph.carries_out(a, b, ident)
    assert not digraph.carries_out(g.out, g.out[:, 1:], ident)


@pytest.mark.parametrize("q", [5, 7])
def test_orbit_mask_of_k_generator_gives_the_cells(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    gen = [cons.rho_perm(*cons.k_generator())]
    for cell in cons.cells():
        mask = digraph.orbit_mask(int(cell[0]), gen, cons.n)
        assert np.array_equal(np.flatnonzero(mask), cell)
        assert set(np.flatnonzero(mask).tolist()) == orbit_by_sets(int(cell[0]), gen)


def _assert_orbits(perms, n):
    """coherent._orbits gives the brute-force orbit minima as representatives
    and the forest from them."""
    orbits = coherent._orbits(perms, n)
    minima = sorted({min(orbit_by_sets(v, perms)) for v in range(n)})
    assert orbits.reps.dtype == np.int64 and orbits.reps.tolist() == minima
    want = digraph.breadth_first(np.array(minima), perms, n)[1]
    assert len(orbits.steps) == len(want) == len(orbits.inverses)
    for got, step, inverse in zip(orbits.steps, want, orbits.inverses):
        assert all(np.array_equal(x, y) for x, y in zip(got, step))
        assert np.array_equal(inverse[step[2]], np.arange(n))
    assert len({id(inverse) for inverse in orbits.inverses}) <= len(perms)  # one per generator


@pytest.mark.parametrize("q", [3, 5])
def test_orbits_of_k_are_the_cells(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    gen = cons.rho_perm(*cons.k_generator())
    _assert_orbits([gen], cons.n)
    least = sorted(int(c.min()) for c in cons.cells())
    assert coherent._orbits([gen], cons.n).reps.tolist() == least
    _assert_orbits([cons.rho_perm(a, b) for a, b in cons.build_K()], cons.n)
    _assert_orbits([], cons.n)


@pytest.mark.parametrize("seed", range(12))
def test_orbits_of_random_permutation_groups(seed):
    """Generators that each cycle a random handful of vertices, so the
    orbits vary in number and size."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    perms = []
    for _ in range(int(rng.integers(0, 4))):
        s = np.arange(n)
        moved = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        s[moved] = np.roll(moved, int(rng.integers(1, 4)))
        perms.append(s)
    _assert_orbits(perms, n)


def _assert_expands_as_the_scatter(orbits, rows, expand=coherent.Orbits.expand):
    got, want = expand(orbits, rows), expand_by_scatter(orbits, rows)
    assert (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_expand_equals_the_scatter_on_the_translation_forests(q, request):
    """Row e copied down the forest of the right translations, byte for
    byte as the scatter copies it; the data need not be invariant, as each
    vertex is written once, by its own step."""
    cons = request.getfixturevalue(f"cons{q}")
    orbits = coherent._orbits(list(cons.table.right_translations()), cons.n)
    assert orbits.reps.tolist() == [cons.table.identity] and orbits.steps
    rows = np.random.default_rng(q).integers(0, 2**31 - 1, size=(1, cons.n), dtype=np.int32)
    _assert_expands_as_the_scatter(orbits, rows)


@pytest.mark.parametrize("q", [3, 5])
def test_expand_equals_the_scatter_on_the_k_forest_of_an_extension(q, request, monkeypatch):
    """Every expansion of `one_point_extension(cc, e, gens=[k])`, from one
    row per K-orbit, equals the scatter on the rows the round made."""
    cons = request.getfixturevalue(f"cons{q}")
    cc = request.getfixturevalue(f"closures{q}")[cons.generators_I()[0]]
    expand, seen = coherent.Orbits.expand, []

    def both(orbits, rows):
        seen.append(len(orbits.reps))
        return _assert_expands_as_the_scatter(orbits, rows, expand)

    monkeypatch.setattr(coherent.Orbits, "expand", both)
    one_point_extension(cc, cons.table.identity, [cons.rho_perm(*cons.k_generator())])
    assert seen and set(seen) == {q + 2}   # the K-orbits: not one row


def test_expand_equals_the_scatter_across_row_blocks(cons5, monkeypatch):
    """With a budget of three rows a block, steps of more rows are copied in
    several blocks, the last one shorter."""
    monkeypatch.setattr(coherent, "_BLOCK_ELEMENT_BUDGET", 3 * cons5.n)
    orbits = coherent._orbits(list(cons5.table.right_translations()), cons5.n)
    assert any(len(w) > 3 and len(w) % 3 for w, _, _ in orbits.steps)
    rows = np.random.default_rng(5).integers(0, 9, size=(1, cons5.n), dtype=np.int32)
    _assert_expands_as_the_scatter(orbits, rows)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_orbit_mask_of_the_x_translations_is_one_row(q, request):
    """The steps u -> u * (t**k, 0, 0) reach the q vertices (a, 0, 0) from e."""
    cons = request.getfixturevalue(f"cons{q}")
    steps = list(cons.table.right_translations())
    mask = digraph.orbit_mask(cons.table.identity, steps[::2], cons.n)
    assert np.count_nonzero(mask) == q
    _, y, z = coordinates(q)
    assert (y[mask] == 0).all() and (z[mask] == 0).all()
    assert digraph.orbit_mask(cons.table.identity, steps, cons.n).all()
    assert np.flatnonzero(digraph.orbit_mask(3, [], cons.n)).tolist() == [3]


# -- fiber structure and tensor order against the retired loops --------------------


def _row_counts_by_loop(color):
    """Reference: the per-vertex, per-color loops `_row_counts_check` once ran,
    over an n x rank count matrix.  Returns the fibers, valencies, left fibers
    and right fibers of a stable coloring, and raises on an unstable one."""
    n, rank = len(color), int(color.max()) + 1
    if len(np.unique(color)) != rank:
        raise ValueError("color ids are not exactly 0..rank-1")
    diag = color.diagonal()
    fibers = [np.flatnonzero(diag == c) for c in np.unique(diag)]
    fiber_of = np.empty(n, dtype=np.int32)
    for k, verts in enumerate(fibers):
        fiber_of[verts] = k
    counts = np.zeros((n, rank), dtype=np.int64)
    for u in range(n):
        counts[u] = np.bincount(color[u], minlength=rank)
    valencies = np.zeros(rank, dtype=np.int64)
    left = np.full(rank, -1, dtype=np.int64)
    right = np.full(rank, -1, dtype=np.int64)
    for k, verts in enumerate(fibers):
        block = counts[verts]
        if not (block == block[0]).all():
            raise RuntimeError("row counts vary inside a fiber; coloring unstable")
        for s in np.flatnonzero(block[0]):
            if left[s] != -1:
                raise RuntimeError("color occurs in two distinct left fibers")
            left[s] = k
            valencies[s] = block[0, s]
    for s in range(rank):
        u = np.flatnonzero(color[int(fibers[left[s]][0])] == s)[0]
        right[s] = fiber_of[u]
    for k in range(len(fibers)):
        for k2, verts2 in enumerate(fibers):
            if valencies[(left == k) & (right == k2)].sum() != len(verts2):
                raise RuntimeError("fiber-block row sum mismatch")
    return fibers, valencies, left, right


def _assert_structure_matches_loop(cc):
    fibers, valencies, left, right = _row_counts_by_loop(cc.color)
    assert [f.tolist() for f in cc.fibers] == [f.tolist() for f in fibers]
    for got, want in [(cc.valencies, valencies), (cc.left_fiber, left), (cc.right_fiber, right)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _outcome(build):
    """("pass", what build returns), or the message of the error it raises."""
    try:
        return "pass", build()
    except (RuntimeError, ValueError) as exc:
        return str(exc), None


@pytest.mark.parametrize(
    "color, message",
    [
        ([[0, 1, 1], [1, 0, 2], [1, 2, 0]], "row counts vary inside a fiber; coloring unstable"),
        ([[0, 2], [2, 1]], "color occurs in two distinct left fibers"),
        # fiber {0, 1} reaches colour 2 in both fibers: its block sums are 3 and 1
        ([[0, 2, 2], [2, 0, 2], [3, 3, 1]], "fiber-block row sum mismatch"),
    ],
    ids=["varying-rows", "two-left-fibers", "row-sum"],
)
def test_unstable_colorings_fail_loudly(color, message):
    color = np.array(color, dtype=np.int32)
    with pytest.raises(RuntimeError) as raised:
        coherent.CoherentConfiguration(color, 1, None)
    assert str(raised.value) == message
    with pytest.raises(RuntimeError) as raised:
        _row_counts_by_loop(color)
    assert str(raised.value) == message


@pytest.mark.parametrize("q", [3, 5])
def test_structure_matches_loop_on_closures_and_extensions(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    gen = cons.rho_perm(*cons.k_generator())
    for i in range(q):
        for loops in (True, False):
            cc = wl_close(cons.build_cayley(i, include_identity=loops))
            _assert_structure_matches_loop(cc)
            _assert_structure_matches_loop(
                one_point_extension(cc, cons.table.identity, [gen])
            )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
        lambda arcs: Digraph(np.array(arcs).reshape(n, n))
    )
))
def test_structure_matches_loop_on_generated_digraphs(g):
    cc = wl_close(g)
    _assert_structure_matches_loop(cc)
    _assert_structure_matches_loop(one_point_extension(cc, g.n - 1))


@st.composite
def _colorings(draw):
    """An arbitrary pair coloring on at most 4 vertices: ids below 4, or
    renamed to 0..rank-1, or a stable coloring with two ids swapped."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["raw", "renamed", "swapped"]))
    if kind == "swapped":
        arcs = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        color = wl_close(Digraph(arcs.reshape(n, n))).color.copy()
        a, b = draw(st.integers(0, n * n - 1)), draw(st.integers(0, n * n - 1))
        color.flat[[a, b]] = color.flat[[b, a]]
        return color
    ids = np.array(draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)))
    color = ids.astype(np.int32).reshape(n, n)
    return coherent._renumber(color)[0] if kind == "renamed" else color


def test_structure_raises_as_the_loop_on_generated_colorings(monkeypatch):
    """Each coloring the loop rejects is rejected with the same message, and
    each it accepts gets the same fibers and valencies."""
    monkeypatch.setattr(coherent, "_tensor_from_keys", lambda keys, n, rank: None)
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_colorings())
    def check(color):
        got = _outcome(lambda: coherent.CoherentConfiguration(color, 1, None))
        want = _outcome(lambda: _row_counts_by_loop(color))
        assert got[0] == want[0]
        if got[0] == "pass":
            _assert_structure_matches_loop(got[1])
        seen.add(got[0])

    check()
    assert seen == {
        "pass", "color ids are not exactly 0..rank-1",
        "row counts vary inside a fiber; coloring unstable",
        "color occurs in two distinct left fibers", "fiber-block row sum mismatch",
    }


def _assert_in_lexsort_order(cc):
    """cc.tensor holds each (r, s, t) once, in the order of the int64 oracle
    `tensor_key`, and `_tensor_order` lays its shuffled rows onto it in that
    order."""
    rows = cc.tensor[np.random.default_rng(5).permutation(len(cc.tensor))]
    key = tensor_key(*rows[:, :3].T, cc.rank)
    assert len(np.unique(key)) == len(key)
    want = np.argsort(key)
    assert np.array_equal(rows[want], cc.tensor)
    assert np.array_equal(coherent._tensor_order(cc, *rows[:, :3].T), want)


@_DENSE_REFINEMENTS
def test_tensor_key_order_matches_lexsort(cons3, maker, encoding):
    _assert_in_lexsort_order(maker(cons3))


@pytest.mark.parametrize("engine", ["closure", "extension"])
@pytest.mark.parametrize("q", [3, 5])
def test_suite_tensors_are_in_lexsort_order(contexts, q, engine, monkeypatch):
    """The tensors of the engines the suite runs, on every generator label:
    the orbit-row closures and the K-orbit extensions, each read off
    sort-layout keys by one stable lexsort of the run heads by (r, s)."""
    ctx = contexts[q]
    refine = {"extension": ctx.extension, "closure": lambda i: wl_close(ctx.digraph(i))}[engine]
    for i in ctx.cons.generators_I():
        ctx.closure(i)
        rounds = _spy_key_rows(monkeypatch)
        cc = refine(i)
        monkeypatch.undo()
        rank, m, n, layouts = rounds[-1]
        assert rank == cc.rank and m < n and layouts == _sort_layout(rank, n)
        _assert_in_lexsort_order(cc)


def test_tensor_key_rank_guard():
    """The oracle's rank**3 keys fit int64 up to rank 2**21 - 1, whose
    largest key sorts last; from 2**21 it refuses, before it allocates
    anything.  `_tensor_order` has no such bound: see
    `test_verify_algebraic_map_decides_rank_2_21`."""
    rank = 2**21 - 1
    rows = np.array([[rank - 1] * 3 + [1], [0, 0, 1, 1], [rank - 1, rank - 1, 0, 1]])
    assert np.argsort(tensor_key(*rows[:, :3].T, rank)).tolist() == [1, 2, 0]
    with pytest.raises(ValueError, match=r"rank\*\*3 < 2\*\*63"):
        tensor_key(*np.empty((3, 0), dtype=np.int64), 2**21)


@pytest.mark.parametrize("rank", [256, 300, 2**16])
def test_tensor_key_widens_uint16_columns(rank):
    """From rank 256 on, r * rank overflows uint16; the oracle widens the
    columns first, so its keys are the int64 keys, and `_tensor_order` on
    uint16 and on uint32 columns returns their order."""
    rows = np.array(
        [[rank - 1] * 3, [0, rank - 1, 0], [1, 0, 0], [rank - 1, 0, rank - 1], [0, 0, 1]],
        dtype=np.uint16,
    )
    key = tensor_key(*rows.T, rank)
    assert key.dtype == np.int64 and key.tolist() == [
        (r * rank + s) * rank + t for r, s, t in rows.tolist()
    ]
    assert key[0] == rank**3 - 1
    want = np.argsort(key)
    for dtype in (np.uint16, np.uint32):
        columns = rows.astype(dtype).T
        tensor = np.asfortranarray(np.column_stack([rows[want], np.ones_like(rows[:, 0])]), dtype=dtype)
        order = coherent._tensor_order(SimpleNamespace(tensor=tensor), *columns)
        assert order.tolist() == want.tolist()


def test_verify_algebraic_map_decides_rank_2_21():
    """At rank 2**21 the int64 keys (r * rank + s) * rank + t would reach
    2**63; the lexsorted columns order any rank, so a synthetic uint32
    tensor at that rank is decided: the identity transports it, and the
    swaps of colors 5 and 6 and of colors 7 and 8, which move the r and the
    t of the row (5, top, 7) onto a non-row, do not."""
    rank = 2**21
    top = rank - 1
    tensor = np.asfortranarray(
        [[0, 0, 0, 1], [5, top, 7, 2], [top, top, top, 3]], dtype=arith.tensor_dtype(rank, 27)
    )
    assert tensor.dtype == np.uint32
    cc = SimpleNamespace(rank=rank, tensor=tensor)
    assert verify_algebraic_map(cc, cc, np.arange(rank))
    for a, b in [(5, 6), (7, 8)]:
        sigma = np.arange(rank)
        sigma[[a, b]] = [b, a]
        assert not verify_algebraic_map(cc, cc, sigma)
