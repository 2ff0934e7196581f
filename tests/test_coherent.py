import copy
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ddwl import coherent
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
    dense_tensor,
    directed_cycle,
    move_one_arc,
    on_every_row,
    orbit_by_sets,
    random_digraph,
    refine_round_int64,
    tensor_from_int64_keys,
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


_DENSE_REFINEMENTS = pytest.mark.parametrize(
    "maker, encoding",
    [
        (lambda cons: wl_close(_plain(cons.build_cayley(1))), "count"),
        (lambda cons: wl_close(_plain(cons.build_cayley(1, include_identity=False))), "count"),
        (lambda cons: one_point_extension(wl_close(_plain(cons.build_cayley(1))), 0), "sort"),
        (lambda cons: wl_close(random_digraph(40, 0.3, seed=3)), "sort"),
        (lambda cons: wl_close(directed_cycle(9)), "count"),
    ],
    ids=["closure", "loopless-closure", "extension", "random", "cycle"],
)


@_DENSE_REFINEMENTS
def test_tensor_brute_force_oracle(cons3, maker, encoding):
    """Every pair (u, v) of color t has #{w : c(u, w) = r, c(w, v) = s}
    equal to the stored p^t_rs, counted from the color matrix alone."""
    cc = maker(cons3)
    count_mode = cc.rank**2 <= coherent._MODE_A_MAX_CODES
    assert encoding == ("count" if count_mode else "sort")
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


def _compare_kernels(monkeypatch) -> list[int]:
    """Run every later refinement round twice, on the kernel `_refine_round`
    picks and with `_PRODUCT_MAX_RANK = 0`, which forces the bincount kernel,
    and assert the two return the same bytes.  The list returned fills with
    the ranks of the rounds that ran on matrix products."""
    refine, limit = coherent._refine_round, coherent._PRODUCT_MAX_RANK
    by_products: list[int] = []

    def both(color, rank, rows):
        got = refine(color, rank, rows)
        monkeypatch.setattr(coherent, "_PRODUCT_MAX_RANK", 0)
        want = refine(color, rank, rows)
        monkeypatch.setattr(coherent, "_PRODUCT_MAX_RANK", limit)
        assert got[1] == want[1]
        for a, b in ((got[0], want[0]), (got[2], want[2])):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()
        if len(rows) == len(color) and rank <= limit:
            by_products.append(rank)
        return got

    monkeypatch.setattr(coherent, "_refine_round", both)
    return by_products


@pytest.mark.parametrize("loops", [True, False], ids=["looped", "loopless"])
@pytest.mark.parametrize("q", [3, 5, 7])
def test_product_rounds_equal_the_bincount_kernel_on_every_label(q, loops, request, monkeypatch):
    """Relabelled plain copies refine densely, so every round of rank up to
    the limit runs on products and is held to the bincount kernel."""
    cons = request.getfixturevalue(f"cons{q}")
    perm = np.random.default_rng(q).permutation(cons.n)
    by_products = _compare_kernels(monkeypatch)
    for i in range(q):
        g = cons.build_cayley(i, include_identity=loops).relabeled(perm)
        assert wl_close(g).generators == []
    assert len(by_products) >= q


def test_dense_q7_closure_peak_stays_below_9_mb(cons7):
    """The seeded relabelled copy the benchmark refines: its product rounds
    hold the packed-digit right operand of n * n * ceil(rank / width) float64
    words (1.9 MB at rank 9) and one block of products and key words, a
    tracemalloc peak of 7.8 MB with numpy 2.4.  A float32 one-hot of
    n * n * rank entries in their place (4.2 MB at rank 9; a 9.9 MB peak)
    fails 9 MB."""
    g = cons7.build_cayley(cons7.generators_I()[0]).relabeled(
        np.random.default_rng(1).permutation(cons7.n)
    )
    tracemalloc.start()
    try:
        assert wl_close(g).rank == 9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.0e6


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


def _digits_per_word(n: int) -> int:
    """The most digits 0..n, base n + 1, one float64 word holds exactly:
    the largest w with (n + 1)**w <= 2**53."""
    w = 0
    while (n + 1) ** (w + 1) <= 2**53:
        w += 1
    return w


@pytest.mark.parametrize("budget", [None, 1], ids=["default-blocks", "one-row-blocks"])
@pytest.mark.parametrize(
    "case",
    ["cycle", "random-at-limit", "random-above-limit", "width-switch-below", "width-switch-at"],
)
def test_product_rounds_equal_the_bincount_kernel_on_small_inputs(case, budget, monkeypatch):
    """The directed 9-cycle, and random colorings whose rank is the product
    limit (the first round runs on products) and one more (it does not).
    At the product limit, one round on either side of the least n that
    packs 6 digits per word, not 7: each r's codes fill one word of exactly
    that many digits and one of fewer."""
    if budget is not None:
        monkeypatch.setattr(coherent, "_BLOCK_ELEMENT_BUDGET", budget)
    limit = coherent._PRODUCT_MAX_RANK
    by_products = _compare_kernels(monkeypatch)
    if case == "cycle":
        assert wl_close(directed_cycle(9)).rank == 9
        assert by_products and max(by_products) == 9
    elif case.startswith("width-switch"):
        switch = next(n for n in range(1, 2**16) if _digits_per_word(n) < 7)
        n = switch - (case == "width-switch-below")
        width = _digits_per_word(n)
        assert (_digits_per_word(switch - 1), _digits_per_word(switch)) == (7, 6)
        assert limit // width == 1 and 0 < limit % width  # one full word, one shorter
        color = np.random.default_rng(n).integers(0, limit, size=(n, n), dtype=np.int32)
        color.flat[:limit] = np.arange(limit)   # every color occurs
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


# -- signature code widths ------------------------------------------------------------


@pytest.mark.parametrize(
    "limit, width",
    [(1, np.uint16), (2**16, np.uint16), (2**16 + 1, np.uint32), (2**32, np.uint32),
     (2**32 + 1, np.int64), (2**40, np.int64)],
)
def test_code_dtype_is_the_narrowest_width_holding_the_codes(limit, width):
    assert coherent.code_dtype(limit) == np.dtype(width)


def _assert_round_equals_int64(got, color, rank, rows):
    """got, a sort-mode `_refine_round(color, rank, rows)`, equals the int64
    key builder: the same new colors and rank, and keys at the width that
    holds rank**2 which widen to the int64 keys row for row."""
    new, rank2, keys = got
    want_new, want_rank, want_keys = refine_round_int64(color, rank, rows)
    n = len(color)
    wide = coherent.code_dtype(rank * rank).newbyteorder(">")
    assert keys.dtype == np.dtype(f"V{(n + 1) * wide.itemsize}")
    assert (new.dtype, rank2) == (want_new.dtype, want_rank)
    assert new.tobytes() == want_new.tobytes()
    narrow = keys.view(wide).reshape(rank2, n + 1).astype(">i8")
    assert narrow.tobytes() == want_keys.tobytes()


@pytest.mark.parametrize("q, width", [(3, np.uint16), (5, np.uint32)])
def test_extension_rounds_equal_the_int64_keys(q, width, contexts, monkeypatch):
    """Every sort-mode round of each one-point extension, and the tensor read
    off its confirming round, equal those of int64 keys; the q = 3 extension
    (rank 95) keys in uint16, the q = 5 one (rank 657) in uint32, and both
    tensors are held in uint16, the width of their ranks and counts."""
    ctx = contexts[q]
    refine, confirming = coherent._refine_round, []

    def checked(color, rank, rows):
        got = refine(color, rank, rows)
        if rank * rank > coherent._MODE_A_MAX_CODES:
            _assert_round_equals_int64(got, color, rank, rows)
            confirming[:] = [got[2], len(color), rank]
        return got

    monkeypatch.setattr(coherent, "_refine_round", checked)
    for i in ctx.cons.generators_I():
        ext = ctx.extension(i)
        assert coherent.code_dtype(ext.rank**2) == width and confirming[2] == ext.rank
        keys, n, rank = confirming
        got = coherent._tensor_from_keys(keys, n, rank)
        assert got.tobytes() == ext.tensor.tobytes()
        wide_keys = refine_round_int64(ext.color, rank, np.arange(n))[2]
        want = tensor_from_int64_keys(wide_keys, n, rank)
        assert got.dtype == coherent.tensor_dtype(rank, n) == np.uint16
        assert got.shape == want.shape and got.astype(np.int64).tobytes() == want.tobytes()


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
    wide = coherent.code_dtype(rank * rank).newbyteorder(">")
    keys = rows.astype(wide).view(f"V{(n + 1) * wide.itemsize}").ravel()
    got = coherent._tensor_from_keys(keys, n, rank)
    want = tensor_from_int64_keys(rows.astype(">i8").view(f"V{8 * (n + 1)}").ravel(), n, rank)
    assert got.dtype == coherent.tensor_dtype(rank, n) == np.uint16
    assert got.shape == want.shape and got.astype(np.int64).tobytes() == want.tobytes()


EXTENSION_TENSOR_SHA256 = {
    5: "a298fb4696f3e5b5bbc16b3786307953e6ac0b3cc26a0cc141269b35c6cf74fe",
    7: "01feee0df187023bc55f9983da42846c11f95e9945e3dd842d3741d25f3b0ac5",
}


@pytest.mark.parametrize("q", sorted(EXTENSION_TENSOR_SHA256))
def test_extension_tensor_pinned(contexts, q):
    """The sort-mode tensor of the one-point extension at the first generator
    label (rank 657 at q = 5, 2459 at q = 7) byte for byte: every row, in
    order, widened to int64; it is held at the width of its rank and counts."""
    ctx = contexts[q]
    ext = ctx.extension(ctx.cons.generators_I()[0])
    tensor = ext.tensor
    assert tensor.dtype == coherent.tensor_dtype(ext.rank, ext.n) == np.uint16
    assert tensor.flags.f_contiguous
    wide = tensor.astype(np.int64)
    assert hashlib.sha256(wide.tobytes()).hexdigest() == EXTENSION_TENSOR_SHA256[q]


def test_q7_extension_peak_stays_below_the_int64_keys(contexts):
    """The q = 7 extension (rank 2459) keys its sort-mode rounds in uint32,
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
    build holds at most two int64 arrays of tensor length and the check as
    many, for a tracemalloc peak of 133.2 MB with numpy 2.4, below 145 MB.
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
    """Synthetic sort-mode keys on n = 2 columns: every color t holds the
    code of (rank - 1, rank - 1) once, and codes near 0 or rank**2 - 1.  The
    rows are held at the width that holds rank - 1: uint16 to rank 2**16,
    uint32 beyond, equal to the int64 oracle's at each rank."""
    n, rng = 2, np.random.default_rng(rank)
    codes = np.empty((rank, n), dtype=np.int64)
    codes[:, 0] = rng.integers(0, 3, size=rank)
    codes[:, 1] = rank * rank - 1
    codes[::3, 0] = rank * rank - 2
    codes.sort(axis=1)
    wide = coherent.code_dtype(rank * rank).newbyteorder(">")
    keys = np.column_stack([np.arange(rank), codes]).astype(wide)
    got = coherent._tensor_from_keys(keys.view(f"V{(n + 1) * wide.itemsize}").ravel(), n, rank)
    assert got.dtype == coherent.tensor_dtype(rank, n) == width
    assert got[:, :3].max() == rank - 1
    want = _int64_tensor_of_codes(codes, rank)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_tensor_width_at_n_plus_1_2_16():
    """At n = 2**16 - 1 a count reaches n = 65535, the largest uint16: the
    count-mode keys of a rank-3 coloring give uint16 rows equal to the int64
    oracle's, read off the same multisets written as sorted codes."""
    n, rank = 2**16 - 1, 3
    counts = np.zeros((rank, rank * rank), dtype=np.int64)  # [t, code]
    counts[0, 0] = n                      # every w counted once by code 0
    counts[1, [1, 5, 8]] = [1, n - 2, 1]
    counts[2, [2, 7]] = [n - 1, 1]
    keys = np.empty((rank, rank * rank + 1), dtype=">u2")
    keys[:, 0], keys[:, 1:] = np.arange(rank), n - counts
    got = coherent._tensor_from_keys(keys.view(f"V{2 * (rank * rank + 1)}").ravel(), n, rank)
    assert got.dtype == coherent.tensor_dtype(rank, n) == np.uint16
    assert got[:, 3].max() == n
    codes = np.array([np.repeat(np.arange(rank * rank), row) for row in counts])
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
def test_tensor_checks_reject_a_triple_held_twice(closures3, first):
    """The entry (1, 4, 1, 3) split into counts 1 and 2 keeps every mass sum;
    both checks refuse the split, in either row order."""
    cc = closures3[1]
    k = int(np.flatnonzero((cc.tensor[:, :3] == [1, 4, 1]).all(axis=1))[0])
    assert cc.tensor[k].tolist() == [1, 4, 1, 3]
    split = [[1, 4, 1, first], [1, 4, 1, 3 - first]]
    bad = _with_tensor(cc, np.insert(np.delete(cc.tensor, k, axis=0), k, split, axis=0))
    identity = np.arange(cc.rank)
    assert not tensor_identities_hold(bad)
    assert not verify_algebraic_map(bad, bad, identity)
    assert not verify_algebraic_map(cc, bad, identity)


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
        orbit = coherent.orbit_extension(wl_close(g), cons.table.identity, [gen])
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
    assert ext.tensor.dtype == coherent.tensor_dtype(ext.rank, ext.n)
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
    def check(mask):
        arcs = mask[quot].T   # arc (u, v) iff v * u**-1 in the set
        orbit = wl_close(Digraph(arcs, translations=translations))
        ranks.add(orbit.rank)
        _assert_same_closure(orbit, on_every_row(lambda: wl_close(Digraph(arcs))))

    check()
    # a Cayley closure has rank at most n, so only q = 5 reaches sort mode
    modes = {r * r <= coherent._MODE_A_MAX_CODES for r in ranks}
    assert modes == ({True} if q == 3 else {True, False})


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
    with pytest.raises(coherent.NotInvariant, match="permutation"):
        wl_close(Digraph(g.arcs, translations=tuple(steps)))


def test_translations_are_proven_once_on_the_lists(cons3, monkeypatch):
    """`verify_ddd` and then `wl_close` on one family digraph prove its
    translations once, by `carries_out`; the closure never calls `carries`,
    which still proves the generator of `orbit_extension` on its coloring."""
    dense = {i: on_every_row(lambda: wl_close(_plain(cons3.build_cayley(i)))) for i in range(3)}
    calls, carries_out = [], coherent.carries_out
    monkeypatch.setattr(coherent, "carries_out", lambda *a: calls.append(a) or carries_out(*a))
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
        coherent.orbit_extension(cc, cons3.table.identity, [gen])


def test_orbit_close_rejects_a_forged_generator(cons3):
    g = cons3.build_cayley(1)
    color0 = coherent._initial_coloring(g)
    u = 5
    forged = np.arange(g.n)
    forged[[u, 0]] = [0, u]   # sends u to e, but is not an automorphism
    assert not np.array_equal(color0[np.ix_(forged, forged)], color0)
    translations = [cons3.table.mult[:, 9], cons3.table.mult[:, 3]]  # by (1, 0, 0), (0, 1, 0)
    coherent.orbit_close(color0, translations)
    with pytest.raises(coherent.NotInvariant):
        coherent.orbit_close(color0, translations + [forged])
    # a relabeled family digraph is not Cayley over the table
    relabeled = g.relabeled(np.random.default_rng(0).permutation(g.n))
    with pytest.raises(coherent.NotInvariant):
        wl_close(Digraph(relabeled.arcs, translations=cons3.table.right_translations()))


def test_orbit_extension_rejects_a_colour_moving_automorphism(cons3, closures3):
    """sigma(x, y, z) = (x, -y, -z) is a group automorphism that maps X_i onto
    X_chi(i), so it moves the colours of row e of the closure of i; a right
    translation is an automorphism of the closure that moves e."""
    t, f = cons3.table, cons3.field
    sigma = t._pack(t.ix, f.neg(t.iy), f.neg(t.iz))
    cc = closures3[1]
    assert not np.array_equal(cc.color[0][sigma], cc.color[0])
    gen = cons3.rho_perm(*cons3.k_generator())
    with pytest.raises(coherent.NotInvariant):
        coherent.orbit_extension(cc, t.identity, [gen, sigma])
    translation = t.mult[:, 9]   # u -> u * (1, 0, 0)
    assert np.array_equal(cc.color[np.ix_(translation, translation)], cc.color)
    with pytest.raises(coherent.NotInvariant):
        coherent.orbit_extension(cc, t.identity, [gen, translation])


@pytest.mark.parametrize("q", [3, 5])
def test_orbit_extension_from_a_subgroup_of_k(q, request, monkeypatch):
    """The square of K's generator generates a subgroup of index 2, whose
    orbits split each Y_i in two halves: more representative rows, the same
    extension as the dense engine's."""
    cons = request.getfixturevalue(f"cons{q}")
    gen = cons.rho_perm(*cons.k_generator())
    cc = wl_close(cons.build_cayley(cons.generators_I()[0]))
    seen = _spy_orbits(monkeypatch)
    orbit = coherent.orbit_extension(cc, cons.table.identity, [gen[gen]])
    _assert_same_closure(orbit, one_point_extension(cc, cons.table.identity))
    forest, trivial = seen
    assert np.array_equal(trivial.reps, np.arange(cons.n)) and trivial.steps == []
    root = _assert_forest(forest, coherent._individualized(cc, cons.table.identity), [gen[gen]])
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
            got = [coherent.carries(color, color, [s]) for s in perms]
            assert got == [carries_densely(color, color, s) for s in perms]
            assert got[: len(perms) - 2] == [True] * (len(perms) - 2) and not got[-1]


@pytest.mark.parametrize("q", [3, 5])
def test_fixes_coloring_equals_the_dense_oracle_on_an_individualized_closure(q, request):
    """K's generator fixes e and carries the individualized coloring; a
    translation moves e."""
    cons = request.getfixturevalue(f"cons{q}")
    perms = _candidate_perms(cons)
    for cc in request.getfixturevalue(f"closures{q}").values():
        color = coherent._individualized(cc, cons.table.identity)
        got = [coherent.carries(color, color, [s]) for s in perms]
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
    pairs.append((g1.arcs, move_one_arc(g2).arcs))
    grown = g1.arcs.copy()
    grown[0, np.flatnonzero(~grown[0])[0]] = True
    ident = np.arange(g1.n)
    cases = [(c1, c2, p) for c1, c2 in pairs] + [(g1.arcs, grown, ident)]
    got = [coherent.carries(c1, c2, [s]) for c1, c2, s in cases]
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
    got = [coherent.carries(c1, c2, [s]) for s in perms]
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
                got = [coherent.carries_out(a.out, b.out, [s]) for s in perms]
                assert got == [coherent.carries(a.arcs, b.arcs, [s]) for s in perms]
                c1, c2 = coherent._initial_coloring(a), coherent._initial_coloring(b)
                assert got == [coherent.carries(c1, c2, [s]) for s in perms]
            assert coherent.carries_out(g.out, g.out, perms[:-3])   # translations, K
            assert not coherent.carries_out(g.out, moved.out, perms[-1:])


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
                [coherent.carries_out(x, y, [s]) for s in perms]
                for x, y in ((a, b), (a32, b), (a, b32), (a32, b32))
            ]
            assert all(v == verdicts[0] for v in verdicts)
        assert coherent.carries_out(g.out, g.out, perms[:-3])   # translations, K
        assert not coherent.carries_out(g.out, moved.out, perms[-1:])


@pytest.mark.parametrize("where", ["middle_block", "last_row"])
def test_carries_out_reads_every_block(where, cons13):
    """The q = 13 lists span six blocks of `_TAKE_ELEMENTS` entries; one arc
    moved in the first row of a middle block or in the last row is found on
    either side, by the identity and by the translations, on uint16 and
    int32 lists alike, and the unmoved lists are carried."""
    out = cons13.build_cayley(1).out
    rows = coherent._TAKE_ELEMENTS // out.shape[1]
    blocks = -(-len(out) // rows)
    assert blocks >= 3
    u = rows * (blocks // 2) if where == "middle_block" else len(out) - 1
    moved = out.copy()
    moved[u, 0] = np.setdiff1d(np.arange(cons13.n), out[u])[0]
    moved[u].sort()
    ident, steps = [np.arange(cons13.n)], list(cons13.table.right_translations())
    for dtype in (np.uint16, np.int32):
        a, b = out.astype(dtype), moved.astype(dtype)
        assert coherent.carries_out(a, a, ident + steps) and coherent.carries_out(b, b, ident)
        for perms in (ident, steps):
            assert not coherent.carries_out(a, b, perms)
            assert not coherent.carries_out(b, a, perms)


def test_carries_out_refuses_a_list_that_repeats_a_vertex(cons3):
    """On either side; lists of another shape are simply not carried."""
    g, ident = cons3.build_cayley(1), [np.arange(cons3.n)]
    repeated = g.out.copy()
    repeated[0, 1] = repeated[0, 0]
    for a, b in ((repeated, g.out), (g.out, repeated), (repeated, repeated)):
        with pytest.raises(coherent.NotInvariant, match="repeats a vertex"):
            coherent.carries_out(a, b, ident)
    assert not coherent.carries_out(g.out, g.out[:, 1:], ident)


@pytest.mark.parametrize("q", [5, 7])
def test_orbit_mask_of_k_generator_gives_the_cells(q, request):
    cons = request.getfixturevalue(f"cons{q}")
    gen = [cons.rho_perm(*cons.k_generator())]
    for cell in cons.cells():
        mask = coherent.orbit_mask(int(cell[0]), gen, cons.n)
        assert np.array_equal(np.flatnonzero(mask), cell)
        assert set(np.flatnonzero(mask).tolist()) == orbit_by_sets(int(cell[0]), gen)


def _assert_orbits(perms, n):
    """coherent._orbits gives the brute-force orbit minima as representatives
    and the forest from them."""
    orbits = coherent._orbits(perms, n)
    minima = sorted({min(orbit_by_sets(v, perms)) for v in range(n)})
    assert orbits.reps.dtype == np.int64 and orbits.reps.tolist() == minima
    want = coherent._breadth_first(np.array(minima), perms, n)[1]
    assert len(orbits.steps) == len(want)
    for got, step in zip(orbits.steps, want):
        assert all(np.array_equal(x, y) for x, y in zip(got, step))


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


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_orbit_mask_of_the_x_translations_is_one_row(q, request):
    """The steps u -> u * (t**k, 0, 0) reach the q vertices (a, 0, 0) from e."""
    cons = request.getfixturevalue(f"cons{q}")
    steps = list(cons.table.right_translations())
    mask = coherent.orbit_mask(cons.table.identity, steps[::2], cons.n)
    assert np.count_nonzero(mask) == q
    assert (cons.table.iy[mask] == 0).all() and (cons.table.iz[mask] == 0).all()
    assert coherent.orbit_mask(cons.table.identity, steps, cons.n).all()
    assert np.flatnonzero(coherent.orbit_mask(3, [], cons.n)).tolist() == [3]


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
                coherent.orbit_extension(cc, cons.table.identity, [gen])
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
    """cc.tensor holds each (r, s, t) once, in lexicographic order, which is
    the order of `_tensor_key`."""
    rows = cc.tensor[np.random.default_rng(5).permutation(len(cc.tensor))]
    want = rows[np.lexsort(rows.T[::-1])]
    assert np.array_equal(want, cc.tensor)
    key = coherent._tensor_key(*rows[:, :3].T, cc.rank)
    assert np.array_equal(rows[np.argsort(key)], want)
    assert len(np.unique(key)) == len(key)


@_DENSE_REFINEMENTS
def test_tensor_key_order_matches_lexsort(cons3, maker, encoding):
    _assert_in_lexsort_order(maker(cons3))


@pytest.mark.parametrize("engine, encoding", [("closure", "count"), ("extension", "sort")])
@pytest.mark.parametrize("q", [3, 5])
def test_suite_tensors_are_in_lexsort_order(contexts, q, engine, encoding):
    """The tensors of the engines the suite runs, on every generator label:
    the orbit-row closures (count mode, read transposed) and the K-orbit
    extensions (sort mode, one stable sort of the run heads by code)."""
    ctx = contexts[q]
    for i in ctx.cons.generators_I():
        cc = getattr(ctx, engine)(i)
        assert encoding == ("count" if cc.rank**2 <= coherent._MODE_A_MAX_CODES else "sort")
        _assert_in_lexsort_order(cc)


def test_tensor_key_rank_guard():
    """rank**3 keys fit int64 up to rank 2**21 - 1, whose largest key sorts
    last; from 2**21 the order refuses, before it allocates anything."""
    rank = 2**21 - 1
    rows = np.array([[rank - 1] * 3 + [1], [0, 0, 1, 1], [rank - 1, rank - 1, 0, 1]])
    assert np.argsort(coherent._tensor_key(*rows[:, :3].T, rank)).tolist() == [1, 2, 0]
    with pytest.raises(ValueError, match=r"rank\*\*3 < 2\*\*63"):
        coherent._tensor_key(*np.empty((3, 0), dtype=np.int64), 2**21)


@pytest.mark.parametrize("rank", [256, 300, 2**16])
def test_tensor_key_widens_uint16_columns(rank):
    """From rank 256 on, r * rank overflows uint16; `_tensor_key` widens the
    columns first, so the keys of uint16 columns are the int64 keys and sort
    as the rows do in lexicographic order."""
    rows = np.array(
        [[rank - 1] * 3, [0, rank - 1, 0], [1, 0, 0], [rank - 1, 0, rank - 1], [0, 0, 1]],
        dtype=np.uint16 if rank <= 2**16 else np.uint32,
    )
    key = coherent._tensor_key(*rows.T, rank)
    want = [(r * rank + s) * rank + t for r, s, t in rows.tolist()]
    assert key.dtype == np.int64 and key.tolist() == want
    assert key[0] == rank**3 - 1
    assert np.argsort(key).tolist() == np.lexsort(rows.T[::-1]).tolist()
