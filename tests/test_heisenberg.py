import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ddwl.arith import code_dtype
from ddwl.construction import Construction
from ddwl.gf import field_create
from ddwl.heisenberg import GroupTable
from reference import coordinates, field_matmul, unitriangular


def vertex(q, x, y, z):
    """The vertex of the triple (x, y, z) of field indices."""
    return (x * q + y) * q + z


def triple(q, v):
    """The triple of field indices of vertex v, by base-q digits."""
    xy, z = divmod(int(v), q)
    return divmod(xy, q) + (z,)


def matrix_oracle(f, a, b):
    """Oracle: multiply the 3x3 unitriangular matrices over the field; a and
    b are triples of field indices, and so is the product."""
    def mat(g):
        x, y, z = g
        return [
            [1, x, z],
            [0, 1, y],
            [0, 0, 1],
        ]

    ma, mb = mat(a), mat(b)
    out = [[0] * 3 for _ in range(3)]
    for r in range(3):
        for c in range(3):
            acc = 0
            for k in range(3):
                acc = f.add(acc, f.mul(ma[r][k], mb[k][c]))
            out[r][c] = int(acc)
    return out[0][1], out[1][2], out[0][2]


def test_product_example_against_matrix_oracle():
    f = field_create(3, 1)
    t = GroupTable(f)
    a, b = (1, 0, 0), (0, 1, 0)
    got = t.mult[vertex(3, *a), vertex(3, *b)]
    assert triple(3, got) == matrix_oracle(f, a, b) == (1, 1, 1)


def test_all_products_match_matrix_oracle_q3():
    f = field_create(3, 1)
    t = GroupTable(f)
    for u in range(t.n):
        for v in range(t.n):
            assert triple(t.q, t.mult[u, v]) == matrix_oracle(f, triple(t.q, u), triple(t.q, v))


@pytest.mark.parametrize("p,l", [(5, 1), (3, 2)])
def test_sampled_products_match_matrix_oracle(p, l):
    f = field_create(p, l)
    t = GroupTable(f)
    rng = np.random.default_rng(11)
    for u, v in zip(rng.integers(0, t.n, 300), rng.integers(0, t.n, 300)):
        a, b = triple(t.q, u), triple(t.q, v)
        assert triple(t.q, t.mult[u, v]) == matrix_oracle(f, a, b)
        assert matrix_oracle(f, a, triple(t.q, t.inv[u])) == (0, 0, 0)


def test_identity_and_inverses():
    f = field_create(3, 1)
    t = GroupTable(f)
    for v in range(t.n):
        assert t.mult[0, v] == v
        assert matrix_oracle(f, triple(3, v), triple(3, t.inv[v])) == (0, 0, 0)
    assert triple(3, t.inv[vertex(3, 1, 1, 0)]) == (2, 2, 1)
    assert t.inv[0] == 0


def test_central_inverse_and_products():
    t = GroupTable(field_create(5, 1))
    z1, z2 = vertex(5, 0, 0, 2), vertex(5, 0, 0, 4)
    assert t.mult[z1, z2] == vertex(5, 0, 0, 1)
    assert t.inv[z1] == vertex(5, 0, 0, 3)


@pytest.mark.parametrize("p,l", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_group_axioms(p, l):
    f = field_create(p, l)
    t = GroupTable(f)
    n = t.n
    assert (t.mult[0] == np.arange(n)).all()
    assert (t.mult[:, 0] == np.arange(n)).all()
    assert (t.mult[np.arange(n), t.inv] == 0).all()
    assert (t.mult[t.inv, np.arange(n)] == 0).all()
    if n <= 27:
        g = np.arange(n)
        a, b, c = (x.ravel() for x in np.meshgrid(g, g, g, indexing="ij"))
    else:
        rng = np.random.default_rng(5)
        a, b, c = (rng.integers(0, n, 10_000) for _ in range(3))
    assert (t.mult[t.mult[a, b], c] == t.mult[a, t.mult[b, c]]).all()


def test_center():
    f = field_create(3, 1)
    t = GroupTable(f)
    assert t.center_mask[vertex(3, 0, 0, 1)]
    assert not t.center_mask[vertex(3, 1, 0, 0)]
    cz = np.flatnonzero(t.center_mask)
    assert [triple(3, v)[:2] for v in cz] == [(0, 0)] * 3
    n = t.n
    # central elements commute with everything, and Zg = gZ
    assert (t.mult[np.ix_(cz, np.arange(n))] == t.mult[np.ix_(np.arange(n), cz)].T).all()
    for g in range(n):
        left = {int(t.mult[z, g]) for z in cz}
        right = {int(t.mult[g, z]) for z in cz}
        assert left == right


def test_coset_ids():
    f = field_create(3, 1)
    t = GroupTable(f)
    assert t.coset_ids[vertex(3, 0, 0, 0)] == t.coset_ids[vertex(3, 0, 0, 1)]
    assert t.coset_ids[vertex(3, 1, 0, 0)] != t.coset_ids[vertex(3, 0, 0, 0)]
    assert len(set(t.coset_ids.tolist())) == 9
    # a, b share a coset id iff a * b**-1 is central
    for a in range(t.n):
        for b in range(t.n):
            same = t.coset_ids[a] == t.coset_ids[b]
            assert same == bool(t.center_mask[t.mult[a, t.inv[b]]])


def test_vertex_indexing():
    t = GroupTable(field_create(3, 1))
    assert vertex(3, 1, 2, 0) == 1 * 9 + 2 * 3 + 0
    for v in range(t.n):
        assert t.element_to_json(v) == list(triple(3, v))
        assert vertex(3, *triple(3, v)) == v
    assert t.element_to_json(vertex(3, 1, 2, 0)) == [1, 2, 0]


def closed_form_rows(t, rows):
    """Oracle: rows of the table by the n**2-broadcast closed form through
    Field.add / Field.mul and int64 packing."""
    f, q = t.field, t.q
    ix, iy, iz = coordinates(q)
    xu, yu, zu = ix[rows, None], iy[rows, None], iz[rows, None]
    xv, yv, zv = ix[None, :], iy[None, :], iz[None, :]
    zz = f.add(f.add(zu, zv), f.mul(xu, yv))
    x, y = f.add(xu, xv).astype(np.int64), f.add(yu, yv).astype(np.int64)
    return x * q * q + y * q + zz


@pytest.mark.parametrize("p,l", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1)])
def test_table_matches_closed_form(p, l):
    f = field_create(p, l)
    t = GroupTable(f)  # the vertex cap is Construction's, so any q builds
    q, n = t.q, t.n
    assert t.mult.dtype == code_dtype(n) and t.mult.shape == (n, n)
    for start in range(0, n, q * q):  # one x1 slab at a time keeps the oracle small
        rows = np.arange(start, start + q * q)
        assert np.array_equal(t.mult[rows], closed_form_rows(t, rows))
    ix, iy, iz = coordinates(q)
    neg_x, neg_y = f.neg(ix).astype(np.int64), f.neg(iy).astype(np.int64)
    want_inv = neg_x * q * q + neg_y * q + f.sub(f.mul(ix, iy), iz)
    assert t.inv.dtype == np.int32 and np.array_equal(t.inv, want_inv)
    assert np.array_equal(t.coset_ids, ix.astype(np.int64) * q + iy)


def test_pack_is_int32_and_exact():
    """`vertex` packs index triples into vertices, in int32."""
    t = GroupTable(field_create(3, 2))
    packed = t.vertex(*coordinates(t.q))
    assert packed.dtype == np.int32 and np.array_equal(packed, np.arange(t.n))
    # the largest supported field: q**3 - 1 = 729**3 - 1 still fits in int32
    top = np.array([0, 728], dtype=np.int32)
    packed = GroupTable.vertex(SimpleNamespace(q=729), top, top, top)
    assert packed.dtype == np.int32 and packed.tolist() == [0, 729**3 - 1]


def _traced_build_peak(f):
    """The traced peak of building GroupTable(f) and reading its `mult`,
    which is built on first read."""
    tracemalloc.start()
    try:
        t = GroupTable(f)
        t.mult
        return t, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_build_holds_no_other_n2_scratch():
    t, peak = _traced_build_peak(field_create(3, 2))
    assert peak < 1.5 * t.mult.nbytes


def test_table_is_built_on_first_read():
    t = GroupTable(field_create(5, 1))
    assert "mult" not in vars(t)
    assert t.mult is t.mult


def test_table_build_at_q13_holds_one_narrow_table():
    """1.5 n**2 uint16 entries (14.5 MB) bound the q = 13 build: an n**2
    int32 array, kept or as scratch, is 19.3 MB."""
    t, peak = _traced_build_peak(field_create(13, 1))
    assert peak < 1.5 * t.n**2 * 2


@pytest.mark.parametrize("p,l", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_right_translations_are_mult_columns(p, l):
    """u -> u * h from the closed form equals column h of the table, for
    h = (t**k, 0, 0) and then (0, t**k, 0), k < l; q = 9 has l = 2."""
    t = GroupTable(field_create(p, l))
    q = t.q
    hs = [p**k * step for k in range(l) for step in (q * q, q)]
    got = t.right_translations()
    assert len(got) == 2 * l
    for s, h in zip(got, hs):
        assert s.dtype == np.int32 and np.array_equal(s, t.mult[:, h])


def _vertices_of(q, m):
    """The vertices of a stack of unitriangular matrices, asserting that
    they are unitriangular."""
    assert (m[..., [0, 1, 2], [0, 1, 2]] == 1).all() and not m[..., [1, 2, 2], [0, 0, 1]].any()
    return (m[..., 0, 1].astype(np.int64) * q + m[..., 1, 2]) * q + m[..., 0, 2]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 27])
def test_grid_maps_are_matrix_products(q):
    """The maps that `coset_affine` evaluates on the coset grid, as 3x3
    matrix products over the field at every vertex: the right translations
    multiply by the matrices of (t**k, 0, 0) and then (0, t**k, 0), `inv`
    is the matrix inverse, the row of z in `quotients` times v is z, and
    sigma is conjugation by diag(1, 1, -1).
    q = 27 has l = 3; no `mult` is read (it would be 775 MB there).  The
    coset ids, the center and `element_to_json` match the coordinates."""
    cons = Construction(q, max_vertices=q**3)
    t, f = cons.table, cons.field
    x, y, z = coordinates(q)
    m = unitriangular(f, x, y, z)
    hs = [h for k in range(f.l) for h in ((f.p**k, 0, 0), (0, f.p**k, 0))]
    steps = t.right_translations()
    assert len(steps) == len(hs) == 2 * f.l
    for s, h in zip(steps, hs):
        want = _vertices_of(q, field_matmul(f, m, unitriangular(f, *h)))
        assert s.dtype == np.int32 and np.array_equal(s, want)
    identity = np.broadcast_to(unitriangular(f, 0, 0, 0), m.shape)
    assert t.inv.dtype == np.int32 and np.array_equal(field_matmul(f, m, m[t.inv]), identity)
    points = np.array([0, 1, q, q * q + 1, t.n - 1])
    quot = t.quotients(points)   # quot[k, v] * v = points[k]
    assert quot.dtype == np.int32 and np.array_equal(quot[0], t.inv)
    want = np.broadcast_to(m[points][:, None], quot.shape + (3, 3))
    assert np.array_equal(field_matmul(f, m[quot], m), want)
    d = np.diag([f.one, f.one, f.neg(f.one)]).astype(np.int32)
    sigma = cons.sigma_perm()
    want = _vertices_of(q, field_matmul(f, field_matmul(f, d, m), d))
    assert sigma.dtype == np.int32 and np.array_equal(sigma, want)
    assert t.coset_ids.dtype == np.int32 and np.array_equal(t.coset_ids, x * q + y)
    assert np.array_equal(t.center_mask, (x == 0) & (y == 0))
    assert [t.element_to_json(v) for v in range(t.n)] == np.stack([x, y, z], axis=1).tolist()
    assert "mult" not in vars(t)
