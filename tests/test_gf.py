import numpy as np
import pytest

from ddwl.gf import field_create

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]


def brute_modulus(p, l):
    """Oracle: lexicographically first monic degree-l polynomial without a
    proper monic divisor, by exhaustive polynomial division over GF(p)."""

    def poly_mod(a, b):
        a = list(a)
        while len(a) >= len(b):
            c = a[-1] % p
            if c:
                for k in range(len(b)):
                    a[len(a) - len(b) + k] = (a[len(a) - len(b) + k] - c * b[k]) % p
            a.pop()
        return a

    def monic_polys(d):
        import itertools

        for tail in itertools.product(range(p), repeat=d):
            yield list(tail) + [1]

    for tail in np.ndindex(*([p] * l)):
        cand = list(tail) + [1]
        ok = True
        for d in range(1, l // 2 + 1):
            for div in monic_polys(d):
                if not any(poly_mod(cand, div)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return tuple(cand)
    raise AssertionError("no irreducible candidate")


def test_canonical_modulus_prime_field():
    f = field_create(3, 1)
    assert f.spec.modulus == (0, 1)  # the polynomial t


def test_canonical_modulus_f9_matches_scan_oracle():
    assert brute_modulus(3, 2) == (1, 0, 1)  # t**2 + 1
    f = field_create(3, 2)
    assert f.spec.modulus == (1, 0, 1)


def test_canonical_modulus_f25_matches_scan_oracle():
    f = field_create(5, 2)
    assert f.spec.modulus == brute_modulus(5, 2) == (1, 1, 1)  # t**2 + t + 1


def test_canonical_modulus_f27_matches_scan_oracle():
    f = field_create(3, 3)
    assert f.spec.modulus == brute_modulus(3, 3) == (1, 0, 2, 1)  # t**3 + 2t**2 + 1


def test_field_create_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field_create(2, 1)
    with pytest.raises(ValueError):
        field_create(9, 1)
    with pytest.raises(ValueError):
        field_create(15, 1)
    with pytest.raises(ValueError):
        field_create(3, 0)
    with pytest.raises(ValueError):
        field_create(3, 7)  # 3**7 > 729


def test_arithmetic_examples():
    assert field_create(3, 1).mul(2, 2) == 1  # 4 = 1 mod 3
    f9 = field_create(3, 2)
    t = 3  # the index of t: coefficients (0, 1)
    assert f9.coeff_rows[t].tolist() == [0, 1]
    assert f9.mul(t, t) == 2  # t**2 = -1 = 2 under t**2 + 1


@pytest.mark.parametrize("p,l", FIELDS)
def test_additive_identity(p, l):
    f = field_create(p, l)
    a = np.arange(f.q)
    assert np.array_equal(f.add(a, 0), a) and np.array_equal(f.add(0, a), a)


@pytest.mark.parametrize("p,l", FIELDS)
def test_field_axioms_exhaustive(p, l):
    f = field_create(p, l)
    a = np.arange(f.q)
    x, y = a[:, None], a[None, :]
    assert (f.add(x, y) == f.add(y, x)).all()
    assert (f.mul(x, y) == f.mul(y, x)).all()
    u, v, w = np.meshgrid(a, a, a, indexing="ij")
    assert (f.add(f.add(u, v), w) == f.add(u, f.add(v, w))).all()
    assert (f.mul(f.mul(u, v), w) == f.mul(u, f.mul(v, w))).all()
    assert (f.mul(u, f.add(v, w)) == f.add(f.mul(u, v), f.mul(u, w))).all()
    assert (f.mul(a, 1) == a).all()
    assert (f.add(a, f.neg(a)) == 0).all()


@pytest.mark.parametrize("p,l", FIELDS)
def test_inverses(p, l):
    f = field_create(p, l)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_inverse_examples():
    assert field_create(3, 1).inv(2) == 2
    assert field_create(5, 1).inv(2) == 3


@pytest.mark.parametrize("p,l", FIELDS)
def test_squares_against_enumeration_oracle(p, l):
    f = field_create(p, l)
    squares = {int(f.mul(a, a)) for a in range(f.q)}
    for a in range(f.q):
        assert f.is_square(a) == (a in squares)
    assert sum(1 for a in range(1, f.q) if f.is_square(a)) == (f.q - 1) // 2


def test_square_examples():
    f3 = field_create(3, 1)
    assert f3.is_square(0)
    assert not f3.is_square(2)
    assert field_create(5, 1).is_square(4)


def test_find_nonsquare_values():
    assert field_create(3, 1).nonsquare() == 2
    assert field_create(5, 1).nonsquare() == 2
    # F9 squares enumerate to {0, 1, 2, t, 2t}; the first nonsquare is 1 + t
    f9 = field_create(3, 2)
    squares = {int(f9.mul(a, a)) for a in range(9)}
    assert squares == {0, 1, 2, 3, 6}
    assert f9.nonsquare() == 4
    assert f9.coeff_rows[4].tolist() == [1, 1]
    # -1 is a nonsquare in GF(27), 27 = 3 mod 4, so the least one lies in GF(3)
    f27 = field_create(3, 3)
    assert f27.nonsquare() == 2
    assert f27.coeff_rows[2].tolist() == [2, 0, 0]


@pytest.mark.parametrize("p,l", FIELDS)
def test_element_index_round_trip(p, l):
    f = field_create(p, l)
    assert f.coeff_rows.shape == (f.q, l)
    for index in range(f.q):
        coeffs = f.coeff_rows[index]
        assert ((0 <= coeffs) & (coeffs < p)).all()
        assert index == sum(int(c) * p**k for k, c in enumerate(coeffs))


def test_negation_and_subtraction():
    f = field_create(7, 1)
    for a in range(7):
        assert f.add(a, f.neg(a)) == 0
        for b in range(7):
            assert f.sub(a, b) == f.add(a, f.neg(b))
    assert f.neg(3) == 4


def test_field_json_shape():
    f = field_create(3, 2)
    assert f.to_json() == {"p": 3, "l": 2, "modulus": [1, 0]}
