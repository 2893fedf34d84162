import random

import numpy as np
import pytest

from frameproof_lab.core import ParameterError
from frameproof_lab.gf import GF, factor_prime_power


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(1024) == (2, 10)
    for bad in (6, 12, 100):
        with pytest.raises(ParameterError):
            factor_prime_power(bad)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms(q):
    f = GF(q)
    rng = random.Random(q)
    els = range(q)
    for _ in range(300):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    assert all(f.mul(1, a) == a for a in els)
    assert all(f.mul(0, a) == 0 for a in els)


def test_canonical_moduli():
    # deterministic least irreducible in the integer encoding
    assert GF(4).modulus == (1, 1, 1)       # x^2 + x + 1
    assert GF(8).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert GF(9).modulus == (1, 0, 1)       # x^2 + 1
    assert GF(16).modulus == (1, 1, 0, 0, 1)


def test_inverse_of_zero():
    with pytest.raises(ParameterError):
        GF(5).inv(0)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ParameterError):
        GF(7).pow(3, -1)
    assert GF(7).pow(3, 0) == 1 and GF(7).pow(0, 0) == 1


# The scalar arithmetic GF had before its operations ran on arrays: digit
# loops for add and neg, and a polynomial product reduced by long division.
# It is the reference for the one formula per operation that GF now has.


def _ref_digits(a, p, e):
    out = []
    for _ in range(e):
        out.append(a % p)
        a //= p
    return out


def _ref_number(digits, p):
    val = 0
    for d in reversed(digits):
        val = val * p + d
    return val


def _ref_add(f, a, b):
    da, db = _ref_digits(a, f.p, f.e), _ref_digits(b, f.p, f.e)
    return _ref_number([(x + y) % f.p for x, y in zip(da, db)], f.p)


def _ref_neg(f, a):
    return _ref_number([(-x) % f.p for x in _ref_digits(a, f.p, f.e)], f.p)


def _ref_mul(f, a, b):
    da, db = _ref_digits(a, f.p, f.e), _ref_digits(b, f.p, f.e)
    prod = [0] * (2 * f.e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % f.p
    # long division by the monic modulus; the remainder is the product
    den = list(f.modulus)
    for shift in range(len(prod) - len(den), -1, -1):
        coef = prod[shift + len(den) - 1]
        for i, d in enumerate(den):
            prod[shift + i] = (prod[shift + i] - coef * d) % f.p
    return _ref_number(prod[: f.e], f.p)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 64, 81, 121, 125])
def test_ops_match_reference_on_full_grids(q):
    f = GF(q)
    a = np.arange(q)
    grid = [(x, y) for x in range(q) for y in range(q)]
    assert f.add(a[:, None], a[None, :]).ravel().tolist() == [_ref_add(f, x, y) for x, y in grid]
    assert f.mul(a[:, None], a[None, :]).ravel().tolist() == [_ref_mul(f, x, y) for x, y in grid]
    assert f.neg(a).tolist() == [_ref_neg(f, x) for x in range(q)]
    # single elements give Python ints with the same values
    rng = random.Random(q)
    for x, y in rng.sample(grid, min(len(grid), 200)):
        for got, want in ((f.add(x, y), _ref_add(f, x, y)), (f.mul(x, y), _ref_mul(f, x, y)),
                          (f.neg(x), _ref_neg(f, x)), (f.sub(x, y), _ref_add(f, x, _ref_neg(f, y)))):
            assert type(got) is int and got == want


@pytest.mark.parametrize("q", [7, 9, 16])
def test_ops_broadcast_column_by_row(q):
    f = GF(q)
    col = np.arange(q)[:, None]
    row = np.array([[1, q - 1, 0, 2]])
    for op, ref in ((f.add, _ref_add), (f.mul, _ref_mul)):
        got = op(col, row)
        assert got.shape == (q, 4)
        assert got.tolist() == [[ref(f, x, y) for y in row[0].tolist()] for x in range(q)]


@pytest.mark.parametrize("bad", [-1, 9])
def test_array_error_names_first_bad_entry(bad):
    f = GF(9)
    a = np.array([[0, 1, 2], [3, bad, 8], [bad, 7, 6]])
    for call in (lambda: f.add(a, 1), lambda: f.mul(2, a), lambda: f.neg(a)):
        with pytest.raises(ParameterError) as err:
            call()
        assert str(err.value) == f"element {bad} outside field of size 9"
    with pytest.raises(ParameterError):
        f.mul(bad, 1)


def test_eval_poly():
    f = GF(5)
    # 2 + 3x + x^2 at x = 4: 2 + 12 + 16 = 30 = 0 mod 5
    assert f.eval_poly([2, 3, 1], 4) == 0


def test_q_cap():
    with pytest.raises(ParameterError):
        GF((1 << 16) + 1)
