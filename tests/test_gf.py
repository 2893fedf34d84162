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


@pytest.mark.parametrize("q", [2, 5, 8, 9, 16, 25, 27])
def test_add_arrays_matches_add(q):
    f = GF(q)
    a = np.arange(q)
    got = f.add_arrays(a[:, None], a[None, :])
    assert got.tolist() == [[f.add(x, y) for y in range(q)] for x in range(q)]


def test_eval_poly():
    f = GF(5)
    # 2 + 3x + x^2 at x = 4: 2 + 12 + 16 = 30 = 0 mod 5
    assert f.eval_poly([2, 3, 1], 4) == 0


def test_q_cap():
    with pytest.raises(ParameterError):
        GF((1 << 16) + 1)
