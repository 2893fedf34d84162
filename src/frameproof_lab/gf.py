"""Finite field arithmetic GF(p^e) for q up to 2^16.

Elements are integers 0..q-1 read as base-p digit vectors, i.e. polynomial
coefficients over GF(p) in increasing degree.  Extension fields reduce
modulo the first irreducible monic polynomial of degree e in that integer
encoding, so the field is the same on every run.

`add`, `neg`, `sub` and `mul` have one formula each, written on the digits,
that takes Python ints and broadcastable integer arrays alike: a single
element gives an int, arrays give the elementwise array.  `pow`, `inv` and
`eval_poly` take single elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParameterError

MAX_Q = 1 << 16


def factorize(q: int) -> list[tuple[int, int]]:
    """Prime factorization of q >= 2 by trial division, as ascending (p, e)."""
    if q < 2:
        raise ParameterError(f"q={q} must be >= 2")
    rest = q
    factors = []
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1
    if rest > 1:
        factors.append((rest, 1))
    return factors


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, or ParameterError if q is not a prime power."""
    factors = factorize(q)
    if len(factors) != 1:
        raise ParameterError(f"q={q} is not a prime power")
    return factors[0]


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Long division of coefficient lists (increasing degree) over GF(p)."""
    num = list(num)
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num[shift + len(den) - 1] * inv_lead % p
        if coef:
            quot[shift] = coef
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - coef * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    e = len(poly) - 1
    for deg in range(1, e // 2 + 1):
        for code in range(p**deg):
            den = _decode(code, p, deg) + [1]
            _, rem = _poly_divmod(poly, den, p)
            if rem == [0]:
                return False
    return True


def _decode(code: int | np.ndarray, p: int, length: int) -> list:
    """The lowest `length` base-p digits of code, lowest first."""
    return [code // p**i % p for i in range(length)]


@dataclass(frozen=True)
class GF:
    """The field with q = p^e elements, q <= 2^16."""

    q: int
    p: int = field(init=False)
    e: int = field(init=False)
    modulus: tuple[int, ...] = field(init=False)  # coefficients, increasing degree

    def __post_init__(self) -> None:
        if self.q > MAX_Q:
            raise ParameterError(f"q={self.q} exceeds the cap {MAX_Q}")
        p, e = factor_prime_power(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        if e == 1:
            object.__setattr__(self, "modulus", (0, 1))
            return
        for code in range(self.q):
            poly = _decode(code, p, e) + [1]
            if _is_irreducible(poly, p):
                object.__setattr__(self, "modulus", tuple(poly))
                return
        raise AssertionError("no irreducible modulus found")  # cannot happen

    def _check(self, a: int | np.ndarray) -> None:
        if isinstance(a, np.ndarray):
            bad = a[(a < 0) | (a >= self.q)]
            a = bad[0] if len(bad) else 0  # the first bad entry, in C order
        if not 0 <= a < self.q:
            raise ParameterError(f"element {a} outside field of size {self.q}")

    def _digits(self, a: int | np.ndarray) -> list:
        """The e base-p digits of a, lowest first."""
        return _decode(a, self.p, self.e)

    def _number(self, digits: list) -> int | np.ndarray:
        """The element whose base-p digits, lowest first, are `digits`."""
        return sum(d * self.p**i for i, d in enumerate(digits))

    def add(self, a: int | np.ndarray, b: int | np.ndarray) -> int | np.ndarray:
        self._check(a)
        self._check(b)
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._number([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int | np.ndarray) -> int | np.ndarray:
        self._check(a)
        return self._number([-x % self.p for x in self._digits(a)])

    def sub(self, a: int | np.ndarray, b: int | np.ndarray) -> int | np.ndarray:
        return self.add(a, self.neg(b))

    def mul(self, a: int | np.ndarray, b: int | np.ndarray) -> int | np.ndarray:
        self._check(a)
        self._check(b)
        if self.e == 1:
            return a * b % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        # reduce from the top: x^e = -(m_0 + m_1 x + ... + m_{e-1} x^{e-1})
        for top in range(2 * self.e - 2, self.e - 1, -1):
            coef = prod[top] % self.p
            for i, m in enumerate(self.modulus[:-1]):
                if m:
                    prod[top - self.e + i] -= coef * m
        return self._number([c % self.p for c in prod[: self.e]])

    def pow(self, a: int, k: int) -> int:
        """a^k for a single element a and k >= 0, by repeated squaring."""
        self._check(a)
        if k < 0:
            raise ParameterError(f"exponent {k} must be >= 0")
        result, base = 1, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a: int) -> int:
        """The inverse of a single nonzero element a."""
        self._check(a)
        if a == 0:
            raise ParameterError("zero has no inverse")
        return self.pow(a, self.q - 2)

    def eval_poly(self, coeffs: list[int], x: int) -> int:
        """Evaluate sum coeffs[i] * x^i at a single element x by Horner's rule."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc
