"""Exact arithmetic in small finite fields GF(p^n).

Field elements are encoded as integers in [0, p^n): the element with
coefficient vector (c0, .., c_{n-1}) (low degree first, entries reduced
mod p) has code sum(c_i * p**i).  Code 0 is zero and code 1 is one, so
prime fields behave exactly like residues mod p.  The integer encoding
is what the group engine stores inside matrix encodings, which keeps
equality and hashing cheap; :meth:`Field.coeffs` recovers the vector.

Fields here are deliberately tiny (q <= FIELD_CAP = 256): addition and
multiplication are table-driven, and the canonical modulus is found by
exhaustive search over monic polynomials.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import CapExceeded
from .intmath import is_prime

FIELD_CAP = 256


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], m: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, over Z_p."""
    a = [x % p for x in a]
    dm = len(m) - 1
    while len(_poly_trim(a)) > dm:
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        _poly_trim(a)
    return a


def _poly_mul(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division of a monic polynomial over Z_p."""
    deg = len(poly) - 1
    if deg < 1 or poly[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if not any(_poly_mod(list(poly), divisor, p)):
                return False
    return True


def smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over Z_p.

    Coefficient vectors are compared low-degree-first, which matches the
    iteration order of itertools.product.
    """
    for tail in itertools.product(range(p), repeat=n):
        poly = tuple(tail) + (1,)
        if is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {n} over GF({p})")


class Field:
    """GF(p^n) with table-driven arithmetic on integer element codes."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...] | None = None):
        # bound p and n (2^n > FIELD_CAP iff n >= FIELD_CAP.bit_length())
        # before the primality test and before p^n is formed
        if p > FIELD_CAP or n >= FIELD_CAP.bit_length():
            raise CapExceeded(f"field size {p}^{n}", FIELD_CAP)
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        q = p ** n
        if q > FIELD_CAP:
            raise CapExceeded(f"field size {p}^{n} = {q}", FIELD_CAP)
        if modulus is None:
            modulus = smallest_irreducible(p, n)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {n}")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = modulus

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of element code a, low degree first, length n."""
        out = []
        for _ in range(self.n):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs) -> int:
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        code = 0
        for c in reversed(coeffs):
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient {c} not reduced mod {self.p}")
            code = code * self.p + c
        return code

    # -- tables ------------------------------------------------------------

    @cached_property
    def _add(self) -> list[list[int]]:
        p, q = self.p, self.q
        table = []
        for a in range(q):
            ca = self.coeffs(a)
            row = [0] * q
            for b in range(q):
                cb = self.coeffs(b)
                row[b] = self.encode(tuple((x + y) % p for x, y in zip(ca, cb)))
            table.append(row)
        return table

    @cached_property
    def _mul(self) -> list[list[int]]:
        p, q = self.p, self.q
        table = []
        for a in range(q):
            ca = list(self.coeffs(a))
            row = [0] * q
            for b in range(q):
                prod = _poly_mod(_poly_mul(ca, list(self.coeffs(b)), p), self.modulus, p)
                prod += [0] * (self.n - len(prod))
                row[b] = self.encode(tuple(prod))
            table.append(row)
        return table

    @cached_property
    def _neg(self) -> list[int]:
        p = self.p
        return [self.encode(tuple((-c) % p for c in self.coeffs(a))) for a in range(self.q)]

    @cached_property
    def _inv(self) -> list[int]:
        mul = self._mul
        inv = [0] * self.q
        for a in range(1, self.q):
            row = mul[a]
            for b in range(1, self.q):
                if row[b] == 1:
                    inv[a] = b
                    break
            else:
                raise AssertionError(f"element {a} has no inverse; modulus reducible?")
        return inv

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        out = 1
        while k:
            if k & 1:
                out = self._mul[out][a]
            a = self._mul[a][a]
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        k, x = 1, a
        while x != 1:
            x = self._mul[x][a]
            k += 1
        return k

    @cached_property
    def primitive_element(self) -> int:
        """Smallest generator of the unit group, in coefficient-vector order.

        Elements are ranked by their coefficient tuples compared low degree
        first; GF(2) returns 1 (the unit group is trivial).
        """
        if self.q == 2:
            return 1
        ranked = sorted(range(1, self.q), key=self.coeffs)
        for a in ranked:
            if self.element_order(a) == self.q - 1:
                return a
        raise AssertionError("no primitive element found")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, n={self.n}, modulus={self.modulus})"


def make_field(p: int, n: int) -> Field:
    """GF(p^n) with the canonical (lexicographically smallest) modulus."""
    return Field(p, n)
