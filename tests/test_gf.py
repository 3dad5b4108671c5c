import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlab.errors import CapExceeded
from conjlab.gf import Field, is_irreducible, make_field


def brute_force_irreducible_quadratics(p):
    """Oracle: a monic quadratic over Z_p is irreducible iff it has no root."""
    out = []
    for c0, c1 in itertools.product(range(p), repeat=2):
        if all((x * x + c1 * x + c0) % p for x in range(p)):
            out.append((c0, c1, 1))
    return out


def test_gf4_canonical_modulus():
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1, the only irreducible quadratic


def test_prime_field_modulus_is_x():
    f = make_field(5, 1)
    assert f.modulus == (0, 1)
    assert f.q == 5


def test_gf9_modulus_matches_brute_force_minimum():
    f = make_field(3, 2)
    quads = brute_force_irreducible_quadratics(3)
    assert f.modulus in quads
    # lexicographically smallest, comparing coefficients low degree first
    assert f.modulus == min(quads)


def test_make_field_is_deterministic():
    assert make_field(3, 2).modulus == make_field(3, 2).modulus
    assert make_field(2, 4) == make_field(2, 4)


def test_arith_examples():
    f5 = make_field(5, 1)
    assert f5.add(2, 4) == 1
    f4 = make_field(2, 2)
    x, x1 = f4.encode((0, 1)), f4.encode((1, 1))
    assert f4.mul(x, x1) == 1  # x * (x + 1) = x^2 + x = 1 mod x^2+x+1
    f7 = make_field(7, 1)
    # oracle: the unique b with 5*b = 3 mod 7
    expected = next(b for b in range(7) if (5 * b) % 7 == 3)
    assert expected == 2
    assert f7.mul(3, f7.inv(5)) == 2


def test_division_errors():
    f = make_field(5, 1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_primitive_element_examples():
    f5 = make_field(5, 1)
    # oracle: multiplicative orders mod 5 computed directly
    orders = {a: next(k for k in range(1, 5) if pow(a, k, 5) == 1) for a in (1, 2, 3, 4)}
    assert orders[2] == 4 and orders[1] == 1
    assert f5.primitive_element == 2

    assert make_field(2, 1).primitive_element == 1  # trivial unit group

    f4 = make_field(2, 2)
    assert f4.primitive_element == f4.encode((0, 1))  # x has order 3
    assert f4.element_order(f4.primitive_element) == 3


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_primitive_element_order_is_group_order(p, n):
    f = make_field(p, n)
    alpha = f.primitive_element
    assert f.element_order(alpha) == f.q - 1
    # no smaller positive power is 1
    acc = alpha
    for _ in range(f.q - 3):
        assert acc != 1 or f.q == 2
        acc = f.mul(acc, alpha)


@pytest.mark.parametrize("p,n", [(5, 1), (2, 2), (3, 2), (2, 3)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms(p, n, data):
    f = make_field(p, n)
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    c = data.draw(st.integers(0, f.q - 1))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1
        assert f.mul(f.mul(a, b), f.inv(a)) == b
    assert f.sub(f.add(a, b), b) == a


def test_encode_coeffs_roundtrip():
    f = make_field(3, 2)
    for code in range(f.q):
        assert f.encode(f.coeffs(code)) == code
    with pytest.raises(ValueError):
        f.encode((3, 0))  # unreduced
    with pytest.raises(ValueError):
        f.encode((1,))  # wrong length


def test_field_validation_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        make_field(6, 2)
    with pytest.raises(CapExceeded):
        make_field(2, 9)  # 512 > 256 default cap
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 is reducible
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(1, 1))  # wrong degree


def test_is_irreducible_brute_force_agreement():
    for p in (2, 3, 5):
        quads = brute_force_irreducible_quadratics(p)
        for c0, c1 in itertools.product(range(p), repeat=2):
            assert is_irreducible((c0, c1, 1), p) == ((c0, c1, 1) in quads)
