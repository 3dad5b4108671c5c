import tracemalloc
from collections import Counter

import pytest

import conjlab as cj
from conjlab import families
from conjlab.errors import CapExceeded, ConstructionError
from oracles import naive_projective_linear


def test_standard_groups():
    assert cj.build_family("sym", 4).order() == 24
    d4 = cj.build_family("dihedral", 4)
    assert d4.order() == 8
    assert cj.n_set(d4) == (2,)
    c6 = cj.build_family("cyclic", 6)
    assert c6.order() == 6 and c6.is_abelian()
    assert cj.build_family("alt", 5).order() == 60
    ea = cj.build_family("elem_abelian", 3, 2)
    assert ea.order() == 9 and ea.is_abelian()
    with pytest.raises(ValueError):
        cj.build_family("sym", 10)
    with pytest.raises(ValueError):
        cj.build_family("dihedral", 2)
    with pytest.raises(ValueError):
        cj.build_family("frobnicate", 3)


@pytest.mark.parametrize("p,expected_n", [(3, (3,)), (5, (5,))])
def test_heisenberg(p, expected_n):
    g = cj.heisenberg(p)
    assert g.order() == p ** 3
    assert cj.n_set(g) == expected_n
    assert len(g.center()) == p
    # exponent p: every nonidentity element has order p
    for c in g.conjugacy_classes():
        if c.representative != g.identity:
            assert g.element_orders()[c.representative] == p


def test_heisenberg_rejects_even_prime():
    with pytest.raises(ValueError):
        cj.heisenberg(2)


@pytest.mark.parametrize("q,order,nset", [
    (5, 120, {12, 20, 30}),     # (q^2-1)/2, q(q-1), q(q+1)
    (9, 720, {40, 72, 90}),
    (4, 60, {12, 15, 20}),      # even q: enumeration, see expected_N_linear
    (2, 6, {2, 3}),             # allowed for negative tests: SL2(2) = S3
    (3, 24, {4, 6}),
])
def test_sl2(q, order, nset):
    g = cj.sl2(q)
    assert g.order() == order
    assert set(cj.n_set(g)) == nset


@pytest.mark.parametrize("q,order,nset", [
    (5, 480, {20, 24, 30}),
    (4, 180, {12, 15, 20}),
    (3, 48, {6, 8, 12}),        # 6 and 12 are the negative-witness pair
])
def test_gl2(q, order, nset):
    g = cj.gl2(q)
    assert g.order() == order
    assert set(cj.n_set(g)) == nset
    if q == 3:
        assert {6, 12} <= set(cj.n_set(g))


@pytest.mark.parametrize("q,order,nset", [
    (5, 20, {4, 5}),
    (8, 56, {7, 8}),
    (4, 12, {3, 4}),            # isomorphic to A4
])
def test_agl1(q, order, nset):
    g = cj.agl1(q)
    assert g.order() == order
    assert set(cj.n_set(g)) == nset


def test_agl1_is_frobenius():
    g = cj.agl1(8)
    fs = cj.find_frobenius_structure(g)
    assert fs is not None
    assert len(fs.kernel) == 8
    assert fs.complement_order == 7
    assert g.is_abelian(fs.kernel)


@pytest.mark.parametrize("p,d,order,nset", [
    (7, 3, 1029, {21, 49}),
    (5, 2, 250, {10, 25}),
    (3, 2, 54, {6, 9}),
])
def test_type3_frobenius(p, d, order, nset):
    g = cj.type3_frobenius(p, d)
    assert g.order() == order
    assert set(cj.n_set(g)) == nset
    # G/Z is Frobenius with kernel p^2
    q = g.quotient(g.center())
    fs = cj.find_frobenius_structure(q)
    assert fs is not None and len(fs.kernel) == p * p


def test_type3_parameter_validation():
    with pytest.raises(ValueError):
        cj.type3_frobenius(7, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        cj.type3_frobenius(7, 1)


def test_remark_group_3():
    g = cj.remark_group(3)
    assert g.order() == 81
    assert cj.n_set(g) == (3, 9)  # {p, p^(p-1)}
    rep = cj.evaluate(g)
    assert rep.ca and not rep.sp


def test_remark_group_5():
    g = cj.remark_group(5)
    assert g.order() == 5 ** 6
    assert cj.n_set(g) == (5, 625)  # {p, p^(p-1)} at p = 5


def test_remark_group_7_exceeds_cap():
    with pytest.raises(CapExceeded):
        cj.remark_group(7)


def test_quaternion():
    g = cj.quaternion_group()
    assert g.order() == 8
    assert cj.n_set(g) == (2,)
    assert len(g.center()) == 2
    i, j = g.generators
    assert g.mul(i, j) != g.mul(j, i)


def test_direct_product_examples():
    g = cj.direct_product(cj.cyclic_group(5), cj.to_permutation(cj.heisenberg(3)))
    assert g.order() == 135
    assert cj.n_set(g) == (3,)

    h = cj.direct_product(cj.agl1(5), cj.cyclic_group(3))
    assert h.order() == 60
    assert cj.n_set(h) == (4, 5)

    trivial = cj.cyclic_group(1)
    k = cj.direct_product(cj.symmetric_group(4), trivial)
    assert k.class_sizes() == cj.symmetric_group(4).class_sizes()


def test_direct_product_class_multiset_is_pairwise_product():
    a, b = cj.symmetric_group(3), cj.dihedral_group(4)
    prod = cj.direct_product(a, b)
    expected = Counter(x * y for x in a.class_sizes() for y in b.class_sizes())
    assert Counter(prod.class_sizes()) == expected


def test_direct_product_rejects_matrix_inputs():
    with pytest.raises(ValueError):
        cj.direct_product(cj.sl2(3), cj.cyclic_group(3))


def test_to_permutation_preserves_class_multiset():
    for g in (cj.quaternion_group(), cj.heisenberg(3), cj.cyclic_group(1)):
        perm = cj.to_permutation(g)
        assert perm.order() == g.order()
        assert perm.class_sizes() == g.class_sizes()
    assert cj.to_permutation(cj.cyclic_group(1)).rep.degree == 1


def test_to_permutation_cap(monkeypatch):
    monkeypatch.setattr(families, "REGULAR_REP_CAP", 500)
    with pytest.raises(CapExceeded):
        cj.to_permutation(cj.sl2(9))


def test_constructor_order_assertion_guard():
    # build_family dispatch + arity validation
    with pytest.raises(ValueError):
        cj.build_family("sl2")
    with pytest.raises(ValueError):
        cj.build_family("nonsense", 3)
    with pytest.raises(ValueError):
        cj.build_family("sl2", 6)  # not a prime power
    g = cj.build_family("type3", 7, 3)
    assert g.order() == 1029


def test_caps_respected():
    with pytest.raises(CapExceeded):
        cj.sl2(13, max_order=1000)
    with pytest.raises(CapExceeded):
        cj.heisenberg(13, max_order=1000)
    # degree-n permutations are refused before any is built
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            cj.cyclic_group(10**6, max_order=10)
        with pytest.raises(CapExceeded):
            cj.dihedral_group(10**6, max_order=10)
        # |sym(9)| = 362,880 and |alt(9)| = 181,440 are refused up front,
        # not after enumerating up to the cap
        with pytest.raises(CapExceeded):
            cj.symmetric_group(9)
        with pytest.raises(CapExceeded):
            cj.alternating_group(9, max_order=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(CapExceeded):
        cj.symmetric_group(5, max_order=119)
    with pytest.raises(CapExceeded):
        cj.alternating_group(5, max_order=59)
    assert cj.symmetric_group(5, max_order=120).order() == 120
    assert cj.alternating_group(5, max_order=60).order() == 60
    with pytest.raises(CapExceeded):
        families.projective_linear(13, "pgl", max_order=2183)
    assert families.projective_linear(13, "psl", max_order=1092).order() == 1092


@pytest.mark.parametrize("kind", ["psl", "pgl"])
@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11])
def test_projective_linear_matches_quotient_oracle(q, kind):
    g = families.projective_linear(q, kind)
    oracle = naive_projective_linear(q, kind)
    assert g.rep.degree == q + 1
    assert g.order() == oracle.order()
    assert g.class_sizes() == oracle.class_sizes()


def test_projective_linear_rejects_bad_input():
    with pytest.raises(ValueError):
        families.projective_linear(9, "psu")
    with pytest.raises(ValueError):
        families.projective_linear(6, "psl")  # not a prime power
    assert "projective_linear" not in families.FAMILIES
