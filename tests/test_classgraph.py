import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conjlab as cj
from conjlab.classgraph import (CoverDigraph, build_gamma, class_size_set, export,
                               is_primitive, n_set)

from oracles import naive_primitive_by_sieve, naive_transitive_reduction


def test_class_size_set_examples():
    s4 = class_size_set(cj.symmetric_group(4))
    assert s4.N == (3, 6, 8)
    assert s4.sizes == (1, 3, 6, 6, 8)
    assert sum(s4.sizes) == 24  # the class equation

    ab = class_size_set(cj.cyclic_group(6))
    assert ab.N == ()

    sl = class_size_set(cj.sl2(5))
    assert sl.N == (12, 20, 30)


def test_build_gamma_examples():
    assert build_gamma({3, 6, 8}).edges == ((3, 6),)
    g = build_gamma({2, 4, 12})
    assert g.edges == ((2, 4), (4, 12))  # (2, 12) excluded by the witness 4
    assert build_gamma({72, 90, 120}).edges == ()


def test_build_gamma_rejects_small_members():
    with pytest.raises(ValueError):
        build_gamma({1, 3})
    with pytest.raises(ValueError):
        build_gamma({0, 2})


def test_is_primitive_examples():
    assert is_primitive({12, 20, 30})
    assert not is_primitive({3, 9})
    assert is_primitive({2})
    assert is_primitive(set())  # vacuously primitive


def test_export_dot_exact_bytes():
    g = build_gamma({3, 6, 8})
    assert export(g) == b"digraph Gamma {\n  3;\n  6;\n  8;\n  3 -> 6;\n}\n"
    empty = CoverDigraph((), ())
    assert export(empty) == b"digraph Gamma {\n}\n"


def test_gamma_of_group():
    g = build_gamma(n_set(cj.symmetric_group(4)))
    assert g.vertices == (3, 6, 8)
    assert g.edges == ((3, 6),)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(2, 10_000), min_size=1, max_size=8))
def test_gamma_equals_transitive_reduction_oracle(theta):
    assert set(build_gamma(theta).edges) == naive_transitive_reduction(theta)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(2, 10_000), min_size=1, max_size=8))
def test_primitivity_triple_agreement(theta):
    a = is_primitive(theta)  # internally cross-checks pairwise vs gamma
    assert a == naive_primitive_by_sieve(theta)


def test_seeded_thousand_set_oracle_run():
    rng = random.Random(20240810)
    for _ in range(1000):
        size = rng.randint(1, 8)
        theta = {rng.randint(2, 10_000) for _ in range(size)}
        assert set(build_gamma(theta).edges) == naive_transitive_reduction(theta)
        assert is_primitive(theta) == naive_primitive_by_sieve(theta)
