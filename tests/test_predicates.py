import time

import pytest

import conjlab as cj
from conjlab import predicates
from conjlab.errors import CapExceeded
from conjlab.predicates import evaluate, is_ca, is_ch, is_f, is_sp

from oracles import naive_centralizer, whole_group_f_scan


def test_rank_examples():
    assert evaluate(cj.heisenberg(3)).rank == 1
    assert evaluate(cj.cyclic_group(12)).rank == 0
    assert evaluate(cj.sl2(5)).rank == 3


def test_is_sp_examples():
    ok, witness = is_sp(cj.sl2(7))
    assert ok and witness is None

    ok, witness = is_sp(cj.remark_group(3))
    assert not ok and witness == (3, 9)

    ok, witness = is_sp(cj.symmetric_group(4))
    assert not ok and witness == (3, 6)


def test_is_ch_examples():
    ok, witness = is_ch(cj.gl2(3))
    assert ok and witness is None

    g = cj.symmetric_group(4)
    ok, witness = is_ch(g)
    assert not ok
    x, y = witness
    # the witness really is a commuting noncentral pair with different
    # centralizer orders
    assert g.mul(x, y) == g.mul(y, x)
    assert g.class_size(x) > 1 and g.class_size(y) > 1
    cx, cy = len(naive_centralizer(g, x)), len(naive_centralizer(g, y))
    assert cx != cy
    assert {cx, cy} == {4, 8}

    ok, witness = is_ch(cj.cyclic_group(6))
    assert ok and witness is None


def test_is_ca_examples():
    ok, _ = is_ca(cj.remark_group(3))
    assert ok

    g = cj.symmetric_group(4)
    ok, witness = is_ca(g)
    assert not ok
    (x,) = witness
    cent = naive_centralizer(g, x)
    assert len(cent) == 8  # the (0 1)(2 3)-style centralizer, dihedral
    assert any(g.mul(a, b) != g.mul(b, a) for a in cent for b in cent)

    ok, _ = is_ca(cj.heisenberg(3))
    assert ok
    # all noncentral centralizers have order 9 = p^2
    h = cj.heisenberg(3)
    for c in h.conjugacy_classes():
        if c.size > 1:
            assert len(naive_centralizer(h, c.representative)) == 9


def test_is_f_examples():
    g = cj.symmetric_group(4)
    ok, witness = is_f(g)
    assert not ok
    x, y = witness
    cx = set(naive_centralizer(g, x))
    cy = set(naive_centralizer(g, y))
    assert cx < cy  # proper containment
    assert (len(cx), len(cy)) == (4, 8)

    ok, witness = is_f(cj.agl1(5))
    assert ok and witness is None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_is_f_witness_matches_naive_scan(n):
    """is_f scans only C(x), and skips a representative x when no class
    size properly divides |x^G|; the witness is still the first (x, y) of
    the unfiltered scan, x over noncentral class representatives, y over
    all elements, with C(x) properly inside C(y)."""
    g = cj.symmetric_group(n)
    cent = {}

    def c(x):
        if x not in cent:
            cent[x] = frozenset(naive_centralizer(g, x))
        return cent[x]

    naive = None
    for cls in g.conjugacy_classes():
        x = cls.representative
        if cls.size == 1:
            continue
        naive = next(((x, y) for y in g.elements()
                      if c(x) < c(y) and len(c(y)) < g.order()), None)
        if naive:
            break
    assert naive is not None
    assert is_f(g) == (False, naive)


def test_is_f_matches_whole_group_scan_above_the_cap(monkeypatch, corpus, group_of):
    """With the cap lifted, the scan of C(x) gives the whole-group scan's
    flag and witness on every corpus group and on two groups above
    F_SCAN_CAP."""
    monkeypatch.setattr(predicates, "F_SCAN_CAP", 10**6)
    cases = [(e.name, group_of(e.name)) for e in corpus]
    cases += [("sym 8", cj.symmetric_group(8)), ("gl2 11", cj.gl2(11))]
    for name, g in cases:
        assert is_f(g) == whole_group_f_scan(g), name
    assert [is_f(g)[0] for _, g in cases[-2:]] == [False, True]


def test_evaluate_wide_encodings_within_0_6_seconds():
    """CH and F read class sizes by position and test commuting by walks,
    hashing no member: on dihedral 500, whose elements are 500-point image
    tuples, the four predicates take under 0.6 s of CPU once the classes
    exist."""
    g = cj.dihedral_group(500)
    g.conjugacy_classes()
    start = time.process_time()
    report = evaluate(g)
    assert time.process_time() - start < 0.6
    assert (report.sp, report.ch, report.ca, report.f, report.rank) == (False, True, True, True, 2)


def test_is_f_cap(monkeypatch):
    monkeypatch.setattr(predicates, "F_SCAN_CAP", 10)
    with pytest.raises(CapExceeded):
        is_f(cj.symmetric_group(4))


def test_sp_iff_centralizer_order_scan():
    # the internal cross-check ran without raising on a varied sample
    for g in (cj.symmetric_group(5), cj.sl2(4), cj.gl2(3), cj.dihedral_group(8),
              cj.remark_group(3), cj.agl1(7)):
        is_sp(g)


def test_inclusion_chain_on_sample():
    for g in (cj.symmetric_group(3), cj.symmetric_group(4), cj.quaternion_group(),
              cj.gl2(3), cj.agl1(5), cj.dihedral_group(8), cj.remark_group(3)):
        r = evaluate(g)
        if r.ca:
            assert r.ch
        if r.ch:
            assert r.f
        if r.sp:
            assert r.ch


def test_witness_present_iff_flag_false():
    for g in (cj.symmetric_group(4), cj.sl2(5), cj.remark_group(3)):
        r = evaluate(g)
        assert (r.sp_witness is not None) == (not r.sp)
        assert (r.ch_witness is not None) == (not r.ch)
        assert (r.ca_witness is not None) == (not r.ca)
        assert (r.f_witness is not None) == (not r.f)


def test_witnesses_deterministic():
    a = evaluate(cj.symmetric_group(4))
    b = evaluate(cj.symmetric_group(4))
    assert a == b


def test_evaluate_reports_f_none_over_cap(monkeypatch):
    monkeypatch.setattr(predicates, "F_SCAN_CAP", 10)
    r = evaluate(cj.symmetric_group(4))
    assert r.f is None and r.f_witness is None
