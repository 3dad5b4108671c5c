"""Every redundant cross-check can fire.

Each case corrupts, by monkeypatch, the one input that an
``InternalCheckError`` guards, and asserts the error and its message: a
check that compared a value with itself, or ran after the value it guards
was used, would fail its case.
"""

from array import array

import pytest

import conjlab as cj
from conjlab import classgraph, predicates
from conjlab.cli import run_command
from conjlab.errors import InternalCheckError
from conjlab.groups import ConjugacyClass, FiniteGroup, Subgroup


def _resize_class(monkeypatch, g, k, size):
    """g's class k claims size members; its members are unchanged."""
    classes = list(g.conjugacy_classes())
    c = classes[k]
    classes[k] = ConjugacyClass(c.representative, size, c.elements, c.positions)
    monkeypatch.setattr(g, "_classes", classes)


def test_schreier_centralizer_order(monkeypatch):
    """The Schreier generators are dropped: the closure stays trivial."""
    g = cj.symmetric_group(4)
    cls = g.conjugacy_classes()[-1]
    span = FiniteGroup._span
    monkeypatch.setattr(FiniteGroup, "_span",
                        lambda self, candidates, target=0, gens=None:
                        span(self, iter(()), target, gens))
    with pytest.raises(InternalCheckError,
                       match=f"Schreier centralizer has order 1, expected {24 // cls.size}"):
        g.centralizer(cls.representative)


def test_join_order(monkeypatch):
    """An involution's class of V4 claims no member: the joins with its
    closure miss |A||B|/|A & B|, although each closure's greedy generators
    still match its classes."""
    g = cj.elementary_abelian_group(2, 2)
    _resize_class(monkeypatch, g, 3, 0)
    with pytest.raises(InternalCheckError,
                       match=r"join has order 3, expected \|A\|\|B\|/\|A & B\| = 4"):
        g.normal_subgroups()


def test_greedy_closure_order(monkeypatch):
    """S3's 3-cycle class claims a third member: its normal closure A3 is
    counted as 4."""
    g = cj.symmetric_group(3)
    _resize_class(monkeypatch, g, 1, 3)
    with pytest.raises(InternalCheckError, match="greedy closure has order 3, its classes 4"):
        g.normal_subgroups()


def test_normal_sylow_closure(monkeypatch):
    """In C6 an element of order 3 claims order 2 and the involution order 3:
    the two 2-elements by count close to the subgroup of order 3."""
    g = cj.cyclic_group(6)
    orders = dict(g.element_orders())
    two = next(x for x, o in orders.items() if o == 2)
    three = next(x for x, o in orders.items() if o == 3)
    orders[two], orders[three] = 3, 2
    monkeypatch.setattr(g, "_orders", orders)
    with pytest.raises(InternalCheckError,
                       match="the 2 2-elements close to a subgroup of order 3"):
        g.normal_sylow(2)


def test_quotient_order_product():
    """The identity and S3's transpositions are a union of classes but not a
    subgroup: the coset pass cannot tile S3 with them, whether G/N is built
    or only its cosets are numbered."""
    g = cj.symmetric_group(3)
    classes = g.conjugacy_classes()
    fake = classes[0].members | classes[2].members
    positions = array("i", (p for p, x in enumerate(g.elements()) if x in fake))
    with pytest.raises(InternalCheckError,
                       match="quotient order times subgroup order != group order"):
        g.quotient(Subgroup(g.rep, g.elements(), positions, tuple(sorted(fake))))
    with pytest.raises(InternalCheckError,
                       match="quotient order times subgroup order != group order"):
        g.cosets(Subgroup(g.rep, g.elements(), positions, tuple(sorted(fake))))


def test_sp_primitivity_against_centralizer_orders(monkeypatch):
    """Primitivity of N(G) reads the opposite of the centralizer-order scan."""
    is_primitive = predicates.is_primitive
    monkeypatch.setattr(predicates, "is_primitive", lambda theta: not is_primitive(theta))
    with pytest.raises(InternalCheckError,
                       match=r"SP disagreement on N=\(2, 3\): primitive=False, pairs=True"):
        predicates.is_sp(cj.symmetric_group(3))


def test_class_equation(monkeypatch):
    """One class size is lost from S4's class equation."""
    g = cj.symmetric_group(4)
    sizes = g.class_sizes()
    monkeypatch.setattr(g, "class_sizes", lambda: sizes[:-1])
    with pytest.raises(InternalCheckError,
                       match=f"class sizes sum to {24 - sizes[-1]}, order is 24"):
        classgraph.class_size_set(g)


def _spurious_edge(monkeypatch):
    """build_gamma adds the edge first -> last to every digraph."""
    build_gamma = classgraph.build_gamma

    def with_edge(members):
        graph = build_gamma(members)
        vs = graph.vertices
        return classgraph.CoverDigraph(vs, graph.edges + ((vs[0], vs[-1]),))

    monkeypatch.setattr(classgraph, "build_gamma", with_edge)


def test_primitivity_against_gamma(monkeypatch):
    _spurious_edge(monkeypatch)
    with pytest.raises(InternalCheckError,
                       match=r"primitivity disagreement on \[12, 20, 30\]: "
                             r"pairwise=True, gamma=False"):
        classgraph.is_primitive([12, 20, 30])


def test_internal_error_exits_2_without_traceback(monkeypatch, capsys):
    _spurious_edge(monkeypatch)
    assert run_command(["gamma", "12,20,30"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: primitivity disagreement")
    assert "Traceback" not in err
