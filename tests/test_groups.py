import ast
import random
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import conjlab as cj
from conjlab import predicates, specio, verify
from conjlab.errors import CapExceeded
from conjlab.gf import make_field
from conjlab.groups import FiniteGroup, MatrixRep, PermutationRep, QuotientRep
from conjlab.intmath import factor

from oracles import (naive_centralizer, naive_class_of, naive_class_sizes, naive_closure,
                     naive_determinant, naive_element_order, naive_generated,
                     naive_matrix_product, naive_normal_subgroups, naive_permutation_product,
                     naive_subgroup_class_sizes, whole_group_f_scan)


def s3():
    return FiniteGroup(PermutationRep(3), ((1, 0, 2), (1, 2, 0)), name="s3")


def _as_group(sub):
    """The subgroup as a group of its own, enumerated by its own closure."""
    return FiniteGroup(sub.rep, sub.gens, max_order=len(sub))


def test_enumerate_s3():
    assert s3().order() == 6


def test_enumerate_sl23_matches_order_formula():
    g = cj.sl2(3)
    assert g.order() == 3 * (9 - 1)  # q(q^2 - 1)


def test_enumerate_q8():
    assert cj.quaternion_group().order() == 8


def test_enumeration_is_deterministic_and_closed():
    g = cj.symmetric_group(4)
    elems = g.elements()
    assert elems == cj.symmetric_group(4).elements()
    eset = set(elems)
    for a in elems[:8]:
        for b in elems[:8]:
            assert g.mul(a, b) in eset
        assert g.inv(a) in eset


def test_enumerate_cap_error_names_cap():
    g = FiniteGroup(PermutationRep(5), (tuple([1, 2, 3, 4, 0]),), max_order=3)
    with pytest.raises(CapExceeded) as exc:
        g.elements()
    assert "3" in str(exc.value)
    assert exc.value.cap == 3


def test_subgroup_closure_cap_error_names_cap():
    """A subgroup is closed inside its enumerated group, so a group over its
    cap fails at the enumeration, naming max_order."""
    g = FiniteGroup(PermutationRep(5), ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)), max_order=10)
    with pytest.raises(CapExceeded) as exc:
        g.subgroup_from_elements([(1, 2, 3, 4, 0)])
    assert "group order exceeds the configured cap of 10" in str(exc.value)
    assert exc.value.cap == 10


def test_elements_order_matches_naive_closure():
    sl = cj.sl2(5)
    for g in (cj.symmetric_group(5), sl, sl.quotient(sl.center())):
        assert g.elements() == naive_closure(g, g.generators)


def _assert_closure_matches_oracle(g, sub):
    assert set(sub.members) == set(naive_closure(g, sub.gens))
    for i, x in enumerate(sub.gens):
        assert x not in naive_closure(g, sub.gens[:i])


@pytest.mark.parametrize("name", ["sym_4", "agl1_9", "gl2_3", "type3_3_2", "sl2_5"])
def test_subgroup_closures_match_oracle(group_of, name):
    g = group_of(name)
    elems = g.elements()
    picks = [elems[7], elems[-3], elems[len(elems) // 2]]
    sub = g.subgroup_from_elements(picks)
    assert set(sub.members) == set(naive_closure(g, picks))
    _assert_closure_matches_oracle(g, sub)

    derived = g.derived_subgroup()
    commutators = {g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b))
                   for a in elems for b in elems}
    assert set(derived.members) == set(naive_closure(g, sorted(commutators)))
    _assert_closure_matches_oracle(g, derived)

    for cls in g.conjugacy_classes():
        cent = g.centralizer(cls.representative)
        assert set(cent.members) == set(naive_centralizer(g, cls.representative))
        _assert_closure_matches_oracle(g, cent)


def test_element_order():
    g = cj.symmetric_group(4)
    assert g.element_orders()[g.identity] == 1
    assert g.element_orders()[(1, 0, 2, 3)] == 2
    sl = cj.sl2(5)
    u = (1, 1, 0, 1)
    assert naive_element_order(sl, u) == 5
    assert sl.element_orders()[u] == 5


def test_element_orders_match_oracle(corpus, group_of):
    """The power walks order every element of each corpus group of order at
    most 500, and of its G/Z, as the oracle's repeated products do."""
    checked = 0
    for entry in corpus:
        g = group_of(entry.name)
        if g.order() > 500:
            continue
        for h in (g, g.quotient(g.center())):
            orders = h.element_orders()
            assert orders == {x: naive_element_order(h, x) for x in h.elements()}, entry.name
            checked += 1
    assert checked > 80


@pytest.mark.parametrize("build", [lambda: cj.dihedral_group(1000), lambda: cj.cyclic_group(500)],
                         ids=["dihedral_1000", "cyclic_500"])
def test_element_orders_within_half_a_second(build):
    """One power walk orders many classes, so the element orders of
    dihedral 1000 and cyclic 500 take under 0.5 s of CPU."""
    g = build()
    g.conjugacy_classes()
    start = time.process_time()
    orders = g.element_orders()
    assert time.process_time() - start < 0.5
    assert max(orders.values()) in (500, 1000) and len(orders) == g.order()


def test_centralizer_examples():
    g = cj.symmetric_group(4)
    t = (1, 0, 2, 3)  # the transposition (0 1)
    cent = g.centralizer(t)
    oracle = naive_centralizer(g, t)
    assert len(cent) == 4
    assert set(oracle) == set(cent.members)
    assert len(g.centralizer(g.identity)) == 24

    q8 = cj.quaternion_group()
    i = q8.generators[0]
    assert len(q8.centralizer(i)) == 4
    assert set(naive_centralizer(q8, i)) == set(q8.centralizer(i).members)


def test_centralizer_matches_oracle_everywhere():
    for g in (cj.symmetric_group(4), cj.dihedral_group(6), cj.quaternion_group(),
              cj.sl2(3)):
        for cls in g.conjugacy_classes():
            for x in sorted(cls.members):
                c = g.centralizer(x)
                assert set(c.members) == set(naive_centralizer(g, x))
                assert g.subgroup_from_elements(c.gens).members == c.members


def test_conjugacy_classes_s4():
    g = cj.symmetric_group(4)
    assert g.class_sizes() == [1, 3, 6, 6, 8]
    assert naive_class_sizes(g) == [1, 3, 6, 6, 8]


def test_conjugacy_classes_abelian():
    g = cj.cyclic_group(12)
    assert g.class_sizes() == [1] * 12


def test_conjugacy_classes_sl25():
    g = cj.sl2(5)
    # 9 classes; sizes sum to 120 (class equation)
    assert g.class_sizes() == [1, 1, 12, 12, 12, 12, 20, 20, 30]
    assert naive_class_sizes(g) == g.class_sizes()


def test_classes_sorted_and_consistent():
    g = cj.dihedral_group(8)
    classes = g.conjugacy_classes()
    keys = [(c.size, c.representative) for c in classes]
    assert keys == sorted(keys)
    n = g.order()
    assert sum(c.size for c in classes) == n
    for c in classes:
        assert n % c.size == 0
        assert c.size == len(c.members)
        assert c.size * len(g.centralizer(c.representative)) == n


def test_center_examples():
    assert len(cj.quaternion_group().center()) == 2
    assert len(s3().center()) == 1
    assert len(cj.sl2(5).center()) == 2


def test_center_equals_size_one_classes():
    for g in (cj.symmetric_group(4), cj.quaternion_group(), cj.dihedral_group(6)):
        singles = set()
        for c in g.conjugacy_classes():
            if c.size == 1:
                singles |= c.members
        assert singles == set(g.center().members)
        assert len(singles) == len(g.center())


def test_derived_subgroup_examples():
    g = cj.symmetric_group(4)
    derived = g.derived_subgroup()
    assert len(derived) == 12
    assert g.is_normal(derived)
    # quotient by it is abelian
    assert g.quotient(derived).is_abelian()

    assert len(cj.cyclic_group(12).derived_subgroup()) == 1
    sl = cj.sl2(5)
    assert len(sl.derived_subgroup()) == 120  # perfect


def test_derived_subgroup_matches_oracle(corpus, group_of):
    """G' of every corpus group and of the bundled cover against the oracle
    closure of the commutators [x, s] = (s^-1)^x s, x in G and s a generator.
    They generate the same subgroup as all commutators: by
    [xy, s] = [x, s]^y [y, s] their closure K is normal, and modulo K every
    generator is central.  The conjugates of s^-1 are its orbit under the
    generators."""
    groups = [group_of(entry.name) for entry in corpus]
    groups.append(specio.load_group_spec(verify.default_schur_cover_path()))
    perfect = 0
    for g in groups:
        mul = g.rep.mul
        moves = [(s, g.rep.inv(s)) for s in g.generators]
        comms = []
        for s, si in moves:
            orbit, seen = [si], {si}
            for y in orbit:
                for t, ti in moves:
                    z = mul(mul(ti, y), t)
                    if z not in seen:
                        seen.add(z)
                        orbit.append(z)
            comms += [mul(c, s) for c in orbit]
        derived = g.derived_subgroup()
        assert derived.members == naive_generated(g, comms), g.name
        if len(derived) == g.order():
            perfect += 1
            assert derived.gens == g.generators
    assert perfect >= 8  # alt_5, the cover and the SL2(q), q >= 4


def test_subgroup_generated():
    g = cj.symmetric_group(4)
    assert len(g.subgroup_from_elements([g.identity])) == 1
    assert len(g.subgroup_from_elements([(1, 0, 2, 3), (0, 1, 3, 2)])) == 4
    assert len(g.subgroup_from_elements(g.generators)) == 24


def test_normal_subgroups_examples():
    assert [len(s) for s in cj.symmetric_group(4).normal_subgroups()] == [1, 4, 12, 24]
    assert [len(s) for s in cj.alternating_group(5).normal_subgroups()] == [1, 60]
    assert [len(s) for s in cj.cyclic_group(6).normal_subgroups()] == [1, 2, 3, 6]


@pytest.mark.parametrize("degree", [1, 2, 3, 8, 432, 720])
def test_permutation_kernel_matches_naive_composition(degree):
    rep = PermutationRep(degree)
    rng = random.Random(degree)
    ident = rep.identity
    for _ in range(20):
        a, b = list(range(degree)), list(range(degree))
        rng.shuffle(a)
        rng.shuffle(b)
        a, b = tuple(a), tuple(b)
        ab = rep.mul(a, b)
        assert type(ab) is tuple and ab == naive_permutation_product(a, b) == rep.left(a)(b)
        ainv = rep.inv(a)
        assert type(ainv) is tuple
        assert tuple(ainv[a[i]] for i in range(degree)) == ident
        assert rep.mul(ident, a) == a and rep.mul(a, ainv) == ident
    assert cj.cyclic_group(1).order() == 1
    assert cj.to_permutation(cj.cyclic_group(1)).order() == 1


@pytest.fixture(scope="module")
def lattice_cases(corpus, group_of):
    """(name, group, naive_normal_subgroups) for every corpus group, its G/Z
    when Z(G) != 1, and agl1_9 over its trivial center."""
    cases = []
    for entry in corpus:
        g = group_of(entry.name)
        cases.append((entry.name, g))
        if len(g.center()) > 1 or entry.name == "agl1_9":
            cases.append((f"{entry.name}/Z", g.quotient(g.center())))
    return [(name, g, naive_normal_subgroups(g)) for name, g in cases]


def test_normal_subgroups_match_oracle(lattice_cases):
    for name, g, slow in lattice_cases:
        fast = g.normal_subgroups()
        assert [(s.members, s.gens) for s in fast] == \
            [(s.members, s.gens) for s in slow], name


def _subspace_count(p, k):
    """The subspaces of GF(p)^k: the sum over d of the Gaussian binomials [k, d]_p."""
    total = 0
    for d in range(k + 1):
        num = den = 1
        for i in range(d):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


@pytest.mark.parametrize("p, k, members", [(2, 5, 374), (3, 4, 212), (2, 6, 2825)])
def test_elementary_abelian_lattice(p, k, members):
    """Every subgroup of (C_p)^k is normal, so the lattice is its subspaces,
    each found once; the 2,825 of (C_2)^6 take under 5 s CPU."""
    g = cj.elementary_abelian_group(p, k)
    g.conjugacy_classes()
    start = time.process_time()
    normals = g.normal_subgroups()
    assert time.process_time() - start < 5.0
    assert len(normals) == members == _subspace_count(p, k)
    assert len({s.members for s in normals}) == members
    assert all(g.is_normal(s) for s in normals)


def _unitary_divisors(n):
    parts = [1]
    for p, e in factor(n):
        parts += [m * p ** e for m in parts]
    return sorted(parts)


def test_normal_hall_matches_lattice_oracle(lattice_cases):
    """normal_hall(m) is the oracle lattice's member of order m, whose index
    is then prime to m, or None when it has none, for every unitary divisor
    m of |G|."""
    halls = 0
    for name, g, lattice in lattice_cases:
        for m in _unitary_divisors(g.order()):
            expected = [s.members for s in lattice if len(s) == m]
            assert len(expected) <= 1, (name, m)
            hall = g.normal_hall(m)
            assert (hall and hall.members) == (expected[0] if expected else None), (name, m)
            halls += 1 < m < g.order() and hall is not None
    assert halls > 50


def test_normal_subgroups_are_normal_class_unions():
    g = cj.symmetric_group(4)
    for sub in g.normal_subgroups():
        assert g.is_normal(sub)
        for cls in g.conjugacy_classes():
            assert cls.members <= sub.members or not cls.members & sub.members


def test_quotient_sl25_center():
    g = cj.sl2(5)
    q = g.quotient(g.center())
    assert q.order() == 60
    assert q.class_sizes() == [1, 12, 12, 15, 20]  # PSL2(5), i.e. A5


def test_quotient_trivial_and_s4():
    g = cj.symmetric_group(4)
    whole = g.subgroup_from_elements(g.generators)
    assert g.quotient(whole).order() == 1
    v4 = next(s for s in g.normal_subgroups() if len(s) == 4)
    q = g.quotient(v4)
    assert q.order() == 6
    assert not q.is_abelian()  # S4/V4 is S3


def test_quotient_rejects_non_normal():
    g = cj.symmetric_group(4)
    sub = g.subgroup_from_elements([(1, 0, 2, 3)])
    with pytest.raises(ValueError):
        g.quotient(sub)


def test_quotient_rejects_subgroup_of_another_group():
    # a subgroup is a value, not a handle on its group: quotient checks that
    # its members are elements of G
    s4 = cj.symmetric_group(4)
    a4 = next(s for s in s4.normal_subgroups() if len(s) == 12)
    d4 = cj.dihedral_group(4)
    assert d4.rep.degree == 4
    with pytest.raises(ValueError, match="members outside this group"):
        d4.quotient(a4)
    sl = cj.sl2(5)
    with pytest.raises(ValueError, match="members outside this group"):
        s4.quotient(sl.center())


def test_quotient_class_sizes_divide_parent(corpus_by_name):
    # Lemma: each quotient class size divides some class size over it
    g = cj.symmetric_group(4)
    v4 = next(s for s in g.normal_subgroups() if len(s) == 4)
    q = g.quotient(v4)
    project = q.rep.coset_rep
    for x in g.elements():
        assert g.class_size(x) % q.class_size(project[x]) == 0


def test_normal_sylow_examples():
    g = cj.sl2(3)
    sub = g.normal_sylow(2)
    assert sub is not None and len(sub) == 8
    assert cj.symmetric_group(4).normal_sylow(2) is None
    c6 = cj.cyclic_group(6)
    assert len(c6.normal_sylow(3)) == 3
    with pytest.raises(ValueError):
        c6.normal_sylow(5)


def test_normal_sylow_by_count_matches_oracle(corpus, group_of):
    """normal_sylow(p) is None exactly when the oracle closure of the
    p-elements is larger than that set, for every corpus group and every
    prime p dividing |G|; and sylow_split(p) gives G = P x T exactly when
    the oracle says the p- and p'-elements split G."""
    splits = 0
    for entry in corpus:
        g = group_of(entry.name)
        orders = {x: naive_element_order(g, x) for x in g.elements()}
        for p, a in factor(g.order()):
            powers = {p ** k for k in range(a + 1)}
            pelems = {x for x in g.elements() if orders[x] in powers}
            closed = len(naive_generated(g, sorted(pelems))) == len(pelems)
            sylow = g.normal_sylow(p)
            assert (sylow is not None) == closed, (entry.name, p)
            if sylow is not None:
                assert sylow.members == pelems
            # G = P x T exactly when the p- and p'-elements each close to
            # themselves and commute
            telems = {x for x in g.elements() if orders[x] % p}
            split = closed and len(naive_generated(g, sorted(telems))) == len(telems) \
                and all(g.mul(a, b) == g.mul(b, a) for a in pelems for b in telems)
            assert (g.sylow_split(p) is not None) == split, (entry.name, p)
            if split:
                assert [s.members for s in g.sylow_split(p)] == [pelems, telems]
            splits += split
    assert splits > 20


def test_s4_two_elements_not_closed():
    # (0 1) * (0 2) is a 3-cycle, so the 2-elements of S4 are not closed
    g = cj.symmetric_group(4)
    a = (1, 0, 2, 3)
    b = (2, 1, 0, 3)
    assert g.element_orders()[g.mul(a, b)] == 3


def test_is_solvable(closures):
    """Each term of the derived series is closed inside G: once G is
    enumerated, no group is enumerated."""
    sl25 = cj.sl2(5)
    cases = [(cj.symmetric_group(4), True), (cj.alternating_group(5), False),
             (cj.heisenberg(3), True), (sl25.quotient(sl25.center()), False),
             (cj.gl2(3), True)]
    for g, _ in cases:
        g.elements()
    closures.clear()
    assert [g.is_solvable() for g, _ in cases] == [solvable for _, solvable in cases]
    assert closures == []


def _subgroup_kinds(g):
    """(kind, subgroup) for one subgroup of each kind whose own classes are
    read inside G, where G has one: the largest proper nontrivial lattice
    member, each normal Sylow subgroup, G', the centralizers of the first
    noncentral and the last class representative, 1 and G."""
    proper = [k for k in g.normal_subgroups() if 1 < len(k) < g.order()]
    if proper:
        yield "normal", proper[-1]
    for p, _ in factor(g.order()):
        if g.normal_sylow(p) is not None:
            yield "Sylow", g.normal_sylow(p)
    yield "G'", g.derived_subgroup()
    classes = g.conjugacy_classes()
    first = next(c for c in classes if c.size > 1)
    yield from (("C", g.centralizer(c.representative)) for c in (first, classes[-1]))
    yield "1", g.subgroup_from_elements([])
    yield "G", g.centralizer(g.identity)


@pytest.mark.parametrize("build", [lambda: cj.sl2(5), lambda: _mod_center(cj.sl2(5)),
                                   lambda: cj.type3_frobenius(5, 2),
                                   lambda: _mod_center(cj.type3_frobenius(5, 2))],
                         ids=["sl2_5", "sl2_5/Z", "type3_5_2", "type3_5_2/Z"])
def test_subgroup_classes_match_oracle(build):
    """A subgroup's own classes read inside G: each member's class size and
    Z(H), the members in classes of size 1, agree with conjugating H's
    members by H's members; and the first members name each class once."""
    g = build()
    kinds = set()
    for kind, sub in _subgroup_kinds(g):
        kinds.add(kind)
        sizes, firsts = g.subgroup_classes(sub)
        naive = naive_subgroup_class_sizes(g, sub)
        members = [g.elements()[p] for p in sub.positions]
        assert [naive[x] for x in members] == list(sizes), kind
        assert {x for x, s in zip(members, sizes) if s == 1} == \
            {x for x, s in naive.items() if s == 1}, kind
        covered = set()
        for i in firsts:
            cls = {g.conj(members[i], h) for h in members}
            assert not cls & covered and min(map(members.index, cls)) == i, kind
            covered |= cls
        assert covered == set(members), kind
    assert kinds >= {"G'", "C", "1", "G"}


def test_reused_centralizers_match_oracle(corpus, group_of):
    """Every centralizer that serves more than one class, closed once and
    then found again as an abelian C(y) holding a representative, holds
    exactly the elements commuting with each representative it serves: on
    every corpus group up to order 3,000 and its G/Z."""
    reused = 0
    for entry in corpus:
        g = group_of(entry.name)
        if g.order() > 3_000:
            continue
        for grp in (g, g.quotient(g.center())):
            reps = [c.representative for c in grp.conjugacy_classes() if c.size > 1]
            serves = Counter(id(grp.centralizer(x)) for x in reps)
            for x in reps:
                c = grp.centralizer(x)
                if serves[id(c)] > 1:
                    assert c.members == frozenset(naive_centralizer(grp, x)), (entry.name, x)
                    reused += 1
    assert reused > 100


def test_whole_group_is_one_value():
    """Every central element's centralizer and a perfect G's G' are one
    cached Subgroup holding all of G."""
    g = cj.cyclic_group(6)
    cents = {id(g.centralizer(x)) for x in g.elements()}
    assert len(cents) == 1 and g.centralizer(g.identity).members == frozenset(g.elements())
    a5 = cj.alternating_group(5)
    assert a5.derived_subgroup() is a5.centralizer(a5.identity)
    assert a5.derived_subgroup().gens == a5.generators


def test_is_abelian():
    assert cj.cyclic_group(6).is_abelian()
    assert not cj.quaternion_group().is_abelian()


def test_lemma2_iii_commuting_coprime():
    # C6 inside S5: x = product of a 2-cycle and 3-cycle parts
    g = cj.symmetric_group(5)
    x = (1, 0, 2, 3, 4)          # order 2
    y = (0, 1, 3, 4, 2)          # order 3, disjoint support: commutes
    assert g.mul(x, y) == g.mul(y, x)
    cxy = set(g.centralizer(g.mul(x, y)).members)
    assert cxy == set(g.centralizer(x).members) & set(g.centralizer(y).members)


def test_conjugation_equivariance():
    g = cj.symmetric_group(5)
    elems = g.elements()
    for x in elems[::37]:
        for h in elems[::41]:
            assert g.class_size(g.conj(x, h)) == g.class_size(x)
            assert len(g.centralizer(g.conj(x, h))) == len(g.centralizer(x))


def test_quotient_order_product_invariant():
    g = cj.dihedral_group(6)
    for sub in g.normal_subgroups():
        q = g.quotient(sub)
        assert q.order() * len(sub) == g.order()


def _inverts(rep, a) -> bool:
    """rep.inv(a) is a two-sided inverse, and rep.inv raises "singular"
    exactly when the oracle's determinant of a is 0; True when it inverts."""
    if naive_determinant(rep.field, rep.dim, a) == 0:
        with pytest.raises(ValueError, match="singular"):
            rep.inv(a)
        return False
    inv = rep.inv(a)
    assert rep.mul(a, inv) == rep.identity == rep.mul(inv, a)
    return True


def test_inverse_2x2_is_two_sided():
    """The 2x2 inverse on all of GL2(4) and GL2(5), and on seeded random
    matrices over GF(16), against the cofactor determinant."""
    for q in (4, 5):
        g = cj.gl2(q)
        assert all(_inverts(g.rep, a) for a in g.elements())
    rep = MatrixRep(cj.make_field(2, 4), 2)
    rng = random.Random(16)
    checked = singular = 0
    while checked < 2000:
        if _inverts(rep, tuple(rng.randrange(16) for _ in range(4))):
            checked += 1
        else:
            singular += 1
    assert singular > 0


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1)])
def test_inverse_3x3_is_two_sided(p, n):
    """The 3x3 inverse on 300 seeded random nonsingular matrices over
    GF(p^n), against the cofactor determinant; singular ones raise."""
    rep = MatrixRep(cj.make_field(p, n), 3)
    q = p ** n
    rng = random.Random(q)
    checked = singular = 0
    while checked < 300:
        if _inverts(rep, tuple(rng.randrange(q) for _ in range(9))):
            checked += 1
        else:
            singular += 1
    assert singular > 0


NAIVE_CLASS_ORDER_CAP = 2_000  # naive_class_sizes over the 5 larger corpus groups takes 6 s


def _index_space_cases(corpus, group_of):
    for entry in corpus:
        g = group_of(entry.name)
        yield entry.name, g
        yield f"{entry.name}/Z", g.quotient(g.center())
        # the smallest centralizer, as a group enumerated by its own closure
        smallest = g.centralizer(g.conjugacy_classes()[-1].representative)
        yield f"{entry.name} C(x)", _as_group(smallest)


def test_index_space_classes_match_oracle(corpus, group_of):
    """Every class is one conjugation orbit: each member x is
    representative ** t_x, with t_x read off the position transversal, and
    conjugation by each generator keeps the class; the sizes match the naive
    oracle."""
    for name, g in _index_space_cases(corpus, group_of):
        elements, index = g.elements(), g._index
        mul, inv = g.rep.mul, g.rep.inv
        gens = [(inv(h), h) for h in g.generators]
        classes = g.conjugacy_classes()
        assert sum(c.size for c in classes) == g.order(), name
        for cls in classes:
            r = cls.representative
            for x in cls.members:
                t = elements[g._transversal[index[x]]]
                assert mul(r, t) == mul(t, x), name  # x = t^-1 * r * t
                assert all(mul(mul(hi, x), h) in cls.members for hi, h in gens), name
        if g.order() <= NAIVE_CLASS_ORDER_CAP:
            assert g.class_sizes() == naive_class_sizes(g), name


def _count_kernel_calls(g) -> Counter:
    """Count kernel calls on g's representation from now on: rep.mul and
    rep.inv, keyed "mul" and "inv", and each map x -> h * x that rep.left(h)
    returns, keyed ("left", h); a mul also calls its left map."""
    calls, rep = Counter(), g.rep

    def counted(key, kernel):
        def call(*args):
            calls[key] += 1
            return kernel(*args)
        return call

    left = rep.left
    rep.mul, rep.inv = counted("mul", rep.mul), counted("inv", rep.inv)
    rep.left = lambda h: counted(("left", h), left(h))
    return calls


def _quotient_by_center():
    g = cj.sl2(5)
    return g.quotient(g.center())


def _centralizer_as_group():
    """gl2(5)'s smallest centralizer as a group: no cache preset, and its
    own closure enumerates exactly the subgroup's members."""
    g = cj.gl2(5)
    sub = g.centralizer(g.conjugacy_classes()[-1].representative)
    c = _as_group(sub)
    assert c._elements is None and c._left is None
    assert len(c.elements()) == len(sub) and set(c.elements()) == sub.members
    return c


@pytest.mark.parametrize("build", [lambda: cj.symmetric_group(5), lambda: cj.gl2(5),
                                   _quotient_by_center, _centralizer_as_group])
def test_classes_make_no_product_once_enumerated(build):
    """The right tables are read off the enumeration's left table, so once
    the group is enumerated conjugacy_classes makes no product and inverts
    nothing: for a group, a quotient and a subgroup taken as a group alike."""
    g = build()
    g.elements()
    calls = _count_kernel_calls(g)
    g.conjugacy_classes()
    assert calls == Counter()


@pytest.mark.parametrize("build", [lambda: cj.gl2(5), _quotient_by_center,
                                   _centralizer_as_group])
def test_transversal_is_rooted_at_each_representative(build):
    """Each orbit is searched from its representative, so the transversal
    maps every representative to the identity's position: for a group, a
    quotient and a subgroup taken as a group alike."""
    g = build()
    e = g._index[g.identity]
    assert [g._transversal[g._index[c.representative]] for c in g.conjugacy_classes()] \
        == [e] * len(g.conjugacy_classes())


def test_representative_centralizers_are_built_where_they_are(monkeypatch):
    """A class representative's centralizer is built at the representative,
    never transported from another member's."""
    def no_transport(self, sub, u):
        raise AssertionError("_transport called for a class representative")

    monkeypatch.setattr(FiniteGroup, "_transport", no_transport)
    for g in (cj.gl2(5), cj.symmetric_group(5), cj.agl1(9)):
        for cls in g.conjugacy_classes():
            c = g.centralizer(cls.representative)
            assert c.members == frozenset(naive_centralizer(g, cls.representative))
            assert len(c) == g.order() // cls.size


def _s4_mod_v4():
    s4 = cj.symmetric_group(4)
    return s4.quotient(next(n for n in s4.normal_subgroups() if len(n) == 4))


C4, T = (1, 2, 3, 0), (1, 0, 2, 3)
CAYLEY_EDGE_CASES = {
    "identity among the generators": lambda: FiniteGroup(PermutationRep(4), ((0, 1, 2, 3), C4, T)),
    "a repeated generator": lambda: FiniteGroup(PermutationRep(4), (C4, T, C4)),
    "a power of another generator": lambda: FiniteGroup(PermutationRep(4), (C4, (2, 3, 0, 1), T)),
    "trivial": lambda: FiniteGroup(PermutationRep(3), ()),
    "cyclic": lambda: FiniteGroup(PermutationRep(5), ((1, 2, 3, 4, 0),)),
    "quotient": _s4_mod_v4,
}


@pytest.mark.parametrize("case", list(CAYLEY_EDGE_CASES))
def test_cayley_graph_pass_edge_cases(case):
    """Generating sets the breadth-first right-table pass must survive: each
    class is the orbit the oracle finds, every member is representative **
    t_x, and each representative's centralizer is the oracle's."""
    g = CAYLEY_EDGE_CASES[case]()
    elements, index = g.elements(), g._index
    assert g.class_sizes() == naive_class_sizes(g)
    for cls in g.conjugacy_classes():
        for x in cls.members:
            assert g.conj(cls.representative, elements[g._transversal[index[x]]]) == x
        c = g.centralizer(cls.representative)
        assert c.members == frozenset(naive_centralizer(g, cls.representative))


@pytest.mark.parametrize("build", [lambda: cj.symmetric_group(5), lambda: cj.gl2(5),
                                   lambda: cj.heisenberg(5), _quotient_by_center,
                                   _centralizer_as_group] + list(CAYLEY_EDGE_CASES.values()))
def test_closure_calls_each_generator_kernel_once_per_element(build):
    """The closure makes one map x -> h * x per non-identity generator h
    (two for a generator given twice) and calls it once per element, and
    makes no other product: for a group, a quotient (on its coset kernels)
    and a subgroup taken as a group, each enumerated afresh."""
    built = build()
    g = FiniteGroup(built.rep, built.generators, max_order=built.max_order)
    gens = [h for h in g.generators if h != g.identity]
    calls = _count_kernel_calls(g)
    n = g.order()
    assert calls == Counter({("left", h): n * gens.count(h) for h in gens})


FIELDS = {2: (2, 1), 9: (3, 2), 13: (13, 1), 16: (2, 4)}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("q", list(FIELDS))
def test_matrix_kernel_matches_naive_product(q, dim):
    """rep.left(a)(b) and rep.mul(a, b) are the triple-loop product, for the
    unrolled 2 x 2 and 3 x 3 kernels and for the loop of other dimensions."""
    field = make_field(*FIELDS[q])
    rep, rng = MatrixRep(field, dim), random.Random(f"{q}x{dim}")
    mats = [rep.identity] + [tuple(rng.randrange(q) for _ in range(dim * dim))
                             for _ in range(10)]
    for a in mats:
        times = rep.left(a)
        for b in mats:
            assert times(b) == rep.mul(a, b) == naive_matrix_product(field, dim, a, b)


def test_quotient_kernel_matches_naive_product():
    """In sl2(5)/Z a product is the parent's naive product's coset."""
    q = _quotient_by_center()
    rep, elements = q.rep, q.elements()
    field = rep.parent_rep.field
    for a in elements:
        times = rep.left(a)
        for b in elements:
            assert times(b) == rep.mul(a, b) \
                == rep.coset_rep[naive_matrix_product(field, 2, a, b)]


@pytest.mark.parametrize("build", [lambda: cj.gl2(5), _quotient_by_center,
                                   _centralizer_as_group])
def test_class_positions_partition_the_group(build):
    """Each class holds its group's element list and its members' ascending
    positions in it, which map to the naive orbit of its representative; the
    classes partition the positions: for a group, a quotient and a subgroup
    taken as a group alike."""
    g = build()
    elements, seen = g.elements(), []
    for cls in g.conjugacy_classes():
        positions = list(cls.positions)
        assert cls.elements is elements and positions == sorted(positions)
        assert {elements[p] for p in positions} == naive_class_of(g, cls.representative)
        assert len(positions) == cls.size
        seen += positions
    assert sorted(seen) == list(range(g.order()))


def _closed_quotient(g, normal):
    """G/N as the parent code built it: the coset map by products, and the
    quotient enumerated by its own closure."""
    mul, coset_rep = g.rep.mul, {}
    for x in g.elements():
        if x not in coset_rep:
            coset = [mul(x, n) for n in normal.members]
            coset_rep.update(dict.fromkeys(coset, min(coset)))
    gens = tuple(dict.fromkeys(coset_rep[h] for h in g.generators))
    return FiniteGroup(QuotientRep(g.rep, coset_rep), gens, max_order=g.max_order)


def _table_quotient_cases(corpus, group_of):
    for entry in corpus:
        g = group_of(entry.name)
        yield f"{entry.name}/Z", g, g.center()
    for g in (cj.symmetric_group(4), cj.agl1(9)):
        for n in g.normal_subgroups():
            yield f"{g.name}/N{len(n)}", g, n


def test_table_quotient_matches_closed_quotient(corpus, group_of):
    """G/N read off G's left table has the coset map, elements, positions,
    left table, classes and transversal of the quotient that its own
    closure enumerates; the coset map's keys are G's own element objects."""
    for name, g, n in _table_quotient_cases(corpus, group_of):
        q, ref = g.quotient(n), _closed_quotient(g, n)
        assert q.rep.coset_rep == ref.rep.coset_rep, name
        assert {id(x) for x in q.rep.coset_rep} == {id(x) for x in g.elements()}, name
        assert q.generators == ref.generators, name
        assert q.elements() == ref.elements() and q._index == ref._index, name
        assert q._left == ref._left, name
        assert [(c.representative, c.size, c.members) for c in q.conjugacy_classes()] \
            == [(c.representative, c.size, c.members) for c in ref.conjugacy_classes()], name
        assert q._transversal == ref._transversal, name


TABLE_BUILDS = [
    lambda: cj.symmetric_group(4),
    lambda: cj.sl2(5),
    lambda: cj.agl1(9),
    lambda: _as_group(cj.gl2(5).centralizer(cj.gl2(5).generators[0])),
]


@pytest.mark.parametrize("build", TABLE_BUILDS)
def test_quotient_makes_no_product_once_classes_exist(build):
    """Once G's classes exist, quotient makes no kernel product, for every
    normal subgroup and for a subgroup-as-group too."""
    g = build()
    normals = g.normal_subgroups()
    calls = _count_kernel_calls(g)
    quotients = [g.quotient(n) for n in normals]
    assert calls == Counter()
    assert [q.order() * len(n) for q, n in zip(quotients, normals)] == [g.order()] * len(normals)


def _mod_center(g):
    return g.quotient(g.center())


@pytest.mark.parametrize("build", TABLE_BUILDS + [lambda: _mod_center(cj.gl2(3))])
def test_normal_subgroups_make_no_product_once_classes_exist(build):
    """Once G's classes exist, the normal-subgroup lattice makes no kernel
    product: class closures, joins and greedy generators all run on the
    positions of G's left table, here for a G/Z (PGL2(3), that is S4) too."""
    g = build()
    g.conjugacy_classes()
    calls = _count_kernel_calls(g)
    normals = g.normal_subgroups()
    assert calls == Counter()
    assert len(normals) > 2 and all(g.is_normal(n) for n in normals)


@pytest.mark.parametrize("build", TABLE_BUILDS + [lambda: _mod_center(cj.gl2(3))])
def test_closures_make_no_product_once_classes_exist(build):
    """Once G's classes exist, every closure inside G runs on positions and
    makes no kernel product: the centralizer of each class representative
    and of another member of each class, a subgroup from elements, the
    center, the derived series, element orders and each normal Hall
    subgroup.  Nor does any commuting test: is_abelian of G and of each
    representative's centralizer, CH, CA and F, and each Sylow split."""
    g = build()
    classes, elements = g.conjugacy_classes(), g.elements()
    picks = [elements[1], elements[-1], elements[len(elements) // 2]]
    calls = _count_kernel_calls(g)
    orders = g.element_orders()
    cents = [g.centralizer(c.representative) for c in classes]
    others = [next(x for x in sorted(c.members) if x != c.representative)
              for c in classes if c.size > 1]
    moved = [g.centralizer(x) for x in others]
    sub = g.subgroup_from_elements(picks)
    center, derived, solvable = g.center(), g.derived_subgroup(), g.is_solvable()
    halls = [g.normal_hall(m) for m in _unitary_divisors(g.order())]
    abelian, cents_abelian = g.is_abelian(), [g.is_abelian(c) for c in cents]
    ch, ca, f = predicates.is_ch(g), predicates.is_ca(g), predicates.is_f(g)
    splits = {p: g.sylow_split(p) for p, _ in factor(g.order())}
    assert calls == Counter()
    mul = g.rep.mul
    assert abelian == all(mul(a, b) == mul(b, a) for a in elements for b in elements)
    for c, ab in zip(cents, cents_abelian):
        assert ab == all(mul(a, b) == mul(b, a) for a in c.members for b in c.members)
    assert ca[0] == all(ab for c, ab in zip(classes, cents_abelian) if c.size > 1)
    assert ch[0] == all(g.class_size(y) in (1, c.size) for c in classes if c.size > 1
                        for y in naive_centralizer(g, c.representative))
    assert f == whole_group_f_scan(g)
    for split in filter(None, splits.values()):
        assert all(mul(a, b) == mul(b, a) for a in split[0].members for b in split[1].members)
    assert [len(c) for c in cents] == [g.order() // c.size for c in classes]
    for x, c in zip(others, moved):
        assert c.members == frozenset(naive_centralizer(g, x))
        assert set(naive_closure(g, c.gens)) == c.members
    assert set(sub.members) == set(naive_closure(g, picks))
    assert center.members == frozenset(c.representative for c in classes if c.size == 1)
    assert g.is_normal(derived) and solvable == (g.order() != 120)  # only SL2(5) is not
    assert halls[0].members == {g.identity} and len(halls[-1]) == g.order()
    assert orders == {x: naive_element_order(g, x) for x in elements}


def test_only_groups_reads_private_attributes():
    """Outside groups.py no module reads an attribute ``x._name`` of anything
    but ``self`` or ``cls``: a group's caches and tables stay its own."""
    src = Path(cj.__file__).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr.startswith("_") and not node.attr.endswith("__")
                    and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
                reads.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert reads == []


def test_lattice_keeps_only_class_tables():
    """The lattice composes the left table of one member per class, for the
    one call, and no table of every word prefix: on cyclic 2000, whose one
    generator spells words of up to 1999 letters, it peaks under 4 MB."""
    g = cj.cyclic_group(2000)
    g.conjugacy_classes()
    tracemalloc.start()
    try:
        normals = g.normal_subgroups()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(normals) == 20 and peak < 4_000_000


def test_centralizer_members_are_the_parents_objects():
    """Centralizers hold G's own element objects, not copies: at a class
    representative (Schreier closure) and at any other member (transport)."""
    s4 = cj.symmetric_group(4)
    for g in (cj.gl2(5), cj.symmetric_group(5), cj.agl1(9), s4.quotient(s4.normal_subgroups()[1])):
        own = {id(x) for x in g.elements()}
        for cls in g.conjugacy_classes():
            for x in (cls.representative, max(cls.members)):
                assert {id(y) for y in g.centralizer(x).members} <= own, (g, x)
