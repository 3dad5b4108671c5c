"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own shortcuts: closures search
from the identity every time, centralizers scan every element, conjugacy
classes conjugate by every element, and the transitive reduction walks
paths in the full divisibility digraph, and the normal-subgroup lattice
closes every conjugacy class and every pairwise join.
"""

from __future__ import annotations


def naive_closure(group, gens):
    """Subgroup generated by gens: breadth-first from the identity, each
    element multiplied on the left by every generator, from scratch."""
    mul = group.rep.mul
    ident = group.rep.identity
    members = [ident]
    seen = {ident}
    i = 0
    while i < len(members):
        x = members[i]
        i += 1
        for g in gens:
            y = mul(g, x)
            if y not in seen:
                seen.add(y)
                members.append(y)
    return members


def naive_generated(group, elements):
    """Member set of the subgroup the elements generate: naive_closure of a
    growing list of those not yet reached, closed anew from the identity each time."""
    gens, members = [], {group.rep.identity}
    for x in elements:
        if x not in members:
            gens.append(x)
            members = set(naive_closure(group, gens))
    return members


def naive_centralizer(group, x):
    mul = group.rep.mul
    return [y for y in group.elements() if mul(x, y) == mul(y, x)]


def naive_class_of(group, x):
    conj = group.conj
    return {conj(x, g) for g in group.elements()}


def naive_class_sizes(group):
    """Sorted sizes of the classes {g^-1 * x * g}, each conjugate made with
    rep.mul from scratch and each element inverted once."""
    mul, inv = group.rep.mul, group.rep.inv
    by = [(inv(g), g) for g in group.elements()]
    seen = set()
    sizes = []
    for x in group.elements():
        if x in seen:
            continue
        cls = {mul(mul(gi, x), g) for gi, g in by}
        seen |= cls
        sizes.append(len(cls))
    return sorted(sizes)


def naive_subgroup_class_sizes(group, sub):
    """The size of each member's class in the subgroup sub itself, by
    member: its conjugates h^-1 * x * h by every member h of sub, each made
    with rep.mul from scratch."""
    mul, inv = group.rep.mul, group.rep.inv
    members = sub.members
    by = [(inv(h), h) for h in members]
    return {x: len({mul(mul(hi, x), h) for hi, h in by}) for x in members}


def naive_determinant(field, dim, a):
    """Determinant of the flat row-major dim x dim matrix a over field, by
    cofactor expansion along the first row: no division, no elimination."""
    if dim == 1:
        return a[0]
    det = 0
    for j in range(dim):
        minor = [a[r * dim + c] for r in range(1, dim) for c in range(dim) if c != j]
        term = field.mul(a[j], naive_determinant(field, dim - 1, minor))
        det = field.sub(det, term) if j % 2 else field.add(det, term)
    return det


def naive_matrix_product(field, dim, a, b):
    """a * b for flat row-major dim x dim matrices over field: a triple loop
    over field.add and field.mul."""
    out = []
    for i in range(dim):
        for j in range(dim):
            s = 0
            for k in range(dim):
                s = field.add(s, field.mul(a[i * dim + k], b[k * dim + j]))
            out.append(s)
    return tuple(out)


def naive_permutation_product(a, b):
    """a, then b, for permutations as image tuples: i goes to b[a[i]]."""
    return tuple(b[a[i]] for i in range(len(a)))


def naive_element_order(group, x):
    mul = group.rep.mul
    ident = group.rep.identity
    k, y = 1, x
    while y != ident:
        y = mul(y, x)
        k += 1
    return k


def whole_group_f_scan(group):
    """F's (flag, witness) by a scan of all of G: x over noncentral class
    representatives, y over G in element order, kept when |C(y)| is a
    proper multiple of |C(x)|, |y^G| > 1, and y commutes with every member
    of C(x)."""
    mul, n = group.rep.mul, group.order()
    for cls in group.conjugacy_classes():
        if cls.size == 1:
            continue
        x = cls.representative
        sizes = {s for s in group.class_sizes()
                 if s != 1 and s != cls.size and (n // s) % (n // cls.size) == 0}
        if not sizes:
            continue
        cx_members = group.centralizer(x).members
        for y in group.elements():
            if group.class_size(y) in sizes and all(mul(z, y) == mul(y, z) for z in cx_members):
                return False, (x, y)
    return True, None


def naive_normal_subgroups(group):
    """Normal subgroups as join-closed unions of classes: one closure per
    conjugacy class, then pairwise joins until nothing new appears, sorted
    by (order, member encodings).  Each is returned with the greedy
    generators of subgroup_from_elements over its members in G's element
    order."""
    pool = {}

    def add(sub):
        if sub.members in pool:
            return False
        pool[sub.members] = sub
        return True

    def in_element_order(members):
        return [x for x in group.elements() if x in members]

    for cls in group.conjugacy_classes():
        add(group.subgroup_from_elements(in_element_order(cls.members)))
    changed = True
    while changed:
        changed = False
        subs = list(pool.values())
        for i, a in enumerate(subs):
            for b in subs[i + 1:]:
                if a.members <= b.members or b.members <= a.members:
                    continue
                join = group.subgroup_from_elements(in_element_order(a.members | b.members))
                if add(join):
                    changed = True
    return [group.subgroup_from_elements(in_element_order(s.members))
            for s in sorted(pool.values(), key=lambda s: (len(s), sorted(s.members)))]


def image_set_centralizer_image(group, quot, x):
    """(inside, equal) for the image of C_G(x) in G/K = quot, built member by
    member: whether it lies in C_{G/K}(xbar), and whether it is all of it."""
    project = quot.rep.coset_rep
    cq = quot.centralizer(project[x]).members
    image = {project[c] for c in group.centralizer(x).members}
    return image <= cq, image == cq


def full_divisibility_digraph(members):
    members = sorted(set(members))
    return members, {(a, b) for a in members for b in members
                     if a != b and b % a == 0}


def naive_transitive_reduction(members):
    """Generic path-based reduction: drop (u, v) whenever v is reachable
    from u along at least two edges of the full digraph."""
    nodes, edges = full_divisibility_digraph(members)
    succ = {n: [b for (a, b) in edges if a == n] for n in nodes}
    reduced = set()
    for (u, v) in edges:
        stack = [w for w in succ[u] if w != v]
        seen = set(stack)
        long_path = False
        while stack:
            w = stack.pop()
            if w == v:
                long_path = True
                break
            for nxt in succ[w]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if not long_path:
            reduced.add((u, v))
    return reduced


def naive_primitive_by_sieve(members):
    """Third primitivity implementation: mark multiples with a sieve."""
    members = sorted(set(members))
    mset = set(members)
    for a in members:
        m = 2 * a
        top = members[-1]
        while m <= top:
            if m in mset:
                return False
            m += a
    return True


def naive_projective_linear(q, kind):
    """PSL2(q) ("psl") or PGL2(q) ("pgl") as a quotient of a matrix group:
    all of SL2(q) or GL2(q) enumerated, then divided by its center."""
    from conjlab import families

    base = families.sl2(q) if kind == "psl" else families.gl2(q)
    return base.quotient(base.center())
