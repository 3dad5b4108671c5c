"""Finite groups given by generators: enumeration, conjugacy classes,
centralizers, centers, quotients, derived and normal subgroups.

Elements are canonical encodings: a permutation of [0, degree) is its
image tuple, a d x d matrix over GF(q) is the flat row-major tuple of
integer field codes (see conjlab.gf), and a coset in a quotient group is
the encoding of its minimal member in the parent.  Products compose left
to right: mul(a, b) applies a first, then b, and x ** g means g^-1 * x * g.
A Subgroup is a value (representation, members, generators), and a
quotient's representation holds the parent's representation, not the parent
group: nothing refers back up the group hierarchy, so reference counting
alone frees a group with everything built from it.

Everything is desk scale by design.  One routine, FiniteGroup._closure,
grows every element set: it extends a closed subgroup in place by new
generators (Dimino's idea).  Every group, a subgroup taken as a group too,
is the breadth-first closure of its generators from the identity, and the
subgroups built one generator at a time (greedy generating sets, Schreier
centralizers, the derived subgroup) never re-close what they already hold.

Conjugacy classes are conjugation orbits over element positions.  The
enumeration keeps the position of g * x for each element x and generator g
(the left table).  The right table, x * g, follows from it with no product:
x = a * y gives x * g = a * (y * g), so one breadth-first pass over the left
Cayley graph from the identity fills it.  Conjugation by g is then two
integer lookups and the transversal is positions too (t_z = t_y * g is a
lookup).  Each class representative's centralizer is built there from
Schreier generators once per class, each conjugated over from the orbit
seed.  The left table is kept: G/N is read off it with no product, since
g * xN = (g * x)N.  A closure inside an enumerated group stores G's own
element objects.

A question is settled by a count over the classes before anything is
closed, and closed only when the count cannot settle it:

- a normal Hall subgroup (a normal Sylow subgroup or p-complement, a
  Frobenius kernel) is the set of elements whose order divides its order,
  so it is closed only when those elements number that order;
- the center is the size-1 classes, with no products;
- the derived subgroup grows its basis only by commutators and conjugates
  outside its closure, and is G itself, with G's generators, once the
  closure reaches |G|;
- normal subgroups, which only verify's lemma suites use, are the normal
  closures of one class per rational class, joined pairwise, each keyed by
  the bitmask of its classes so that |AB| = |A||B|/|A & B| is known first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter

from .errors import CapExceeded, InternalCheckError
from .gf import Field
from .intmath import p_part

DEFAULT_MAX_ORDER = 200_000


class PermutationRep:
    """Permutations of [0, degree) encoded as image tuples."""

    kind = "permutation"

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.identity = tuple(range(degree))

    def mul(self, a, b):
        if len(a) == 1:
            return b
        return itemgetter(*a)(b)

    def inv(self, a):
        out = [0] * len(a)
        for i, ai in enumerate(a):
            out[ai] = i
        return tuple(out)

    def validate(self, enc) -> None:
        if len(enc) != self.degree or sorted(enc) != list(range(self.degree)):
            raise ValueError(f"{enc} is not a bijection on [0, {self.degree})")

    def describe(self, enc):
        return list(enc)

    def __repr__(self):
        return f"PermutationRep(degree={self.degree})"


class MatrixRep:
    """Invertible dim x dim matrices over a Field, flat row-major encodings."""

    kind = "matrix"

    def __init__(self, field: Field, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.field = field
        self.dim = dim
        ident = [0] * (dim * dim)
        for i in range(dim):
            ident[i * dim + i] = 1
        self.identity = tuple(ident)

    def mul(self, a, b):
        f = self.field
        mul, add = f._mul, f._add
        d = self.dim
        if d == 2:
            a0, a1, a2, a3 = a
            b0, b1, b2, b3 = b
            return (add[mul[a0][b0]][mul[a1][b2]], add[mul[a0][b1]][mul[a1][b3]],
                    add[mul[a2][b0]][mul[a3][b2]], add[mul[a2][b1]][mul[a3][b3]])
        if d == 3:
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
            b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
            return (
                add[add[mul[a0][b0]][mul[a1][b3]]][mul[a2][b6]],
                add[add[mul[a0][b1]][mul[a1][b4]]][mul[a2][b7]],
                add[add[mul[a0][b2]][mul[a1][b5]]][mul[a2][b8]],
                add[add[mul[a3][b0]][mul[a4][b3]]][mul[a5][b6]],
                add[add[mul[a3][b1]][mul[a4][b4]]][mul[a5][b7]],
                add[add[mul[a3][b2]][mul[a4][b5]]][mul[a5][b8]],
                add[add[mul[a6][b0]][mul[a7][b3]]][mul[a8][b6]],
                add[add[mul[a6][b1]][mul[a7][b4]]][mul[a8][b7]],
                add[add[mul[a6][b2]][mul[a7][b5]]][mul[a8][b8]],
            )
        out = []
        for i in range(d):
            row = a[i * d:(i + 1) * d]
            for j in range(d):
                s = 0
                for k in range(d):
                    s = add[s][mul[row[k]][b[k * d + j]]]
                out.append(s)
        return tuple(out)

    def inv(self, a):
        # the adjugate over the determinant by the field tables up to d = 3
        f, d = self.field, self.dim
        mul, add, neg = f._mul, f._add, f._neg
        if d == 2:
            a0, a1, a2, a3 = a
            adj = (a3, neg[a1], neg[a2], a0)
            det = add[mul[a0][a3]][neg[mul[a1][a2]]]
        elif d == 3:
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = a

            def minor(p, q, r, s):  # p*q - r*s
                return add[mul[p][q]][neg[mul[r][s]]]

            adj = (minor(a4, a8, a5, a7), minor(a2, a7, a1, a8), minor(a1, a5, a2, a4),
                   minor(a5, a6, a3, a8), minor(a0, a8, a2, a6), minor(a2, a3, a0, a5),
                   minor(a3, a7, a4, a6), minor(a1, a6, a0, a7), minor(a0, a4, a1, a3))
            det = add[add[mul[a0][adj[0]]][mul[a1][adj[3]]]][mul[a2][adj[6]]]
        else:
            inv = self._gauss_invert(a)
            if inv is None:
                raise ValueError("matrix is singular")
            return inv
        if det == 0:
            raise ValueError("matrix is singular")
        return tuple(map(mul[f._inv[det]].__getitem__, adj))

    def _gauss_invert(self, a):
        """Gauss-Jordan inverse over the field; None when singular."""
        f, d = self.field, self.dim
        rows = [list(a[i * d:(i + 1) * d]) for i in range(d)]
        aug = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if rows[r][col] != 0), None)
            if pivot is None:
                return None
            rows[col], rows[pivot] = rows[pivot], rows[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pinv = f.inv(rows[col][col])
            rows[col] = [f.mul(x, pinv) for x in rows[col]]
            aug[col] = [f.mul(x, pinv) for x in aug[col]]
            for r in range(d):
                if r != col and rows[r][col] != 0:
                    c = rows[r][col]
                    rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[r], rows[col])]
                    aug[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(aug[r], aug[col])]
        return tuple(x for row in aug for x in row)

    def validate(self, enc) -> None:
        d = self.dim
        if len(enc) != d * d:
            raise ValueError(f"expected {d * d} entries, got {len(enc)}")
        for x in enc:
            if not 0 <= x < self.field.q:
                raise ValueError(f"entry code {x} outside GF({self.field.q})")
        if self._gauss_invert(enc) is None:
            raise ValueError("matrix is singular over its field")

    def describe(self, enc):
        d, f = self.dim, self.field
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                code = enc[i * d + j]
                row.append(code if f.n == 1 else list(f.coeffs(code)))
            rows.append(row)
        return rows

    def __repr__(self):
        return f"MatrixRep(GF({self.field.q}), dim={self.dim})"


class QuotientRep:
    """Cosets of a normal subgroup, encoded by their minimal member.

    Multiplication is representative product in the parent's
    representation followed by coset lookup.
    """

    kind = "quotient"

    def __init__(self, parent_rep, coset_rep: dict):
        self.parent_rep = parent_rep
        self.coset_rep = coset_rep
        self.identity = coset_rep[parent_rep.identity]

    def mul(self, a, b):
        return self.coset_rep[self.parent_rep.mul(a, b)]

    def inv(self, a):
        return self.coset_rep[self.parent_rep.inv(a)]

    def validate(self, enc) -> None:
        if self.coset_rep.get(enc) != enc:
            raise ValueError(f"{enc} is not a canonical coset representative")

    def describe(self, enc):
        return self.parent_rep.describe(enc)

    def __repr__(self):
        return f"QuotientRep(of {self.parent_rep!r})"


def _generators_commute(mul, gens) -> bool:
    return all(mul(a, b) == mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1:])


@dataclass(frozen=True)
class ConjugacyClass:
    """One conjugation orbit: minimal-encoding representative, size, members."""

    representative: tuple
    size: int
    members: frozenset
    seed: tuple = field(repr=False, compare=False, default=None)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a value: the representation its members are encoded
    in, the member set, and a generating subset; no group."""

    rep: object
    members: frozenset
    gens: tuple

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, enc) -> bool:
        return enc in self.members

    def sorted_members(self) -> list:
        return sorted(self.members)

    def is_abelian(self) -> bool:
        return _generators_commute(self.rep.mul, self.gens)

    def as_group(self) -> "FiniteGroup":
        """The subgroup as a group on its generators, enumerated by its own
        closure like any other; nothing closed inside it can outgrow it, so
        its order is its cap."""
        return FiniteGroup(self.rep, self.gens, max_order=len(self.members))

    def __repr__(self):
        return f"Subgroup(order={len(self.members)} in {self.rep!r})"


class FiniteGroup:
    """A finite group generated by permutation or matrix encodings.

    Caches (element list, conjugacy classes, center, ...) fill on first use
    and are immutable afterwards.  A group is not thread-safe: two threads
    filling the same cache may both do the work.
    """

    def __init__(self, rep, generators, name: str | None = None,
                 max_order: int = DEFAULT_MAX_ORDER):
        gens = tuple(generators) or (rep.identity,)
        for g in gens:
            rep.validate(g)
        self.rep = rep
        self.generators = gens
        self.name = name
        self.max_order = max_order
        self._elements: list | None = None
        self._index: dict | None = None
        self._over_cap = False  # enumeration hit max_order: never retried
        self._left: list | None = None  # positions of g * x, by x then generator
        self._classes: list[ConjugacyClass] | None = None
        self._class_of: list | None = None  # class index by element position
        self._transversal: list | None = None  # position of t_x by position of x
        self._center: Subgroup | None = None
        self._derived: Subgroup | None = None
        self._normals: list[Subgroup] | None = None
        self._orders: dict | None = None
        self._halls: dict = {}  # order -> closure of the elements of order dividing it
        self._rep_centralizers: dict = {}
        self._gen_moves: list | None = None

    # -- raw operations ------------------------------------------------

    def mul(self, a, b):
        return self.rep.mul(a, b)

    def inv(self, a):
        return self.rep.inv(a)

    def conj(self, x, g):
        """g^-1 * x * g."""
        r = self.rep
        return r.mul(r.mul(r.inv(g), x), g)

    @property
    def identity(self):
        return self.rep.identity

    def _moves(self) -> list:
        """(g, g^-1) for each non-identity generator, inverted once."""
        if self._gen_moves is None:
            rep = self.rep
            self._gen_moves = [(g, rep.inv(g)) for g in self.generators if g != rep.identity]
        return self._gen_moves

    # -- enumeration -----------------------------------------------------

    def elements(self) -> list:
        """Breadth-first closure of the generators, insertion-ordered."""
        if self._elements is None:
            if self._over_cap:
                raise CapExceeded("group order", self.max_order)
            left = []
            try:
                index = self._closure(self.generators, left=left)
            except CapExceeded:
                self._over_cap = True
                raise CapExceeded("group order", self.max_order) from None
            self._index = index
            self._elements = list(index)
            self._left = left
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def __len__(self) -> int:
        return self.order()

    def __contains__(self, enc) -> bool:
        self.elements()
        return enc in self._index

    def _order_like(self, members) -> list:
        """Members sorted by G's element order (deterministic); G is enumerated."""
        return sorted(members, key=self._index.__getitem__)

    def _closure(self, gens, members=None, left=None) -> dict:
        """Grow a closed subgroup in place to the subgroup it generates with
        gens, and return it.

        members maps each element to its insertion position (None: the
        trivial subgroup).  They are closed under the generators they hold,
        so they are multiplied only by the others; each new element is
        multiplied by every generator, breadth first.  left (the closure from
        the identity only) receives the position of each product g * x in turn.
        Inside an enumerated group each new member is stored as G's own
        element object, so a subgroup holds no copies of G's encodings.
        """
        rep, cap = self.rep, self.max_order
        mul = rep.mul
        own, index = self._elements, self._index
        if members is None:
            members = {rep.identity: 0}
        fresh = [g for g in gens if g not in members]
        if not fresh:
            return members
        gens = [g for g in gens if g != rep.identity]
        queue = list(members)
        known = len(queue)
        n = known
        for i, x in enumerate(queue):
            for g in fresh if i < known else gens:
                y = mul(g, x)
                p = members.get(y)
                if p is None:
                    if n >= cap:
                        raise CapExceeded("subgroup closure size", cap)
                    if own is not None:
                        y = own[index[y]]
                    members[y] = p = n
                    n += 1
                    queue.append(y)
                if left is not None:
                    left.append(p)
        return members

    # -- element facts -----------------------------------------------------

    def element_order(self, g) -> int:
        rep = self.rep
        ident = rep.identity
        k, x = 1, g
        while x != ident:
            x = rep.mul(x, g)
            k += 1
        return k

    def element_orders(self) -> dict:
        """Order of every element, via class representatives (orders are
        constant on conjugacy classes)."""
        if self._orders is None:
            orders = {}
            for cls in self.conjugacy_classes():
                o = self.element_order(cls.representative)
                for m in cls.members:
                    orders[m] = o
            self._orders = orders
        return self._orders

    # -- conjugacy classes ---------------------------------------------

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        """Conjugation-orbit partition, sorted by (size, representative)."""
        if self._classes is None:
            self._compute_classes()
        return self._classes

    def _compute_classes(self):
        # Orbits over positions: x ** g = g^-1 * (x * g) is Linv_g[R_g[x]], with
        # Linv_g the inverse of the enumeration's left table L_g[x] = g * x
        # and the right table R_g[x] = x * g read off it: x = a * y gives
        # R_g[L_a[y]] = L_a[R_g[y]], so one breadth-first pass over the left
        # Cayley graph from R_g[e] = g fills every R_g with no product (it
        # reaches every element: g^-1 is a positive power of g).
        elements = self.elements()
        index, left = self._index, self._left
        n = len(elements)
        moves = self._moves()
        k = len(moves)
        e = index[self.rep.identity]
        rights = [[index[g]] * n for g, _ in moves]  # R_g[e] = g; the rest is overwritten
        seen = bytearray(n)
        seen[e] = 1
        queue = [e]
        for y in queue:
            for j, x in enumerate(left[y * k:(y + 1) * k]):
                if not seen[x]:
                    seen[x] = 1
                    queue.append(x)
                    for right in rights:
                        right[x] = left[right[y] * k + j]
        steps = []
        for j, right in enumerate(rights):
            linv = [0] * n
            for i, p in enumerate(left[j::k]):
                linv[p] = i
            steps.append((right, linv))
        transversal = [0] * n
        assigned = bytearray(n)
        found = []
        for s in range(n):
            if assigned[s]:
                continue
            assigned[s] = 1
            transversal[s] = e
            orbit = [s]
            for y in orbit:
                ty = transversal[y]
                for right, linv in steps:
                    z = linv[right[y]]
                    if not assigned[z]:
                        assigned[z] = 1
                        transversal[z] = right[ty]
                        orbit.append(z)
            members = [elements[p] for p in orbit]
            found.append((ConjugacyClass(min(members), len(orbit), frozenset(members),
                                         seed=elements[s]), orbit))
        found.sort(key=lambda co: (co[0].size, co[0].representative))
        class_of = [0] * n
        for i, (_, orbit) in enumerate(found):
            for p in orbit:
                class_of[p] = i
        self._transversal = transversal
        self._class_of = class_of
        self._classes = [cls for cls, _ in found]

    def class_of(self, enc) -> ConjugacyClass:
        self.conjugacy_classes()
        return self._classes[self._class_of[self._index[enc]]]

    def class_size(self, enc) -> int:
        return self.class_of(enc).size

    def class_sizes(self) -> list[int]:
        """Sorted multiset of class sizes (including the 1s)."""
        return sorted(c.size for c in self.conjugacy_classes())

    # -- centralizers ----------------------------------------------------

    def centralizer(self, x) -> Subgroup:
        """Elements of G commuting with x: built at its class representative,
        and moved from there for any other member."""
        self.conjugacy_classes()
        index, elements, transversal = self._index, self._elements, self._transversal
        pos = index[x]
        cls_idx = self._class_of[pos]
        cls_rep = self._classes[cls_idx].representative
        t_rep = elements[transversal[index[cls_rep]]]
        base = self._rep_centralizers.get(cls_idx)
        if base is None:
            base = self._schreier_centralizer(cls_idx, t_rep)
            self._rep_centralizers[cls_idx] = base
        if x == cls_rep:
            return base
        r = self.rep
        return self._transport(base, r.mul(r.inv(t_rep), elements[transversal[pos]]))

    def _transport(self, sub: Subgroup, u) -> Subgroup:
        """sub ** u, members and generators."""
        r = self.rep
        mul, uinv = r.mul, r.inv(u)
        elements, index = self._elements, self._index
        return Subgroup(r, frozenset(elements[index[mul(mul(uinv, z), u)]] for z in sub.members),
                        tuple(mul(mul(uinv, z), u) for z in sub.gens))

    def _schreier_centralizer(self, cls_idx: int, u) -> Subgroup:
        """Centralizer of seed ** u by Schreier generators of the seed's, each
        conjugated by u before it is tested and closed.  Conjugation by u is
        a bijection, so the greedy scan keeps the seed's generators ** u, in
        order, for two products per candidate, not two per member."""
        cls = self._classes[cls_idx]
        if cls.size == 1:
            return Subgroup(self.rep, frozenset(self.elements()), self.generators)
        target = self.order() // cls.size
        rep = self.rep
        mul, inv = rep.mul, rep.inv
        uinv = None if u == rep.identity else inv(u)
        elements, index, transversal = self._elements, self._index, self._transversal
        tinv = {}
        found = []
        closure = {rep.identity: 0}
        for m in self._order_like(cls.members):
            if len(closure) >= target:
                break
            um = elements[transversal[index[m]]]
            for g, gi in self._moves():
                m2 = mul(mul(gi, m), g)
                if m2 not in tinv:
                    tinv[m2] = inv(elements[transversal[index[m2]]])
                s = mul(mul(um, g), tinv[m2])
                if uinv is not None:
                    s = mul(mul(uinv, s), u)
                if s not in closure:
                    found.append(s)
                    self._closure(found, closure)
                    if len(closure) >= target:
                        break
        if len(closure) != target:
            raise InternalCheckError(
                f"Schreier centralizer has order {len(closure)}, expected {target}")
        return Subgroup(self.rep, frozenset(closure), tuple(found))

    def center(self) -> Subgroup:
        """The size-1 classes, in element order."""
        if self._center is None:
            self._center = self.subgroup_from_elements(self._order_like(
                c.representative for c in self.conjugacy_classes() if c.size == 1))
        return self._center

    # -- subgroups -------------------------------------------------------

    def subgroup_from_elements(self, members) -> Subgroup:
        """Least subgroup containing the members, with a small greedy
        generating set (members must already form a subgroup for the
        generating set to reproduce them exactly; otherwise this is the
        generated closure)."""
        gens = []
        closure = {self.rep.identity: 0}
        for x in members:
            if x not in closure:
                gens.append(x)
                self._closure(gens, closure)
        return Subgroup(self.rep, frozenset(closure), tuple(gens))

    def derived_subgroup(self) -> Subgroup:
        """Normal closure of the generator commutators."""
        if self._derived is None:
            self._derived = self._compute_derived()
        return self._derived

    def _compute_derived(self) -> Subgroup:
        mul = self.rep.mul
        moves = self._moves()
        n = self.order()
        closure = {self.rep.identity: 0}
        basis = []

        def grow(c) -> None:
            if c not in closure:
                basis.append(c)
                self._closure(basis, closure)

        for a, ai in moves:
            for b, bi in moves:
                grow(mul(mul(mul(ai, bi), a), b))
        # the basis grows while it is read: every basis element's conjugates
        # by the generators end up in the closure, which is then normal
        i = 0
        while i < len(basis) and len(closure) < n:
            t = basis[i]
            i += 1
            for g, gi in moves:
                grow(mul(mul(gi, t), g))
        if len(closure) == n:
            return Subgroup(self.rep, frozenset(self.elements()), self.generators)
        return Subgroup(self.rep, frozenset(closure), tuple(basis))

    def normal_subgroups(self) -> list[Subgroup]:
        """All normal subgroups, as join-closed unions of conjugacy classes,
        sorted by (order, member encodings)."""
        if self._normals is None:
            self._normals = self._compute_normals()
        return self._normals

    def _compute_normals(self) -> list[Subgroup]:
        # A normal subgroup is a union of classes: key it by the bitmask of
        # its classes.  Then A & B is the intersection, and the join AB has
        # order |A||B|/|A & B| (Hulpke, "Computing normal subgroups", 1998).
        mul, ident = self.rep.mul, self.rep.identity
        classes = self.conjugacy_classes()
        class_of, index = self._class_of, self._index
        sizes = [c.size for c in classes]
        pool: dict[int, Subgroup] = {}
        by_order: dict[int, list[int]] = {}

        def add(sub: Subgroup) -> None:
            mask = sum(1 << i for i, c in enumerate(classes)
                       if c.representative in sub.members)
            if mask not in pool:
                pool[mask] = sub
                by_order.setdefault(len(sub), []).append(mask)

        # x and x^k (k prime to |x|) have one normal closure: close the first
        # class of each rational class and mark the classes of those powers
        covered = set()
        for i, cls in enumerate(classes):
            if i in covered:
                continue
            x = cls.representative
            powers = [x]
            while powers[-1] != ident:
                powers.append(mul(powers[-1], x))
            m = len(powers)
            covered.update(class_of[index[y]]
                           for k, y in enumerate(powers, 1) if gcd(k, m) == 1)
            add(self.subgroup_from_elements(self._order_like(cls.members)))
        # Join pairs round by round, each pair once: a round examines only
        # the pairs with a member found in the round before.
        done = 0
        while done < len(pool):
            subs = list(pool.items())
            for i, (am, a) in enumerate(subs):
                for bm, b in subs[max(i + 1, done):]:
                    both = am | bm
                    if both == am or both == bm:
                        continue
                    meet = am & bm
                    order = len(a) * len(b) // sum(
                        s for j, s in enumerate(sizes) if meet >> j & 1)
                    # a pool member of that order holding A and B is AB
                    if any(m & both == both for m in by_order.get(order, ())):
                        continue
                    join = self.subgroup_from_elements(
                        self._order_like(a.members | b.members))
                    if len(join) != order:
                        raise InternalCheckError(
                            f"join has order {len(join)}, expected |A||B|/|A & B| = {order}")
                    add(join)
            done = len(subs)
        return sorted(pool.values(), key=lambda s: (len(s), tuple(s.sorted_members())))

    def is_normal(self, sub: Subgroup) -> bool:
        """sub is a union of conjugacy classes (its members must be in G)."""
        classes, class_of, index = self.conjugacy_classes(), self._class_of, self._index
        return all(classes[c].members <= sub.members
                   for c in {class_of[index[x]] for x in sub.members})

    def normal_hall(self, part: int):
        """The normal Hall subgroup of order part, a unitary divisor of |G|
        (part prime to |G|/part), or None.

        A normal Hall subgroup N holds every element whose order divides
        |N| (its image in G/N has order prime to |G/N|), so it is the set of
        those elements: a count over the classes settles it, and they are
        closed only when they number part.  The closure is kept per part and
        returned only when it has order part."""
        if part not in self._halls:
            orders = self.element_orders()
            count = sum(c.size for c in self.conjugacy_classes()
                        if part % orders[c.representative] == 0)
            self._halls[part] = None if count != part else self.subgroup_from_elements(
                [x for x in self.elements() if part % orders[x] == 0])
        hall = self._halls[part]
        return hall if hall is not None and len(hall) == part else None

    def normal_sylow(self, p: int):
        """The unique Sylow p-subgroup when it is normal, else None.

        By Sylow's theorems the p-elements number the p-part of |G| exactly
        when the Sylow p-subgroup is normal, and more otherwise, so the
        normal Hall count settles it, and those p-elements must close to it."""
        n = self.order()
        if n % p:
            raise ValueError(f"{p} does not divide the group order {n}")
        part = p_part(n, p)
        sylow = self.normal_hall(part)
        closed = self._halls[part]
        if sylow is None and closed is not None:
            raise InternalCheckError(
                f"the {part} {p}-elements close to a subgroup of order {len(closed)}")
        return sylow

    # -- quotients -------------------------------------------------------

    def quotient(self, normal: Subgroup) -> "FiniteGroup":
        """G / N with cosets encoded by their minimal member, read off G's
        left table with no product.  g * xN = (g * x)N, so L_g maps the
        positions of one coset onto another: a breadth-first pass from N over
        the generators lists the cosets, and G/N's left table, in the order
        G/N's own closure would (a generator in N, or in the coset of an
        earlier one, finds no new coset)."""
        if any(x not in self for x in normal.members):
            raise ValueError("subgroup has members outside this group")
        if not self.is_normal(normal):
            raise ValueError("subgroup is not normal")
        elements, index, left = self._elements, self._index, self._left
        k = len(self._moves())
        cosets = [[index[x] for x in normal.members]]  # positions, N first
        coset = dict.fromkeys(cosets[0], 0)  # coset number by position
        for c in cosets:
            for j in range(k):
                if left[c[0] * k + j] not in coset:
                    image = [left[p * k + j] for p in c]
                    coset.update(dict.fromkeys(image, len(cosets)))
                    cosets.append(image)
        reps = [min(elements[p] for p in c) for c in cosets]
        coset_rep = {elements[p]: reps[c] for p, c in coset.items()}
        qrep = QuotientRep(self.rep, coset_rep)
        gens = tuple(dict.fromkeys(coset_rep[g] for g in self.generators))
        name = f"{self.name}/N{len(normal)}" if self.name else None
        q = FiniteGroup(qrep, gens, name=name, max_order=self.max_order)
        # G's first generator in the coset of each of G/N's
        cols = [next(j for j, (g, _) in enumerate(self._moves()) if coset_rep[g] == h)
                for h in gens if h != qrep.identity]
        q._elements, q._index = reps, {x: i for i, x in enumerate(reps)}
        q._left = [coset[left[c[0] * k + j]] for c in cosets for j in cols]
        if q.order() * len(normal) != self.order():
            raise InternalCheckError("quotient order times subgroup order != group order")
        return q

    # -- global predicates -------------------------------------------------

    def is_abelian(self) -> bool:
        return _generators_commute(self.rep.mul, self.generators)

    def is_solvable(self) -> bool:
        """Derived series reaches the trivial subgroup."""
        current = self
        size = self.order()
        while True:
            derived = current.derived_subgroup()
            dsize = len(derived)
            if dsize == 1:
                return True
            if dsize == size:
                return False
            size = dsize
            current = derived.as_group()

    def __repr__(self):
        label = self.name or "group"
        if self._elements is not None:
            return f"FiniteGroup({label}, order={len(self._elements)})"
        return f"FiniteGroup({label}, {len(self.generators)} generators)"
