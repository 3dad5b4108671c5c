"""Finite groups given by generators: enumeration, conjugacy classes,
centralizers, centers, quotients, derived and normal subgroups.

Elements are canonical encodings: a permutation of [0, degree) is its
image tuple, a d x d matrix over GF(q) is the flat row-major tuple of
integer field codes (see conjlab.gf), and a coset in a quotient group is
the encoding of its minimal member in the parent.  Products compose left
to right: mul(a, b) applies a first, then b, and x ** g means g^-1 * x * g.
Subgroups and conjugacy classes are values that hold G's element list and
their members' ascending positions in it.  A list refers to no group, and a
quotient's representation holds the parent's, not the parent group: nothing
refers back up the group hierarchy, so reference counting alone frees a
group with everything built from it.

Everything is desk scale by design.  A group is enumerated once by products,
as the breadth-first closure of its generators from the identity
(FiniteGroup._closure), with one kernel per generator: rep.left(g) returns
the map x -> g * x.  The closure keeps the left table, the position of g * x
for each element x and generator g, and every later closure runs on
positions.  Each x is first reached as g * y with y found before it, so the
left table spells x's breadth-first word, and x * z is a walk from z along
x's word (x^-1 * z a walk back along the inverted tables).  One routine,
FiniteGroup._span, closes every subgroup inside G on positions (Dimino's
method): centers, Schreier centralizers, the derived series, normal Hall
subgroups and the lattice's generating sets all come from it.

Conjugacy classes are conjugation orbits over positions, read off the left
table with no product, as are the transversal (see _compute_classes) and the
cosets of a subgroup N, since g * xN = (g * x)N (cosets(), which G/N and
verify's Lemma 2 read).  Each orbit is searched from its least member, the
class representative, whose transversal element is then the identity: by
Schreier's lemma its centralizer is generated by the t_m * g * t_m2^-1 read
off the transversal as walks, and C(x) = C(rep) ** t_x is a walk of the
conjugation tables.  A representative's centralizer is closed once per
distinct subgroup: an abelian C(y) already built that holds x lies in C(x),
and is C(x) when its order is |G|/|x^G|.  x ** y is a walk of the same
tables along y's word, and x and y commute exactly when it is x:
FiniteGroup.commute is the one commuting test, and verify's Lemma 2 (v)
reads it once per class.  G itself is one Subgroup value, shared by every
central element's centralizer and a perfect G's G'.
A subgroup is never enumerated as a group of its own: its own conjugacy
classes are the orbits of its generators acting by conjugation on its
members (subgroup_classes), which give N(H), Z(H) and |x^H|.

A question is settled by a count over the classes before anything is
closed, and closed only when the count cannot settle it:

- a normal Hall subgroup (a normal Sylow subgroup or p-complement, a
  Frobenius kernel) is the set of elements whose order divides its order,
  so it is closed only when those elements number that order;
- the center is the size-1 classes;
- the derived subgroup grows its basis only by commutators and conjugates
  outside its closure, and is G itself, with G's generators, once the
  closure reaches |G|; each later term of the derived series is closed
  inside G the same way from the generators of the one before;
- normal subgroups, which only verify's lemma suites use, are found by a
  breadth-first search from the trivial subgroup that joins each member A
  with the normal closure N of one class per rational class, each keyed by
  the bitmask of its classes so that |NA| = |A||N|/|A & N| checks the join.
  A closure or a join is a search over classes by products with one class
  member, on a left table composed along its word;
- element orders are one walk of a class representative's powers per class
  not yet ordered, since x^j has order |x|/gcd(j, |x|).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from math import gcd
from operator import attrgetter, itemgetter

from .errors import CapExceeded, InternalCheckError
from .gf import Field
from .intmath import p_part

DEFAULT_MAX_ORDER = 200_000


class PermutationRep:
    """Permutations of [0, degree) encoded as image tuples."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.identity = tuple(range(degree))

    def left(self, g):
        """The map x -> g * x: itemgetter(*g), or the identity at degree 1."""
        return itemgetter(*g) if len(g) > 1 else (lambda x: x)

    def mul(self, a, b):
        return self.left(a)(b)

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

    def __init__(self, field: Field, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.field = field
        self.dim = dim
        self.identity = tuple(int(i % (dim + 1) == 0) for i in range(dim * dim))

    def left(self, g):
        """The map x -> g * x, reading the field's multiplication-table rows
        of g's entries once: (g * x)_ij is the sum over k of row(g_ik)[x_kj]."""
        add, d = self.field._add, self.dim
        rows = [self.field._mul[c] for c in g]
        if d == 2:
            m0, m1, m2, m3 = rows
            def times(x):
                x0, x1, x2, x3 = x
                return (add[m0[x0]][m1[x2]], add[m0[x1]][m1[x3]],
                        add[m2[x0]][m3[x2]], add[m2[x1]][m3[x3]])
        elif d == 3:
            m0, m1, m2, m3, m4, m5, m6, m7, m8 = rows
            def times(x):
                x0, x1, x2, x3, x4, x5, x6, x7, x8 = x
                return (add[add[m0[x0]][m1[x3]]][m2[x6]], add[add[m0[x1]][m1[x4]]][m2[x7]],
                        add[add[m0[x2]][m1[x5]]][m2[x8]], add[add[m3[x0]][m4[x3]]][m5[x6]],
                        add[add[m3[x1]][m4[x4]]][m5[x7]], add[add[m3[x2]][m4[x5]]][m5[x8]],
                        add[add[m6[x0]][m7[x3]]][m8[x6]], add[add[m6[x1]][m7[x4]]][m8[x7]],
                        add[add[m6[x2]][m7[x5]]][m8[x8]])
        else:
            by_row = [rows[i * d:(i + 1) * d] for i in range(d)]
            def times(x):
                cols = [x[j::d] for j in range(d)]
                out = []
                for row in by_row:
                    for col in cols:
                        s = 0
                        for m, c in zip(row, col):
                            s = add[s][m[c]]
                        out.append(s)
                return tuple(out)
        return times

    def mul(self, a, b):
        return self.left(a)(b)

    def inv(self, a):
        inv = self._gauss_invert(a)
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

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
        return [[c if f.n == 1 else list(f.coeffs(c)) for c in enc[i * d:(i + 1) * d]]
                for i in range(d)]

    def __repr__(self):
        return f"MatrixRep(GF({self.field.q}), dim={self.dim})"


class QuotientRep:
    """Cosets of a normal subgroup, encoded by their minimal member.

    Multiplication is representative product in the parent's
    representation followed by coset lookup.
    """

    def __init__(self, parent_rep, coset_rep: dict):
        self.parent_rep = parent_rep
        self.coset_rep = coset_rep
        self.identity = coset_rep[parent_rep.identity]

    def left(self, g):
        """The map xN -> gxN: the parent's left(g), then the coset lookup."""
        times, coset_rep = self.parent_rep.left(g), self.coset_rep
        return lambda x: coset_rep[times(x)]

    def mul(self, a, b):
        return self.left(a)(b)

    def inv(self, a):
        return self.coset_rep[self.parent_rep.inv(a)]

    def validate(self, enc) -> None:
        if self.coset_rep.get(enc) != enc:
            raise ValueError(f"{enc} is not a canonical coset representative")

    def describe(self, enc):
        return self.parent_rep.describe(enc)

    def __repr__(self):
        return f"QuotientRep(of {self.parent_rep!r})"


def _walk(word, p: int) -> int:
    """The end of the walk from position p along a word's tables."""
    for col in word:
        p = col[p]
    return p


class Record:
    """A value class with its fields in ``__slots__``, in order: equal to a
    record of its class with equal fields, unhashable, shown as
    ``Name(field=value, ...)`` and pickled by its fields (README, "Cold start")."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._get = attrgetter(*cls.__slots__)
            # the slots' own setters, which Frozen.__setattr__ does not stop
            cls._put = tuple(getattr(cls, f).__set__ for f in cls.__slots__)

    def _fill(self, *values):
        for put, value in zip(self._put, values):
            put(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == other._get(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._get(self)


class Frozen(Record):
    """A hashable Record whose fields are set once, by ``__init__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._get(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__


class ConjugacyClass(Frozen):
    """One conjugation orbit: its minimal-encoding representative, its size,
    its group's element list and the members' ascending positions in that
    list.  Within one group, == and the hash mean the same class."""

    __slots__ = ("representative", "size", "elements", "positions")

    # made by the thousand: __init__ is written out, faster than Record's
    def __init__(self, representative: tuple, size: int, elements: list, positions: array):
        put_rep, put_size, put_elements, put_positions = self._put
        put_rep(self, representative)
        put_size(self, size)
        put_elements(self, elements)
        put_positions(self, positions)

    def __hash__(self):  # the list and the array are not hashable
        return hash((self.representative, self.size))

    @property
    def members(self) -> frozenset:
        """The member encodings, built on each read."""
        return frozenset(map(self.elements.__getitem__, self.positions))

    def __repr__(self):
        return f"ConjugacyClass(size={self.size}, representative={self.representative!r})"


class Subgroup(Frozen):
    """A subgroup as a value: the representation its members are encoded
    in, its group's element list, the members' ascending positions in that
    list, and a generating subset as encodings; no group.  Within one group,
    == and the hash mean the same members and generators."""

    __slots__ = ("rep", "elements", "positions", "gens")

    def __init__(self, rep, elements: list, positions: array, gens: tuple):
        self._fill(rep, elements, positions, gens)

    def __hash__(self):  # the list and the array are not hashable
        return hash((self.rep, len(self.positions), self.gens))

    def __len__(self) -> int:
        return len(self.positions)

    members = ConjugacyClass.members

    def holds(self, p: int) -> bool:
        """The element at position p is a member: a bisection of the positions."""
        i = bisect_left(self.positions, p)
        return i < len(self.positions) and self.positions[i] == p

    def __repr__(self):
        return f"Subgroup(order={len(self)} in {self.rep!r})"


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
        self._left: list | None = None  # by generator, the positions of g * x by x's
        self._classes: list[ConjugacyClass] | None = None
        self._class_of: list | None = None  # class index by element position
        self._transversal: list | None = None  # position of t_x by position of x
        self._via: array | None = None  # by position: y * k + j when x = g_j * x_y first
        self._linv: list | None = None  # by generator g, the positions of g^-1 * x by x's
        self._conj: list | None = None  # by generator g, the positions of x ** g by x's
        self._whole_group: Subgroup | None = None
        self._center: Subgroup | None = None
        self._derived: Subgroup | None = None
        self._normals: list[Subgroup] | None = None
        self._orders: dict | None = None
        self._halls: dict = {}  # order -> closure of the elements of order dividing it
        self._rep_centralizers: dict = {}  # by class index
        self._abelian_centralizers: dict = {}  # order -> the abelian ones built

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

    # -- enumeration -----------------------------------------------------

    def elements(self) -> list:
        """Breadth-first closure of the generators, insertion-ordered."""
        if self._elements is None:
            if self._over_cap:
                raise CapExceeded("group order", self.max_order)
            try:
                self._elements, self._index, self._left = self._closure()
            except CapExceeded:
                self._over_cap = True
                raise
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def _closure(self) -> tuple[list, dict, list]:
        """The breadth-first closure of the generators from the identity: the
        elements, their positions, and the left table (see _left)."""
        rep, cap = self.rep, self.max_order
        gens = [g for g in self.generators if g != rep.identity]
        index, queue, left = {rep.identity: 0}, [rep.identity], [[] for _ in gens]
        moves = list(zip(map(rep.left, gens), left))  # one kernel per generator
        for x in queue:
            for times, col in moves:
                y = times(x)
                p = index.get(y)
                if p is None:
                    if len(queue) >= cap:
                        raise CapExceeded("group order", cap)
                    index[y] = p = len(queue)
                    queue.append(y)
                col.append(p)
        return queue, index, left

    # -- words: products on positions ------------------------------------

    def _word(self, p, tables=None) -> list:
        """The tables whose walk from z's position reaches x_p * z: left-table
        columns along p's breadth-first word, innermost first; or per-generator
        tables in word order, where _linv reaches x_p^-1 * z and _conj z ** x_p.
        The class stage records the words, so it must have run."""
        via, k = self._via, len(self._left)
        letters = []  # outermost first
        v = via[p]
        while v >= 0:
            letters.append(v % k)
            v = via[v // k]
        if tables is not None:
            return list(map(tables.__getitem__, letters))
        return [self._left[j] for j in reversed(letters)]

    def _powers(self, p: int) -> list:
        """The positions of x, x^2, ..., 1 for x at position p, each power a
        walk of x's word from the one before; the classes must exist."""
        word, e = self._word(p), self._index[self.rep.identity]
        powers = [p]
        while powers[-1] != e:
            powers.append(_walk(word, powers[-1]))
        return powers

    # -- element facts -----------------------------------------------------

    def element_orders(self) -> dict:
        """Order of every element, with no product.  Orders are constant on
        classes, and x^j has order |x|/gcd(j, |x|): one walk of a class
        representative's powers orders the class of each power, so in a
        cyclic group one walk orders every class."""
        if self._orders is None:
            classes, class_of = self.conjugacy_classes(), self._class_of
            by_class = [0] * len(classes)
            for i, cls in enumerate(classes):
                if not by_class[i]:
                    powers = self._powers(self._index[cls.representative])
                    o = len(powers)
                    for j, q in enumerate(powers, 1):
                        if not by_class[class_of[q]]:
                            by_class[class_of[q]] = o // gcd(j, o)
            self._orders = dict(zip(self._elements, map(by_class.__getitem__, class_of)))
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
        # reaches every element: g^-1 is a positive power of g).  The pass
        # also records each element's breadth-first word: the edge reaching it.
        elements = self.elements()
        left, n = self._left, len(elements)
        e = self._index[self.rep.identity]
        self._linv = []
        for col in left:
            linv = array("i", [0]) * n
            for x, p in enumerate(col):
                linv[p] = x
            self._linv.append(linv)
        # by generator: R_g with R_g[e] = g, and x ** g with e ** g = e, each
        # allocated whole and overwritten (buffers outgrown by appends are
        # left high in the heap, where they keep a freed group's memory)
        steps = [([col[e]] * n, array("i", [e]) * n, linv)
                 for col, linv in zip(left, self._linv)]
        via = array("i", [-2]) * n  # not reached yet
        via[e] = -1
        queue, k, cols = [e], len(left), list(enumerate(left))
        for y in queue:
            for j, col in cols:
                x = col[y]
                if via[x] == -2:
                    queue.append(x)
                    via[x] = y * k + j
                    for right, conj, linv in steps:
                        right[x] = z = col[right[y]]
                        conj[x] = linv[z]
        self._via, self._conj = via, [conj for _, conj, _ in steps]

        def search(root, t) -> list:
            # the orbit of root, t[z] the position of t_z with root ** t_z = z
            t[root] = e
            orbit = [root]
            for y in orbit:
                ty = t[y]
                for right, conj, _ in steps:
                    z = conj[y]
                    if t[z] < 0:
                        t[z] = right[ty]
                        orbit.append(z)
            return orbit

        # each orbit is searched once to find it (class_of marks it, -1 until
        # then), then again from its least member, the representative: t_rep = e
        class_of, transversal = [-1] * n, [-1] * n
        found = []
        for s in range(n):
            if class_of[s] < 0:
                orbit = search(min(search(s, class_of), key=elements.__getitem__), transversal)
                found.append(ConjugacyClass(elements[orbit[0]], len(orbit), elements,
                                            array("i", sorted(orbit))))
        found.sort(key=attrgetter("size", "representative"))
        for i, cls in enumerate(found):
            for p in cls.positions:
                class_of[p] = i
        self._transversal = transversal
        self._class_of = class_of
        self._classes = found

    def class_size(self, enc) -> int:
        self.conjugacy_classes()
        return self._classes[self._class_of[self._index[enc]]].size

    def class_indices(self) -> list:
        """The index in conjugacy_classes() of each element's class, by position."""
        self.conjugacy_classes()
        return self._class_of

    def class_sizes(self) -> list[int]:
        """Sorted multiset of class sizes (including the 1s)."""
        return sorted(c.size for c in self.conjugacy_classes())

    # -- centralizers ----------------------------------------------------

    def centralizer(self, x) -> Subgroup:
        """Elements of G commuting with x: built at its class representative,
        and moved from there for any other member, C(rep ** t_x) = C(rep) ** t_x."""
        self.conjugacy_classes()
        pos = self._index[x]
        cls_idx = self._class_of[pos]
        base = self._rep_centralizers.get(cls_idx)
        if base is None:
            base = self._rep_centralizers[cls_idx] = self._rep_centralizer(cls_idx)
        if x == self._classes[cls_idx].representative:
            return base
        return self._transport(base, self._transversal[pos])

    def _transport(self, sub: Subgroup, t: int) -> Subgroup:
        """sub ** x_t, members and generators: z ** (g * h) = (z ** g) ** h, so
        each is a walk of the conjugation tables along t's word."""
        elements, index, word = self._elements, self._index, self._word(t, self._conj)
        positions = array("i", sorted(_walk(word, p) for p in sub.positions))
        return Subgroup(self.rep, elements, positions,
                        tuple(elements[_walk(word, index[z])] for z in sub.gens))

    def _rep_centralizer(self, cls_idx: int) -> Subgroup:
        """Centralizer of the class representative x, closed once per distinct
        subgroup: G for a central x, else an abelian C(y) already built that
        holds x and has order |G| / |x^G|, which is C(x) (every member commutes
        with x, and the orders agree), else a Schreier closure."""
        cls = self._classes[cls_idx]
        if cls.size == 1:
            return self._whole()
        x = self._index[cls.representative]
        built = self._abelian_centralizers.setdefault(len(self._elements) // cls.size, [])
        sub = next((c for c in built if c.holds(x)), None)
        if sub is None:
            sub = self._schreier_centralizer(cls_idx)
            if self.is_abelian(sub):
                built.append(sub)
        return sub

    def _schreier_centralizer(self, cls_idx: int) -> Subgroup:
        """Centralizer of a noncentral class representative, the stabilizer of
        the orbit's root: by Schreier's lemma it is generated by t_m * g * t_m2^-1
        over members m and generators g with m ** g = m2, closed greedily
        until it has order |G| / |class|."""
        cls = self._classes[cls_idx]
        target = self.order() // cls.size
        transversal, word, e = self._transversal, self._word, self._index[self.rep.identity]
        tinv = {}  # position of t_m2^-1 by m2's

        def candidates():
            for m in cls.positions:
                tm = word(transversal[m])
                for col, conj in zip(self._left, self._conj):
                    m2 = conj[m]
                    if m2 not in tinv:
                        tinv[m2] = _walk(word(transversal[m2], self._linv), e)
                    yield _walk(tm, col[tinv[m2]])

        sub = self._span(candidates(), target)
        if len(sub) != target:
            raise InternalCheckError(
                f"Schreier centralizer has order {len(sub)}, expected {target}")
        return sub

    def _whole(self) -> Subgroup:
        """G as a Subgroup of itself, built once."""
        if self._whole_group is None:
            self._whole_group = Subgroup(self.rep, self.elements(),
                                         array("i", range(self.order())), self.generators)
        return self._whole_group

    def center(self) -> Subgroup:
        """The size-1 classes, in element order."""
        if self._center is None:
            self._center = self._span(sorted(self._index[c.representative]
                                             for c in self.conjugacy_classes() if c.size == 1))
        return self._center

    # -- subgroups -------------------------------------------------------

    def _span(self, candidates, target: int = 0, gens=None) -> Subgroup:
        """The subgroup of G generated by the candidate positions, closed
        greedily on positions (Dimino): a candidate outside the closure so
        far becomes the next generator, appended to gens; the old members are
        multiplied by it only, and the new members by every generator, each
        product a walk along the generator's word.  Stops at target members.
        G's classes must exist: their stage records the words."""
        elements, e = self._elements, self._index[self.rep.identity]
        inside = bytearray(len(elements))
        inside[e] = 1
        members, words = [e], []
        gens = [] if gens is None else gens
        for c in candidates:
            if len(members) == target:
                break
            if inside[c]:
                continue
            gens.append(c)
            words.append(self._word(c))
            known = len(members)
            for i, y in enumerate(members):
                for word in words[-1:] if i < known else words:
                    z = _walk(word, y)
                    if not inside[z]:
                        inside[z] = 1
                        members.append(z)
        return Subgroup(self.rep, elements, array("i", sorted(members)),
                        tuple(map(elements.__getitem__, gens)))

    def subgroup_from_elements(self, members) -> Subgroup:
        """Least subgroup of G containing the members, with a small greedy
        generating set; members that form no subgroup give their closure."""
        self.conjugacy_classes()
        return self._span(map(self._index.__getitem__, members))

    def derived_subgroup(self) -> Subgroup:
        """Normal closure of the generator commutators; G itself, with G's
        generators, when G is perfect."""
        if self._derived is None:
            n, e = self.order(), self._index[self.rep.identity]
            derived = self._derived_of([col[e] for col in self._left], n)
            self._derived = self._whole() if len(derived) == n else derived
        return self._derived

    def _derived_of(self, gens, n: int) -> Subgroup:
        """[H, H] for the subgroup H of order n generated by the positions
        gens, closed inside G."""
        self.conjugacy_classes()
        word = self._word
        moves = [(h, word(h, self._linv), word(h, self._conj)) for h in gens]
        basis = []

        def candidates():
            for a, ai, _ in moves:
                for _, _, bc in moves:
                    yield _walk(ai, _walk(bc, a))  # a^-1 * (a ** b)
            # the basis grows while it is read: every basis element's conjugates
            # by the generators end up in the closure, which is then normal in H
            for t in basis:
                for _, _, hc in moves:
                    yield _walk(hc, t)  # t ** h

        return self._span(candidates(), n, basis)

    def normal_subgroups(self) -> list[Subgroup]:
        """All normal subgroups, as join-closed unions of conjugacy classes,
        sorted by (order, member encodings)."""
        if self._normals is None:
            self._normals = self._compute_normals()
        return self._normals

    def _compute_normals(self) -> list[Subgroup]:
        # A normal subgroup is a union of classes, keyed by the bitmask of its
        # classes, and the join of the normal closures of its classes.  So a
        # breadth-first search from the trivial subgroup reaches every one: it
        # joins each member A with the closure N of one class c per rational
        # class, N not inside A.  The classes of NA are those reached from A's
        # by products with one fixed x in c, and |NA| = |A||N|/|A & N| (Hulpke,
        # "Computing normal subgroups", 1998).  The products run on positions:
        # L_x[a] is the position of x * a, composed along x's word.
        classes = self.conjugacy_classes()
        class_of, n = self._class_of, len(self._elements)
        e = self._index[self.rep.identity]
        sizes = [c.size for c in classes]
        where = [c.positions for c in classes]
        one = 1 << class_of[e]
        found = {one: ([class_of[e]], 1)}  # by mask: the classes and the order

        def join(a: int, t: list, step: list) -> tuple[int, list, int]:
            # the mask, classes and order of NA: the classes reached from A's
            # by products with x, where t = L_x and step[y] holds the classes
            # of x * z for z in class y, filled as they are reached
            held, size = found[a]
            queue = list(held)
            reached = set(queue)
            for y in queue:
                out = step[y]
                if out is None:
                    out = step[y] = tuple(set(map(class_of.__getitem__,
                                                  map(t.__getitem__, where[y]))))
                for z in out:
                    if z not in reached:
                        reached.add(z)
                        queue.append(z)
            new = queue[len(held):]
            return (sum(map((1).__lshift__, new), a), queue,
                    size + sum(map(sizes.__getitem__, new)))

        # x and x^k (k prime to |x|) have one normal closure: close the first
        # class of each rational class, with one composed left table each, and
        # keep the table and steps of each distinct closure for the joins
        covered, closures = set(), {}
        for i in range(len(classes)):
            if i not in covered:
                powers = self._powers(where[i][0])
                covered.update(class_of[p] for j, p in enumerate(powers, 1)
                               if gcd(j, len(powers)) == 1)
                t = range(n)
                for col in self._word(where[i][0]):
                    t = list(map(col.__getitem__, t))
                step = [None] * len(classes)
                mask, held, size = join(one, t, step)
                found.setdefault(mask, (held, size))
                closures.setdefault(mask, (t, step))
        queue = list(found)[1:]  # the trivial member's joins are the closures
        for a in queue:
            for closure, (t, step) in closures.items():
                meet = a & closure
                if meet != closure:
                    mask, held, size = join(a, t, step)
                    closure_held, closure_size = found[closure]
                    expected = found[a][1] * closure_size // sum(
                        sizes[y] for y in closure_held if meet >> y & 1)
                    if size != expected:
                        raise InternalCheckError(
                            f"join has order {size}, expected |A||B|/|A & B| = {expected}")
                    if mask not in found:  # dedupe by mask after the search
                        found[mask] = held, size
                        queue.append(mask)
        # each member gets the greedy generators of subgroup_from_elements
        # over its members in G's order
        normals = []
        for held, size in found.values():
            sub = self._span(sorted(p for c in held for p in where[c]), size)
            if len(sub) != size:
                raise InternalCheckError(
                    f"greedy closure has order {len(sub)}, its classes {size}")
            normals.append(sub)
        return sorted(normals,
                      key=lambda s: (len(s), sorted(map(s.elements.__getitem__, s.positions))))

    def subgroup_classes(self, sub: Subgroup) -> tuple[array, list]:
        """The conjugacy classes of the subgroup H = sub itself, read inside G
        with no product: the size of each member's H-class, aligned with
        sub.positions, and the index there of each class's least member.  They
        are the orbits of H's generators acting by conjugation on H's members,
        z ** h a walk of G's conjugation tables along h's word; when the
        generators commute, every class has size 1."""
        positions, n = sub.positions, len(sub.positions)
        if self.commute(sub.gens, sub.gens):
            return array("i", [1]) * n, list(range(n))
        at = dict(zip(positions, range(n)))  # member index by position
        words = [self._word(self._index[h], self._conj) for h in sub.gens]
        sizes, firsts = array("i", [0]) * n, []  # a size of -1: in the orbit being searched
        for i in range(n):
            if not sizes[i]:
                sizes[i], orbit = -1, [i]
                for y in orbit:
                    for word in words:
                        z = at[_walk(word, positions[y])]
                        if not sizes[z]:
                            sizes[z] = -1
                            orbit.append(z)
                for y in orbit:
                    sizes[y] = len(orbit)
                firsts.append(i)
        return sizes, firsts

    def is_normal(self, sub: Subgroup) -> bool:
        """sub is a union of conjugacy classes (a subgroup of G): the classes
        it meets hold no more elements than it has."""
        classes, class_of = self.conjugacy_classes(), self._class_of
        met = set(map(class_of.__getitem__, sub.positions))
        return sum(classes[c].size for c in met) == len(sub)

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
            inside = [part % orders[c.representative] == 0 for c in self.conjugacy_classes()]
            count = sum(c.size for c, ok in zip(self._classes, inside) if ok)
            self._halls[part] = None if count != part else self._span(
                p for p, c in enumerate(self._class_of) if inside[c])
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

    def sylow_split(self, p: int):
        """(P, T) with G = P x T: the normal Sylow p-subgroup P and the
        normal Hall subgroup T of order |G|/|P|, when both exist and their
        generators commute, else None."""
        sylow = self.normal_sylow(p)
        hall = sylow and self.normal_hall(len(self._elements) // len(sylow))
        if hall is None or not self.commute(hall.gens, sylow.gens):
            return None
        return sylow, hall

    # -- quotients -------------------------------------------------------

    def cosets(self, sub: Subgroup) -> list:
        """The number of each position's coset xN of N = sub, N's members coset
        0, with no product: g * xN = (g * x)N, so the left table maps one
        coset's positions onto another's, and a breadth-first pass from N over
        the generators numbers the cosets in the order G/N's own closure would
        (a generator in N, or in the coset of an earlier one, finds no new one)."""
        number, left, cosets = [-1] * self.order(), self._left, [sub.positions]
        for p in sub.positions:
            number[p] = 0
        for c in cosets:
            for col in left:
                if number[col[c[0]]] < 0:
                    image = [col[p] for p in c]
                    for p in image:
                        number[p] = len(cosets)
                    cosets.append(image)
        if len(cosets) * len(sub) != len(number):
            raise InternalCheckError("quotient order times subgroup order != group order")
        return number

    def quotient(self, normal: Subgroup) -> "FiniteGroup":
        """G / N with cosets encoded by their minimal member, numbered by
        cosets(): G/N's elements and left table, read off G's with no product,
        are listed in the order G/N's own closure would."""
        if normal.elements is not self.elements():
            raise ValueError("subgroup has members outside this group's element list")
        if not self.is_normal(normal):
            raise ValueError("subgroup is not normal")
        number, elements, e = self.cosets(normal), self._elements, self._index[self.rep.identity]
        firsts = [-1] * (len(elements) // len(normal))  # each coset's least member
        for p, c in enumerate(number):
            if firsts[c] < 0 or elements[p] < elements[firsts[c]]:
                firsts[c] = p
        reps = list(map(elements.__getitem__, firsts))
        coset_rep = dict(zip(elements, map(reps.__getitem__, number)))
        qrep = QuotientRep(self.rep, coset_rep)
        gens = tuple(dict.fromkeys(coset_rep[g] for g in self.generators))
        name = f"{self.name}/N{len(normal)}" if self.name else None
        q = FiniteGroup(qrep, gens, name=name, max_order=self.max_order)
        # the column of G's first generator in the coset of each of G/N's
        cols = [next(col for col in self._left if coset_rep[elements[col[e]]] == h)
                for h in gens if h != qrep.identity]
        q._elements, q._index = reps, {x: i for i, x in enumerate(reps)}
        q._left = [[number[col[p]] for p in firsts] for col in cols]
        return q

    # -- global predicates -------------------------------------------------

    def commute(self, xs, ys) -> bool:
        """Every x in xs commutes with every y in ys, all elements of G:
        x * y = y * x exactly when x ** y = x, a walk of the conjugation tables
        along y's word from x's position, with no product."""
        self.conjugacy_classes()
        index = self._index
        words = [self._word(index[y], self._conj) for y in ys]
        return all(_walk(word, p) == p for p in map(index.__getitem__, xs) for word in words)

    def is_abelian(self, sub: Subgroup | None = None) -> bool:
        """G, or its subgroup sub, is abelian: its generators commute."""
        gens = self.generators if sub is None else sub.gens
        return self.commute(gens, gens)

    def is_solvable(self) -> bool:
        """Derived series reaches the trivial subgroup; each term is closed
        inside G from the generators of the one before."""
        size, term = self.order(), self.derived_subgroup()
        while 1 < len(term) < size:
            size = len(term)
            term = self._derived_of(list(map(self._index.__getitem__, term.gens)), size)
        return len(term) == 1

    def __repr__(self):
        label = self.name or "group"
        if self._elements is not None:
            return f"FiniteGroup({label}, order={len(self._elements)})"
        return f"FiniteGroup({label}, {len(self.generators)} generators)"
