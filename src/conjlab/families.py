"""Deterministic constructors for every group family the verification
corpus needs: symmetric/alternating/dihedral/cyclic/elementary-abelian
permutation groups, the quaternion group, Heisenberg groups, SL2(q) and
GL2(q), AGL(1, q), the Heisenberg-kernel Frobenius family, the order
p^(p+1) wreath-style p-group, direct products, and the regular
permutation embedding.  PSL2(q) and PGL2(q) on the projective line are
the classifier's Type IV/V references and are not in FAMILIES.

Every constructor asserts its claimed order after enumeration; a
mismatch raises ConstructionError rather than returning a wrong group.
Every family's order is at least each of its parameters, so
build_family refuses a parameter above max_order before any primality
test, factorisation or large power.  A family over a field also checks the
field cap first, so a large max_order never lets trial division run on a
field size that GF could not build.
"""

from __future__ import annotations

from math import factorial

from .errors import CapExceeded, ConstructionError
from .gf import FIELD_CAP, Field, make_field
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, MatrixRep, PermutationRep
from .intmath import is_prime, prime_power

# to_permutation refuses a group larger than this: its regular
# representation has one point per element.
REGULAR_REP_CAP = 5000


def _checked(group: FiniteGroup, expected: int) -> FiniteGroup:
    n = group.order()
    if n != expected:
        raise ConstructionError(
            f"{group.name or 'group'} has order {n}, expected {expected}")
    return group


def _check_field_cap(q: int) -> None:
    """Refuse a field size above the field cap before any trial division."""
    if q > FIELD_CAP:
        raise CapExceeded(f"field size {q}", FIELD_CAP)


def _as_field(q: int) -> Field:
    _check_field_cap(q)
    pn = prime_power(q)
    if pn is None:
        raise ValueError(f"{q} is not a prime power")
    return make_field(*pn)


def symmetric_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    if not 2 <= n <= 9:
        raise ValueError("sym(n) supports 2 <= n <= 9")
    order = factorial(n)
    if order > max_order:
        raise CapExceeded(f"|sym({n})| = {order}", max_order)
    rep = PermutationRep(n)
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    g = FiniteGroup(rep, (swap, cycle), name=f"sym_{n}", max_order=max_order)
    return _checked(g, order)


def alternating_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    if not 2 <= n <= 9:
        raise ValueError("alt(n) supports 2 <= n <= 9")
    order = max(1, factorial(n) // 2)
    if order > max_order:
        raise CapExceeded(f"|alt({n})| = {order}", max_order)
    rep = PermutationRep(n)
    gens = []
    for i in range(n - 2):
        images = list(range(n))
        images[i], images[i + 1], images[i + 2] = images[i + 1], images[i + 2], images[i]
        gens.append(tuple(images))
    g = FiniteGroup(rep, tuple(gens), name=f"alt_{n}", max_order=max_order)
    return _checked(g, order)


def dihedral_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    if n < 3:
        raise ValueError("dihedral(n) needs n >= 3")
    if 2 * n > max_order:
        raise CapExceeded(f"dihedral order 2 * {n}", max_order)
    rep = PermutationRep(n)
    rotation = tuple(list(range(1, n)) + [0])
    reflection = tuple((n - i) % n for i in range(n))
    g = FiniteGroup(rep, (rotation, reflection), name=f"dihedral_{n}",
                    max_order=max_order)
    return _checked(g, 2 * n)


def cyclic_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic(n) needs n >= 1")
    if n > max_order:
        raise CapExceeded(f"cyclic order {n}", max_order)
    rep = PermutationRep(n)
    cycle = tuple(list(range(1, n)) + [0])
    g = FiniteGroup(rep, (cycle,), name=f"cyclic_{n}", max_order=max_order)
    return _checked(g, n)


def elementary_abelian_group(p: int, k: int,
                             max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # p >= 2, so p^k >= 2^k > max_order once k reaches its bit length
    if k < 1 or k >= max_order.bit_length() or p ** k > max_order:
        raise CapExceeded(f"elementary abelian order {p}^{k}", max_order)
    degree = p * k
    rep = PermutationRep(degree)
    gens = []
    for block in range(k):
        images = list(range(degree))
        base = block * p
        for j in range(p):
            images[base + j] = base + (j + 1) % p
        gens.append(tuple(images))
    g = FiniteGroup(rep, tuple(gens), name=f"elem_abelian_{p}_{k}",
                    max_order=max_order)
    return _checked(g, p ** k)


def quaternion_group(max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Q8 as the matrix group <i, j> inside SL2(3)."""
    f = make_field(3, 1)
    rep = MatrixRep(f, 2)
    i = (0, 2, 1, 0)   # [[0, -1], [1, 0]]
    j = (1, 1, 1, 2)   # [[1, 1], [1, -1]]
    g = FiniteGroup(rep, (i, j), name="quaternion", max_order=max_order)
    return _checked(g, 8)


def heisenberg(p: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over GF(p), order p^3, exponent p."""
    _check_field_cap(p)
    if not is_prime(p) or p == 2:
        raise ValueError("heisenberg(p) needs an odd prime")
    if p ** 3 > max_order:
        raise CapExceeded(f"Heisenberg order {p}^3", max_order)
    f = make_field(p, 1)
    rep = MatrixRep(f, 3)
    x = (1, 1, 0, 0, 1, 0, 0, 0, 1)
    y = (1, 0, 0, 0, 1, 1, 0, 0, 1)
    g = FiniteGroup(rep, (x, y), name=f"heisenberg_{p}", max_order=max_order)
    return _checked(g, p ** 3)


def _transvections(f: Field) -> list[tuple]:
    """Upper and lower transvections with beta in {1, alpha}; beta = alpha
    is omitted over prime fields."""
    betas = [1] if f.n == 1 else [1, f.primitive_element]
    gens = []
    for b in betas:
        gens.append((1, b, 0, 1))
        gens.append((1, 0, b, 1))
    return gens


def sl2(q, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """SL2(q) from transvection generators; order q(q^2 - 1) is asserted."""
    f = _as_field(q)
    n = f.q * (f.q ** 2 - 1)
    if n > max_order:
        raise CapExceeded(f"|SL2({f.q})| = {n}", max_order)
    rep = MatrixRep(f, 2)
    g = FiniteGroup(rep, tuple(_transvections(f)), name=f"sl2_{f.q}",
                    max_order=max_order)
    return _checked(g, n)


def gl2(q, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """GL2(q): the SL2 generators plus diag(alpha, 1)."""
    f = _as_field(q)
    if f.q < 3:
        raise ValueError("gl2(q) needs q >= 3")
    n = (f.q ** 2 - 1) * (f.q ** 2 - f.q)
    if n > max_order:
        raise CapExceeded(f"|GL2({f.q})| = {n}", max_order)
    rep = MatrixRep(f, 2)
    gens = _transvections(f) + [(f.primitive_element, 0, 0, 1)]
    g = FiniteGroup(rep, tuple(gens), name=f"gl2_{f.q}", max_order=max_order)
    return _checked(g, n)


def projective_linear(q, kind: str,
                      max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """PSL2(q) (kind "psl") or PGL2(q) (kind "pgl") acting on the q + 1
    points of the projective line.

    The SL2 generators, plus diag(alpha, 1) for "pgl", act on the lines
    of row vectors: point x < q is the line of (x, 1) and point q the line
    of (1, 0).  The kernel of that action is the scalars, so the image is
    SL2(q)/Z or GL2(q)/Z without enumerating a matrix group.  Order
    q(q^2 - 1), halved for "psl" when q is odd, is asserted.
    """
    if kind not in ("psl", "pgl"):
        raise ValueError(f"kind must be 'psl' or 'pgl', got {kind!r}")
    f = _as_field(q)
    q = f.q
    n = q * (q * q - 1)
    if kind == "psl" and q % 2:
        n //= 2
    if n > max_order:
        raise CapExceeded(f"|{kind.upper()}2({q})| = {n}", max_order)
    mats = _transvections(f)
    if kind == "pgl":
        mats.append((f.primitive_element, 0, 0, 1))
    add, mul, inv = f.add, f.mul, f.inv

    def point(a, b):
        return q if b == 0 else mul(a, inv(b))

    gens = tuple(
        tuple(point(add(mul(x, m0), m2), add(mul(x, m1), m3)) for x in range(q))
        + (point(m0, m1),)
        for m0, m1, m2, m3 in mats)
    g = FiniteGroup(PermutationRep(q + 1), gens, name=f"{kind}2_{q}",
                    max_order=max_order)
    return _checked(g, n)


def agl1(q, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """AGL(1, q) acting on the q field elements: translations by a basis
    plus multiplication by a primitive element.  Frobenius of order q(q-1)."""
    f = _as_field(q)
    if f.q < 3:
        raise ValueError("agl1(q) needs q >= 3")
    n = f.q * (f.q - 1)
    if n > max_order:
        raise CapExceeded(f"|AGL(1, {f.q})| = {n}", max_order)
    rep = PermutationRep(f.q)
    gens = []
    for i in range(f.n):
        basis = f.p ** i
        gens.append(tuple(f.add(x, basis) for x in range(f.q)))
    alpha = f.primitive_element
    gens.append(tuple(f.mul(alpha, x) for x in range(f.q)))
    g = FiniteGroup(rep, tuple(gens), name=f"agl1_{f.q}", max_order=max_order)
    return _checked(g, n)


def type3_frobenius(p: int, d: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Heisenberg kernel with a diagonal order-d complement: the subgroup
    of GL3(p) generated by the Heisenberg generators and diag(1, 1/lam, 1),
    lam the canonical element of multiplicative order d.  Conjugation acts
    as (x, y, z) -> (lam x, y/lam, z) on Heisenberg coordinates, so the
    center stays pointwise fixed.  Order p^3 d."""
    _check_field_cap(p)
    if not is_prime(p) or p == 2:
        raise ValueError("type3_frobenius needs an odd prime p")
    if d <= 1 or (p - 1) % d:
        raise ValueError(f"d = {d} must be a nontrivial divisor of p - 1 = {p - 1}")
    n = p ** 3 * d
    if n > max_order:
        raise CapExceeded(f"type3 order {p}^3 * {d}", max_order)
    f = make_field(p, 1)
    lam = f.pow(f.primitive_element, (p - 1) // d)
    rep = MatrixRep(f, 3)
    x = (1, 1, 0, 0, 1, 0, 0, 0, 1)
    y = (1, 0, 0, 0, 1, 1, 0, 0, 1)
    t = (1, 0, 0, 0, f.inv(lam), 0, 0, 0, 1)
    g = FiniteGroup(rep, (x, y, t), name=f"type3_{p}_{d}", max_order=max_order)
    return _checked(g, n)


def remark_group(p: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Order p^(p+1) permutation group on p^2 points: p disjoint p-cycles
    (one per block) extended by a block shift.  N = {p, p^(p-1)}."""
    if not is_prime(p) or p == 2:
        raise ValueError("remark_group(p) needs an odd prime")
    if p + 1 >= max_order.bit_length() or p ** (p + 1) > max_order:
        raise CapExceeded(f"remark group order {p}^{p + 1}", max_order)
    degree = p * p
    rep = PermutationRep(degree)
    cycle0 = list(range(degree))
    for j in range(p):
        cycle0[j] = (j + 1) % p
    shift = [((i // p + 1) % p) * p + (i % p) for i in range(degree)]
    g = FiniteGroup(rep, (tuple(cycle0), tuple(shift)),
                    name=f"remark_{p}", max_order=max_order)
    return _checked(g, p ** (p + 1))


def direct_product(a: FiniteGroup, b: FiniteGroup,
                   max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Direct product of two permutation groups on disjoint point sets."""
    if not (isinstance(a.rep, PermutationRep) and isinstance(b.rep, PermutationRep)):
        raise ValueError("direct_product needs permutation groups; "
                         "convert matrix groups with to_permutation first")
    n = a.order() * b.order()
    if n > max_order:
        raise CapExceeded(f"product order {a.order()} * {b.order()}", max_order)
    da, db = a.rep.degree, b.rep.degree
    rep = PermutationRep(da + db)
    idb = tuple(range(da, da + db))
    gens = [g + idb for g in a.generators]
    ida = tuple(range(da))
    gens += [ida + tuple(x + da for x in h) for h in b.generators]
    name = f"{a.name or 'A'}x{b.name or 'B'}"
    g = FiniteGroup(rep, tuple(gens), name=name, max_order=max_order)
    return _checked(g, n)


def to_permutation(g: FiniteGroup) -> FiniteGroup:
    """Regular permutation representation on the enumerated element list."""
    n = g.order()
    if n > REGULAR_REP_CAP:
        raise CapExceeded(f"regular representation of order {n}", REGULAR_REP_CAP)
    elements = g.elements()
    index = {e: i for i, e in enumerate(elements)}
    mul = g.rep.mul
    rep = PermutationRep(n)
    gens = tuple(tuple(index[mul(x, gen)] for x in elements) for gen in g.generators)
    out = FiniteGroup(rep, gens, name=f"{g.name or 'group'}_reg",
                      max_order=g.max_order)
    return _checked(out, n)


# family name -> (constructor, number of integer parameters)
FAMILIES = {
    "sym": (symmetric_group, 1),
    "alt": (alternating_group, 1),
    "dihedral": (dihedral_group, 1),
    "cyclic": (cyclic_group, 1),
    "elem_abelian": (elementary_abelian_group, 2),
    "quaternion": (quaternion_group, 0),
    "heisenberg": (heisenberg, 1),
    "sl2": (sl2, 1),
    "gl2": (gl2, 1),
    "agl1": (agl1, 1),
    "type3": (type3_frobenius, 2),
    "remark": (remark_group, 1),
}


def build_family(family: str, *params: int,
                 max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Construct a named family member; used by `conjlab construct` and the
    corpus."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; know {sorted(FAMILIES)}")
    builder, arity = FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    for n in params:
        if n > max_order:
            raise CapExceeded(f"family parameter {n}", max_order)
    return builder(*params, max_order=max_order)
