"""The four group classes studied here: SP, CH, CA and F, plus conjugate
rank.

Each predicate follows its literal definition over noncentral elements,
restricted to class representatives where conjugation equivariance makes
that sound.  The SP test is computed twice (primitivity of N(G) and the
centralizer-order pair scan) and the two must agree.
"""

from __future__ import annotations

from .classgraph import is_primitive, n_set
from .errors import CapExceeded, InternalCheckError
from .groups import FiniteGroup, Frozen

F_SCAN_CAP = 10_000


class PredicateReport(Frozen):
    """Flags plus a falsifying witness for each flag that is False.

    sp_witness is a pair of class sizes; ch/f witnesses are element
    pairs; the ca witness is a single element with nonabelian
    centralizer.  f is None above F_SCAN_CAP: the F scan costs no more
    than CH's, and the cap stays only so that reports keep their values.
    """

    __slots__ = ("sp", "ch", "ca", "f", "rank",
                 "sp_witness", "ch_witness", "ca_witness", "f_witness")

    def __init__(self, sp: bool, ch: bool, ca: bool, f: bool | None, rank: int,
                 sp_witness: tuple[int, int] | None = None, ch_witness: tuple | None = None,
                 ca_witness: tuple | None = None, f_witness: tuple | None = None):
        self._fill(sp, ch, ca, f, rank, sp_witness, ch_witness, ca_witness, f_witness)


def is_sp(g: FiniteGroup):
    """(flag, witness): N(G) primitive, cross-checked against the
    divides-implies-equal scan over centralizer orders."""
    sizes = n_set(g)
    order = g.order()
    witness = None
    for i, a in enumerate(sizes):
        for b in sizes[i + 1:]:
            if b % a == 0:
                witness = (a, b)
                break
        if witness:
            break
    # Independent route: |C(x)| divides |C(y)| => equal, over class sizes.
    cents = sorted((order // s for s in sizes), reverse=True)
    pair_ok = not any(cents[i] % cents[j] == 0 and cents[i] != cents[j]
                      for i in range(len(cents)) for j in range(i + 1, len(cents)))
    primitive = is_primitive(sizes) if sizes else True
    if primitive != pair_ok:
        raise InternalCheckError(
            f"SP disagreement on N={sizes}: primitive={primitive}, pairs={pair_ok}")
    return primitive, witness


def _noncentral_reps(g: FiniteGroup):
    return [c for c in g.conjugacy_classes() if c.size > 1]


def is_ch(g: FiniteGroup):
    """(flag, witness): commuting noncentral elements have centralizers of
    equal order.  x runs over class representatives (sound by conjugation
    equivariance), y over the centralizer of x."""
    g.conjugacy_classes()
    for cls in _noncentral_reps(g):
        x = cls.representative
        cx = g.centralizer(x)
        for y in g._order_like(cx.members):
            ysize = g.class_size(y)
            if ysize > 1 and ysize != cls.size:
                return False, (x, y)
    return True, None


def is_ca(g: FiniteGroup):
    """(flag, witness): centralizers of noncentral elements are abelian."""
    for cls in _noncentral_reps(g):
        x = cls.representative
        if not g.centralizer(x).is_abelian():
            return False, (x,)
    return True, None


def is_f(g: FiniteGroup):
    """(flag, witness): containment between noncentral centralizers
    implies equality.  x over class representatives is enough because a
    violating pair conjugates to one whose small side is a representative.
    C(x) < C(y) puts y in C(x), commuting with all of it, so y runs over
    C(x) in G's element order and is tested against C(x)'s generators."""
    n = g.order()
    if n > F_SCAN_CAP:
        raise CapExceeded(f"F-scan on group of order {n}", F_SCAN_CAP)
    mul, nset = g.rep.mul, n_set(g)
    for cls in _noncentral_reps(g):
        # noncentral y whose centralizer order is a proper multiple of
        # |C(x)|: |y^G| properly divides |x^G|, so x with no such size is skipped
        sizes = {s for s in nset if s < cls.size and cls.size % s == 0}
        if not sizes:
            continue
        x = cls.representative
        cx = g.centralizer(x)
        # a scan of its own, not is_ch's: verify compares the two, and one
        # shared loop would make CH => F hold by construction
        for y in g._order_like(cx.members):
            if g.class_size(y) in sizes and all(mul(z, y) == mul(y, z) for z in cx.gens):
                return False, (x, y)
    return True, None


def evaluate(g: FiniteGroup) -> PredicateReport:
    """All four predicates plus the conjugate rank |N(G)| in one report; F
    is None above F_SCAN_CAP (read at each call)."""
    sp, sp_w = is_sp(g)
    ch, ch_w = is_ch(g)
    ca, ca_w = is_ca(g)
    f, f_w = (None, None) if g.order() > F_SCAN_CAP else is_f(g)
    return PredicateReport(sp=sp, ch=ch, ca=ca, f=f, rank=len(n_set(g)),
                           sp_witness=sp_w, ch_witness=ch_w,
                           ca_witness=ca_w, f_witness=f_w)
