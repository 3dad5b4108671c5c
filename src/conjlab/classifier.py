"""SP-group classification into the five structural types, with evidence.

The decision procedure mirrors the classification statement: abelian
groups and non-SP groups short-circuit; otherwise the five type checks
run in order I..V and the first match wins (the type classes overlap, so
the report also lists every type whose conditions pass).  Types IV and V
share one check, _try_linear: a fingerprint of G/Z (order plus class-size
multiset) against PSL2(q) or PGL2(q), built on demand as a permutation
group on the q + 1 points of the projective line, plus the order and
class-size set of the derived subgroup.  Type IV expects G' = SL2(q),
with N(SL2(q)) from the closed form expected_N_linear; Type V expects
the order-2160 cover of PSL(2, 9).  No SL2(q) or GL2(q) is enumerated.
A fingerprint is weaker than an isomorphism test and the evidence
records it.

One Analysis per group keeps its predicates, G/Z (G itself when Z(G) = 1,
so the Type II/III preimages are the subgroups themselves), the Frobenius
structure of G/Z and the verdict, each made on first read; Z(G) is the
group's own cache.  Counts come before closures.  The Frobenius kernel of
G/Z, the normal Sylow subgroups and Type I's normal p-complement are all
normal Hall subgroups, found by FiniteGroup.normal_hall: a count of the
elements whose order divides the Hall order, closed only when it matches.
Classification never builds the normal-subgroup lattice.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from . import families
from .classgraph import n_set
from .errors import ConjlabError
from .groups import FiniteGroup, Frozen, Subgroup
from .intmath import factor
from .predicates import PredicateReport, evaluate, is_sp

# Class sizes of the exceptional 6-fold cover of PSL(2, 9), order 2160.
SCHUR_COVER_PSL29_ORDER = 2160
SCHUR_COVER_PSL29_N = frozenset({72, 90, 120})

FINGERPRINT_NOTE = "order + class-size fingerprint (no isomorphism test)"


class MultipleKernelCandidates(ConjlabError):
    """More than one normal subgroup satisfies the Frobenius kernel test."""


class Verdict(str, Enum):
    ABELIAN = "Abelian"
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"
    TYPE_IV = "TypeIV"
    TYPE_V = "TypeV"
    NOT_SP = "NotSP"
    UNRECOGNIZED = "Unrecognized"


TYPE_VERDICTS = (Verdict.TYPE_I, Verdict.TYPE_II, Verdict.TYPE_III,
                 Verdict.TYPE_IV, Verdict.TYPE_V)


class FrobeniusStructure(Frozen):
    """Kernel (a normal subgroup of the quotient), complement order, and
    the complement itself when one is recoverable as a centralizer."""

    __slots__ = ("kernel", "complement_order", "complement")

    def __init__(self, kernel: Subgroup, complement_order: int, complement: Subgroup | None):
        self._fill(kernel, complement_order, complement)


class SPClassification(Frozen):
    __slots__ = ("verdict", "evidence", "witness", "all_matching")

    def __init__(self, verdict: Verdict, evidence: dict | None = None,
                 witness: tuple[int, int] | None = None, all_matching: tuple[str, ...] = ()):
        self._fill(verdict, {} if evidence is None else evidence, witness, all_matching)


def find_frobenius_structure(q: FiniteGroup) -> FrobeniusStructure | None:
    """The unique proper nontrivial normal N of a nonabelian group with
    centralizers of its nonidentity elements inside N and |N| coprime to
    the index, or None.  Such an N is a normal Hall subgroup, so the
    candidates are normal_hall(m) for the unitary divisors m of |G|, in
    increasing order; the normal-subgroup lattice is never built."""
    if q.is_abelian():
        raise ValueError("Frobenius detection needs a nonabelian group")
    n = q.order()
    parts = [1]
    for p, e in factor(n):
        parts += [m * p ** e for m in parts]
    candidates = []
    classes = q.conjugacy_classes()
    for m in sorted(parts)[1:-1]:
        sub = q.normal_hall(m)
        if sub is None:
            continue
        ok = True
        for cls in classes:
            rep = cls.representative
            # a class is inside N or misses it entirely, so reps suffice
            if rep == q.identity or rep not in sub.members:
                continue
            if not q.centralizer(rep).members <= sub.members:
                ok = False
                break
        if ok:
            candidates.append(sub)
    if not candidates:
        return None
    if len(candidates) > 1:
        raise MultipleKernelCandidates(
            f"kernel candidates of orders {[len(c) for c in candidates]}")
    kernel = candidates[0]
    comp_order = n // len(kernel)
    complement = None
    for cls in classes:
        rep = cls.representative
        if rep in kernel.members:
            continue
        if n // cls.size == comp_order:
            # an abelian complement is the centralizer of any of its
            # nonidentity elements
            complement = q.centralizer(rep)
            break
    return FrobeniusStructure(kernel=kernel, complement_order=comp_order,
                              complement=complement)


# -- types IV / V: N(SL2(q)) by formula, PSL2/PGL2 candidates --------------


class FormulaExpectation(Frozen):
    __slots__ = ("values", "provenance")

    def __init__(self, values: frozenset[int], provenance: str):  # "formula" or "derived-even-q"
        self._fill(values, provenance)


def expected_N_linear(kind: str, q: int) -> FormulaExpectation:
    """The class-size set formulas for SL2(q) and GL2(q), read off the
    standard class lists (Dornhoff, Group Representation Theory A, §38).

    The odd-q SL2 branch needs q >= 5; even q >= 4 gets the derived
    variant with q^2 - 1 in place of (q^2 - 1)/2, flagged as such.
    """
    if kind == "sl2":
        if q % 2:
            if q < 5:
                raise ValueError("SL2 formula branch needs odd q >= 5")
            values = frozenset({(q * q - 1) // 2, q * (q - 1), q * (q + 1)})
            provenance = "formula"
        else:
            if q < 4:
                raise ValueError("SL2 derived branch needs even q >= 4")
            values = frozenset({q * q - 1, q * (q - 1), q * (q + 1)})
            provenance = "derived-even-q"
    elif kind == "gl2":
        if q < 4:
            raise ValueError("GL2 formula is not asserted for q <= 3")
        values = frozenset({q * (q - 1), q * q - 1, q * (q + 1)})
        provenance = "formula"
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if len(values) != 3:
        raise AssertionError(f"formula set {sorted(values)} is not three distinct values")
    return FormulaExpectation(values=values, provenance=provenance)


def _psl_pgl_candidates(quotient_order: int):
    """Prime powers q > 3 whose PSL2 or PGL2 has the given order."""
    out = []
    q = 4
    while q * (q * q - 1) // 2 <= quotient_order:
        if factor(q) and len(factor(q)) == 1:
            if q * (q * q - 1) == quotient_order:
                out.append((q, "pgl"))
                if q % 2 == 0:
                    out.append((q, "psl"))  # even q: PSL2 = PGL2 = SL2
            if q % 2 == 1 and q * (q * q - 1) // 2 == quotient_order:
                out.append((q, "psl"))
        q += 1
    return out


def _derived_n_set(g: FiniteGroup, derived: Subgroup) -> frozenset:
    """N(G'), read off G itself when G' = G instead of recomputing every
    class of a copy."""
    if len(derived) == g.order():
        return frozenset(n_set(g))
    return frozenset(n_set(derived.as_group()))


# -- the five type checks ----------------------------------------------------


def _try_type_i(g: FiniteGroup) -> dict | None:
    n = g.order()
    for p, _ in factor(n):
        sylow = g.normal_sylow(p)
        if sylow is None:
            continue
        # a normal p-complement is the normal Hall subgroup of order |G|/|P|
        t_sub = g.normal_hall(n // len(sylow))
        if t_sub is None or not t_sub.is_abelian():
            continue
        mul = g.rep.mul
        if not all(mul(a, b) == mul(b, a) for a in t_sub.gens for b in sylow.gens):
            continue
        if len(n_set(sylow.as_group())) != 1:
            continue
        return {"p": p, "sylow_order": len(sylow), "abelian_factor_order": len(t_sub)}
    return None


def _preimage(g: FiniteGroup, quotient: FiniteGroup, sub: Subgroup) -> Subgroup:
    """Preimage in G of a subgroup of G/Z, read off the coset map; G/Z is G
    itself when Z = 1."""
    if quotient is g:
        return sub
    project = quotient.rep.coset_rep
    return g.subgroup_from_elements([x for x in g.elements() if project[x] in sub.members])


def _try_type_ii(frob: FrobeniusStructure, kernel_pre: Subgroup,
                 comp_pre: Subgroup) -> dict | None:
    if not (kernel_pre.is_abelian() and comp_pre.is_abelian()):
        return None
    return {
        "kernel_image_order": len(frob.kernel),
        "complement_image_order": frob.complement_order,
        "kernel_preimage_order": len(kernel_pre),
        "complement_preimage_order": len(comp_pre),
    }


def _try_type_iii(g: FiniteGroup, frob: FrobeniusStructure, kernel_pre: Subgroup,
                  comp_pre: Subgroup, center: Subgroup) -> dict | None:
    if not comp_pre.is_abelian():
        return None
    kernel = kernel_pre.members
    for p, _ in factor(len(frob.kernel)):
        sylow = g.normal_sylow(p)  # p divides |K/Z|, which divides |G|
        if sylow is None:
            continue
        # Z is central: PZ = K_pre iff P, Z <= K_pre and |P||Z| = |K_pre||P & Z|
        meet = sylow.members & center.members
        if not (sylow.members <= kernel and center.members <= kernel
                and len(sylow) * len(center) == len(kernel) * len(meet)):
            continue
        sylow_group = sylow.as_group()
        if len(n_set(sylow_group)) != 1:
            continue
        if sylow_group.center().members != meet:
            continue
        return {
            "p": p,
            "sylow_order": len(sylow),
            "kernel_preimage_order": len(kernel_pre),
            "complement_preimage_order": len(comp_pre),
            "center_order": len(center),
        }
    return None


def _sl2_derived(q: int):
    """Type IV: G' = SL2(q), with N(SL2(q)) by the closed form."""
    return q * (q * q - 1), expected_N_linear("sl2", q).values, {"q": q}


def _cover_derived(q: int):
    """Type V: q = 9 and G' the order-2160 cover of PSL(2, 9)."""
    if q != 9:
        return None
    return SCHUR_COVER_PSL29_ORDER, SCHUR_COVER_PSL29_N, {}


def _try_linear(g: FiniteGroup, quotient: FiniteGroup, expected_derived) -> dict | None:
    """Types IV and V: evidence for the first candidate q at which G/Z is
    fingerprinted as PSL2(q) or PGL2(q) and G' is as expected_derived(q)
    says, or None.  expected_derived(q) gives |G'|, N(G') and any extra
    evidence fields, or None when the type allows no G' at that q.

    The cheap test comes first: |G'|.  Only then is the reference built,
    as a permutation group on the q + 1 points of the projective line
    (families.projective_linear), and its class sizes, whose sum is its
    order, compared with those of G/Z; last comes N(G').  The reference
    is no larger than G', so it fits under G's max_order."""
    qsizes = None
    for q, kind in _psl_pgl_candidates(quotient.order()):
        expected = expected_derived(q)
        if expected is None:
            continue
        derived_order, derived_n, fields = expected
        derived = g.derived_subgroup()
        if len(derived) != derived_order:
            continue
        ref = families.projective_linear(q, kind, max_order=g.max_order)
        if qsizes is None:
            qsizes = tuple(quotient.class_sizes())
        if tuple(ref.class_sizes()) != qsizes:
            continue
        if _derived_n_set(g, derived) != derived_n:
            continue
        return {**fields, "quotient_kind": kind, "derived_order": derived_order,
                "derived_N": sorted(derived_n), "method": FINGERPRINT_NOTE}
    return None


class Analysis:
    """A group and its derived facts, each stage built on first read.  It
    holds the group, and nothing the group holds refers back to it."""

    def __init__(self, group: FiniteGroup):
        self.group = group

    @cached_property
    def predicates(self) -> PredicateReport:
        return evaluate(self.group)

    @cached_property
    def quotient(self) -> FiniteGroup:
        center = self.group.center()
        return self.group if len(center) == 1 else self.group.quotient(center)

    @cached_property
    def frobenius(self) -> FrobeniusStructure | None:
        return None if self.quotient.is_abelian() else find_frobenius_structure(self.quotient)

    @cached_property
    def classification(self) -> SPClassification:
        return classify(self)


def classify(g: FiniteGroup | Analysis) -> SPClassification:
    """The type of an SP group or of its Analysis, or NotSP with a witness."""
    a = g if isinstance(g, Analysis) else Analysis(g)
    g = a.group
    sizes = n_set(g)
    if not sizes:
        return SPClassification(verdict=Verdict.ABELIAN)
    sp, witness = is_sp(g)
    if not sp:
        return SPClassification(verdict=Verdict.NOT_SP, witness=witness)
    center, quotient, frob, preimages = g.center(), a.quotient, a.frobenius, None
    if frob is not None and frob.complement is not None:
        # the kernel and complement preimages in G, for Types II and III
        preimages = (_preimage(g, quotient, frob.kernel),
                     _preimage(g, quotient, frob.complement))
    attempts = (
        (Verdict.TYPE_I, lambda: _try_type_i(g)),
        (Verdict.TYPE_II, lambda: preimages and _try_type_ii(frob, *preimages)),
        (Verdict.TYPE_III, lambda: preimages and _try_type_iii(g, frob, *preimages, center)),
        (Verdict.TYPE_IV, lambda: _try_linear(g, quotient, _sl2_derived)),
        (Verdict.TYPE_V, lambda: _try_linear(g, quotient, _cover_derived)),
    )
    verdict = Verdict.UNRECOGNIZED
    evidence: dict = {}
    matching = []
    for name, attempt in attempts:
        result = attempt()
        if result is not None:
            matching.append(name.value)
            if verdict is Verdict.UNRECOGNIZED:
                verdict = name
                evidence = result
    return SPClassification(verdict=verdict, evidence=evidence,
                            all_matching=tuple(matching))


def check_corollary1(g: FiniteGroup | Analysis) -> bool:
    """Rank-2 SP groups: G/Z has a Frobenius structure and is solvable."""
    a = g if isinstance(g, Analysis) else Analysis(g)
    sp, _ = is_sp(a.group)
    if not sp or len(n_set(a.group)) != 2:
        raise ValueError("corollary-1 check applies to SP groups of rank 2")
    return a.frobenius is not None and a.quotient.is_solvable()
