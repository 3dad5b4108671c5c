"""Verification suites over the bundled corpus.

The bundled corpus is data (data/corpus.json): one entry per group, each
with a group recipe and its stored expectations.  A corpus directory for
``verify --corpus`` holds the same entries in expectations.json, and both
forms go through one validating loader.  Each suite re-derives every
stored expectation by enumeration: a stored value, a formula value, and
an enumerated value must all agree, so a mismatch is a failure even when
two of the three coincide.  The formula oracles for N(SL2(q)) and
N(GL2(q)) live in the classifier (expected_N_linear), which trusts the
SL2 one for Type IV, so the formula checks here test it against
enumeration; the order-2160 cover of PSL(2, 9) is checked only from an
externally supplied generator file and the check is skipped (not failed)
when no file is present.

The suites run entry by entry: one Analysis of an entry's group, and the
group's own caches such as Z(G), serve every suite and are then dropped.
"""

from __future__ import annotations

import time
from functools import cached_property
from math import gcd
from pathlib import Path

from . import families
from .classgraph import n_set
from .classifier import (SCHUR_COVER_PSL29_N, SCHUR_COVER_PSL29_ORDER, TYPE_VERDICTS,
                         Analysis, Verdict, check_corollary1, expected_N_linear,
                         subgroup_n_set)
from .errors import ConjlabError, SpecFileError
from .groups import FiniteGroup, Frozen, Record, Subgroup
from .intmath import factor
from .predicates import is_sp
from .specio import _is_int, load_group_spec, parse_json

LEMMA2_ORDER_BOUND = 2500  # Lemma 2 is checked on every tuple of the entries up to it

DATA_DIR = Path(__file__).parent / "data"
CORPUS_FILENAME = "corpus.json"
SCHUR_COVER_FILENAME = "schur_cover_psl29.json"


def default_schur_cover_path() -> Path | None:
    path = DATA_DIR / SCHUR_COVER_FILENAME
    return path if path.exists() else None


# -- corpus -------------------------------------------------------------------


class CorpusEntry(Record):
    """One corpus group: its validated recipe plus tagged expectations.
    Plain data: ``build`` makes a new group on every call.

    A recipe is {"family", "params", "regular"}, {"product": [family
    recipe, family recipe]} or {"spec": resolved path}."""

    __slots__ = ("name", "recipe", "expected_order", "expected_N", "expected_verdict", "tags")

    def __init__(self, name: str, recipe: dict, expected_order: int | None = None,
                 expected_N: frozenset | None = None, expected_verdict: str | None = None,
                 tags: frozenset = frozenset()):
        self._fill(name, recipe, expected_order, expected_N, expected_verdict, tags)

    def build(self) -> FiniteGroup:
        return _build(self.recipe)


def _build(recipe: dict) -> FiniteGroup:
    if "spec" in recipe:
        return load_group_spec(recipe["spec"])
    if "product" in recipe:
        a, b = recipe["product"]
        return families.direct_product(_build(a), _build(b))
    group = families.build_family(recipe["family"], *recipe["params"])
    return families.to_permutation(group) if recipe["regular"] else group


def default_corpus() -> list[CorpusEntry]:
    """The bundled corpus: every Theorem-2 clause, every named negative
    witness, and both corollaries are exercised by these groups."""
    return _load_entries(parse_json((DATA_DIR / CORPUS_FILENAME).read_bytes()), DATA_DIR)


def load_corpus_dir(path) -> list[CorpusEntry]:
    """A corpus directory: expectations.json maps each entry name to the
    rest of its entry; an entry with no group recipe reads <name>.json."""
    root = Path(path)
    expfile = root / "expectations.json"
    if not expfile.is_file():
        raise SpecFileError(f"no expectations.json in {root}")
    expectations = parse_json(expfile.read_bytes())
    if not isinstance(expectations, dict):
        raise SpecFileError(f"{expfile} must map entry names to objects")
    return _load_entries([{**exp, "name": name} if isinstance(exp, dict) else exp
                          for name, exp in sorted(expectations.items())], root)


_VERDICTS = tuple(v.value for v in Verdict)
_ENTRY_FIELDS = {
    "order": ("a positive integer", lambda v: _is_int(v) and v > 0),
    "N": ("an integer array", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "provenance": ("a string", lambda v: isinstance(v, str)),
    "verdict": (f"one of {list(_VERDICTS)}", lambda v: v in _VERDICTS),
    "tags": ("a string array",
             lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v)),
}
_RECIPE_KEYS = {"family": {"family", "params", "regular"},
                "product": {"product"}, "spec": {"spec"}}


def _load_entries(raw, root: Path) -> list[CorpusEntry]:
    """The one validating loader: a list of entries, spec paths relative
    to root."""
    if not isinstance(raw, list):
        raise SpecFileError("a corpus must be an array of entries")
    entries, names = [], set()
    for i, item in enumerate(raw):
        name = item.get("name") if isinstance(item, dict) else None
        if not isinstance(name, str) or not name or name in names:
            raise SpecFileError(f"corpus entry {i} needs an object with a new "
                                f"nonempty string 'name', got {item!r}")
        names.add(name)
        where = f"corpus entry {name!r}"
        unknown = set(item) - set(_ENTRY_FIELDS) - {"name", "group"}
        if unknown:
            raise SpecFileError(f"{where}: unknown keys {sorted(unknown)}")
        for key, (what, ok) in _ENTRY_FIELDS.items():
            if item.get(key) is not None and not ok(item[key]):
                raise SpecFileError(f"{where}: {key} must be {what}, got {item[key]!r}")
        nset = item.get("N")
        recipe = _recipe(item.get("group", {"spec": f"{name}.json"}), root, where)
        entries.append(CorpusEntry(
            name=name, recipe=recipe, expected_order=item.get("order"),
            expected_N=frozenset(nset) if nset is not None else None,
            expected_verdict=item.get("verdict"), tags=frozenset(item.get("tags") or ())))
    return entries


def _recipe(raw, root: Path, where: str, factor: bool = False) -> dict:
    """A validated group recipe: a product's two factors must be family
    recipes, and a spec path, relative to root, must name a file."""
    kinds = [k for k in _RECIPE_KEYS if isinstance(raw, dict) and k in raw]
    if len(kinds) != 1 or not set(raw) <= _RECIPE_KEYS[kinds[0]] \
            or (factor and kinds[0] != "family"):
        what = "a product factor must be a family" if factor \
            else "group must be one family, product or spec"
        raise SpecFileError(f"{where}: {what} recipe, got {raw!r}")
    if "product" in raw:
        factors = raw["product"]
        if not (isinstance(factors, list) and len(factors) == 2):
            raise SpecFileError(f"{where}: a product has two factors, got {factors!r}")
        return {"product": [_recipe(f, root, where, factor=True) for f in factors]}
    if "spec" in raw:
        spec = raw["spec"]
        if not (isinstance(spec, str) and (root / spec).is_file()):
            raise SpecFileError(f"{where}: missing group spec {root / str(spec)}")
        return {"spec": root / spec}
    family, params, regular = raw["family"], raw.get("params", []), raw.get("regular", False)
    if not isinstance(family, str) or family not in families.FAMILIES:
        raise SpecFileError(f"{where}: unknown family {family!r}; "
                            f"know {sorted(families.FAMILIES)}")
    arity = families.FAMILIES[family][1]
    if not (isinstance(params, list) and len(params) == arity and all(map(_is_int, params))):
        raise SpecFileError(f"{where}: family {family!r} takes {arity} integer "
                            f"parameter(s), got {params!r}")
    if not isinstance(regular, bool):
        raise SpecFileError(f"{where}: regular must be a boolean, got {regular!r}")
    return {"family": family, "params": params, "regular": regular}


# -- suite plumbing -----------------------------------------------------------


class CheckResult(Frozen):
    __slots__ = ("name", "status", "detail", "seconds")

    def __init__(self, name: str, status: str, detail: str = "", seconds: float = 0.0):
        self._fill(name, status, detail, seconds)  # status: "pass" | "fail" | "skip"


class SuiteReport(Record):
    __slots__ = ("name", "checks")

    def __init__(self, name: str, checks: list[CheckResult] | None = None):
        self._fill(name, [] if checks is None else checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict:
        return {s: sum(c.status == s for c in self.checks) for s in ("pass", "fail", "skip")}

    def lines(self) -> list[str]:
        out = [f"== suite {self.name} =="]
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[c.status]
            detail = f" -- {c.detail}" if c.detail else ""
            out.append(f"[{mark}] {self.name}/{c.name}{detail} ({c.seconds * 1000:.0f} ms)")
        cts = self.counts()
        out.append(f"== {self.name}: {cts['pass']} passed, {cts['fail']} failed, "
                   f"{cts['skip']} skipped ==")
        return out


class _Case(Analysis):
    """One corpus entry while its checks run: the Analysis of its group, built
    on first read, and what Lemma 2 reads off the group, with no G/K: its
    normal subgroups and each class's centralizer, once."""

    def __init__(self, entry: CorpusEntry):
        self.entry = entry

    @cached_property
    def group(self) -> FiniteGroup:
        return self.entry.build()

    @cached_property
    def normals(self) -> list[Subgroup]:
        """The normal subgroups other than 1 and G."""
        g = self.group
        return [s for s in g.normal_subgroups() if 1 < len(s) < g.order()]

    @cached_property
    def centralizers(self) -> list[Subgroup]:
        """C_G(x) for the representative x of each class of G, in order."""
        g = self.group
        return [g.centralizer(c.representative) for c in g.conjugacy_classes()]


class _Suite:
    """A suite's checks, recorded entry by entry and reported kind by kind; a
    kind is a name up to its first '/'.  A subclass sets ``name`` and
    ``kinds``, and a corpus suite's ``check(case)`` checks one entry."""

    def __init__(self):
        self.checks = {kind: [] for kind in self.kinds}

    def finish(self) -> SuiteReport:
        return SuiteReport(self.name, [c for checks in self.checks.values() for c in checks])

    def record(self, name: str, ok: bool | None, detail: str = "", seconds: float = 0.0):
        """Record a check; ok None marks it skipped."""
        status = "skip" if ok is None else "pass" if ok else "fail"
        self.checks[name.split("/")[0]].append(CheckResult(name, status, detail, seconds))

    def timed(self, name: str, fn):
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except ConjlabError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(name, ok, detail, time.perf_counter() - t0)


def _check_entries(corpus: list[CorpusEntry], suites: list[_Suite]) -> list[SuiteReport]:
    """Every suite's checks of one entry, then the next entry."""
    for entry in corpus:
        case = _Case(entry)
        for suite in suites:
            suite.check(case)
    return [suite.finish() for suite in suites]


# -- theorem 1 ----------------------------------------------------------------


class _Theorem1(_Suite):
    """SP => CH on every entry, strictness via the order-81 witness, and
    the containment chain CA => CH => F."""

    name, kinds = "theorem1", ("sp_implies_ch", "chain_ca_ch_f", "strictness_remark_3")

    def check(self, case: _Case) -> None:
        name = case.entry.name
        def sp_implies_ch():
            rep = case.predicates
            if rep.sp and not rep.ch:
                return False, f"{name}: sp holds but ch fails"
            return True, ""
        self.timed(f"sp_implies_ch/{name}", sp_implies_ch)
        def chain():
            rep = case.predicates
            if rep.ca and not rep.ch:
                return False, f"{name}: ca holds but ch fails"
            if rep.ch and rep.f is not True:
                return False, f"{name}: ch holds but f is {rep.f}"
            return True, ""
        self.timed(f"chain_ca_ch_f/{name}", chain)
        if name == "remark_3":
            def strictness():
                rep = case.predicates
                ok = rep.ch and rep.ca and not rep.sp
                return ok, f"ca={rep.ca} ch={rep.ch} sp={rep.sp}"
            self.timed("strictness_remark_3", strictness)

    def finish(self) -> SuiteReport:
        if not self.checks["strictness_remark_3"]:
            self.record("strictness_remark_3", None, "entry not in corpus")
        return super().finish()


def run_theorem1_suite(corpus: list[CorpusEntry]) -> SuiteReport:
    return _check_entries(corpus, [_Theorem1()])[0]


# -- theorem 2 ----------------------------------------------------------------


class _Theorem2(_Suite):
    name, kinds = "theorem2", ("classify", "formula", "typeI_N_equals_NP", "frobenius_sizes")

    def check(self, case: _Case) -> None:
        entry = case.entry
        def classified():
            g = case.group
            if entry.expected_order is not None and g.order() != entry.expected_order:
                return False, f"order {g.order()} != expected {entry.expected_order}"
            enumerated = frozenset(n_set(g))
            if entry.expected_N is not None and enumerated != entry.expected_N:
                return False, (f"N {sorted(enumerated)} != expected "
                               f"{sorted(entry.expected_N)}")
            rep = case.predicates
            cls = case.classification
            if (cls.verdict is Verdict.NOT_SP) != (not rep.sp):
                return False, "NotSP verdict disagrees with is_sp"
            if cls.verdict is Verdict.NOT_SP:
                a, b = cls.witness
                if not (a in enumerated and b in enumerated and b % a == 0):
                    return False, f"bad NotSP witness {cls.witness}"
            if rep.sp:
                recognized = cls.verdict is Verdict.ABELIAN or cls.verdict in TYPE_VERDICTS
                if not recognized:
                    return False, f"SP entry is {cls.verdict.value}"
            if cls.verdict in TYPE_VERDICTS and not rep.sp:
                return False, f"{cls.verdict.value} verdict on a non-SP group"
            if entry.expected_verdict not in (None, cls.verdict.value):
                return False, (f"verdict {cls.verdict.value} != expected "
                               f"{entry.expected_verdict}")
            return True, ""
        self.timed(f"classify/{entry.name}", classified)
        # formula checks: stored expectation, formula value and enumeration
        # must all agree
        if entry.recipe.get("family") in ("sl2", "gl2") and entry.recipe["params"][0] >= 4:
            def by_formula():
                formula = expected_N_linear(entry.recipe["family"], entry.recipe["params"][0])
                enumerated = frozenset(n_set(case.group))
                if enumerated != formula.values:
                    return False, (f"enumerated {sorted(enumerated)} != formula "
                                   f"{sorted(formula.values)} [{formula.provenance}]")
                if entry.expected_N is not None and enumerated != entry.expected_N:
                    return False, "stored expectation disagrees with enumeration"
                return True, formula.provenance
            self.timed(f"formula/{entry.name}", by_formula)
        # F(V)-style: for type-I verdicts, N(G) equals N(P) for the p-factor
        def type_i():
            cls = case.classification
            if cls.verdict is not Verdict.TYPE_I:
                return True, "not TypeI"
            g = case.group
            sylow = g.normal_sylow(cls.evidence["p"])
            if sylow is None:
                return False, "TypeI evidence names a prime without normal Sylow"
            if subgroup_n_set(g, sylow) != frozenset(n_set(g)):
                return False, "N(G) != N(P)"
            return True, ""
        self.timed(f"typeI_N_equals_NP/{entry.name}", type_i)
        # F(II)-literal: with trivial center the class sizes are the kernel
        # and complement image orders, and those orders are coprime
        def frobenius_sizes():
            cls = case.classification
            if cls.verdict not in (Verdict.TYPE_II, Verdict.TYPE_III):
                return True, "not TypeII/III"
            ko = cls.evidence.get("kernel_image_order")
            co = cls.evidence.get("complement_image_order")
            if ko is None:
                ko = cls.evidence["kernel_preimage_order"] // cls.evidence["center_order"]
                co = cls.evidence["complement_preimage_order"] // cls.evidence["center_order"]
            if gcd(ko, co) != 1:
                return False, f"kernel/complement image orders {ko}, {co} not coprime"
            if cls.verdict is Verdict.TYPE_II and len(case.group.center()) == 1:
                if frozenset(n_set(case.group)) != {ko, co}:
                    return False, (f"Z=1 TypeII N {sorted(n_set(case.group))} != "
                                   f"{{kernel, complement}} = {sorted({ko, co})}")
            return True, ""
        self.timed(f"frobenius_sizes/{entry.name}", frobenius_sizes)


def run_theorem2_suite(corpus: list[CorpusEntry]) -> SuiteReport:
    return _check_entries(corpus, [_Theorem2()])[0]


# -- corollaries ---------------------------------------------------------------


class _Corollaries(_Suite):
    name, kinds = "corollaries", ("corollary1", "corollary2")

    def check(self, case: _Case) -> None:
        def corollary1():
            rep = case.predicates
            if not (rep.sp and rep.rank == 2):
                return True, "not a rank-2 SP group"
            ok = check_corollary1(case)
            return ok, "" if ok else "G/Z is not a solvable Frobenius group"
        self.timed(f"corollary1/{case.entry.name}", corollary1)
        def corollary2():
            rep = case.predicates
            if not rep.sp:
                return True, "not SP"
            if rep.rank > 3:
                return False, f"SP group with |N(G)| = {rep.rank} > 3"
            return True, ""
        self.timed(f"corollary2/{case.entry.name}", corollary2)


def run_corollary_suite(corpus: list[CorpusEntry]) -> SuiteReport:
    return _check_entries(corpus, [_Corollaries()])[0]


# -- lemma-level invariants ----------------------------------------------------


def _check_lemma2_v(case: _Case):
    """Lemma 2 (v), C_G(x)K/K <= C_{G/K}(xK), for every normal K at once: cbar
    lies in C_{G/K}(xbar) exactly when [x, c] lies in K, and [x, c] = 1 lies
    in every K when the generators c of C_G(x) commute with x.  Returns the
    first failure or None."""
    g = case.group
    for cls, cg in zip(g.conjugacy_classes(), case.centralizers):
        if not g.commute((cls.representative,), cg.gens):
            return f"(v) centralizer image escapes C(xbar) for x={cls.representative}"
    return None


def _check_lemma2_for_normal(case: _Case, idx: int):
    """Lemma 2 parts (i) and (iv) for the idx-th normal subgroup K, off G's
    cosets of K (K is coset 0) with no division: (i) on one member of each
    class of K, and on each class representative x of G, with |xbar^{G/K}|
    the number of cosets x^G meets; (iv) when (|x|, |K|) = 1, where the image
    of C_G(x), of order |C_G(x)| / |C_G(x) & K|, is all of C_{G/K}(xbar), of
    order |G/K| / |xbar^{G/K}|.  Each x counts a (v) tuple too, which
    _check_lemma2_v decides for every K.  Returns (tuples_checked,
    first_failure_or_None)."""
    g, kernel = case.group, case.normals[idx]
    (ksizes, k_firsts), cosets = g.subgroup_classes(kernel), g.cosets(kernel)
    orders, elements, checked = g.element_orders(), g.elements(), 0
    for i in k_firsts:
        # (i): |x^K| divides |x^G|
        x = elements[kernel.positions[i]]
        checked += 1
        if g.class_size(x) % ksizes[i]:
            return checked, f"(i) |x^K| does not divide |x^G| for x={x}"
    for cls, cg in zip(g.conjugacy_classes(), case.centralizers):
        x, count = cls.representative, len(set(map(cosets.__getitem__, cls.positions)))
        checked += 1
        # (i) image half: |xbar^{G/K}| divides |x^G|
        if cls.size % count:
            return checked, f"(i) quotient class size does not divide |x^G| for x={x}"
        checked += 1  # (v)
        if gcd(orders[x], len(kernel)) == 1:
            checked += 1
            if len(kernel) * len(cg) * count != \
                    g.order() * list(map(cosets.__getitem__, cg.positions)).count(0):
                return checked, f"(iv) centralizer image != C(xbar) for x={x}"
    return checked, None


def _lemma2_iii_pairs(g: FiniteGroup):
    """The pairs Lemma 2 (iii) is checked on: x a noncentral class
    representative and y in C(x), in G's element order, noncentral (else the
    identity is trivial) and of order coprime to |x|."""
    orders, center, elements = g.element_orders(), g.center().members, g.elements()
    reps = [c.representative for c in g.conjugacy_classes() if c.size > 1]
    tried = ((x, elements[p]) for x in reps for p in g.centralizer(x).positions)
    return [(x, y) for x, y in tried if y not in center and gcd(orders[x], orders[y]) == 1]


def _check_lemma2_iii(g: FiniteGroup, pairs):
    """Lemma 2 (iii) on the given pairs: commuting x, y of coprime orders
    have C(xy) = C(x) & C(y).  Returns (pairs_checked, first_failure_or_None)."""
    checked = 0
    for checked, (x, y) in enumerate(pairs, 1):
        cxy = set(g.centralizer(g.mul(x, y)).positions)
        if cxy != set(g.centralizer(x).positions).intersection(g.centralizer(y).positions):
            return checked, f"(iii) C(xy) != C(x) & C(y) for x={x}, y={y}"
    return checked, None


def _check_lemma9(g: FiniteGroup, kernel: Subgroup, complement: Subgroup):
    """Fixed points times commutator part reconstitute an abelian kernel
    acted on by a coprime complement."""
    if not g.is_abelian(kernel):
        return "kernel is not abelian"
    elements = g.elements()
    fixed = [k for k in map(elements.__getitem__, kernel.positions)
             if g.commute((k,), complement.gens)]
    fixed_sub = g.subgroup_from_elements(fixed)
    if len(fixed_sub) != len(fixed):
        return "fixed points are not a subgroup"
    comm_gens = []
    for k in kernel.gens:
        for a in map(elements.__getitem__, complement.positions):
            c = g.mul(g.inv(k), g.conj(k, a))
            if c != g.identity:
                comm_gens.append(c)
    comm_sub = g.subgroup_from_elements(comm_gens)
    if not comm_sub.members <= kernel.members:
        return "[P, A] escapes the kernel"
    if len(fixed_sub) * len(comm_sub) != len(kernel):
        return (f"|C_P(A)| * |[P,A]| = {len(fixed_sub)} * {len(comm_sub)} "
                f"!= |P| = {len(kernel)}")
    if fixed_sub.members & comm_sub.members != {g.identity}:
        return "C_P(A) meets [P, A] nontrivially"
    product = {g.mul(a, b) for a in fixed_sub.members for b in comm_sub.members}
    if product != set(kernel.members):
        return "C_P(A) x [P, A] does not reconstitute P"
    return None


class _Lemmas(_Suite):
    """Lemmas 3, 9 and 1 on tagged entries, and Lemma 2 on every tuple of
    each entry up to LEMMA2_ORDER_BOUND (K's classes, G's class representatives
    against each normal K, every (iii) pair), skipped where there is none."""

    name, kinds = "lemmas", ("lemma3", "lemma9", "lemma1", "lemma2_exhaustive")

    def check(self, case: _Case) -> None:
        entry = case.entry
        # Lemma 3: nonabelian p-groups have noncyclic central quotient
        if "p_group" in entry.tags:
            def lemma3():
                if case.group.is_abelian():
                    return False, "tagged p-group is abelian"
                cyclic = case.quotient.order() in case.quotient.element_orders().values()
                return not cyclic, "P/Z(P) is cyclic" if cyclic else ""
            self.timed(f"lemma3/{entry.name}", lemma3)
        # Lemma 9 on the Frobenius kernel of G/Z (type3) or of G (AGL; a Frobenius G is G/Z)
        if entry.tags & {"frobenius_kernel", "frobenius_kernel_quotient"}:
            def lemma9():
                g = case.quotient if "frobenius_kernel_quotient" in entry.tags else case.group
                frob = case.frobenius if g is case.quotient else None
                if frob is None or frob.complement is None:
                    return False, "no Frobenius structure with recoverable complement"
                fail = _check_lemma9(g, frob.kernel, frob.complement)
                return fail is None, fail or ""
            self.timed(f"lemma9/{entry.name}", lemma9)
        # Lemma 1 (contrapositive) on direct products: when every p'-element
        # has p-free index, G = P x T
        if "product" in entry.tags:
            def lemma1():
                g = case.group
                orders = g.element_orders()
                for p, _ in factor(g.order()):
                    if any(c.size % p == 0 for c in g.conjugacy_classes()
                           if orders[c.representative] % p):
                        continue
                    if g.sylow_split(p) is None:
                        return False, f"p={p}: hypothesis holds but G is not P x T"
                return True, ""
            self.timed(f"lemma1/{entry.name}", lemma1)
        # Lemma 2; a group that cannot be built fails here with its build error
        def lemma2():
            g = case.group
            if g.order() > LEMMA2_ORDER_BOUND:
                return None, f"order {g.order()} > {LEMMA2_ORDER_BOUND}"
            results = [_check_lemma2_for_normal(case, idx) for idx in range(len(case.normals))]
            if case.normals:  # (v), decided once for every K, after each K's (i) and (iv)
                results.append((0, _check_lemma2_v(case)))
            results.append(_check_lemma2_iii(g, _lemma2_iii_pairs(g)))
            fail = next((f for _, f in results if f), None)
            total = sum(n for n, _ in results)
            if not (fail or total):
                return None, "no normal subgroup other than 1 and G and no (iii) pair"
            return not fail, fail or f"{total} tuples, {results[-1][0]} (iii) pairs"
        self.timed(f"lemma2_exhaustive/{entry.name}", lemma2)


def run_lemma_invariants(corpus: list[CorpusEntry]) -> SuiteReport:
    return _check_entries(corpus, [_Lemmas()])[0]


# -- Schur cover ---------------------------------------------------------------


class _SchurCover(_Suite):
    name, kinds = "schur_cover", ("cover_class_sizes",)


def run_schur_cover_check(path=None) -> SuiteReport:
    """Data-driven check of the order-2160 cover of PSL(2, 9): the file is
    externally sourced, and the check is SKIPPED when it is absent."""
    suite = _SchurCover()
    path = path or default_schur_cover_path()
    if path is None or not Path(path).exists():
        suite.record("cover_class_sizes", None, "no generator file supplied")
        return suite.finish()

    def check():
        try:
            g = load_group_spec(path)
        except SpecFileError as exc:
            return False, f"unreadable cover file: {exc}"
        order, expected = SCHUR_COVER_PSL29_ORDER, sorted(SCHUR_COVER_PSL29_N)
        if g.order() != order:
            return False, f"order {g.order()} != {order}"
        enumerated = sorted(n_set(g))
        if enumerated != expected:
            return False, f"N = {enumerated} != {expected}"
        sp, _ = is_sp(g)
        if not sp:
            return False, "cover group is not SP"
        return True, f"order {order}, N = {expected}, SP"
    suite.timed("cover_class_sizes", check)
    return suite.finish()


# -- driver --------------------------------------------------------------------


def _release_freed_heap() -> None:
    """Return the heap's freed pages, which small chunks cached high in it can
    hold, to the system: glibc's malloc_trim, a no-op without it."""
    try:
        import ctypes
        trim = ctypes.CDLL(None).malloc_trim
    except (ImportError, AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def run_all(corpus: list[CorpusEntry] | None = None, schur_path=None) -> list[SuiteReport]:
    """The four corpus suites, run entry by entry, then the Schur cover."""
    if corpus is None:
        corpus = default_corpus()
    suites = [_Theorem1(), _Theorem2(), _Corollaries(), _Lemmas()]
    # The cover is the largest group built here.  Checked first, its memory
    # is reused by the entries; checked last, it would add to their heap.
    cover = run_schur_cover_check(schur_path)
    _release_freed_heap()
    return _check_entries(corpus, suites) + [cover]
