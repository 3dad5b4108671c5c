"""Outside-in tracer for conjlab, kept in the benchmark's own files.

``Tracer.install`` wraps the public functions and methods of the conjlab
modules in place (nothing in ``src`` is modified); ``child.py`` then runs
``conjlab.cli.run_command`` through ``Tracer.command``, the root span.

A span is (thread, seq, parent seq, name, start, end, label); spans live in
memory, one list per thread, until the command ends, and ``dump_spans``
writes them out.  Each thread keeps its own span stack: ``conjlab verify``
prepares corpus entries on a thread pool, and a pool thread's outermost spans
have no parent (-1).  Counters live per thread as well, so the kernel
counters need no lock.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import weakref
from collections import defaultdict
from time import perf_counter

# FiniteGroup stages.  A stage backed by a per-group cache counts a fill
# when the call found that cache empty; the others count the first call on
# each group object.
CACHED_STAGES = {
    "elements": "_elements",
    "conjugacy_classes": "_classes",
    "center": "_center",
    "derived_subgroup": "_derived",
    "normal_subgroups": "_normals",
    "element_orders": "_orders",
}
UNCACHED_STAGES = ("subgroup_from_elements", "quotient", "normal_sylow")
# centralizer counts a fill when a call without ``within`` filled the
# per-class Schreier centralizer cache.

MODULE_SPANS = {
    "predicates": ("is_sp", "is_ch", "is_ca", "is_f"),
    "classgraph": ("class_size_set", "build_gamma"),
    "classifier": ("classify", "find_frobenius_structure", "check_corollary1"),
    "specio": ("parse_group_spec", "analysis_report", "report_json"),
}
VERIFY_SUITES = {
    "run_theorem1_suite": "verify.theorem1",
    "run_theorem2_suite": "verify.theorem2",
    "run_corollary_suite": "verify.corollaries",
    "run_lemma_invariants": "verify.lemmas",
    "run_schur_cover_check": "verify.schur_cover",
}
FAMILY_SPAN = "families.build"
ROOT_SPAN = "cli.run_command"


class _ThreadState:
    __slots__ = ("index", "stack", "spans", "counts", "seq")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[tuple[int, str]] = []
        self.spans: list[tuple] = []
        self.counts: defaultdict = defaultdict(int)
        self.seq = 0


class Tracer:
    """Span and counter store; ``install`` patches conjlab in place."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._seen: dict[str, weakref.WeakSet] = defaultdict(weakref.WeakSet)

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.state = st
            return st

    def first_call(self, name: str, obj) -> bool:
        with self._lock:
            seen = self._seen[name]
            if obj in seen:
                return False
            seen.add(obj)
            return True

    # -- wrappers --------------------------------------------------------

    def span(self, fn, name, before=None, after=None):
        """Wrap fn in a span.  before(args) runs before the call and its
        result goes to after(state, args, token, result), which may return
        a label for the span."""
        state = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            token = before(args, kwargs) if before is not None else None
            seq = st.seq
            st.seq = seq + 1
            parent = st.stack[-1][0] if st.stack else -1
            st.stack.append((seq, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.stack.pop()
                st.spans.append((seq, parent, name, start, perf_counter(), None))
                raise
            end = perf_counter()
            st.stack.pop()
            label = after(st, args, token, result) if after is not None else None
            st.spans.append((seq, parent, name, start, end, label))
            return result
        return wrapper

    def counted(self, fn, name, points: bool = False):
        """Count the calls of a kernel method (and, with ``points``, the
        total length of its first operand); no span, the calls are too many."""
        local = self._local
        register = self.state
        calls_key, points_key = f"{name}.calls", f"{name}.points"

        @functools.wraps(fn)
        def wrapper(self_, a, *rest):
            try:
                counts = local.state.counts
            except AttributeError:
                counts = register().counts
            counts[calls_key] += 1
            if points:
                counts[points_key] += len(a)
            return fn(self_, a, *rest)
        return wrapper

    def install(self) -> None:
        """Patch the conjlab modules.  Every module-level binding of a wrapped
        function is replaced, so ``from .x import f`` call sites go through
        the wrapper too."""
        import conjlab.cli  # imports every conjlab module

        modules = [m for n, m in sys.modules.items()
                   if n == "conjlab" or n.startswith("conjlab.")]
        groups, families, verify = (sys.modules[f"conjlab.{n}"]
                                    for n in ("groups", "families", "verify"))

        def rebind(module, attr, wrapper):
            original = getattr(module, attr)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

        g = groups
        g.PermutationRep.mul = self.counted(g.PermutationRep.mul, "groups.perm_mul", points=True)
        g.MatrixRep.mul = self.counted(g.MatrixRep.mul, "groups.matrix_mul")
        g.MatrixRep.inv = self.counted(g.MatrixRep.inv, "groups.matrix_inv")
        g.QuotientRep.mul = self.counted(g.QuotientRep.mul, "groups.quotient_mul")

        for stage, attr in CACHED_STAGES.items():
            setattr(g.FiniteGroup, stage, self.span(
                getattr(g.FiniteGroup, stage), f"groups.{stage}",
                before=lambda args, kw, attr=attr: getattr(args[0], attr) is None,
                after=self._count_fill(stage)))
        g.FiniteGroup.centralizer = self.span(
            g.FiniteGroup.centralizer, "groups.centralizer",
            before=_centralizer_cache_size, after=self._centralizer_fill)
        for stage in UNCACHED_STAGES:
            setattr(g.FiniteGroup, stage, self.span(
                getattr(g.FiniteGroup, stage), f"groups.{stage}",
                before=lambda args, kw, stage=stage: self.first_call(stage, args[0]),
                after=self._count_fill(stage)))

        for mod_name, attrs in MODULE_SPANS.items():
            module = sys.modules[f"conjlab.{mod_name}"]
            for attr in attrs:
                after = _verdict_label if (mod_name, attr) == ("classifier", "classify") else None
                rebind(module, attr, self.span(getattr(module, attr),
                                               f"{mod_name}.{attr}", after=after))

        for attr, name in VERIFY_SUITES.items():
            rebind(verify, attr, self.span(getattr(verify, attr), name))
        rebind(verify, "run_all", self._check_counter(verify.run_all))

        for attr in _family_constructors(families):
            rebind(families, attr, self._family_span(getattr(families, attr)))

        self.command = self.span(conjlab.cli.run_command, ROOT_SPAN)

    def _count_fill(self, stage):
        key = f"groups.{stage}.fills"
        found_key = "groups.normal_subgroups.found"

        def after(st, args, filled, result):
            if filled:
                st.counts[key] += 1
                if stage == "normal_subgroups":
                    st.counts[found_key] += len(result)
        return after

    @staticmethod
    def _centralizer_fill(st, args, size_before, result):
        if size_before is not None and len(args[0]._rep_centralizers) > size_before:
            st.counts["groups.centralizer.fills"] += 1

    def _check_counter(self, run_all):
        """Count the checks run_all reports; no span, so the time the main
        thread waits for the preparation pool stays unattributed."""
        state = self.state

        @functools.wraps(run_all)
        def wrapper(*args, **kwargs):
            reports = run_all(*args, **kwargs)
            counts = state().counts
            for report in reports:
                for check in report.checks:
                    if check.status != "skip":
                        counts["verify.checks.run"] += 1
                    if check.status == "fail":
                        counts["verify.checks.failed"] += 1
            return reports
        return wrapper

    def _family_span(self, fn):
        """Only the outermost constructor call is a span: sl2 called from
        build_family is one build."""
        wrapped = self.span(fn, FAMILY_SPAN)
        state = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            if st.stack and st.stack[-1][1] == FAMILY_SPAN:
                return fn(*args, **kwargs)
            return wrapped(*args, **kwargs)
        return wrapper

    # -- output ------------------------------------------------------------

    def _spans(self) -> list[tuple]:
        return [(st.index,) + s for st in self._threads for s in st.spans]

    def aggregate(self) -> dict:
        counts: defaultdict = defaultdict(int)
        for st in self._threads:
            for key, value in st.counts.items():
                counts[key] += value
        return aggregate(self._spans(), counts)

    def dump_spans(self, path) -> None:
        payload = {
            "request_id": self.request_id,
            "span_fields": ["thread", "seq", "parent", "name", "start", "end", "label"],
            "spans": self._spans(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _centralizer_cache_size(args, kwargs):
    """Size of the seed-centralizer cache, or None for a ``within`` call."""
    within = kwargs.get("within", args[2] if len(args) > 2 else None)
    if within is not None:
        return None
    return len(args[0]._rep_centralizers)


def _verdict_label(st, args, token, result):
    return result.verdict.value


def _family_constructors(families) -> list[str]:
    """Public functions of conjlab.families that return a group."""
    return [name for name, value in vars(families).items()
            if callable(value) and not isinstance(value, type)
            and not name.startswith("_")
            and getattr(value, "__module__", None) == families.__name__]


def aggregate(spans, counts) -> dict:
    """Per-name calls, self and total seconds, plus the counters.

    Self time is a span's duration minus its direct children's durations
    (children of one thread never overlap).  Total time sums the spans with
    no same-named ancestor, so recursion is not counted twice.  The root's
    unattributed time is its duration minus the union of every thread's
    outermost spans inside it.
    """
    by_key = {(t, seq): (parent, name, start, end, label)
              for t, seq, parent, name, start, end, label in spans}
    child_time: defaultdict = defaultdict(float)
    for (t, seq), (parent, name, start, end, label) in by_key.items():
        if parent >= 0:
            child_time[(t, parent)] += end - start
    out: defaultdict = defaultdict(float)
    root = None
    tops = []
    for (t, seq), (parent, name, start, end, label) in by_key.items():
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child_time[(t, seq)]
        if name == ROOT_SPAN and parent < 0 and t == 0:
            root = (start, end)
        elif parent < 0 or (t == 0 and by_key[(t, parent)][1] == ROOT_SPAN):
            tops.append((start, end))
        if not _has_ancestor(by_key, t, parent, name):
            out[f"{name}.total_s"] += dur
            if label is not None:
                out[f"{name}.{label}.total_s"] += dur
    if root is not None:
        covered, cur_start, cur_end = 0.0, None, None
        for start, end in sorted(tops):
            start, end = max(start, root[0]), min(end, root[1])
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out["trace.unattributed_s"] = (root[1] - root[0]) - covered
    for key, value in counts.items():
        out[key] += value
    return dict(out)


def _has_ancestor(by_key, thread, parent, name) -> bool:
    while parent >= 0:
        parent, pname, *_ = by_key[(thread, parent)]
        if pname == name:
            return True
    return False
