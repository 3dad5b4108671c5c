"""Group-spec files (JSON) and the analysis report.

A spec file holds a name, a kind ("permutation" or "matrix"), a degree
(points or matrix dimension), a field description for matrix groups
({"p", "n", optional "modulus" low-degree-first; the canonical modulus
is used when absent}), and a generator array.  Permutation generators
are 0-based image arrays; matrix generators are degree x degree arrays
whose entries are reduced integers (n = 1) or arrays of n reduced
integers, low degree first.
"""

from __future__ import annotations

import json
import time

from . import classgraph, classifier
from .errors import CapExceeded, SpecFileError
from .gf import Field, make_field
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, MatrixRep, PermutationRep


def parse_group_spec(data, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Build a FiniteGroup from spec-file bytes, text, or a parsed dict."""
    if isinstance(data, (bytes, bytearray, str)):
        data = parse_json(data)
    if not isinstance(data, dict):
        raise SpecFileError("spec must be a JSON object")

    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SpecFileError("spec needs a nonempty string 'name'")
    kind = data.get("kind")
    if kind not in ("permutation", "matrix"):
        raise SpecFileError(f"kind must be 'permutation' or 'matrix', got {kind!r}")
    degree = data.get("degree")
    if not _is_int(degree) or degree < 1:
        raise SpecFileError(f"degree must be a positive integer, got {degree!r}")
    raw_gens = data.get("generators")
    if not isinstance(raw_gens, list) or not raw_gens:
        raise SpecFileError("spec needs a nonempty 'generators' array")

    # The generators are checked against the degree before the
    # representation is built: its identity costs memory linear in the
    # degree (quadratic for matrices), which the spec does not bound.
    if kind == "permutation":
        gens = [_parse_permutation(images, degree, i) for i, images in enumerate(raw_gens)]
        rep = PermutationRep(degree)
    else:
        field = _parse_field(data.get("field"))
        gens = [_parse_matrix(rows, field, degree, i) for i, rows in enumerate(raw_gens)]
        rep = MatrixRep(field, degree)
        for i, enc in enumerate(gens):
            try:
                rep.validate(enc)
            except ValueError as exc:
                raise SpecFileError(f"generator {i}: {exc}") from exc
    group = FiniteGroup(rep, tuple(gens), name=name, max_order=max_order)
    return group


def parse_json(data):
    """Parse JSON from UTF-8 bytes or text.  Malformed JSON, and nesting
    deeper than the decoder's recursion limit, raise SpecFileError."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecFileError("not valid JSON: nested too deeply") from exc


def _is_int(x) -> bool:
    """A JSON integer; JSON true and false load as bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_field(spec) -> Field:
    if not isinstance(spec, dict):
        raise SpecFileError("matrix spec needs a 'field' object with p and n")
    p, n = spec.get("p"), spec.get("n")
    if not (_is_int(p) and _is_int(n)):
        raise SpecFileError(f"bad field description: p and n must be integers, "
                            f"got {p!r} and {n!r}")
    modulus = spec.get("modulus")
    if modulus is not None and (not isinstance(modulus, list)
                                or not all(_is_int(c) for c in modulus)):
        raise SpecFileError(f"bad field description: modulus must be an integer "
                            f"array, got {modulus!r}")
    try:
        if modulus is None:
            return make_field(p, n)
        return Field(p, n, modulus=tuple(modulus))
    except (ValueError, CapExceeded) as exc:
        raise SpecFileError(f"bad field description: {exc}") from exc


def _parse_permutation(images, degree: int, index: int) -> tuple:
    if (not isinstance(images, list) or len(images) != degree
            or not all(_is_int(x) for x in images)
            or sorted(images) != list(range(degree))):
        raise SpecFileError(
            f"generator {index}: {images!r} is not a bijective 0-based "
            f"image array of length {degree}")
    return tuple(images)


def _parse_matrix(rows, field: Field, d: int, index: int) -> tuple:
    if not isinstance(rows, list) or len(rows) != d \
            or any(not isinstance(r, list) or len(r) != d for r in rows):
        raise SpecFileError(f"generator {index}: expected a {d}x{d} array")
    flat = []
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if field.n == 1:
                if not _is_int(entry):
                    raise SpecFileError(
                        f"generator {index}: entry ({r},{c}) must be an integer "
                        f"over the prime field")
                if not 0 <= entry < field.p:
                    raise SpecFileError(
                        f"generator {index}: entry ({r},{c}) = {entry} is not "
                        f"reduced mod {field.p}")
                flat.append(entry)
            else:
                if (not isinstance(entry, list) or len(entry) != field.n
                        or not all(_is_int(x) for x in entry)):
                    raise SpecFileError(
                        f"generator {index}: entry ({r},{c}) must be an array "
                        f"of {field.n} integers (low degree first)")
                if not all(0 <= x < field.p for x in entry):
                    raise SpecFileError(
                        f"generator {index}: entry ({r},{c}) = {entry} is not "
                        f"reduced mod {field.p}")
                flat.append(field.encode(tuple(entry)))
    return tuple(flat)


def load_group_spec(path, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    with open(path, "rb") as fh:
        return parse_group_spec(fh.read(), max_order=max_order)


def group_spec_dict(group: FiniteGroup) -> dict:
    """Serializable spec for a permutation or matrix group."""
    rep = group.rep
    if isinstance(rep, PermutationRep):
        return {
            "name": group.name or "group",
            "kind": "permutation",
            "degree": rep.degree,
            "generators": [list(g) for g in group.generators],
        }
    if isinstance(rep, MatrixRep):
        f = rep.field
        return {
            "name": group.name or "group",
            "kind": "matrix",
            "degree": rep.dim,
            "field": {"p": f.p, "n": f.n, "modulus": list(f.modulus)},
            "generators": [rep.describe(g) for g in group.generators],
        }
    raise SpecFileError(f"cannot serialize a group with representation {rep!r}")


def write_group_spec(group: FiniteGroup, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(group_spec_dict(group), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- analysis reports ---------------------------------------------------------


def analysis_report(group: FiniteGroup) -> dict:
    """Full analysis of one group: order, class data, Gamma, predicates,
    classification.  Everything except the 'timings' key is byte-stable."""
    timings = {}
    analysis = classifier.Analysis(group)
    t0 = time.perf_counter()
    css = classgraph.class_size_set(group)
    timings["classes_s"] = round(time.perf_counter() - t0, 6)
    gamma = classgraph.build_gamma(css.N) if css.N else classgraph.CoverDigraph((), ())
    t0 = time.perf_counter()
    report = analysis.predicates
    timings["predicates_s"] = round(time.perf_counter() - t0, 6)
    t0 = time.perf_counter()
    cls = analysis.classification
    timings["classification_s"] = round(time.perf_counter() - t0, 6)
    describe = group.rep.describe
    return {
        "name": group.name or "group",
        "order": group.order(),
        "center_order": len(group.center()),
        "class_sizes": list(css.sizes),
        "N": list(css.N),
        "rank": report.rank,
        "gamma": {"vertices": list(gamma.vertices),
                  "edges": [list(e) for e in gamma.edges]},
        "predicates": {
            "sp": report.sp,
            "sp_witness": list(report.sp_witness) if report.sp_witness else None,
            "ch": report.ch,
            "ch_witness": [describe(w) for w in report.ch_witness] if report.ch_witness else None,
            "ca": report.ca,
            "ca_witness": [describe(w) for w in report.ca_witness] if report.ca_witness else None,
            "f": report.f,
            "f_witness": [describe(w) for w in report.f_witness] if report.f_witness else None,
        },
        "classification": {
            "verdict": cls.verdict.value,
            "evidence": cls.evidence,
            "witness": list(cls.witness) if cls.witness else None,
            "all_matching": list(cls.all_matching),
        },
        "timings": timings,
    }


def report_json(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


def stable_report_json(report: dict) -> bytes:
    """The byte-stable section: the report minus timings."""
    stable = {k: v for k, v in report.items() if k != "timings"}
    return (json.dumps(stable, indent=2, sort_keys=True) + "\n").encode("utf-8")
