"""Seeded inputs and the fixed correctness gate of the conjlab benchmark.

Each analyze workload is a fixed list of groups.  A run writes one group-spec
file per group, built with conjlab's public API and then re-presented from the
workload seed: matrix groups by a random change of basis over their field,
permutation groups by a random relabelling of the points.  Re-presentation
changes the spec bytes and the work (the canonical generators make every
class minimum its own orbit seed, which skips the centralizer transport), but
never the answer, so the expected values below are fixed literals.

The literals were taken from the canonical presentations at the commit that
introduced the benchmark.  ``oracle_mismatches`` re-derives what it can from
conjlab's own oracles (the corpus expectations and ``expected_N_linear``), so
a drift between this table and those oracles is caught.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from conjlab import families, specio, verify
from conjlab.groups import FiniteGroup, MatrixRep, PermutationRep

ALL_TRUE = {"sp": True, "ch": True, "ca": True, "f": True}

SYM8_N = [28, 105, 112, 210, 420, 1120, 1260, 1344, 1680, 2520, 2688, 3360,
          4032, 5040, 5760]
SYM8_EDGES = [[28, 112], [28, 420], [105, 210], [112, 1120], [112, 1344],
              [112, 1680], [210, 420], [420, 1260], [420, 1680], [1120, 3360],
              [1260, 2520], [1344, 2688], [1344, 4032], [1680, 3360],
              [1680, 5040], [2520, 5040]]


def _expect(order, n_set, verdict, flags=ALL_TRUE, edges=()):
    """Gamma is edgeless (N primitive) unless the edges are given."""
    return {"order": order, "N": list(n_set), "verdict": verdict,
            "flags": dict(flags), "edges": [list(e) for e in edges]}


def _schur_cover():
    return specio.load_group_spec(verify.default_schur_cover_path())


def _product(a, b):
    return lambda: families.direct_product(a(), b())


def _heis3_perm():
    return families.to_permutation(families.heisenberg(3))


# name -> (constructor on conjlab's public API, expected analysis facts).
# "f" is None where the order exceeds the F-scan cap and analyze skips F.
MATRIX_GROUPS = {
    "sl2_13": (lambda: families.sl2(13), _expect(2184, [84, 156, 182], "TypeIV")),
    "sl2_16": (lambda: families.sl2(16), _expect(4080, [240, 255, 272], "TypeIV")),
    "sl2_17": (lambda: families.sl2(17), _expect(4896, [144, 272, 306], "TypeIV")),
    "gl2_9": (lambda: families.gl2(9), _expect(5760, [72, 80, 90], "TypeIV")),
    "gl2_11": (lambda: families.gl2(11),
               _expect(13200, [110, 120, 132], "TypeIV", dict(ALL_TRUE, f=None))),
    "type3_11_5": (lambda: families.type3_frobenius(11, 5),
                   _expect(6655, [55, 121], "TypeIII")),
    "type3_13_4": (lambda: families.type3_frobenius(13, 4),
                   _expect(8788, [52, 169], "TypeIII")),
    "heisenberg_11": (lambda: families.heisenberg(11), _expect(1331, [11], "TypeI")),
}

PERMUTATION_GROUPS = {
    "schur_cover_psl29": (_schur_cover, _expect(2160, [72, 90, 120], "TypeV")),
    "sl2_9_regular": (lambda: families.to_permutation(families.sl2(9)),
                      _expect(720, [40, 72, 90], "TypeIV")),
    "agl1_49": (lambda: families.agl1(49), _expect(2352, [48, 49], "TypeII")),
    "agl1_64": (lambda: families.agl1(64), _expect(4032, [63, 64], "TypeII")),
    "sym_8": (lambda: families.symmetric_group(8),
              _expect(40320, SYM8_N, "NotSP",
                      {"sp": False, "ch": False, "ca": False, "f": None}, SYM8_EDGES)),
    "c7_x_heis3": (_product(lambda: families.cyclic_group(7), _heis3_perm),
                   _expect(189, [3], "TypeI")),
    "heis3_x_c9": (_product(_heis3_perm, lambda: families.cyclic_group(9)),
                   _expect(243, [3], "TypeI")),
    "remark3_x_c3": (_product(lambda: families.remark_group(3),
                              lambda: families.cyclic_group(3)),
                     _expect(243, [3, 9], "NotSP",
                             {"sp": False, "ch": True, "ca": True, "f": True},
                             [[3, 9]])),
}

WORKLOAD_GROUPS = {"analyze_matrix": MATRIX_GROUPS, "analyze_perm": PERMUTATION_GROUPS}


def _rebase(group: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """Conjugate every generator by one random invertible matrix."""
    rep = group.rep
    size = rep.dim * rep.dim
    while True:
        basis = tuple(rng.randrange(rep.field.q) for _ in range(size))
        try:
            basis_inv = rep.inv(basis)
            break
        except ValueError:  # singular draw
            continue
    gens = tuple(rep.mul(rep.mul(basis_inv, g), basis) for g in group.generators)
    return FiniteGroup(rep, gens, name=group.name, max_order=group.max_order)


def _relabel(group: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """Rename the points by one random permutation sigma (i -> sigma[i])."""
    n = group.rep.degree
    sigma = list(range(n))
    rng.shuffle(sigma)
    inverse = [0] * n
    for i, s in enumerate(sigma):
        inverse[s] = i
    gens = tuple(tuple(sigma[g[inverse[i]]] for i in range(n)) for g in group.generators)
    return FiniteGroup(PermutationRep(n), gens, name=group.name, max_order=group.max_order)


def represent(group: FiniteGroup, seed: int, name: str) -> FiniteGroup:
    """The seeded re-presentation of one group; each group draws from its own
    stream, so adding a group does not change the others' inputs."""
    rng = random.Random(f"{seed}/{name}")
    if isinstance(group.rep, MatrixRep):
        return _rebase(group, rng)
    return _relabel(group, rng)


def spec_bytes(workload: str, seed: int) -> dict[str, bytes]:
    """name -> spec-file bytes for every group of an analyze workload."""
    out = {}
    for name, (build, _) in WORKLOAD_GROUPS[workload].items():
        spec = specio.group_spec_dict(represent(build(), seed, name))
        out[name] = (json.dumps(spec, sort_keys=True) + "\n").encode("utf-8")
    return out


def write_specs(workload: str, seed: int, directory: Path) -> list[tuple[str, Path]]:
    """Write the workload's spec files; returns (name, path) in request order."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for name, data in spec_bytes(workload, seed).items():
        path = directory / f"{name}.json"
        path.write_bytes(data)
        out.append((name, path))
    return out


def expected(workload: str, name: str) -> dict:
    return WORKLOAD_GROUPS[workload][name][1]


def report_mismatches(report: dict, expect: dict) -> list[str]:
    """Differences between an analyze JSON report and the fixed expectation."""
    got = {
        "order": report["order"],
        "N": report["N"],
        "edges": report["gamma"]["edges"],
        "flags": {k: report["predicates"][k] for k in ("sp", "ch", "ca", "f")},
        "verdict": report["classification"]["verdict"],
    }
    return [f"{key}: got {got[key]!r}, expected {expect[key]!r}"
            for key in got if got[key] != expect[key]]


def oracle_mismatches() -> list[str]:
    """Where the fixed table disagrees with conjlab's own oracles."""
    problems = []
    corpus = {e.name: e for e in verify.default_corpus()}
    table = {**MATRIX_GROUPS, **PERMUTATION_GROUPS}
    for name, corpus_name in (("sl2_13", "sl2_13"), ("gl2_9", "gl2_9"),
                              ("type3_13_4", "type3_13_4"),
                              ("c7_x_heis3", "prod_c7_heis3")):
        entry, expect = corpus[corpus_name], table[name][1]
        if (expect["order"], set(expect["N"]), expect["verdict"]) != \
                (entry.expected_order, set(entry.expected_N), entry.expected_verdict):
            problems.append(f"{name} disagrees with corpus entry {corpus_name}")
    for name, kind, q in (("sl2_13", "sl2", 13), ("sl2_16", "sl2", 16),
                          ("sl2_17", "sl2", 17), ("gl2_9", "gl2", 9),
                          ("gl2_11", "gl2", 11)):
        if set(table[name][1]["N"]) != verify.expected_N_linear(kind, q).values:
            problems.append(f"{name} disagrees with expected_N_linear({kind!r}, {q})")
    return problems
