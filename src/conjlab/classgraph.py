"""Class-size sets N(G) and the divisibility-cover digraph Gamma.

Vertices are the class sizes excluding 1; x -> y is an edge when x
divides y and no third member sits divisibility-between them.  A set is
primitive exactly when the graph has no edges, and the two ways of
deciding that (edge scan vs direct pairwise divisibility) are computed
independently and cross-checked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, InternalCheckError
from .groups import FiniteGroup

# build_gamma's pair scan grows about quadratically: 1,200 members take
# about 1.3 s of CPU and 4,800 about 26 s.
MAX_GAMMA_MEMBERS = 1000


@dataclass(frozen=True)
class ClassSizeSet:
    """Sorted class-size multiset and the set N (sizes > 1)."""

    sizes: tuple[int, ...]
    N: tuple[int, ...]


@dataclass(frozen=True)
class CoverDigraph:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def class_size_set(g: FiniteGroup) -> ClassSizeSet:
    sizes = tuple(g.class_sizes())
    n = tuple(sorted({s for s in sizes if s > 1}))
    total = sum(sizes)
    if total != g.order():
        raise InternalCheckError(f"class sizes sum to {total}, order is {g.order()}")
    return ClassSizeSet(sizes=sizes, N=n)


def n_set(g: FiniteGroup) -> tuple[int, ...]:
    """N(G): the distinct conjugacy class sizes excluding 1."""
    return class_size_set(g).N


def _check_members(theta) -> list[int]:
    members = sorted(set(theta))
    if len(members) > MAX_GAMMA_MEMBERS:
        raise CapExceeded(f"Gamma member count {len(members)}", MAX_GAMMA_MEMBERS)
    for x in members:
        if x <= 1:
            raise ValueError(f"Gamma members must be > 1, got {x}")
    return members


def build_gamma(theta) -> CoverDigraph:
    """Divisibility-cover digraph on a finite set of integers > 1."""
    members = _check_members(theta)
    mset = set(members)
    edges = []
    for x in members:
        for y in members:
            if x == y or y % x:
                continue
            if any(z not in (x, y) and z % x == 0 and y % z == 0 for z in mset):
                continue
            edges.append((x, y))
    edges.sort()
    return CoverDigraph(vertices=tuple(members), edges=tuple(edges))


def is_primitive(theta) -> bool:
    """No member divides another; cross-checked against the edge test."""
    members = _check_members(theta)
    direct = not any(y % x == 0
                     for i, x in enumerate(members) for y in members[i + 1:])
    via_gamma = not build_gamma(members).edges
    if direct != via_gamma:
        raise InternalCheckError(
            f"primitivity disagreement on {members}: pairwise={direct}, gamma={via_gamma}")
    return direct


def export(graph: CoverDigraph) -> bytes:
    """Byte-stable DOT rendering."""
    lines = ["digraph Gamma {"]
    lines += [f"  {v};" for v in graph.vertices]
    lines += [f"  {a} -> {b};" for a, b in graph.edges]
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
