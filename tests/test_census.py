"""A Theorem-2 census: subgroups that no one picked, drawn from a fixed seed.

Each draw takes one to three elements of an ambient group and closes them
inside it; every distinct subgroup is then classified as a group of its own.
Theorem 2 says an SP group is abelian or of one of the five types, and
Theorem 1 that SP implies CH, so no SP subgroup may come out Unrecognized,
and each verdict's evidence orders must add up.
"""

import random
from collections import Counter
from math import gcd

import pytest

import conjlab as cj
from conjlab.classifier import TYPE_VERDICTS, Verdict, classify
from conjlab.groups import FiniteGroup
from conjlab.predicates import is_ch, is_sp

SEED = 2024
DRAWS = 600
AMBIENT = {
    "sym_6": lambda: cj.symmetric_group(6),
    "gl2_4": lambda: cj.gl2(4),
    "gl2_5": lambda: cj.gl2(5),
    "gl2_7": lambda: cj.gl2(7),
    "agl1_9": lambda: cj.agl1(9),
}


def _census():
    """(ambient name, subgroup generators, subgroup as a group) for every
    distinct subgroup of the draws, in draw order."""
    rng = random.Random(SEED)
    out = []
    for name, build in AMBIENT.items():
        ambient = build()
        elements, seen = ambient.elements(), set()
        for _ in range(DRAWS):
            sub = ambient.subgroup_from_elements(
                [rng.choice(elements) for _ in range(rng.randint(1, 3))])
            if sub.members not in seen:
                seen.add(sub.members)
                out.append((name, sub.gens, FiniteGroup(sub.rep, sub.gens, max_order=len(sub))))
    return out


def _check_evidence(g, c) -> None:
    ev = c.evidence
    if c.verdict is Verdict.TYPE_I:
        assert ev["sylow_order"] * ev["abelian_factor_order"] == g.order()
    elif c.verdict in (Verdict.TYPE_II, Verdict.TYPE_III):
        z = len(g.center())
        ko = ev.get("kernel_image_order", ev["kernel_preimage_order"] // z)
        co = ev.get("complement_image_order", ev["complement_preimage_order"] // z)
        assert gcd(ko, co) == 1 and ko * co == g.order() // z
    elif c.verdict is Verdict.TYPE_IV:
        # G/Z has the order of PSL2(q) or PGL2(q), and G' that of SL2(q)
        q = ev["q"]
        pgl = q * (q * q - 1)
        assert g.order() // len(g.center()) == (pgl // gcd(2, q - 1) if ev["quotient_kind"] == "psl"
                                                 else pgl)
        assert len(g.derived_subgroup()) == ev["derived_order"] == pgl


@pytest.fixture(scope="module")
def census():
    return [(name, gens, g, classify(g)) for name, gens, g in _census()]


def test_sp_subgroups_are_recognized_with_consistent_evidence(census):
    for name, gens, g, c in census:
        sp = is_sp(g)[0]
        assert (c.verdict is Verdict.NOT_SP) == (not sp), (name, gens)
        if sp:
            assert c.verdict is Verdict.ABELIAN or c.verdict in TYPE_VERDICTS, (name, gens)
            assert is_ch(g)[0], (name, gens)
            _check_evidence(g, c)


def test_census_reaches_every_verdict_but_type_v(census):
    verdicts = Counter(c.verdict for _, _, _, c in census)
    assert set(verdicts) == {Verdict.ABELIAN, Verdict.NOT_SP, *TYPE_VERDICTS} - {Verdict.TYPE_V}
    assert len(census) > 600
