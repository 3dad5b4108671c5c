"""Byte-stability gates: the stable analysis JSON of every corpus group must
hash to the digest recorded in tests/data/analysis_digests.json; the
centralizers' members to the one in
tests/data/centralizer_members_digest.sha256; and the class representatives'
centralizers, members and generators in order, to the one in
tests/data/centralizer_digest.sha256.

A change meant to keep results identical (a refactor, a faster algorithm)
must leave every digest as it is.  A change that alters results on purpose
regenerates the file and says why.
"""

import hashlib
import json
from pathlib import Path

from conjlab import specio

DIGESTS = Path(__file__).parent / "data" / "analysis_digests.json"
CENTRALIZER_DIGEST = Path(__file__).parent / "data" / "centralizer_digest.sha256"
CENTRALIZER_MEMBERS_DIGEST = Path(__file__).parent / "data" / "centralizer_members_digest.sha256"
CENTRALIZER_ORDER_CAP = 3_000


def test_analysis_digests_unchanged(corpus, group_of):
    expected = json.loads(DIGESTS.read_text())
    actual = {entry.name: hashlib.sha256(specio.stable_report_json(
        specio.analysis_report(group_of(entry.name)))).hexdigest() for entry in corpus}
    assert sorted(actual) == sorted(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []


def _centralizer_cases(corpus, group_of):
    """(name, group) for each corpus group of order at most
    CENTRALIZER_ORDER_CAP and its G/Z, in corpus order."""
    for entry in corpus:
        g = group_of(entry.name)
        if g.order() <= CENTRALIZER_ORDER_CAP:
            yield entry.name, g
            yield f"{entry.name}/Z", g.quotient(g.center())


def test_centralizer_members_digest_unchanged(corpus, group_of):
    """(name, x, sorted members of C(x)) for the four least members x of
    every class, the representative first and three moved from it, in class
    order.  Generators are left out, so a change that only regenerates them
    still meets this digest."""
    h = hashlib.sha256()
    for name, grp in _centralizer_cases(corpus, group_of):
        for cls in grp.conjugacy_classes():
            for x in sorted(cls.members)[:4]:
                h.update(repr((name, x, sorted(grp.centralizer(x).members))).encode())
    assert h.hexdigest() == CENTRALIZER_MEMBERS_DIGEST.read_text().strip()


def test_centralizer_digest_unchanged(corpus, corpus_by_name):
    """(name, representative, sorted members, generators in order) of every
    class representative's centralizer, in class order.  A centralizer that
    serves several classes carries the generators of the first class that
    asked for it, so the groups are built anew here, where every centralizer
    is first asked for in class order."""
    h = hashlib.sha256()
    for name, grp in _centralizer_cases(corpus, lambda name: corpus_by_name[name].build()):
        for cls in grp.conjugacy_classes():
            c = grp.centralizer(cls.representative)
            h.update(repr((name, cls.representative, sorted(c.members), c.gens)).encode())
    assert h.hexdigest() == CENTRALIZER_DIGEST.read_text().strip()
