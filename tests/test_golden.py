"""Byte-stability gate: the stable analysis JSON of every corpus group must
hash to the digest recorded in tests/data/analysis_digests.json.

A change meant to keep results identical (a refactor, a faster algorithm)
must leave every digest as it is.  A change that alters results on purpose
regenerates the file and says why.
"""

import hashlib
import json
from pathlib import Path

from conjlab import specio

DIGESTS = Path(__file__).parent / "data" / "analysis_digests.json"


def test_analysis_digests_unchanged(corpus, group_of):
    expected = json.loads(DIGESTS.read_text())
    actual = {entry.name: hashlib.sha256(specio.stable_report_json(
        specio.analysis_report(group_of(entry.name)))).hexdigest() for entry in corpus}
    assert sorted(actual) == sorted(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []
