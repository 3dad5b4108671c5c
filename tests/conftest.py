import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conjlab import verify
from conjlab.classifier import classify
from conjlab.groups import FiniteGroup
from conjlab.predicates import evaluate


@pytest.fixture(scope="session")
def corpus():
    """The bundled corpus, as plain data."""
    return verify.default_corpus()


@pytest.fixture(scope="session")
def corpus_by_name(corpus):
    return {entry.name: entry for entry in corpus}


@pytest.fixture(scope="session")
def group_of(corpus_by_name):
    """name -> that corpus group, built once per test session."""
    return functools.cache(lambda name: corpus_by_name[name].build())


@pytest.fixture(scope="session")
def predicates_of(group_of):
    return functools.cache(lambda name: evaluate(group_of(name)))


@pytest.fixture(scope="session")
def classification_of(group_of):
    return functools.cache(lambda name: classify(group_of(name)))


@pytest.fixture(scope="session")
def verify_reports(corpus):
    """verify.run_all over the bundled corpus and cover at the default seed
    and 500 sampled tuples, once per test session: suite name -> report."""
    return {r.name: r for r in verify.run_all(corpus=corpus, schur_path=None, min_tuples=500)}


@pytest.fixture
def closures(monkeypatch):
    """The groups that FiniteGroup._closure enumerates during the test, in order."""
    closed, closure = [], FiniteGroup._closure

    def counted(self, *args, **kwargs):
        closed.append(self)
        return closure(self, *args, **kwargs)
    monkeypatch.setattr(FiniteGroup, "_closure", counted)
    return closed
