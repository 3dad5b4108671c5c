"""What one conjlab process pays before any group work, and the value
classes that keep it small.

No conjlab module imports ``dataclasses`` or ``typing``: importing
``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
its decorators compile generated code, which together cost a fresh process
more than all of conjlab's own module code.  The value classes are plain
``__slots__`` classes with the behaviour the decorator used to give them.
"""

import json
import pickle
import subprocess
import sys
from collections.abc import Hashable
from pathlib import Path

import pytest

import conjlab as cj
from conjlab import classgraph, classifier, groups, predicates, verify
from conjlab.specio import write_group_spec

SRC = Path(cj.__file__).resolve().parent.parent
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")

# Run by a fresh `python -S` (no site module, so no .pth file can preload
# typing): argv is the source directory and a small spec file.
PROBE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
HEAVY = %r
import conjlab.cli
seen = {"import": [m for m in HEAVY if m in sys.modules],
        "bound": [m for m in ("conjlab.verify", "conjlab.families") if m in sys.modules]}
for argv in (["analyze", sys.argv[2]], ["gamma", "3,6"]):
    code = conjlab.cli.run_command(argv, out=io.StringIO(), err=io.StringIO())
    seen[argv[0]] = [code] + [m for m in HEAVY if m in sys.modules]
print(json.dumps(seen))
""" % (HEAVY,)


def test_cli_start_imports_no_class_generator(tmp_path):
    spec = tmp_path / "s4.json"
    write_group_spec(cj.symmetric_group(4), spec)
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, str(SRC), str(spec)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import"] == []
    # perfbench's tracer looks both up right after `import conjlab.cli`
    assert seen["bound"] == ["conjlab.verify", "conjlab.families"]
    assert seen["analyze"] == [0] and seen["gamma"] == [0]


_SUB = groups.Subgroup("rep", frozenset({(0, 1), (1, 0)}), ((1, 0),))
_TRIVIAL = groups.Subgroup("rep", frozenset({(0, 1)}), ())

# class, required field values, defaulted field values as {name: default},
# frozen, and one changed value for the first field
VALUE_CLASSES = [
    (groups.ConjugacyClass, {"representative": (1, 0), "size": 1,
                             "members": frozenset({(1, 0)})}, {}, True, (0, 1)),
    (groups.Subgroup, {"rep": "rep", "members": _SUB.members, "gens": _SUB.gens}, {},
     True, "other"),
    (classgraph.ClassSizeSet, {"sizes": (1, 1, 2, 3, 3), "N": (2, 3)}, {}, True, (1,)),
    (classgraph.CoverDigraph, {"vertices": (2, 4), "edges": ((2, 4),)}, {}, True, (3,)),
    (predicates.PredicateReport, {"sp": True, "ch": False, "ca": True, "f": None, "rank": 2},
     {"sp_witness": None, "ch_witness": None, "ca_witness": None, "f_witness": None},
     True, False),
    (classifier.FrobeniusStructure, {"kernel": _SUB, "complement_order": 3,
                                     "complement": None}, {}, True, _TRIVIAL),
    (classifier.SPClassification, {"verdict": classifier.Verdict.TYPE_I},
     {"evidence": {}, "witness": None, "all_matching": ()}, True, classifier.Verdict.NOT_SP),
    (classifier.FormulaExpectation, {"values": frozenset({20, 24, 30}),
                                     "provenance": "formula"}, {}, True, frozenset()),
    (verify.CorpusEntry, {"name": "s3", "recipe": {"family": "sym", "params": [3]}},
     {"expected_order": None, "expected_N": None, "expected_verdict": None,
      "tags": frozenset()}, False, "s4"),
    (verify.CheckResult, {"name": "order", "status": "pass"}, {"detail": "", "seconds": 0.0},
     True, "N"),
    (verify.SuiteReport, {"name": "theorem1"}, {"checks": []}, False, "theorem2"),
]


@pytest.mark.parametrize("cls, required, defaults, frozen, changed", VALUE_CLASSES,
                         ids=[case[0].__name__ for case in VALUE_CLASSES])
def test_value_class_semantics(cls, required, defaults, frozen, changed):
    names = list(required) + list(defaults)
    fields = {**required, **defaults}
    obj = cls(*required.values())
    assert {name: getattr(obj, name) for name in names} == fields  # the defaults
    assert cls(**required) == obj == cls(*fields.values()) == cls(**fields)
    for name, default in defaults.items():
        if isinstance(default, (dict, list)):  # a new container per instance
            assert getattr(obj, name) is not getattr(cls(*required.values()), name)

    other = cls(**{**fields, names[0]: changed})
    assert obj != other and not obj == other
    assert obj != tuple(fields.values()) and obj != object()

    if cls is groups.Subgroup:
        assert repr(obj) == "Subgroup(order=2 in 'rep')"
    else:
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(obj) == f"{cls.__name__}({shown})"

    restored = pickle.loads(pickle.dumps(obj))
    assert type(restored) is cls and restored == obj and repr(restored) == repr(obj)

    if frozen:
        assert isinstance(obj, Hashable)
        if all(isinstance(value, Hashable) for value in fields.values()):
            assert hash(obj) == hash(cls(*fields.values()))
            assert len({obj, cls(**fields), other}) == 2
        with pytest.raises(AttributeError):
            setattr(obj, names[0], changed)
        with pytest.raises(AttributeError):
            delattr(obj, names[0])
        assert getattr(obj, names[0]) == fields[names[0]]
    else:
        with pytest.raises(TypeError):
            hash(obj)
        setattr(obj, names[0], changed)
        assert obj == other
