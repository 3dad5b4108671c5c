import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import conjlab as cj
from conjlab import classgraph, families
from conjlab.cli import _build_parser, run_command
from conjlab.errors import SpecFileError
from conjlab.groups import FiniteGroup
from conjlab.specio import (analysis_report, parse_group_spec, report_json,
                            stable_report_json, write_group_spec)


S3_SPEC = {"name": "s3", "kind": "permutation", "degree": 3,
           "generators": [[1, 0, 2], [1, 2, 0]]}

SL25_SPEC = {"name": "sl2_5ish", "kind": "matrix", "degree": 2,
             "field": {"p": 5, "n": 1},
             "generators": [[[1, 1], [0, 1]], [[0, 1], [4, 0]]]}


def test_parse_permutation_spec():
    g = parse_group_spec(json.dumps(S3_SPEC).encode())
    assert g.order() == 6
    assert g.name == "s3"


def test_parse_matrix_spec_is_sl25():
    g = parse_group_spec(SL25_SPEC)
    assert g.order() == 120
    assert set(cj.n_set(g)) == {12, 20, 30}  # the SL2(5) formula values


def test_parse_rejects_non_bijection():
    bad = dict(S3_SPEC, generators=[[0, 0, 1]])
    with pytest.raises(SpecFileError) as exc:
        parse_group_spec(bad)
    assert "generator 0" in str(exc.value)
    assert "bijective" in str(exc.value)


def test_parse_rejects_singular_matrix():
    bad = dict(SL25_SPEC, generators=[[[1, 1], [2, 2]]])
    with pytest.raises(SpecFileError) as exc:
        parse_group_spec(bad)
    assert "singular" in str(exc.value)


def test_parse_rejects_unreduced_entries():
    bad = dict(SL25_SPEC, generators=[[[1, 6], [0, 1]]])
    with pytest.raises(SpecFileError) as exc:
        parse_group_spec(bad)
    assert "reduced" in str(exc.value)


def test_parse_rejects_malformed():
    with pytest.raises(SpecFileError):
        parse_group_spec(b"{not json")
    with pytest.raises(SpecFileError):
        parse_group_spec({"kind": "permutation"})
    with pytest.raises(SpecFileError):
        parse_group_spec(dict(S3_SPEC, kind="galaxy"))
    with pytest.raises(SpecFileError):
        parse_group_spec(dict(SL25_SPEC, field={"p": 6, "n": 1}))
    # JSON booleans are not integers
    with pytest.raises(SpecFileError):
        parse_group_spec('{"name": "b", "kind": "permutation", "degree": true, '
                         '"generators": [[false]]}')
    with pytest.raises(SpecFileError):
        parse_group_spec(dict(S3_SPEC, generators=[[True, False, 2]]))
    with pytest.raises(SpecFileError):
        parse_group_spec(dict(SL25_SPEC, generators=[[[True, True], [False, True]]]))
    with pytest.raises(SpecFileError):
        parse_group_spec(dict(SL25_SPEC, field={"p": 5, "n": True}))
    with pytest.raises(SpecFileError):
        parse_group_spec(dict(SL25_SPEC, field={"p": 5, "n": 1, "modulus": 5}))
    # nesting deeper than the JSON decoder's recursion limit
    with pytest.raises(SpecFileError):
        parse_group_spec(b"[" * 200_000)
    # a huge degree is rejected by its generators before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(SpecFileError):
            parse_group_spec(dict(S3_SPEC, degree=3_000_000, generators=[[0]]))
        with pytest.raises(SpecFileError):
            parse_group_spec(dict(SL25_SPEC, degree=3_000_000, generators=[[[1]]]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_extension_field_entries_are_coefficient_arrays():
    spec = {"name": "gf4_diag", "kind": "matrix", "degree": 2,
            "field": {"p": 2, "n": 2, "modulus": [1, 1, 1]},
            "generators": [[[[0, 1], [0, 0]], [[0, 0], [1, 0]]]]}
    g = parse_group_spec(spec)
    assert g.order() == 3  # diag(x, 1) has multiplicative order 3
    # ints are rejected over extension fields
    bad = dict(spec, generators=[[[2, 0], [0, 1]]])
    with pytest.raises(SpecFileError):
        parse_group_spec(bad)


def test_write_then_parse_roundtrip(tmp_path):
    g = cj.sl2(5)
    path = tmp_path / "sl2_5.json"
    write_group_spec(g, path)
    back = cj.load_group_spec(path)
    assert back.order() == 120
    assert back.class_sizes() == g.class_sizes()


def test_analysis_report_stable_bytes():
    g = parse_group_spec(S3_SPEC)
    r1 = analysis_report(g)
    r2 = analysis_report(parse_group_spec(S3_SPEC))
    assert stable_report_json(r1) == stable_report_json(r2)
    blob = json.loads(report_json(r1))
    assert blob["order"] == 6
    assert blob["N"] == [2, 3]
    assert blob["classification"]["verdict"] == "TypeII"


# -- CLI ----------------------------------------------------------------------


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_cli_gamma():
    code, out, _ = run_cli("gamma", "3,6,8")
    assert code == 0
    assert "edge: 3 -> 6" in out
    assert "primitive: false" in out

    code, out, _ = run_cli("gamma", "12,20,30")
    assert code == 0
    assert "primitive: true" in out


def test_cli_gamma_invalid():
    code, _, err = run_cli("gamma", "1,3")
    assert code == 1 and "error" in err
    code, _, err = run_cli("gamma", "a,b")
    assert code == 1


def test_cli_construct_then_analyze_roundtrip(tmp_path):
    spec = tmp_path / "r3.json"
    code, out, _ = run_cli("construct", "remark", "3", "-o", str(spec))
    assert code == 0 and spec.exists()

    report_path = tmp_path / "r3_report.json"
    dot_path = tmp_path / "r3.dot"
    code, out, _ = run_cli("analyze", str(spec), "--json", str(report_path),
                           "--dot", str(dot_path))
    assert code == 0
    assert "N(G)       : [3, 9]" in out
    report = json.loads(report_path.read_text())
    assert report["order"] == 81
    assert report["N"] == [3, 9]
    assert report["predicates"]["sp"] is False
    assert report["predicates"]["ca"] is True
    assert dot_path.read_bytes() == b"digraph Gamma {\n  3;\n  9;\n  3 -> 9;\n}\n"


def test_cli_analyze_sl29(tmp_path):
    spec = tmp_path / "sl2_9.json"
    code, _, _ = run_cli("construct", "sl2", "9", "-o", str(spec))
    assert code == 0
    code, out, _ = run_cli("analyze", str(spec))
    assert code == 0
    assert "order      : 720" in out
    assert "[40, 72, 90]" in out
    assert "TypeIV" in out


def test_cli_runs_verify_code_only_for_verify(tmp_path):
    """conjlab.cli binds conjlab.verify lazily: importing the CLI and running
    analyze in a fresh interpreter never runs (or compiles) verify.py, and
    the first attribute read does."""
    spec = tmp_path / "s3.json"
    spec.write_text(json.dumps(S3_SPEC))
    script = (
        "import sys, types, conjlab.cli\n"
        "def ran():\n"
        "    return type(sys.modules['conjlab.verify']) is types.ModuleType\n"
        f"assert conjlab.cli.run_command(['analyze', {str(spec)!r}]) == 0\n"
        "assert not ran()\n"
        "assert conjlab.cli.verify.DEFAULT_SEED and ran()\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cj.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_analyze_json_bytes_stable(tmp_path):
    spec = tmp_path / "d6.json"
    run_cli("construct", "dihedral", "6", "-o", str(spec))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("analyze", str(spec), "--json", str(p1))[0] == 0
    assert run_cli("analyze", str(spec), "--json", str(p2))[0] == 0
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    a.pop("timings"), b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_exit_codes(tmp_path, monkeypatch):
    # invalid input: 1
    code, _, err = run_cli("analyze", str(tmp_path / "missing.json"))
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "permutation", "degree": 3, "generators": [[0, 0, 1]], "name": "x"}')
    code, _, err = run_cli("analyze", str(bad))
    assert code == 1 and "bijective" in err
    bad.write_text("[" * 200_000)
    code, _, err = run_cli("analyze", str(bad))
    assert code == 1 and err.startswith("error:") and "nested too deeply" in err
    # a directory is no spec file: IsADirectoryError ends as exit 1
    empty = tmp_path / "empty_dir"
    empty.mkdir()
    code, _, err = run_cli("analyze", str(empty))
    assert code == 1 and err.startswith("error:") and "Traceback" not in err

    # cap exceeded: 3
    spec = tmp_path / "s6.json"
    assert run_cli("construct", "sym", "6", "-o", str(spec))[0] == 0
    code, _, err = run_cli("analyze", str(spec), "--max-order", "100")
    assert code == 3 and "cap" in err
    # more Gamma members than MAX_GAMMA_MEMBERS, refused before the pair scan
    members = range(2, 3 + classgraph.MAX_GAMMA_MEMBERS)
    code, _, err = run_cli("gamma", ",".join(map(str, members)))
    assert code == 3 and err.startswith("error:") and "cap of 1000" in err
    assert len(classgraph._check_members(members[:-1])) == 1000

    # CONJLAB_MAX_ORDER mirrors --max-order, flag wins
    monkeypatch.setenv("CONJLAB_MAX_ORDER", "100")
    code, _, _ = run_cli("analyze", str(spec))
    assert code == 3
    code, _, _ = run_cli("analyze", str(spec), "--max-order", "200000")
    assert code == 0
    # a cap must be positive, from either source
    for bad_cap in ("0", "-5"):
        code, out, err = run_cli("analyze", str(spec), "--max-order", bad_cap)
        assert code == 1 and err.startswith("error:") and not out
        assert f"--max-order must be a positive integer, got {bad_cap}" in err
        monkeypatch.setenv("CONJLAB_MAX_ORDER", bad_cap)
        code, out, err = run_cli("analyze", str(spec))
        assert code == 1 and err.startswith("error:") and not out
        assert "CONJLAB_MAX_ORDER must be a positive integer" in err
    monkeypatch.delenv("CONJLAB_MAX_ORDER")
    code, _, err = run_cli("construct", "sym", "3", "--max-order", "0", "-o", str(spec))
    assert code == 1 and err.startswith("error:")

    # bad usage: 1
    code, _, _ = run_cli("frobnicate")
    assert code == 1
    code, _, err = run_cli("construct", "sl2", "6", "-o", str(tmp_path / "x.json"))
    assert code == 1 and "not a prime power" in err
    code, _, err = run_cli("verify", "--threads", "2")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("value, exit_code, message", [
    ("-5", 1, "min_tuples must be >= 0, got -5"),
    ("100000000", 3, "min_tuples 100000000 exceeds the configured cap of 1000000"),
])
def test_verify_min_tuples_checked_before_any_group(monkeypatch, value, exit_code, message):
    """A negative --min-tuples is invalid input and one above
    verify.MAX_MIN_TUPLES a cap: both end before any group is enumerated."""
    def no_enumeration(self):
        raise AssertionError("a group was enumerated before --min-tuples was checked")

    monkeypatch.setattr(FiniteGroup, "_closure", no_enumeration)
    start = time.process_time()
    code, out, err = run_cli("verify", "--min-tuples", value)
    assert (code, out) == (exit_code, "") and err == f"error: {message}\n"
    assert time.process_time() - start < 1.0


def test_field_caps_checked_before_primality(tmp_path, monkeypatch):
    def no_primality_test(p):
        raise AssertionError(f"is_prime({p}) ran before the field-size cap")

    monkeypatch.setattr("conjlab.gf.is_prime", no_primality_test)
    spec = tmp_path / "field.json"
    for p, n in ((100000000000031, 1), (3, 3000000)):
        spec.write_text(json.dumps(dict(SL25_SPEC, field={"p": p, "n": n})))
        code, _, err = run_cli("analyze", str(spec))
        assert code == 1 and err.startswith("error:")
        assert f"field size {p}^{n} exceeds the configured cap of 256" in err
        assert "Traceback" not in err


HUGE_PRIME = 1000000000000000003


def test_family_parameters_capped_before_primality(tmp_path, monkeypatch):
    """Every family's order is at least its parameter: a parameter above the
    cap is refused before trial division, factorisation or a big power."""
    cap = cj.DEFAULT_MAX_ORDER
    for name in ("is_prime", "prime_power"):
        original = getattr(families, name)

        def guarded(n, name=name, original=original):
            if n > cap:
                raise AssertionError(f"{name}({n}) ran before the order cap")
            return original(n)

        monkeypatch.setattr(families, name, guarded)
    out = str(tmp_path / "x.json")
    for argv in (["heisenberg", HUGE_PRIME], ["sl2", HUGE_PRIME],
                 ["agl1", HUGE_PRIME], ["type3", HUGE_PRIME, 2],
                 ["remark", 1000003], ["elem_abelian", 2, 300000000]):
        start = time.process_time()
        code, _, err = run_cli("construct", *map(str, argv), "-o", out)
        assert time.process_time() - start < 1.0, argv
        assert code == 3 and err.startswith("error:"), (argv, err)
    # under a cap far above the order, the field cap still comes first
    for argv in (["sl2", HUGE_PRIME], ["gl2", HUGE_PRIME], ["heisenberg", HUGE_PRIME],
                 ["agl1", HUGE_PRIME], ["type3", HUGE_PRIME, 2]):
        start = time.process_time()
        code, _, err = run_cli("construct", *map(str, argv), "-o", out,
                               "--max-order", str(10 ** 30))
        assert time.process_time() - start < 1.0, argv
        assert code == 3 and err.startswith("error:"), (argv, err)
        assert "field size" in err, (argv, err)


@settings(max_examples=150, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_construct_property_exit_codes(tmp_path, data):
    """Any family and any parameters within +-10^30 end in exit 0, 1 or 3
    with no traceback."""
    family = data.draw(st.sampled_from(sorted(families.FAMILIES)))
    arity = families.FAMILIES[family][1]
    # small values as well, so that some draws build a group
    params = data.draw(st.lists(st.integers(-2, 40) | st.integers(-10**30, 10**30),
                                min_size=arity, max_size=arity))
    code, _, err = run_cli("construct", family, *map(str, params),
                           "--max-order", "1000", "-o", str(tmp_path / "x.json"))
    assert code in (0, 1, 3), (family, params, err)
    assert "Traceback" not in err


_JUNK = (st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.text(max_size=4)
         | st.lists(st.integers(-2, 9), max_size=3) | st.dictionaries(st.text(max_size=2),
                                                                       st.integers(), max_size=2))


@st.composite
def _spec_json(draw):
    """A small valid permutation or matrix spec, then one perturbation: a
    dropped key, a junk or boolean value, a huge degree or field, a junk
    generator, or no object at all."""
    if draw(st.booleans()):
        degree = draw(st.integers(1, 5))
        gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
        spec = {"name": "p", "kind": "permutation", "degree": degree,
                "generators": [list(x) for x in gens]}
    else:
        p, n, d = draw(st.sampled_from([(2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 2, 2), (2, 1, 3)]))
        entry = st.integers(0, p - 1)
        if n > 1:
            entry = st.lists(entry, min_size=n, max_size=n)
        square = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
        spec = {"name": "m", "kind": "matrix", "degree": d, "field": {"p": p, "n": n},
                "generators": draw(st.lists(square, min_size=1, max_size=2))}
    how = draw(st.sampled_from(["none", "drop", "junk", "bool", "huge_degree",
                                "huge_field", "junk_generator", "not_object"]))
    key = draw(st.sampled_from(sorted(spec)))
    if how == "drop":
        del spec[key]
    elif how == "junk":
        spec[key] = draw(_JUNK)
    elif how == "bool":
        spec[key] = draw(st.booleans())
    elif how == "huge_degree":
        spec["degree"] = draw(st.integers(10**6, 10**30))
    elif how == "huge_field":
        spec["field"] = {"p": draw(st.sampled_from([2, 257, 10**15 + 37, HUGE_PRIME])),
                         "n": draw(st.integers(-2, 10**6))}
    elif how == "junk_generator":
        spec["generators"][0] = draw(_JUNK)
    elif how == "not_object":
        spec = draw(_JUNK | st.just([spec]))
    return json.dumps(spec)


@settings(max_examples=100, deadline=3000, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_spec_json())
def test_analyze_spec_property_exit_codes(tmp_path, text):
    """Any perturbed spec file ends in exit 0, 1 or 3 with no traceback."""
    path = tmp_path / "spec.json"
    path.write_text(text)
    code, _, err = run_cli("analyze", str(path))
    assert code in (0, 1, 3), (text, err)
    assert "Traceback" not in err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("conjlab ")]
    assert len(commands) >= 6
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
