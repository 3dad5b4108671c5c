"""The benchmark's tracer, perfbench/tracer.py, wraps conjlab functions and
reads group cache attributes by name, from outside the library, so a rename
in conjlab can break every traced benchmark run without failing a library
test.  These tests run one traced request of each command the benchmark
runs, through perfbench/child.py as the benchmark does."""

import json
import os
import subprocess
import sys
from pathlib import Path

import conjlab as cj
from conjlab.specio import write_group_spec

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


def _traced(tmp_path, *command) -> dict:
    result = tmp_path / "result.json"
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(result), "x", "1", "--", *command],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    trace = json.loads(result.read_text())["trace"]
    assert trace["classifier.classify.calls"] >= 1
    assert trace["classifier.find_frobenius_structure.calls"] >= 1
    return trace


def test_traced_analyze(tmp_path):
    spec = tmp_path / "agl1_5.json"
    write_group_spec(cj.agl1(5), spec)
    _traced(tmp_path, "analyze", str(spec))


def test_traced_verify_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "expectations.json").write_text(json.dumps({
        "d5": {"group": {"family": "dihedral", "params": [5]}, "verdict": "TypeII"},
        "a5": {"group": {"family": "agl1", "params": [5]}, "verdict": "TypeII"}}))
    trace = _traced(tmp_path, "verify", "--corpus", str(corpus),
                    "--schur-cover", str(tmp_path / "none.json"))
    assert trace["classifier.check_corollary1.calls"] >= 1
    assert trace["verify.checks.run"] >= 1 and "verify.checks.failed" not in trace
