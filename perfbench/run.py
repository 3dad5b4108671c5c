"""The conjlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it measures the conjlab found in ``src``
there, and exits with status 2 without a result when there is none.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
environment and every metric by name and unit.  The exit status is 1 when
any output was wrong.

Workloads.  Each is a closed loop with one client: the next request starts
when the previous process has exited.  Every request is a fresh process
(``child.py``) that calls ``conjlab.cli.run_command`` as the ``conjlab``
command does, so caches start cold as they do for CLI users.

* ``verify_corpus``: ``conjlab verify --seed N`` over the bundled 54-group
  corpus and the order-2160 cover, with every other option at its default.
  The only workload where the normal-subgroup lattice, the lemma suites and
  family construction dominate.
* ``analyze_matrix``: ``conjlab analyze SPEC --json OUT`` over matrix groups,
  each re-presented by a seeded change of basis (see ``inputs``).  Stresses
  the matrix kernel, Schreier centralizers, CH/CA/F and classification
  through G/Z; never computes the normal subgroups of G.
* ``analyze_perm``: the same loop over permutation groups of degree 8 to 720,
  each re-presented by a seeded relabelling; the same layers on the
  permutation and quotient kernels, and the only Type V group.

End-to-end metrics (``--trace 0``), all lower-is-better:

* ``setup_s`` (s): cold start, a fresh interpreter up to ``import
  conjlab.cli`` done; median of starts spread over the run, as measured.
* ``wall_s`` / ``cpu_s`` (s): one pass over the workload.  CPU is the
  child's user+system rusage.  A parallel verify lowers wall but not CPU;
  a cut in work lowers both.  For the analyze workloads a pass is the sum over
  the groups of each group's median request.
* ``peak_rss_mb`` (MB): the largest maximum resident set of any request.
* ``request_p50_s`` (s): median request latency (per-group medians for the
  analyze workloads; one verify process is one request).

Speed correction.  On the shared 2-core VM this benchmark was built on, the
speed of pure-Python code drifts by up to 2x within tens of seconds (a fixed
loop took 35 to 71 ms), and raw pass times of one workload spread by up to
27% (quartile distance over median) across runs.  Each child therefore times
a fixed calibration loop before and after its command; ``wall_s``, ``cpu_s``
and ``request_p50_s`` are the request times without those loops, scaled by
``CALIBRATION_REF_S`` over the mean calibration time: seconds at the
reference speed.  On paired runs this cut the spread from 0.107 to 0.037 on
``analyze_matrix`` and from 0.135 to 0.105 on ``verify_corpus``, whose
six-second requests outlast the machine's speed phases.  The raw pass time
and the median calibration time are printed beside the metrics, and every
request's raw figures go to ``perfbench/_work/requests.json``.  Per-layer
times and ``trace.overhead_s`` are corrected the same way; ``setup_s`` is as
measured.

``failed/attempted`` is the failure fraction; it is printed as
``failed_frac`` but is not a metric, because it is 0 whenever conjlab is
correct.

Per-layer metrics (``--trace 1``) come from ``tracer.py``, which wraps the
public conjlab functions inside the child.  A traced run makes one untraced
pass and two traced passes, then untraced and traced pairs until
``--seconds`` have passed.  Layer times are the median of the traced passes,
work counts must repeat exactly between them (``trace.count_mismatches``
counts the ones that did not), and ``trace.overhead_s`` is traced minus
untraced pass wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify_corpus", "analyze_matrix", "analyze_perm")
SETUP_SAMPLES_PER_PASS = 3
MIN_TRACED_PASSES = 2
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# child.calibrate() on this benchmark's reference machine (2-core x86 VM)
# when it runs at full speed; see the module docstring.
CALIBRATION_REF_S = 0.03

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "request_p50_s": "s",
}

VERDICTS = ("Abelian", "TypeI", "TypeII", "TypeIII", "TypeIV", "TypeV", "NotSP",
            "Unrecognized")
GROUP_STAGES = ("elements", "conjugacy_classes", "center", "derived_subgroup",
                "normal_subgroups", "element_orders", "centralizer",
                "subgroup_from_elements", "quotient", "normal_sylow")
# The stages backed by a per-group cache; they make groups.cache_hit_ratio.
CACHE_LOOKUP_STAGES = ("elements", "conjugacy_classes", "center", "derived_subgroup",
                       "normal_subgroups", "element_orders", "centralizer")


def _per_layer_units() -> dict[str, str]:
    units = {f"groups.{k}": "count" for k in (
        "perm_mul.calls", "perm_mul.points", "matrix_mul.calls",
        "matrix_inv.calls", "quotient_mul.calls")}
    for stage in GROUP_STAGES:
        units[f"groups.{stage}.calls"] = "count"
        units[f"groups.{stage}.fills"] = "count"
        units[f"groups.{stage}.self_s"] = "s"
    units["groups.normal_subgroups.found"] = "count"
    units["groups.cache_hit_ratio"] = "ratio"
    units["groups.cache_lookups"] = "count"
    for pred in ("is_sp", "is_ch", "is_ca", "is_f"):
        units[f"predicates.{pred}.calls"] = "count"
        units[f"predicates.{pred}.self_s"] = "s"
    units["classgraph.class_size_set.self_s"] = "s"
    units["classgraph.build_gamma.self_s"] = "s"
    for fn in ("classify", "find_frobenius_structure", "check_corollary1"):
        units[f"classifier.{fn}.self_s"] = "s"
    for verdict in VERDICTS:
        units[f"classifier.classify.{verdict}.total_s"] = "s"
    units["families.build.calls"] = "count"
    units["families.build.self_s"] = "s"
    units["specio.parse_group_spec.self_s"] = "s"
    units["specio.analysis_report.total_s"] = "s"
    units["specio.report_json.self_s"] = "s"
    for suite in ("theorem1", "theorem2", "corollaries", "lemmas", "schur_cover"):
        units[f"verify.{suite}.total_s"] = "s"
    units["verify.checks.run"] = "count"
    units["verify.checks.failed"] = "count"
    units["cli.run_command.total_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.count_mismatches"] = "count"
    return units


PER_LAYER_UNITS = _per_layer_units()
COUNT_SUFFIXES = (".calls", ".fills", ".found", ".points")


@dataclass
class Request:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    detail: str = ""
    trace: dict | None = None
    calibration_s: tuple[float, float] = (CALIBRATION_REF_S, CALIBRATION_REF_S)

    @property
    def speed_scale(self) -> float:
        """The reference calibration time over the measured one."""
        return CALIBRATION_REF_S / (sum(self.calibration_s) / 2)

    @property
    def ref_wall_s(self) -> float:
        """Wall seconds at the reference speed, without the child's
        calibration loops."""
        return self.own_wall_s * self.speed_scale

    @property
    def ref_cpu_s(self) -> float:
        return (self.cpu_s - sum(self.calibration_s)) * self.speed_scale

    @property
    def own_wall_s(self) -> float:
        """Measured wall time without the child's calibration loops."""
        return self.wall_s - sum(self.calibration_s)


class Bench:
    """One benchmark run inside a checkout: paths, child environment, requests."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / "perfbench" / "_work"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.request_count = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    # -- processes -----------------------------------------------------------

    def spawn(self, argv: list[str]):
        """Run one child to completion; (exit code, wall s, cpu s, rss MB)."""
        out = self.work / "stdout.txt"
        err = self.work / "stderr.txt"
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, env=self.env,
                                    cwd=self.root)
            # wait4 has no timeout; the timer kills a child that would
            # keep the run past its deadline (it then fails as a request).
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def setup_samples(self, count: int) -> list[float]:
        """Wall times of ``count`` cold starts up to ``import conjlab.cli``."""
        argv = [sys.executable, "-c", "import conjlab.cli"]
        samples = []
        for _ in range(count):
            code, wall, _, _ = self.spawn(argv)
            if code != 0:
                raise RuntimeError(f"import conjlab.cli failed: {self._stderr()}")
            samples.append(wall)
        return samples

    def _stderr(self) -> str:
        return (self.work / "stderr.txt").read_text(errors="replace")[-2000:]

    # -- requests ------------------------------------------------------------

    def request(self, name: str, args: list[str], traced: bool) -> Request:
        if time.perf_counter() > self.deadline:
            return Request(name, 0.0, 0.0, 0.0, ok=False, detail="run deadline passed")
        self.request_count += 1
        result_path = self.work / f"request_{self.request_count}.json"
        argv = [sys.executable, str(self.root / "perfbench" / "child.py"), str(result_path),
                f"{self.workload}/{name}/{self.request_count}", str(int(traced)), "--", *args]
        code, wall, cpu, rss = self.spawn(argv)
        req = Request(name, wall, cpu, rss, ok=code == 0)
        if code != 0:
            req.detail = f"exit code {code}: {self._stderr()}"
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError) as exc:
            req.ok, req.detail = False, f"no request result ({exc!r}): {self._stderr()}"
            return req
        req.calibration_s = result["calibration_s"]
        req.trace = result.get("trace")
        return req

    def verify_request(self, traced: bool) -> Request:
        req = self.request("verify", ["verify", "--seed", str(self.seed)], traced)
        if req.ok:
            lines = (self.work / "stdout.txt").read_text().splitlines()
            if not lines or lines[-1] != "total: OK":
                req.ok, req.detail = False, f"last line {lines[-1:]!r}"
            elif any(line.startswith("[FAIL]") for line in lines):
                req.ok, req.detail = False, "a [FAIL] line"
        return req

    def analyze_request(self, name: str, spec: Path, traced: bool) -> Request:
        import inputs

        out = self.work / "report.json"
        out.unlink(missing_ok=True)
        req = self.request(name, ["analyze", str(spec), "--json", str(out)], traced)
        if req.ok:
            try:
                report = json.loads(out.read_text())
                problems = inputs.report_mismatches(
                    report, inputs.expected(self.workload, name))
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            if problems:
                req.ok, req.detail = False, "; ".join(problems)
        return req


# -- workloads -----------------------------------------------------------------


def make_pass(bench: Bench, groups: list[str] | None = None):
    """A function running one pass over the workload; returns its requests."""
    if bench.workload == "verify_corpus":
        return lambda traced: [bench.verify_request(traced)]
    # imported late throughout: inputs imports conjlab, which main() puts on
    # sys.path only after checking that the sources are there
    import inputs

    specs = inputs.write_specs(bench.workload, bench.seed, bench.work / "specs")
    if groups is not None:
        specs = [(name, path) for name, path in specs if name in groups]
    return lambda traced: [bench.analyze_request(name, path, traced)
                           for name, path in specs]


def _by_name(requests: list[Request]) -> list[list[Request]]:
    groups: dict[str, list[Request]] = {}
    for req in requests:
        groups.setdefault(req.name, []).append(req)
    return list(groups.values())


def end_to_end(requests: list[Request], setup_s: float) -> dict[str, float]:
    by_name = _by_name(requests)
    walls = [statistics.median(r.ref_wall_s for r in reqs) for reqs in by_name]
    cpus = [statistics.median(r.ref_cpu_s for r in reqs) for reqs in by_name]
    return {
        "setup_s": setup_s,
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "peak_rss_mb": max(r.rss_mb for r in requests),
        "request_p50_s": statistics.median(walls),
    }


def measured(requests: list[Request]) -> dict[str, float]:
    """The pass wall time without the speed correction, and the median
    calibration time; printed beside the metrics."""
    return {
        "measured_wall_s": sum(statistics.median(r.own_wall_s for r in reqs)
                               for reqs in _by_name(requests)),
        "calibration_p50_s": statistics.median(
            sum(r.calibration_s) / 2 for r in requests),
    }


def pass_aggregate(requests: list[Request]) -> dict[str, float]:
    """Per-layer sums over one pass; times at the reference speed."""
    total: dict[str, float] = {}
    for req in requests:
        scale = req.speed_scale
        for key, value in (req.trace or {}).items():
            total[key] = total.get(key, 0) + (value * scale if key.endswith("_s") else value)
    return total


def per_layer(untraced: list[list[Request]], traced: list[list[Request]]) -> dict:
    aggregates = [pass_aggregate(p) for p in traced]
    first = aggregates[0]
    count_keys = {k for agg in aggregates for k in agg
                  if k.endswith(COUNT_SUFFIXES) or k.startswith("verify.checks.")}
    mismatches = sum(1 for k in count_keys
                     if len({agg.get(k, 0) for agg in aggregates}) > 1)
    out = {}
    for name in PER_LAYER_UNITS:
        if PER_LAYER_UNITS[name] == "count":
            out[name] = int(first.get(name, 0))
        else:
            out[name] = statistics.median(agg.get(name, 0.0) for agg in aggregates)
    lookups = sum(first.get(f"groups.{s}.calls", 0) for s in CACHE_LOOKUP_STAGES)
    fills = sum(first.get(f"groups.{s}.fills", 0) for s in CACHE_LOOKUP_STAGES)
    out["groups.cache_lookups"] = lookups
    out["groups.cache_hit_ratio"] = (lookups - fills) / lookups if lookups else 0.0
    traced_wall = statistics.median(sum(r.ref_wall_s for r in p) for p in traced)
    untraced_wall = statistics.median(sum(r.ref_wall_s for r in p) for p in untraced)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.count_mismatches"] = mismatches
    return out


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        groups: list[str] | None = None) -> dict:
    """One benchmark run; returns the result object (the last output line)."""
    import inputs

    bench = Bench(root, workload, seed)
    problems = [f"expectation table: {p}" for p in inputs.oracle_mismatches()]
    one_pass = make_pass(bench, groups)
    requests: list[Request] = []
    start = time.perf_counter()
    if trace:
        untraced = [one_pass(False)]
        traced = [one_pass(True) for _ in range(MIN_TRACED_PASSES)]
        while time.perf_counter() - start < seconds:
            untraced.append(one_pass(False))
            traced.append(one_pass(True))
        requests = [r for p in untraced + traced for r in p]
        metrics = per_layer(untraced, traced)
        units = PER_LAYER_UNITS
        notes = {}
    else:
        bench.setup_samples(1)  # may compile the bytecode
        setup = []
        start = time.perf_counter()
        while not requests or time.perf_counter() - start < seconds:
            # set-up samples spread over the run see the same machine
            # phases as the requests do
            setup += bench.setup_samples(SETUP_SAMPLES_PER_PASS)
            requests.extend(one_pass(False))
        metrics = end_to_end(requests, statistics.median(setup))
        units = END_TO_END_UNITS
        notes = measured(requests)
    with open(bench.work / "requests.json", "w", encoding="utf-8") as fh:
        json.dump([{"name": r.name, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                    "rss_mb": r.rss_mb, "calibration_s": r.calibration_s,
                    "ok": r.ok, "traced": r.trace is not None} for r in requests], fh)
    failed = [r for r in requests if not r.ok]
    for req in failed:
        problems.append(f"{req.name}: {req.detail}")
    return {
        "correct": not problems,
        "attempted": len(requests),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "problems": problems,
        "notes": notes,
    }


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "conjlab" / "cli.py").is_file():
        print(f"error: no conjlab sources under {root / 'src'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    problems = result.pop("problems")
    notes = result.pop("notes")
    print(f"env: python {platform.python_version()} ({sys.executable}), "
          f"nproc {os.cpu_count()}, git {_git_sha(root)}, "
          f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for name, value in notes.items():
        print(f"({name}: {value:.6g} s, not a metric)")
    print(f"failed_frac: {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} requests)")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
