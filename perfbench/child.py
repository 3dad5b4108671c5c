"""One conjlab request, run in-process for the benchmark.

    python3 perfbench/child.py RESULT.json REQUEST_ID TRACE -- <conjlab arguments>

Runs ``conjlab.cli.run_command`` on the arguments, as ``conjlab`` itself
does, and exits with its exit code.  RESULT.json receives the exit code and
two timings of a fixed calibration loop, one before conjlab is imported and
one after the command; ``run.py`` uses them to correct request times for the
speed the machine had at the time (see ``run.py``).  With TRACE 1 the
command runs under ``tracer.Tracer``: RESULT.json also receives the per-layer
aggregate, and the spans go to RESULT.json's name with ``.spans.json``.
"""

from __future__ import annotations

import gc
import json
import sys
import time

CALIBRATION_ROUNDS = 16_000


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop shaped like conjlab's kernel
    (degree-64 permutation products).  The collector is off so that the
    size of the heap conjlab left behind cannot change the timing."""
    gc.disable()
    try:
        perm = tuple(range(1, 64)) + (0,)
        x = perm
        start = time.perf_counter()
        for _ in range(CALIBRATION_ROUNDS):
            x = tuple([perm[j] for j in x])
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--" or argv[2] not in ("0", "1"):
        print("usage: child.py RESULT.json REQUEST_ID 0|1 -- <conjlab arguments>",
              file=sys.stderr)
        return 1
    result_path, request_id, traced, command = argv[0], argv[1], argv[2] == "1", argv[4:]
    before = calibrate()
    if traced:
        from tracer import Tracer

        tracer = Tracer(request_id)
        tracer.install()
        run_command = tracer.command
    else:
        from conjlab.cli import run_command
    code = run_command(command)
    result = {"exit_code": code, "calibration_s": [before, calibrate()]}
    if traced:
        result["trace"] = tracer.aggregate()
        tracer.dump_spans(result_path.removesuffix(".json") + ".spans.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
