"""Benchmark of the youngflow CLI: three pipelines of real CLI calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is taken from
`src/` next to this directory, because the package need not be
installed. With --trace 0 the run makes its inputs from the seed, warms
up once, then runs whole passes of the workload's CLI pipeline, one
child process at a time, until the next pass would end after S seconds.
It checks every output and prints the end-to-end metrics. With --trace 1
it prints the per-layer metrics of a traced run instead (see trace_run.py).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os
import sys
import time

# This process and every child (they inherit the environment) run
# single-threaded BLAS, set before numpy loads; with one child at a time
# the benchmark keeps at most one of the machine's two cores busy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import (RESULTS, SRC, WORK, Launcher, run_pass,  # noqa: E402
                     since_process_start)
from workloads import WORKLOADS  # noqa: E402


def snapshot(outdir: Path) -> dict:
    """Every output file: JSON without its timestamp, anything else as bytes."""
    snap = {}
    for f in sorted(outdir.rglob("*")):
        if f.is_dir():
            continue
        if f.suffix == ".json":
            doc = json.loads(f.read_text())
            doc.get("meta", {}).pop("created", None)
            snap[str(f.relative_to(outdir))] = doc
        else:
            snap[str(f.relative_to(outdir))] = f.read_bytes()
    return snap


def require_program() -> None:
    if not (SRC / "youngflow" / "cli.py").is_file():
        sys.exit(f"error: no youngflow source under {SRC}")


def warm_up(launcher: Launcher, work: Path) -> None:
    """Import the CLI once, so byte-code and file caches are warm."""
    c = launcher.run([sys.executable, "-c", "import youngflow.cli"], work)
    if c.returncode != 0:
        sys.exit("error: youngflow.cli does not import")


def timed_run(launcher: Launcher, workload: str, seed: int, seconds: float,
              work: Path) -> dict:
    indir = work / "in"
    indir.mkdir()
    wl = WORKLOADS[workload](seed, indir)
    warm_up(launcher, work)
    setup_s = since_process_start()

    passes = []
    problems = []
    reference = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        outdir = work / f"pass{len(passes)}"
        stats = run_pass(launcher, wl.calls, outdir)
        passes.append(stats)
        if reference is None:
            problems += wl.check(outdir) if stats.failed == 0 else ["a call failed"]
            reference = snapshot(outdir)
        else:
            if snapshot(outdir) != reference:
                problems.append(f"pass {len(passes)} output differs from pass 1")
            shutil.rmtree(outdir)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    def med(key):
        return statistics.median(getattr(p, key) for p in passes)

    print(f"{workload}: {len(passes)} passes, wall "
          + ", ".join(f"{p.wall_s:.3f}" for p in passes), file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(passes) * len(wl.calls),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_program()
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        with Launcher(work) as launcher:
            if args.trace:
                from trace_run import traced_run
                result = traced_run(launcher, args.workload, args.seed, work, RESULTS)
            else:
                result = timed_run(launcher, args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
