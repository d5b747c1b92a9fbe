"""The traced run: per-layer times and counts of the three pipelines.

Timed runs carry no tracing. This run re-enacts one pass of every
workload inside this process: it calls the CLI's own `main` on each
call's arguments, with the layer functions the handlers call (the names
`youngflow.cli` imports) wrapped in spans. Each re-enacted call is one
parent span, `cli.main`; each layer call under it is a child span
`layer.function`. Spans are kept in memory and written to
bench/_results/trace-<workload>-<seed>.json at the end. A layer's self
time is its span's duration minus the time its child spans cover.

Two figures need a fresh interpreter and come from probe processes:
the import cost of `youngflow.cli` net of bare interpreter start, and
one cold-factor `gen_fbm` at the workload size. Last, the named
workload runs one untraced CLI pass, and its wall time is set against
the traced time of its calls plus one interpreter start-up per call;
the difference is the tracing and re-enactment overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from measure import BENCH, SRC, Launcher, run_pass
from workloads import FBM_N, WORKLOADS

# Names youngflow.cli imports from its layers -> span name.
LAYER_CALLS = {
    "gen_fbm": "drivers.gen_fbm",
    "p_variation": "paths.p_variation",
    "p_variation_norm": "paths.p_variation_norm",
    "young_integral": "integrate.young_integral",
    "solve_yde": "yde.solve_yde",
    "solve_flow": "yde.solve_flow",
    "chain_rule_residual": "calculus.chain_rule_residual",
    "ito_kunita_residual": "calculus.ito_kunita_residual",
    "substitution_residual": "calculus.substitution_residual",
    "check_conserved_trajectory": "symmetry.check_conserved_trajectory",
    "check_symmetry_trajectory": "symmetry.check_symmetry_trajectory",
    "check_infinitesimal_symmetry": "symmetry.check_infinitesimal_symmetry",
    "compose_flows": "composition.compose_flows",
    "build_char_field": "pde.build_char_field",
    "assemble_solution_field": "pde.assemble_solution_field",
    "pde_residual": "pde.pde_residual",
}
# Functions of youngflow.io the handlers call through the `yio` name.
IO_CALLS = ("read_path_csv", "write_path_csv", "render_json", "write_json",
            "write_flow_map", "write_solution_field")

# Span self times reported as <name>_s, in seconds.
TIMED_SPANS = (
    "paths.p_variation", "paths.p_variation_vec", "paths.p_variation_norm",
    "integrate.young_integral", "yde.solve_yde", "yde.solve_flow",
    "calculus.chain_rule_residual", "calculus.ito_kunita_residual",
    "calculus.substitution_residual", "symmetry.check_conserved_trajectory",
    "symmetry.check_symmetry_trajectory", "symmetry.check_infinitesimal_symmetry",
    "composition.compose_flows", "pde.build_char_field",
    "pde.assemble_solution_field", "pde.pde_residual", "io.read_path_csv",
    "io.write_path_csv", "io.write_flow_map", "io.write_solution_field",
    "io.render_json",
)

IMPORT_PAIRS = 5



class Tracer:
    """Spans (name, start, end, parent) kept in memory."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict:
        """Span id -> duration minus the time its (sequential) children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


class _TracedModule:
    """A module whose named functions run inside spans `<layer>.<name>`."""

    def __init__(self, module, layer: str, names, tracer: Tracer):
        self._module = module
        for name in names:
            if hasattr(module, name):
                setattr(self, name, tracer.wrap(f"{layer}.{name}", getattr(module, name)))

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """youngflow.cli with its layer calls wrapped in spans, restored after."""
    import youngflow.cli as cli
    import youngflow.drivers as drivers

    saved = {name: getattr(cli, name) for name in (*LAYER_CALLS, "yio")
             if hasattr(cli, name)}
    wrapped = {name: tracer.wrap(LAYER_CALLS[name], fn)
               for name, fn in saved.items() if name != "yio"}

    if "gen_fbm" in saved:
        def gen_fbm(spec):
            # Every CLI call is a fresh process whose fBm factor cache is
            # cold; clear it so the re-enacted call pays the same.
            cache = getattr(drivers, "_increment_cholesky", None)
            if hasattr(cache, "cache_clear"):
                cache.cache_clear()
            with tracer.span("drivers.gen_fbm"):
                return saved["gen_fbm"](spec)
        wrapped["gen_fbm"] = gen_fbm
    if "p_variation" in saved:
        def p_variation(path, *args, **kwargs):
            name = "paths.p_variation" if path.value_shape == (1,) else "paths.p_variation_vec"
            with tracer.span(name):
                return saved["p_variation"](path, *args, **kwargs)
        wrapped["p_variation"] = p_variation
    if "assemble_solution_field" in saved:
        def assemble_solution_field(*args, **kwargs):
            with tracer.span("pde.assemble_solution_field") as rec:
                sol = saved["assemble_solution_field"](*args, **kwargs)
                rec["valid_points"] = int(sol.valid.sum())
                return sol
        wrapped["assemble_solution_field"] = assemble_solution_field
    if "yio" in saved:
        wrapped["yio"] = _TracedModule(saved["yio"], "io", IO_CALLS, tracer)
    try:
        for name, fn in wrapped.items():
            setattr(cli, name, fn)
        yield cli
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def reenact(tracer: Tracer, cli, wl, outdir: Path) -> int:
    """One pass of the workload through cli.main in this process; failures."""
    outdir.mkdir()
    failed = 0
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(outdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for call in wl.calls:
                with tracer.span("cli.main", workload=wl.name, argv=list(call)):
                    failed += cli.main(list(call)) != 0
    finally:
        os.chdir(cwd)
    if failed:
        sys.stderr.write(err.getvalue())
    return failed


def import_probe(launcher: Launcher, work: Path) -> dict:
    """Fresh interpreters with and without `import youngflow.cli`, alternated."""
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(launcher.run([sys.executable, "-c", "pass"], work))
        full.append(launcher.run([sys.executable, "-c", "import youngflow.cli"], work))
    if any(c.returncode for c in bare + full):
        raise RuntimeError("import probe failed")
    return {
        "startup_s": statistics.median(c.wall_s for c in full),
        "import_s": statistics.median(f.wall_s - b.wall_s for b, f in zip(bare, full)),
        "import_rss_mb": statistics.median(f.rss_mb - b.rss_mb for b, f in zip(bare, full)),
    }


def gen_probe(launcher: Launcher, work: Path, seed: int) -> dict:
    out = work / "gen_probe.json"
    c = launcher.run([sys.executable, str(BENCH / "gen_probe.py"), str(FBM_N), str(seed),
                      str(out)], work)
    if c.returncode:
        raise RuntimeError("gen_fbm probe failed")
    return json.loads(out.read_text())


def traced_run(launcher: Launcher, workload: str, seed: int, work: Path,
               results: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import youngflow

    if Path(youngflow.__file__).resolve().parent != (SRC / "youngflow").resolve():
        raise RuntimeError(f"youngflow imported from {youngflow.__file__}, not {SRC}")

    tracer = Tracer()
    problems = []
    failed = attempted = 0
    built = {}
    for name, make in WORKLOADS.items():
        indir = work / f"in_{name}"
        indir.mkdir()
        built[name] = make(seed, indir)
    probe = import_probe(launcher, work)
    gen = gen_probe(launcher, work, seed)

    bytes_written = 0
    with traced_cli(tracer) as cli:
        for name, wl in built.items():
            outdir = work / f"traced_{name}"
            failed += reenact(tracer, cli, wl, outdir)
            attempted += len(wl.calls)
            problems += [f"{name} (traced): {p}" for p in wl.check(outdir)]
            bytes_written += sum(f.stat().st_size for f in outdir.rglob("*") if f.is_file())

    wl = built[workload]
    untraced = run_pass(launcher, wl.calls, work / "untraced")
    failed += untraced.failed
    attempted += len(wl.calls)
    if not untraced.failed:
        problems += [f"{workload}: {p}" for p in wl.check(work / "untraced")]

    own = tracer.self_times()
    layer = defaultdict(float)
    valid_points = 0
    for s in tracer.spans:
        layer[s["name"]] += own[s["id"]]
        valid_points += s.get("valid_points", 0)
    unseen = [name for name in TIMED_SPANS if name not in layer]
    if unseen:
        print(f"no span recorded for {', '.join(unseen)}", file=sys.stderr)

    traced_pass_s = defaultdict(float)
    for s in tracer.spans:
        if s["name"] == "cli.main":
            traced_pass_s[s["workload"]] += s["end"] - s["start"]
    predicted = traced_pass_s[workload] + len(wl.calls) * probe["startup_s"]
    accounting = {
        "workload": workload, "untraced_wall_s": untraced.wall_s,
        "traced_pass_s": traced_pass_s, "startup_per_call_s": probe["startup_s"],
        "calls": len(wl.calls), "predicted_wall_s": predicted,
        "overhead_s": untraced.wall_s - predicted,
        "overhead_share": (untraced.wall_s - predicted) / untraced.wall_s,
    }
    print("accounting: " + json.dumps(accounting), file=sys.stderr)

    metrics = {
        "cli.import_s": {"value": probe["import_s"], "unit": "s"},
        "cli.import_rss_mb": {"value": probe["import_rss_mb"], "unit": "MB"},
        "drivers.gen_fbm_s": {"value": gen["s"], "unit": "s"},
        "drivers.gen_fbm_rss_mb": {"value": gen["rss_mb"], "unit": "MB"},
    }
    metrics.update({f"{name}_s": {"value": layer.get(name, 0.0), "unit": "s"}
                    for name in TIMED_SPANS})
    metrics["pde.valid_points"] = {"value": valid_points, "unit": "count"}
    metrics["io.bytes_written"] = {"value": bytes_written, "unit": "B"}

    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "accounting": accounting,
                   "metrics": metrics, "spans": tracer.spans}, fh, indent=1)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
