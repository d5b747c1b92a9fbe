"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--seed N]

Runs one real CLI pass of every workload, shows that its checks accept
the real outputs, then gives each check a copy of those outputs with
one small fault put in and shows that the check rejects it. Exits 0
only if every fault is caught.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import inputs
from measure import WORK, Launcher, run_pass
from workloads import FBM_N, GEN_SEEDS, PDE_N, WORKLOADS


def edit_json(fname: Path, fn) -> None:
    doc = json.loads(fname.read_text())
    fn(doc)
    fname.write_text(json.dumps(doc))


def edit_csv(fname: Path, fn) -> None:
    """Apply fn to the numeric rows of a CSV, keeping its header line."""
    header = fname.read_text().split("\n", 1)[0]
    data = np.loadtxt(fname, delimiter=",", skiprows=1, ndmin=2)
    fn(data)
    np.savetxt(fname, data, delimiter=",", fmt="%.17g", header=header, comments="")


def scale(key, factor):
    def fn(doc):
        doc[key] = [v * factor for v in doc[key]] if isinstance(doc[key], list) \
            else doc[key] * factor
    return fn


def set_level(k, value):
    def fn(doc):
        doc["levels"][k]["residual"] = value
    return fn


def hurst_06_paths(out: Path) -> None:
    """Paths sampled at H = 0.6, offered as the H = 0.75 gen outputs."""
    rng = np.random.default_rng(6)
    for k in range(GEN_SEEDS):
        inputs.write_path(out / f"gen_{k}.csv", *inputs.fbm(FBM_N, 0.6, rng))


def drop_partition_point(doc) -> None:
    idx = doc["optimal_partition"]
    del idx[len(idx) // 2]


def swap_levels(doc) -> None:
    lv = doc["levels"]
    lv[0]["residual"], lv[1]["residual"] = lv[1]["residual"], lv[0]["residual"]


def shift_tau(doc) -> None:
    doc["tau_map"][200] += 1.0 / (PDE_N - 1)  # one driver grid step


def _add(r, c, v):
    def fn(data):
        data[r, c] += v
    return fn


def _mul(r, c, v):
    def fn(data):
        data[r, c] *= v
    return fn


def _nan(r, c):
    def fn(data):
        data[r, c] = np.nan
    return fn


# (workload, description, relative file, mutation)
FAULTS = [
    ("driver_pipeline", "pvar value off by 1e-9 relative", "pvar_scalar.json",
     lambda f: edit_json(f, scale("value", 1 + 1e-9))),
    ("driver_pipeline", "vector pvar partition missing a point", "pvar_vector.json",
     lambda f: edit_json(f, drop_partition_point)),
    ("driver_pipeline", "sup_norm off by 1e-9 relative", "pvar_vector.json",
     lambda f: edit_json(f, scale("sup_norm", 1 + 1e-9))),
    ("driver_pipeline", "integral off by 1e-9 relative", "integral.json",
     lambda f: edit_json(f, scale("value", 1 + 1e-9))),
    ("driver_pipeline", "certified bound off by 1e-9 relative", "integral.json",
     lambda f: edit_json(f, scale("certified_bound", 1 - 1e-9))),
    ("driver_pipeline", "H = 0.6 paths offered as H = 0.75", ".", hurst_06_paths),
    ("driver_pipeline", "gen path not starting at 0", "gen_1.csv",
     lambda f: edit_csv(f, _add(0, 1, 1e-12))),
    ("pde_transport", "one solution-slice value shifted by 2e-3",
     "solution/slice_0064.csv", lambda f: edit_csv(f, _add(10, 1, 2e-3))),
    ("pde_transport", "one solution-slice derivative shifted by 2e-3",
     "solution/slice_0128.csv", lambda f: edit_csv(f, _add(3, 2, -2e-3))),
    ("pde_transport", "one invalid (NaN) solution point", "solution/slice_0001.csv",
     lambda f: edit_csv(f, _nan(0, 1))),
    ("pde_transport", "residual ladder out of order", "residual_b.json",
     lambda f: edit_json(f, swap_levels)),
    ("pde_transport", "tau_map moved by one grid step", "caustic.json",
     lambda f: edit_json(f, shift_tau)),
    ("pde_transport", "one seed not folded", "caustic.json",
     lambda f: edit_json(f, lambda d: d.update(n_folded=d["n_folded"] - 1))),
    ("checks_ladder", "solve end point off by 5%", "solve.csv",
     lambda f: edit_csv(f, _mul(-1, 1, 1.05))),
    ("checks_ladder", "flow trajectory end point off by 1e-3", "flow/flow_0040.csv",
     lambda f: edit_csv(f, _add(-1, 2, 1e-3))),
    ("checks_ladder", "finest chain residual off by 1e-6 relative", "chain.json",
     lambda f: edit_json(f, lambda d: set_level(3, d["levels"][3]["residual"]
                                                * (1 + 1e-6))(d))),
    ("checks_ladder", "ito ladder not converged", "ito.json",
     lambda f: edit_json(f, lambda d: d.update(converged=False))),
    ("checks_ladder", "substitution ladder rising at the finest level",
     "substitution.json", lambda f: edit_json(f, set_level(3, 1.0))),
    ("checks_ladder", "symmetry residual 1e-10 instead of rounding", "symmetry.json",
     lambda f: edit_json(f, set_level(2, 1e-10))),
    ("checks_ladder", "infinitesimal check failing", "infinitesimal.json",
     lambda f: edit_json(f, lambda d: d.update({"pass": False}))),
    ("checks_ladder", "composed route off by 5%", "compose.json",
     lambda f: edit_json(f, scale("final_composed", 1.05))),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
    bad = 0
    try:
        with Launcher(work) as launcher:
            built, real = {}, {}
            for name, make in WORKLOADS.items():
                indir = work / f"in_{name}"
                indir.mkdir()
                built[name] = make(args.seed, indir)
                real[name] = work / f"out_{name}"
                stats = run_pass(launcher, built[name].calls, real[name])
                problems = built[name].check(real[name]) if not stats.failed else ["failed"]
                print(f"{name}: real outputs {'pass' if not problems else problems}")
                bad += bool(problems)
        for k, (name, what, rel, mutate) in enumerate(FAULTS):
            copy = work / f"fault{k}"
            shutil.copytree(real[name], copy)
            mutate(copy / rel)
            problems = built[name].check(copy)
            print(f"{name}: {what}: {'caught: ' + problems[0] if problems else 'MISSED'}")
            bad += not problems
            shutil.rmtree(copy)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("passed" if not bad else f"FAILED ({bad})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
