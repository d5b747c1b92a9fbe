"""Check that two commits give the same outputs on every benchmark call.

    python3 tools/same_bytes.py --parent REV --change REV --seeds 1 5 77 \
        --workdir DIR

Both revisions are extracted with bench_pairs.py's `extract` into DIR
(outside the checkout under test). For each seed, every workload of
bench/workloads.py makes its inputs once, and each tree runs every call
of the workload as a CLI call from its own `src/`. Six extra `pde`
calls run as well: a folding `solve` with two substeps, a 2-d `caustic`,
a 2-d `residual`, a 3-d `caustic` in which seeds fold at many
different times and others never, a `caustic` whose characteristics
overflow (exit 3), and a `residual` with three substeps; and four extra
`yde` calls: a `flow`
with two substeps on a ramp that kills some of its rows, a `compose`
with the nonlinear inner field `square`, which relaxes in more than one
sweep, a `check symmetry --mode trajectory` on the ramp in which only the
row from Phi(y0) blows up, and a `check infinitesimal` with the
nonlinear generator `square`; eight `domain_extra` calls, algebraic
`check conserved` and `check symmetry` on 1000 sample points with the
domain seeds 12345 and 2^70 + 1, each in 1 and 3 dimensions; and twelve
`errors_extra` calls that exit 2 or 3: one per error class that the CLI
maps to an exit code, the overflow exits of `pvar`, `integrate` and
`check infinitesimal`, and a `check conserved` whose `--domain` width
overflows. The
output files are compared with bench/run.py's
`snapshot` (JSON up to `meta.created`, anything else byte for byte), and
each call's exit code, standard output and standard error are compared
with the tree's path masked. Prints one line per difference and exits 1
if there is any, keeping the outputs under DIR. For a JSON or CSV output
that differs, the line gives the largest absolute difference between the
numbers in the same place, and whether the non-numbers (NaN cells, which
mark invalid solution entries, nulls, booleans and text) sit in the same
places on both sides.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))

import inputs  # noqa: E402
from bench_pairs import extract, git  # noqa: E402
from run import snapshot  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def pde_extra(seed: int, indir: Path) -> Workload:
    """A folding solve with substeps, a caustic and a residual in 2-d, a
    caustic in 3-d, an overflowing caustic and a residual with substeps."""
    rng = np.random.default_rng([seed, 4])
    fold, plane, wide = indir / "fold.csv", indir / "plane.csv", indir / "wide.csv"
    times, vals = inputs.fbm(257, 0.8, rng)
    inputs.write_path(fold, times, 1.5 * vals)
    times, vals = inputs.fbm(129, 0.8, rng)
    inputs.write_path(plane, times, vals)
    inputs.write_path(wide, times, 4.0 * vals)
    calls = (
        ["pde", "solve", "--hamiltonian", "burgers-half-p-squared", "--init", "sin",
         "--driver", str(fold), "--box=-3:3:113", "--eval=-2.5:2.5:21", "--slices", "33",
         "--substeps", "2", "-o", "fold_solution"],
        ["pde", "caustic", "--hamiltonian", "burgers-half-p-squared", "--init", "gauss",
         "--dim", "2", "--driver", str(plane), "--box=-2:2:21;-2:2:19", "-o", "caustic2.json"],
        ["pde", "residual", "--hamiltonian", "transport-k", "--params", "k=0.7",
         "--init", "sin", "--dim", "2", "--driver", str(plane), "--box=-4:4:81;-4:4:21",
         "--eval=-1:1:5;-1:1:4", "--levels", "3", "-o", "residual2.json"],
        # det D_x a_t = det(I - X_t D^2 phi) on 9^3 seeds: on seeds 1, 5 and
        # 77, 231 to 556 of them fold, at 12 to 29 different times
        ["pde", "caustic", "--hamiltonian", "burgers-half-p-squared", "--init", "gauss",
         "--dim", "3", "--driver", str(wide), "--box=-2:2:9;-2:2:9;-2:2:9",
         "-o", "caustic3.json"],
        # a = x - 1e308 X_t overflows in the first block of rows, where the
        # p-only accumulate hands over to the Euler sweep, which stops
        ["pde", "caustic", "--hamiltonian", "transport-k", "--params", "k=1e308",
         "--init", "sin", "--driver", str(wide), "--box=-3:3:41", "-o", "overflow.json"],
        ["pde", "residual", "--hamiltonian", "transport-k", "--params", "k=0.7",
         "--init", "sin", "--driver", str(fold), "--box=-4:4:161", "--eval=-1:1:9",
         "--levels", "3", "--substeps", "3", "-o", "residual3.json"],
    )
    return Workload("pde_extra", calls, lambda out: [])


def yde_extra(seed: int, indir: Path) -> Workload:
    """A flow whose rows partly blow up, a nonlinear compose, a symmetry
    check that fails by blow-up and a nonlinear infinitesimal check."""
    rng = np.random.default_rng([seed, 5])
    ramp, outer, inner = indir / "ramp.csv", indir / "outer.csv", indir / "inner.csv"
    times = np.linspace(0.0, 1.0, 257)
    # dY = Y^2 dX with X_t = k t: the rows from y0 > 1/k die near t = 1/(k y0)
    inputs.write_path(ramp, times, rng.uniform(3.0, 6.0) * times[:, None])
    inputs.write_path(outer, *inputs.fbm(257, 0.75, rng))
    inputs.write_path(inner, *inputs.fbm(257, 0.75, rng))
    calls = (
        ["flow", "--field", "square", "--dim", "1", "--driver", str(ramp), "--grid=-1:2:7",
         "--substeps", "2", "-o", "dying_flow"],
        ["compose", "--outer-field", "scaling", "--outer-driver", str(outer),
         "--inner-field", "square", "--inner-driver", str(inner), "--dim", "1",
         "--y0", "0.3", "--levels", "3", "-o", "compose_square.json"],
        # the row from y0 = 0.1 lives to t = 1; the row from Phi(y0) = 2 dies
        ["check", "symmetry", "--map", "scaling", "--map-params", "factor=20", "--field",
         "square", "--dim", "1", "--mode", "trajectory", "--driver", str(ramp), "--y0", "0.1",
         "--levels", "3", "-o", "symmetry_dying.json"],
        ["check", "infinitesimal", "--generator", "square", "--field", "exp", "--dim", "2",
         "--domain=-1:0.5", "-o", "infinitesimal_square.json"],
    )
    return Workload("yde_extra", calls, lambda out: [])


def domain_extra(seed: int, indir: Path) -> Workload:
    """Algebraic conserved and symmetry checks on 1000 sample points, with
    domain seeds of one and three 32-bit words, in 1 and 3 dimensions. The
    seed is not used."""
    calls = []
    for domain_seed in (12345, 2**70 + 1):
        for dim in ("1", "3"):
            tag = f"{domain_seed}_{dim}d"
            calls += [
                ["check", "conserved", "--field", "scaling", "--dim", dim, "--samples", "1000",
                 f"--domain-seed={domain_seed}", "-o", f"conserved_{tag}.json"],
                ["check", "symmetry", "--map", "scaling", "--map-params", "factor=1.5",
                 "--field", "square", "--dim", dim, "--samples", "1000",
                 f"--domain-seed={domain_seed}", "--domain=-2:0.5", "-o", f"symmetry_{tag}.json"],
            ]
    return Workload("domain_extra", tuple(calls), lambda out: [])


def errors_extra(seed: int, indir: Path) -> Workload:
    """Calls that fail with exit 2 or 3: an unknown builtin, the Young
    condition, a blow-up, Newton, the size cap, a caustic and a singular
    Newton step, then the overflow exits of pvar, integrate (with and
    without a bound) and check infinitesimal, and a check conserved whose
    domain width overflows. The seed is not used."""
    lin, negline, lin3, step, ovf = (indir / f for f in (
        "lin.csv", "negline.csv", "lin3.csv", "step.csv", "overflow.csv"))
    times = np.linspace(0.0, 1.0, 17)
    inputs.write_path(lin, times, times[:, None])
    times = np.linspace(0.0, 1.5, 257)
    inputs.write_path(negline, times, -times[:, None])
    times = np.linspace(0.0, 1.0, 3)
    inputs.write_path(lin3, times, times[:, None])
    # the inner scaling flow's Jacobian is 1 - 1 = 0 after one step of -1
    inputs.write_path(step, times, -2.0 * times[:, None])
    # finite values whose increments overflow: ||dX||^2 and Z dX are inf
    ovf.write_text("t,x1\n0,0\n1,1e200\n2,-1e200\n")
    calls = (
        ["solve", "--field", "nosuch", "--dim", "1", "--y0", "1", "--driver", str(lin),
         "-o", "never.csv"],
        ["integrate", "--integrand", str(lin), "--driver", str(lin), "--p", "2.5", "--q", "2.5"],
        ["solve", "--field", "square", "--dim", "1", "--driver", str(lin), "--y0", "1e200",
         "-o", "never.csv"],
        ["compose", "--outer-field", "scaling", "--outer-driver", str(lin), "--inner-field",
         "square", "--inner-driver", str(lin), "--dim", "1", "--y0", "0.3", "--levels", "1",
         "--newton-tol", "1e-300"],
        ["gen", "fbm", "--n", "101", "--seed", "1", "--max-points", "100", "-o", "never.csv"],
        ["pde", "residual", "--hamiltonian", "burgers-half-p-squared", "--init",
         "neg-half-square", "--driver", str(negline), "--box=-2:2:101", "--eval=-0.5:0.5:5",
         "--levels", "3"],
        ["compose", "--outer-field", "scaling", "--outer-driver", str(lin3), "--inner-field",
         "scaling", "--inner-driver", str(step), "--dim", "1", "--y0", "1", "--levels", "1"],
        ["pvar", "--p", "1.5", "--path", str(ovf)],
        ["integrate", "--integrand", str(ovf), "--driver", str(ovf), "--p", "1.5", "--q", "1.5"],
        ["integrate", "--integrand", str(ovf), "--driver", str(ovf)],
        ["check", "infinitesimal", "--generator", "square", "--field", "scaling", "--dim", "2",
         "--domain=0.5:2"],
        ["check", "conserved", "--field", "rotation", "--dim", "2", "--domain=-1e308:1e308"],
    )
    return Workload("errors_extra", calls, lambda out: [])


def run_calls(tree: Path, calls, outdir: Path) -> list:
    """(exit code, stdout, stderr) of each call, the tree's path masked."""
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    results = []
    for call in calls:
        proc = subprocess.run([sys.executable, "-m", "youngflow.cli", *call], cwd=outdir,
                              env=env, capture_output=True, text=True)
        results.append((proc.returncode,
                        *(s.replace(str(tree), "<tree>") for s in (proc.stdout, proc.stderr))))
    return results


def cells(doc) -> list:
    """(place, value) of every leaf of a parsed JSON document, or of every
    cell of a CSV file's bytes, numbers as floats."""
    if isinstance(doc, bytes):
        rows = [line.split(",") for line in doc.decode().splitlines()]
        out = []
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                try:
                    out.append(((i, j), float(cell)))
                except ValueError:
                    out.append(((i, j), cell))
        return out
    if isinstance(doc, dict):
        return [((key,) + place, v) for key in sorted(doc) for place, v in cells(doc[key])]
    if isinstance(doc, list):
        return [((i,) + place, v) for i, item in enumerate(doc) for place, v in cells(item)]
    number = isinstance(doc, (int, float)) and not isinstance(doc, bool)
    return [((), float(doc) if number else doc)]


def size_of_difference(a, b) -> str:
    """How far two versions of one output differ."""
    ca, cb = cells(a), cells(b)
    if [place for place, _ in ca] != [place for place, _ in cb]:
        return "the layout differs"
    worst, masks = 0.0, 0
    for (_, x), (_, y) in zip(ca, cb):
        if isinstance(x, float) and isinstance(y, float) and math.isfinite(x) and math.isfinite(y):
            worst = max(worst, abs(x - y))
        elif repr(x) != repr(y):  # NaN, inf, null, booleans, text: the masks
            masks += 1
    return (f"largest absolute difference {worst:.3g}; the NaN and non-number masks "
            + ("agree" if not masks else f"differ in {masks} places"))


def compare(name: str, calls, parent: tuple, change: tuple) -> list:
    """Lines naming each difference between the two sides' (results, snapshot)."""
    problems = []
    for call, p, c in zip(calls, parent[0], change[0]):
        for what, a, b in zip(("exit code", "stdout", "stderr"), p, c):
            if a != b:
                problems.append(f"{name}: {what} differs for {' '.join(call[:2])}: "
                                f"{a!r} against {b!r}")
    snaps = parent[1], change[1]
    for f in sorted(set(snaps[0]) | set(snaps[1])):
        if f not in snaps[0] or f not in snaps[1]:
            problems.append(f"{name}: output {f} exists on one side only")
        elif snaps[0][f] != snaps[1][f]:
            problems.append(f"{name}: output {f} differs: "
                            + size_of_difference(snaps[0][f], snaps[1][f]))
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    trees = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        sha = git("rev-parse", f"{rev}^{{commit}}")
        trees[side] = args.workdir / sha[:12]
        if not (trees[side] / "src").exists():
            extract(sha, trees[side])
    builders = {**WORKLOADS, "pde_extra": pde_extra, "yde_extra": yde_extra,
                "domain_extra": domain_extra, "errors_extra": errors_extra}
    runs = Path(tempfile.mkdtemp(prefix="same-bytes-", dir=args.workdir))
    problems = []
    for seed in args.seeds:
        for wname, build in builders.items():
            name = f"{wname} seed {seed}"
            run_dir = runs / f"{wname}-{seed}"
            indir = run_dir / "in"
            indir.mkdir(parents=True)
            wl = build(seed, indir)
            sides = {}
            for side, tree in trees.items():
                outdir = run_dir / side
                sides[side] = (run_calls(tree, wl.calls, outdir), snapshot(outdir))
            found = compare(name, wl.calls, sides["parent"], sides["change"])
            n_files = len(sides["parent"][1])
            print(f"{name}: {len(wl.calls)} calls, {n_files} files, "
                  + (f"{len(found)} differences" if found else "same"), file=sys.stderr)
            problems += found
    for line in problems:
        print(line)
    if problems:
        print(f"outputs kept in {runs}", file=sys.stderr)
        return 1
    shutil.rmtree(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
