"""Run the benchmark on two commits in alternating pairs and record the result.

    python3 tools/bench_pairs.py --parent REV --change REV --workload NAME \
        --pairs 10 --seconds 20 --seed 201 --out OUT.json --workdir DIR

Both revisions are extracted with `git archive` into DIR (outside the
checkout under test), so each side builds what it runs from its own
committed files. Pair i runs `bench/run.py --seed <seed + i>` on both
sides, the parent first in even pairs and the change first in odd ones.
Then one `--trace 1` run per side gives the per-layer metrics.

The output file holds one entry per workload; a later call with another
workload adds its entry to the same file, so the three workloads can be
run one at a time. Each entry keeps every pair's metrics as run.py's last
line gives them, each side's median and quartiles, the parent's IQR,
the change's wins (pairs in which it is better, ties count for neither),
and the traced runs. Directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarise(pairs: list, better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if direction == "lower" else -1
        pq = statistics.quantiles(par, n=4, method="inclusive")
        cq = statistics.quantiles(chg, n=4, method="inclusive")
        out[name] = {
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "parent_iqr": pq[2] - pq[0],
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(par, chg)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=201, help="seed of pair 0")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    commits = {side: git("rev-parse", f"{rev}^{{commit}}")
               for side, rev in (("parent", args.parent), ("change", args.change))}
    trees = {side: args.workdir / sha[:12] for side, sha in commits.items()}
    for side, sha in commits.items():
        if not (trees[side] / "bench" / "run.py").exists():
            extract(sha, trees[side])
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = bench(trees[side], args.workload, seed, args.seconds, 0)
        pairs.append(pair)
        print(f"pair {i}: " + ", ".join(
            f"{s} wall_s {pair[s]['metrics']['wall_s']['value']:.3f}" for s in order),
            file=sys.stderr)
    traced = {side: bench(trees[side], args.workload, args.seed, args.seconds, 1)
              for side in ("parent", "change")}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if doc.get("commits", commits) != commits:
        raise SystemExit(f"{args.out} records other commits: {doc['commits']}")
    doc["commits"] = commits
    doc.setdefault("workloads", {})[args.workload] = {
        "seconds": args.seconds,
        "pairs": pairs,
        "summary": summarise(pairs, better),
        "traced": traced,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
