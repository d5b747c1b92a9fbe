"""Child processes and passes: how the benchmark measures a CLI call.

Each call is one child process, timed from fork to reaping, with its
CPU time and peak RSS taken from wait4's rusage. Children are spawned
one at a time by launcher.py, which says why.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"


def since_process_start() -> float:
    """Seconds since this process was created, interpreter start included."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


@dataclass(frozen=True)
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


class Launcher:
    """The launcher process; close() ends it and waits for it."""

    def __init__(self, work: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._stderr = work / "child_stderr.txt"
        self._proc = subprocess.Popen(
            [sys.executable, "-S", "-E", str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv: list, cwd: Path) -> Child:
        """One child; a child that fails has its standard error copied to ours."""
        self._proc.stdin.write("\0".join([str(self._stderr), str(cwd), *argv]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if len(reply) != 4:
            raise RuntimeError("the launcher process died")
        rc = int(reply[0])
        if rc != 0:
            sys.stderr.write(self._stderr.read_text(errors="replace")[-2000:])
            print(f"exit {rc}: {' '.join(argv)}", file=sys.stderr)
        return Child(rc, float(reply[1]), float(reply[2]), int(reply[3]) / 1024.0)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def cli_argv(call: list) -> list:
    return [sys.executable, "-m", "youngflow.cli", *call]


@dataclass
class PassStats:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failed: int


def run_pass(launcher: Launcher, calls, outdir: Path) -> PassStats:
    """Every call of a pass in order; wall and CPU summed, RSS the highest."""
    outdir.mkdir(parents=True)
    wall = cpu = rss = 0.0
    failed = 0
    for call in calls:
        c = launcher.run(cli_argv(call), outdir)
        wall += c.wall_s
        cpu += c.cpu_s
        rss = max(rss, c.rss_mb)
        failed += c.returncode != 0
    return PassStats(wall, cpu, rss, failed)
