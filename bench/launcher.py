"""Spawns and reaps the benchmark's measured child processes, one at a time.

On Linux the peak RSS that wait4 reports for a child starts at the peak
RSS of the process that spawned it, since exec carries the old image's
high-water mark over. The benchmark therefore spawns its children
through this process, started as `python3 -S -E` so that its own peak
(about 8 MB) stays below that of any Python child (13 MB bare).

Protocol: one request per line on stdin, fields separated by NUL: the
file for the child's standard error, its working directory, then its
argv with an absolute program path. One reply line per request: exit
code, wall seconds from fork to reaping, CPU seconds, peak RSS in KiB.
"""

import os
import sys
import time


def spawn(stderr_path: str, cwd: str, argv: list):
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(cwd)
            null = os.open(os.devnull, os.O_RDWR)
            err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(null, 0)
            os.dup2(null, 1)
            os.dup2(err, 2)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def main() -> None:
    for line in sys.stdin:
        stderr_path, cwd, *argv = line.rstrip("\n").split("\0")
        rc, wall, cpu, rss = spawn(stderr_path, cwd, argv)
        sys.stdout.write(f"{rc} {wall!r} {cpu!r} {rss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
