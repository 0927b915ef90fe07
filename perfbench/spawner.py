"""Starts the benchmark's operation processes from a small process.

Linux counts the memory a child shares with its parent until exec into the
child's peak resident set (ru_maxrss).  An operation started straight from
run.py, which holds parsed outputs and, for `structures`, motalg itself,
would report run.py's resident set; started from this helper it reports
its own.

    python3 -S perfbench/spawner.py     (from the directory the operations run in)

Reads one JSON request per line on stdin: {"argv": [...], "out": path,
"err": path, "timeout": seconds}.  Writes one JSON reply per line on
stdout: [exit code, seconds, peak RSS in MB], the exit code negative when
a signal ended the operation (the timeout's SIGKILL included).  Exits at
the end of stdin.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    child = [0]

    def on_timeout(signum, frame):
        if child[0]:
            os.kill(child[0], signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_timeout)
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        out = os.open(req["out"], flags, 0o644)
        err = os.open(req["err"], flags, 0o644)
        try:
            t0 = time.perf_counter()
            child[0] = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out, 1),
                (os.POSIX_SPAWN_DUP2, err, 2),
            ])
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            _, status, usage = os.wait4(child[0], 0)
            seconds = time.perf_counter() - t0
            child[0] = 0
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            os.close(out)
            os.close(err)
        print(json.dumps([os.waitstatus_to_exitcode(status), seconds,
                          usage.ru_maxrss / 1024]), flush=True)


if __name__ == "__main__":
    main()
