"""Run commands for perfbench/run.py and report what each one used.

    python3 -S perfbench/spawner.py

Reads one JSON request per line on standard input, with keys argv, env,
out, err and timeout (seconds); runs argv with standard output and
error sent to the files out and err; writes one JSON line back with the
command's wall time, user+sys CPU time, max RSS in MB and exit code
(null when it was killed at the timeout).

run.py starts this small process once and spawns every command
through it.  Linux reports as a command's max RSS the larger of its own
peak and the resident size of the process it was spawned from, so a
command spawned straight from run.py would show run.py's memory.  This
process stays smaller than any Python command it runs.
"""

import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def run(argv, env, out, err, timeout):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    code = None
    try:
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        _, status, ru = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except Timeout:
        os.kill(pid, signal.SIGKILL)
        _, _, ru = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"wall_s": time.perf_counter() - t0,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024, "code": code}


def main():
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
