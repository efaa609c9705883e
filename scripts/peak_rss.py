#!/usr/bin/env python3
"""Run a command and fail if its peak resident set size exceeds a ceiling.

Usage:
    python3 scripts/peak_rss.py MAX_MB -- COMMAND [ARGS...]

The command's stdout and stderr pass through. The peak RSS of the child
(``ru_maxrss`` from ``os.wait4``, the same reading perfbench takes) is
printed to stderr. Exit status: the child's own status if it fails, 1 if it
succeeds above MAX_MB, 0 otherwise. A peak-RSS ceiling is a stable gate on
a shared runner, where wall time is not.
"""

import os
import sys


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print("usage: peak_rss.py MAX_MB -- COMMAND [ARGS...]",
              file=sys.stderr)
        return 2
    ceiling_mb = float(argv[1])
    command = argv[3:]
    pid = os.posix_spawnp(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (ceiling {ceiling_mb:g} MB): "
          f"{' '.join(command)}", file=sys.stderr)
    if code != 0:
        return code if code > 0 else 1
    if peak_mb > ceiling_mb:
        print(f"peak RSS exceeds the {ceiling_mb:g} MB ceiling",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
