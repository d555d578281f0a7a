"""Run a command and fail unless it exits 0 below a max RSS limit.

Usage: python max_rss.py LIMIT_MB COMMAND [ARG ...]

The child's max RSS is read through ``os.wait4``.  A child's max RSS starts
at the launcher's own, so the launcher imports only the standard library:
NumPy loaded here would raise every child's floor.
"""

import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    limit_mb, command = float(argv[0]), argv[1:]
    _, status, usage = os.wait4(subprocess.Popen(command).pid, 0)
    code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"exit {code}, max RSS {rss_mb:.1f} MB (limit {limit_mb:g} MB)")
    assert "numpy" not in sys.modules
    return 0 if code == 0 and rss_mb < limit_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
