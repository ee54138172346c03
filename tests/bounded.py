"""Run one command under a peak-RSS bound and a timeout.

    python tests/bounded.py --rss-mib 64 --timeout 60 -- CMD... > FILE

The command inherits stdout and stderr; this script writes only to
stderr, so a redirection of its stdout holds the command's output alone.
The bound is on the peak resident set of the children this process
waited for (``RUSAGE_CHILDREN``, in KiB on Linux), which must stay
strictly below ``--rss-mib`` MiB. If the command fails, times out (it
is then killed) or goes over the bound, one line goes to stderr and the
exit status is 1; otherwise one line reports the peak and the time, and
the exit status is 0.
"""

import argparse
import resource
import subprocess
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a command under a peak-RSS bound and a timeout.")
    parser.add_argument("--rss-mib", type=int, required=True, help="bound on the peak RSS, in MiB")
    parser.add_argument("--timeout", type=float, required=True, help="seconds before the command is killed")
    parser.add_argument("cmd", nargs="+", help="the command, after --")
    args = parser.parse_args(argv)
    name = " ".join(args.cmd)
    start = time.monotonic()
    try:
        status = subprocess.run(args.cmd, timeout=args.timeout).returncode
    except subprocess.TimeoutExpired:
        return fail(f"timed out after {args.timeout:g} s: {name}")
    except OSError as e:
        return fail(f"{e}: {name}")
    seconds = time.monotonic() - start
    if status:
        return fail(f"exit status {status}: {name}")
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if rss >= args.rss_mib * 1024:
        return fail(f"peak RSS {rss} KiB, not below {args.rss_mib} MiB: {name}")
    print(f"bounded: peak RSS {rss / 1024:.1f} of {args.rss_mib} MiB, {seconds:.1f} of {args.timeout:g} s: {name}",
          file=sys.stderr)
    return 0


def fail(message: str) -> int:
    print(f"bounded: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
