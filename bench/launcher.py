"""Start the cli workload's ``python -m abrikosov`` processes, one at a time.

The worker sends one JSON argument list per line on stdin and gets back one
JSON line with the exit code and stdout (bytes as latin-1 text).  An empty
line ends the exchange; the reply to it is the peak resident memory of the
largest child, in MB.

The children are started from this small process rather than from the
worker because Linux counts a child's resident memory before ``exec`` too:
spawned from the worker, every child would report at least the worker's
own peak, which grows with the CSV files it checks.
"""
import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        if not line.strip():
            break
        proc = subprocess.run(json.loads(line), capture_output=True, timeout=120)
        sys.stdout.write(json.dumps({"rc": proc.returncode,
                                     "stdout": proc.stdout.decode("latin-1")})
                         + "\n")
        sys.stdout.flush()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps({"peak_rss_mb": peak}) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
