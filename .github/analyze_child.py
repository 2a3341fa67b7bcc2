"""Run `strtherm analyze` as a child under `timeout`, write its JSON report
and fail unless the report parses as strict JSON (no NaN or Infinity),
has the expected `n_obs` and, with --max-rss-mib, the child's peak RSS
stays under that bound; on success, print that peak in MiB.

    python .github/analyze_child.py --seconds S --n-obs N [--max-rss-mib M] \
        --out REPORT.json -- FILE [ANALYZE OPTIONS ...]

Run one of these per checked run: the peak RSS is read over every child
this process has waited for, so each run's is its own only that way.
"""

import argparse
import json
import resource
import subprocess
import sys


def reject(token):
    sys.exit(f"non-finite number {token} in the report")


parser = argparse.ArgumentParser()
parser.add_argument("--seconds", type=int, required=True)
parser.add_argument("--n-obs", type=int, required=True)
parser.add_argument("--max-rss-mib", type=float)
parser.add_argument("--out", required=True)
parser.add_argument("analyze", nargs="+")
args = parser.parse_args()

with open(args.out, "w") as out:
    subprocess.run(
        ["timeout", str(args.seconds), sys.executable, "-m", "strtherm", "analyze",
         *args.analyze, "--format", "json"],
        stdout=out, check=True,
    )
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if args.max_rss_mib is not None and peak_mib >= args.max_rss_mib:
    sys.exit(f"peak RSS {peak_mib:.1f} MiB, not under {args.max_rss_mib:g} MiB")
with open(args.out) as f:
    n_obs = json.load(f, parse_constant=reject)["n_obs"]
if n_obs != args.n_obs:
    sys.exit(f"n_obs {n_obs} != {args.n_obs}")
print(f"{peak_mib:.2f}")
