"""Time strtherm's start-up for one or more source trees, in fresh processes.

    python .github/startup.py SRC [SRC ...] [--rounds N]

Each SRC is a directory holding the ``strtherm`` package (a checkout's
``src``).  Every round runs, for each tree in turn, two probes:

- import: a ``python -S`` child that times ``import strtherm.cli`` in
  process and prints it (-S: a .pth file in site-packages may import
  modules before the script runs);
- analyze: the wall time of ``python -m strtherm analyze FILE`` on one
  1 KB random file, as seen from this process.

Trees alternate within each round, so a slow phase of the host falls on
all of them.  One unmeasured round comes first.  Prints the median and
interquartile range of each probe per tree, and each median's ratio to the
first tree's.  Informational only: no bound is checked.
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

IMPORT = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import strtherm.cli\n"
    "print(time.perf_counter() - start)\n"
)


def probe(src: str, data: str) -> tuple[float, float]:
    """One import time and one analyze wall time for ``src``, in seconds."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-S", "-c", IMPORT], env=env,
                         check=True, capture_output=True, text=True).stdout
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "strtherm", "analyze", data], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return float(out), time.perf_counter() - start


def summary(times: list[float]) -> tuple[float, str]:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return median, f"{1e3 * median:6.1f} ms (IQR {1e3 * q1:.1f}-{1e3 * q3:.1f})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", help="directory holding strtherm")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    times = {src: ([], []) for src in args.src}
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "random-1k.bin")
        with open(data, "wb") as fh:
            fh.write(random.Random(1).randbytes(1024))
        for src in args.src:
            probe(src, data)
        for _ in range(args.rounds):
            for src in args.src:
                for kept, value in zip(times[src], probe(src, data)):
                    kept.append(value)
    print(f"{args.rounds} rounds, Python {sys.version.split()[0]}, "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")
    first = None
    for src, (imports, runs) in times.items():
        medians, texts = zip(summary(imports), summary(runs))
        first = first or medians
        ratios = " ".join(f"{m / f:.2f}" for m, f in zip(medians, first))
        print(f"{src}\n  import strtherm.cli  {texts[0]}\n"
              f"  analyze 1 KB         {texts[1]}\n  ratio to first       {ratios}")


if __name__ == "__main__":
    main()
