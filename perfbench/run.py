"""Repository benchmark: one workload per call, JSON result on the last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload irregular --seed 1 --seconds 22 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
is the separate traced run that prints the per-layer metrics and writes
its spans to ``.perfbench_out/spans-<workload>.json``.  The program is
imported from ``src/`` of the same checkout; nothing is built.  The exit
code is 0 only when every checked output was correct.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    from perfbench.bench import measure  # imports numpy and the program
    from perfbench.hostclock import probe, scales
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    after = probe()
    import_s *= scales([after, after])[0]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        import_s=import_s,
        spans_path=ROOT / ".perfbench_out" / f"spans-{args.workload}.json",
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
