"""Pipeline benchmark for punchgen: one workload per process.

    python3 perfbench/run.py --workload {desk,paper} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/` directory. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread: the machine has two cores and the stub endpoint uses the second.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

# Keep freed memory in the heap instead of returning it to the kernel. With
# glibc's defaults numpy's temporaries are mapped and unmapped on every
# operation: a one-step paper pretrain call took 120k-190k page faults and
# 0.6-0.8 s of system time on top of 4.6-5.1 s of user time. See README,
# "Allocator".
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
try:
    _libc = ctypes.CDLL("libc.so.6")
    _libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
    _libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
except OSError:
    pass

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "punchgen" / "__init__.py").is_file():
        print(f"error: no punchgen sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]

    start = time.perf_counter()
    import punchgen.corpus  # noqa: F401  - the program's imports are part of set-up
    import punchgen.decoding  # noqa: F401
    import punchgen.evaluation  # noqa: F401
    import punchgen.knowledge  # noqa: F401
    import punchgen.training  # noqa: F401
    import_s = time.perf_counter() - start
    if Path(punchgen.__file__).resolve().parent != (SRC / "punchgen").resolve():
        print(f"error: imported punchgen from {punchgen.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import pipeline

    result = pipeline.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
