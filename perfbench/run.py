"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream|namespace|sync|all \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository: the program is
imported from the checkout's `src/`, never from an installed copy. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric
with its unit and sample count. The exit code is 0 only when every check
passed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "sealvault" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sealvault source under {SRC}; run it inside a checkout")
    # the program under test comes from this checkout; the script's own
    # directory is dropped so its modules cannot shadow the standard library
    sys.path[0:1] = [str(SRC), str(ROOT)]
    from perfbench.runner import main

    sys.exit(main(sys.argv[1:], ROOT))
