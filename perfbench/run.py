"""Run one benchmark workload against the spaneg sources in ../src.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

Prints the run record and, as the last line, the result object.  See
perfbench/bench.py for what is measured.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread, set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

if __name__ == "__main__":
    if not (ROOT / "src" / "spaneg" / "__init__.py").is_file():
        sys.exit("perfbench: no spaneg package under src/ next to perfbench/")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main

    sys.exit(main())
