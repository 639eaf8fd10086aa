"""Process set-up shared by the benchmark scripts; import it before numpy.

Pins OpenBLAS/OpenMP/MKL to one thread, so that a run stays within one of
the machine's cores and its output bits do not depend on the thread count,
and puts the checkout's ``src/`` first on ``sys.path``.  A directory with no
``src/esharing`` package beside ``bench/`` is refused with exit code 2.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "esharing", "__init__.py")):
    print(f"bench: no esharing sources under {SRC}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, SRC)
