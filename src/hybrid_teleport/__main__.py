"""Console entry point (`hybrid-teleport`, `python -m hybrid_teleport`).

Small matrix products run faster on one BLAS thread, and BLAS reads its
thread count when numpy is first imported: so OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS default to 1 here, before the CLI imports numpy.  A
user's own value wins, and `import hybrid_teleport` sets neither.
"""

import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .cli import main  # noqa: E402  (numpy is first imported here)

if __name__ == "__main__":
    sys.exit(main())
