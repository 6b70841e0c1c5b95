"""``python -m ellipsample`` and the installed ``ellipsample`` command.

No package call hands OpenBLAS a product big enough to split (see the
``Ellipsoid`` docstring), yet the worker thread that numpy's import starts
spins after each call and bills CPU the run never uses.  So the program
caps OpenBLAS at one thread before ``cli`` loads numpy, unless the caller
set OPENBLAS_NUM_THREADS.  The library itself sets no environment.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402 -- after the cap: cli loads numpy

if __name__ == "__main__":
    raise SystemExit(main())
