"""Process set-up shared by the benchmark scripts.

Import this before numpy: it pins the BLAS and OpenMP pools to one thread
and puts the checkout's ``src`` directory first on the import path.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def have_sources() -> bool:
    """True when the checkout holds the package sources next to ``bench``."""
    return (SRC / "pharmap" / "__init__.py").is_file()
