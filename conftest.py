"""Pin BLAS and OpenMP to one thread before any test module imports numpy.

pytest loads this file before it collects `perfbench/` or `tests/`; the
small matrices the tests use run fastest on one thread, and more threads
oversubscribe the CPUs when other processes run beside the suite.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
