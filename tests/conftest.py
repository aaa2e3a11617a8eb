"""The tests run with one BLAS thread, as the benchmark does: the
concurrent paths of neural.overlap run only under a BLAS that runs one
thread, and the tests that force those paths need them to exist. BLAS
reads the setting once, when numpy is first imported, after this file is
loaded."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
