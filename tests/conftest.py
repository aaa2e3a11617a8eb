"""The tests run with one BLAS thread, as the benchmark does, so that their
times stay comparable between runs and hosts: OpenBLAS otherwise runs as
many threads as it sees CPUs. BLAS reads the setting once, when numpy is
first imported, after this file is loaded."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
