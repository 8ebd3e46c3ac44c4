"""Two-branch co-training for long-tailed generalized category discovery.

A contrastive-learning branch and a pseudo-labeling branch train over a
shared encoder and advise each other: cluster sizes in contrastive feature
space estimate the (unknown) long-tailed class distribution, which
regularizes and debiases the classifier; the classifier's rectified,
subsampled pseudo-labels weight a soft contrastive loss in return.
"""

import os

__version__ = "0.1.0"

# BLAS and OpenMP read these when NumPy loads. One thread unless the caller
# sets a count: a multi-threaded GEMM may sum in another order, and a run's
# bytes would then depend on the machine's core count. Once NumPy is loaded
# (library use, pytest) this changes nothing.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
