"""Desk-scale multimodal lesion detection: gaze fixation maps fused with
grayscale images in a miniature region-proposal detector, plus the IoBB
evaluation protocol for comparing image-only and multimodal models."""

import os

# BLAS runs on one thread, whatever the environment says: a threaded GEMM
# sums in another order, so the same seed would give other bytes. This
# holds only if numpy is first imported after this line.
os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
