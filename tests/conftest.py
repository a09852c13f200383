"""Import gazedet before any test module imports numpy.

`gazedet/__init__.py` pins BLAS to one thread through the environment, and
OpenBLAS reads it only when numpy first loads. Importing gazedet here makes
the in-process tests run under the thread count the `gazedet` command uses.
"""

import gazedet  # noqa: F401
