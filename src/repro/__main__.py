"""Entry point for ``python -m repro``.

The service and the experiments make many small BLAS products, which
numpy's default thread pool slows down on a small host
(docs/PERFORMANCE.md, "One BLAS thread").  So a BLAS/OpenMP thread
count the caller left unset is pinned to one, before ``repro.cli``
imports numpy; a value the caller set is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from repro.cli import main  # noqa: E402 -- after the thread policy

raise SystemExit(main())
