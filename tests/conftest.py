"""Shared pytest set-up: one BLAS thread, and the hypothesis profile of the
fuzz tests."""

import os

# evaluate forks a worker per usable CPU.  Python 3.12 warns when a process
# with threads forks, which pytest turns into an error, and OpenBLAS starts
# its threads when numpy loads: so pin it to one thread before any import of
# numpy, as CI does.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from hypothesis import settings  # noqa: E402

# Derandomized with no example database, so every run tries the same inputs
# and the suite stays deterministic; bounded so the fuzz tests stay short.
settings.register_profile(
    "patreid", derandomize=True, database=None, max_examples=60, deadline=None
)
settings.load_profile("patreid")
