"""Shared pytest set-up: the hypothesis profile of the fuzz tests."""

from hypothesis import settings

# Derandomized with no example database, so every run tries the same inputs
# and the suite stays deterministic; bounded so the fuzz tests stay short.
settings.register_profile(
    "patreid", derandomize=True, database=None, max_examples=60, deadline=None
)
settings.load_profile("patreid")
