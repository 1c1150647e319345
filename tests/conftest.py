"""Shared test configuration.

The Hypothesis profile is derandomized, so every run draws the same
examples and a tier-1 result never depends on the seed of the day; the
deadline is off because wall time per example is noisy on shared hosts.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
