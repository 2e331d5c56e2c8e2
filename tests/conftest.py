"""Shared test setup: one deterministic hypothesis profile.

Property tests draw the same examples on every machine and run, and no
example database is written, so a tier-1 result does not depend on where
or how often the suite ran before.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
