"""Shared test setup: one deterministic hypothesis profile, and hypothesis
files kept out of the working tree.

Property tests draw the same examples on every machine and run, and no
example database is written, so a tier-1 result does not depend on where
or how often the suite ran before. Hypothesis still caches the literals it
reads from local source files (`.hypothesis/constants/`), whatever the
database setting; its home directory is a temporary one, removed when the
session ends. The cache holds what hypothesis would compute from the
sources anyway, so the draws do not depend on it.
"""

import tempfile

from hypothesis import configuration, settings

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
