"""Shared test setup: one deterministic hypothesis profile, hypothesis
files kept out of the working tree, `cache_field` and `write_states`.

Property tests draw the same examples on every machine and run, and no
example database is written, so a tier-1 result does not depend on where
or how often the suite ran before. Hypothesis still caches the literals it
reads from local source files (`.hypothesis/constants/`), whatever the
database setting; its home directory is a temporary one, removed when the
session ends. The cache holds what hypothesis would compute from the
sources anyway, so the draws do not depend on it.

Hypothesis's pytest plugin offers a patch file that adds each falsifying
example to the test source. Writing it imports `libcst`, whose
DeprecationWarning the suite's `filterwarnings` turns into an error, so a
falsifying example would end in a pytest INTERNALERROR instead of being
printed. The patch writer's module is marked missing, which the plugin
takes as the patch file being unavailable.
"""

import os
import sys
import tempfile

import numpy as np
from hypothesis import configuration, settings

from elastic_flow.geometry import chord_lengths
from elastic_flow.iotools import snapshot_path, write_snapshot

sys.modules.setdefault("hypothesis.extra._patching", None)

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_unconfigure(config):
    # removed explicitly: a finalizer that does it at exit warns of the leak
    _HOME.cleanup()


def cache_field(cache, name):
    """A field of a `GeometryCache`, or one it does not store, exactly: the
    chord lengths ("segments") or the unit tangent ("tangent", the normal
    rotated back by 90 degrees)."""
    if name == "segments":
        return chord_lengths(cache.nodes)
    if name == "tangent":
        return np.stack([cache.normal[..., 1], -cache.normal[..., 0]], axis=-1)
    return getattr(cache, name)


def write_states(out_dir, states):
    """Write each state's snapshot file into `out_dir`, creating it, with
    `write_snapshot` at its `snapshot_path`, a path independent of the
    snapshot writer; return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [snapshot_path(str(out_dir), st.step_index) for st in states]
    for path, st in zip(paths, states):
        write_snapshot(path, st)
    return paths
