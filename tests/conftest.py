"""Shared test settings.

One hypothesis profile for every property test: 60 examples and no
per-example deadline, because wall-clock speed varies too much between hosts
for a fixed deadline to mean anything.  Tests write nothing into the
checkout, so the profile keeps no example database, and hypothesis's other
cache (the constants it reads from the source under test, at collection)
goes to a temporary directory that is removed at exit.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("spaneg", max_examples=60, deadline=None, database=None)
settings.load_profile("spaneg")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="spaneg-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
