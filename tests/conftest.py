"""Shared test settings.

One hypothesis profile for every property test: 60 examples and no
per-example deadline, because wall-clock speed varies too much between hosts
for a fixed deadline to mean anything.
"""

from hypothesis import settings

settings.register_profile("spaneg", max_examples=60, deadline=None)
settings.load_profile("spaneg")
