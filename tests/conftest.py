"""Test-wide hypothesis settings: one profile for every property test.

No deadline, since a first call can pay for imports and caches and a shared
machine's timing varies; print_blob so that a failure on CI prints the blob
that reproduces it with @reproduce_failure.
"""

from hypothesis import settings

settings.register_profile("photonlab", deadline=None, print_blob=True)
settings.load_profile("photonlab")
