"""Test-wide settings: one deterministic Hypothesis profile, loaded by default.

`derandomize=True` draws the same examples on every run, so a property test
passes or fails the same way each time; `deadline=None` keeps a slow host from
failing an example on time alone.
"""

from hypothesis import settings

settings.register_profile("finvar", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("finvar")
