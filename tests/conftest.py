"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples, with no deadline (solve times vary with the
machine) and a bounded example count that keeps the suite's run time
stable. No example database is written.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("tier1")
