"""Shared pytest configuration."""

from hypothesis import settings

# property tests draw the same examples on every run and replay no saved
# failures, so each run checks exactly the same inputs
settings.register_profile("cadfit", derandomize=True, database=None, deadline=None, max_examples=200)
settings.load_profile("cadfit")
