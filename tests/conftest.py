"""Test-suite settings shared by every module.

Property tests run under a fixed Hypothesis profile: derandomized, so
every run draws the same examples, with a bounded example count and no
per-example deadline, so the suite stays deterministic and its wall
time steady on slow machines.  Another registered profile can still be
picked with pytest's --hypothesis-profile option.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("tier1")
