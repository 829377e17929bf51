import os

from hypothesis import settings

# CI sets HYPOTHESIS_PROFILE=ci: every property test then draws the same
# examples on each run and Python version, so a red build reproduces.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
