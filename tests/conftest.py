"""Hypothesis profiles.  `--hypothesis-profile=ci` prints the reproduction
blob of any failure, so a find in a CI log can be replayed exactly; examples
stay random, as in a local run."""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
