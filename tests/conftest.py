"""Hypothesis profiles.

The default profile is hypothesis' own, so a plain run keeps each test's
example count.  ``--hypothesis-profile=deep`` runs every property test on
at least 2,000 examples with no deadline; the contract tests in
`test_cli_contract.py` take the larger of their own count and the
profile's.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000, deadline=None)
