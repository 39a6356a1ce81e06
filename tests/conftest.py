"""Hypothesis profiles for the test suite.

``dev`` runs 100 examples per property test that sets no count of its own,
``ci`` 1,000; ``ci`` is loaded when the ``CI`` environment variable is set,
as it is on continuous-integration runners.
"""

import os

from hypothesis import settings

settings.register_profile("dev", max_examples=100)
settings.register_profile("ci", max_examples=1000)
settings.load_profile("ci" if os.environ.get("CI") else "dev")
