"""Hypothesis draws the same examples on every run and writes nothing into the checkout.

Even with no example database, hypothesis stores the constants it parses
from local modules under its home directory, `.hypothesis/` in the working
directory by default; one fixed directory under the system temp dir keeps
them out of the checkout.
"""

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "growbench-hypothesis"))
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
