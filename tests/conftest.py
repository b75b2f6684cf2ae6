"""Suite-wide settings: property tests replay the same examples every run.

Derandomized examples keep the suite deterministic, and no deadline keeps
a slow or throttled CPU from failing an example on time alone.
"""

from hypothesis import settings

settings.register_profile("vifit", derandomize=True, deadline=None, database=None)
settings.load_profile("vifit")
