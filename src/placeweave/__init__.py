"""placeweave: place networks and motif censuses from device stay records.

The package namespace holds only the version: import from the submodules,
for example ``from placeweave.ingest import parse_stops``, so that each
command loads only the modules its stage uses.
"""

__version__ = "0.1.0"
