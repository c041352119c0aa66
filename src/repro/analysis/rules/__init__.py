"""Rule implementations, grouped by family.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.  Each module documents the concrete
hazard in *this* codebase that motivated its family.
"""

from . import (  # noqa: F401
    asynchygiene,
    blocking,
    determinism,
    exceptions,
    hygiene,
)
