"""Old import names of the event-driven classes folded into the simulator.

Each component once had an event-driven twin in a ``fast*`` module
(``repro.core.fastcore.EventProcessor`` and so on).  The twins are now
the components' only implementation, in the components' own classes.
The per-layer boundary table of ``perfbench/spans.py`` still looks
methods up under the old module and class names.  This module keeps
those names importable, each bound to the class that now holds the
code, so the boundaries wrap the live methods.  Delete it once that
table names the current classes.
"""

from __future__ import annotations

import sys
import types

# The processor first: its import chain loads the other packages in an
# order free of cycles.
from . import core  # noqa: F401
from .clusters.cluster import Cluster
from .clusters.steering import SteeringHeuristic
from .core.processor import ClusteredProcessor
from .frontend.fetch import FetchUnit
from .interconnect.network import Network

#: Old module -> {old class name: the class that holds its code now}.
FOLDED = {
    "repro.core.fastcore": {"EventProcessor": ClusteredProcessor},
    "repro.frontend.fastfetch": {"AnnotatedFetchUnit": FetchUnit},
    "repro.clusters.faststeer": {"VectorSteering": SteeringHeuristic},
    "repro.clusters.fastcluster": {"FastCluster": Cluster},
    "repro.interconnect.fastnet": {"BatchedNetwork": Network},
}

for _name, _classes in FOLDED.items():
    _module = types.ModuleType(_name, f"Alias of {__name__}.FOLDED[{_name!r}].")
    vars(_module).update(_classes)
    sys.modules.setdefault(_name, _module)
