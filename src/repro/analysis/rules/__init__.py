"""Rule modules.  Importing this package registers every rule with the
:data:`repro.analysis.core.RULES` registry (via the ``@rule``
decorator); :func:`repro.analysis.core.analyze_project` triggers the
import lazily so framework users pay for rules only when running them.
"""

from repro.analysis.rules import (api, caches, determinism, discarded,
                                  fastpath, flow, protocol, slots)

__all__ = ["api", "caches", "determinism", "discarded", "fastpath",
           "flow", "protocol", "slots"]
