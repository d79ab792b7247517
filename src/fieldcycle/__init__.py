"""Digital twin of a wide dynamic range mechanical field-cycling NMR
instrument: fringe-field map, shuttle kinematics, trigger sequencing,
NV-13C hyperpolarization sweeps, and field-dependent relaxometry."""

from . import errors, fieldmap, motion, orchestrator, relaxometry, sequencer, spin
from .orchestrator import TOOL_VERSION as __version__

__all__ = [
    "errors",
    "fieldmap",
    "motion",
    "sequencer",
    "spin",
    "relaxometry",
    "orchestrator",
    "__version__",
]
