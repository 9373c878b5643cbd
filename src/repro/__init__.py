"""repro: a reproduction of FlatDD (ICPP 2024).

FlatDD is a quantum circuit simulator that combines decision diagrams (DD)
with flat arrays: it simulates in DD form while the state stays regular,
detects irregularity growth with an EWMA over DD sizes, converts the state
to a flat array in parallel, and finishes with parallel DD-matrix x
array-vector multiplication (DMAV) with result caching and cost-model-driven
gate fusion.

Quickstart::

    from repro import FlatDDSimulator, get_circuit

    circuit = get_circuit("supremacy", 10)
    result = FlatDDSimulator(threads=4).run(circuit)
    print(result.runtime_seconds, result.peak_memory_mb)
    print(result.probabilities()[:8])

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for the paper-vs-measured record.
"""

import logging as _logging

from repro.backends import (
    DDSimulator,
    GateRecord,
    SimulationResult,
    Simulator,
    StatevectorSimulator,
)
from repro.circuits import (
    CIRCUIT_FAMILIES,
    Circuit,
    Gate,
    get_circuit,
    parse_qasm,
    to_qasm,
)
from repro.common import FlatDDConfig
from repro.core import FlatDDSimulator
from repro.noise import NoiseModel, run_trajectories
from repro.observables import PauliString, PauliSum
from repro.sampling import sample_counts, sample_from_dd
from repro.serve import SimulationService
from repro.verify import check_equivalence

# Library-wide logger: silent unless the application configures handlers
# (the CLI's -v/--verbose does; see `python -m repro --help`).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "1.9.0"

__all__ = [
    "CIRCUIT_FAMILIES",
    "Circuit",
    "DDSimulator",
    "FlatDDConfig",
    "FlatDDSimulator",
    "Gate",
    "GateRecord",
    "NoiseModel",
    "PauliString",
    "PauliSum",
    "SimulationResult",
    "SimulationService",
    "Simulator",
    "StatevectorSimulator",
    "check_equivalence",
    "get_circuit",
    "parse_qasm",
    "run_trajectories",
    "sample_counts",
    "sample_from_dd",
    "to_qasm",
    "__version__",
]
