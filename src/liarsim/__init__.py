"""Quantum-style simulation of m-sentence liar cycles.

A paradoxical cycle of m sentences has no consistent classical truth
assignment, but reasoning about it is a perfectly regular process: a closed
walk of 2m hypothesis events.  This package models that walk as a state
vector on 2m basis states of an m-fold tensor space, with hypothesis
measurements as diagonal projectors and one reasoning step as a unitary
permutation whose matrix logarithm extends the dynamics to continuous time.

The package exports the API documented in the README, the names the
acceptance suite uses and the error classes; everything else is imported
from its own module.

No module imports numpy at import time: each function that computes with
it imports it itself, after its argument checks.  Every module still loads
eagerly, so ``import liarsim.cli`` loads the whole package but not numpy,
and ``count``, ``check-dim`` and every rejected argument or configuration
finish without it.  The writers behind ``trace`` and ``state`` run every
check on the call and build their kernels, tables and ranks only after
their head, so the commands write and flush the head before numpy loads;
``verify`` does the same with its first lines.  No command loads
``numpy.random``: ``verify`` draws its samples from the standard library's
``random``.
"""

from .audit import Contradiction, Satisfiable, verify_minimality
from .config import (
    Configuration,
    count_paradoxical,
    eight_liar,
    enumerate_paradoxical,
    is_paradoxical,
    one_liar,
    simple_liar,
    validate,
)
from .errors import (
    BoundExceeded,
    LiarSimError,
    NotParadoxical,
    NotSingleCycle,
    OutOfRange,
    SupportOutsideSubspace,
    UnsupportedDimension,
)
from .evolution import (
    apply_steps,
    build_evolution,
    fourier_frame,
    hamiltonian,
    probability_trace,
    propagate,
    propagator,
    step_matrix,
    trace_to_csv,
)
from .inference import reasoning_cycle
from .measurement import (
    collapse,
    hypothesis_projector,
    inference_projector,
    projection_probability,
    single_entry_projector,
)
from .statespace import (
    SparseState,
    build_initial_state,
    cycle_states,
    kappa,
    kappa_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "Configuration",
    "Contradiction",
    "LiarSimError",
    "NotParadoxical",
    "NotSingleCycle",
    "OutOfRange",
    "Satisfiable",
    "SparseState",
    "SupportOutsideSubspace",
    "UnsupportedDimension",
    "apply_steps",
    "build_evolution",
    "build_initial_state",
    "collapse",
    "count_paradoxical",
    "cycle_states",
    "eight_liar",
    "enumerate_paradoxical",
    "fourier_frame",
    "hamiltonian",
    "hypothesis_projector",
    "inference_projector",
    "is_paradoxical",
    "kappa",
    "kappa_inverse",
    "one_liar",
    "probability_trace",
    "projection_probability",
    "propagate",
    "propagator",
    "reasoning_cycle",
    "simple_liar",
    "single_entry_projector",
    "step_matrix",
    "trace_to_csv",
    "validate",
    "verify_minimality",
]
