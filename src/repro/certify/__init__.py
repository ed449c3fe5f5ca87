"""Certified answers: cutting-planes proof logging and checking.

A :class:`ProofLogger` attached to the bsolo solver (via
``SolverOptions(proof=...)``) records a machine-checkable derivation of
every constraint the search learns — first-UIP clauses as RUP steps,
Section-5 cuts as recomputable consequences of the incumbent, and bound conflicts as
exact-arithmetic lower-bound certificates (MIS accounting or rationalized
LP/Lagrangian multipliers).  The standalone :class:`ProofChecker` replays
such a log against the parsed OPB instance using *only* ``repro.pb``
arithmetic — it imports nothing from ``repro.core`` or ``repro.engine``
— and either certifies the run's final claim or rejects the log with a
step-numbered error.

See ``docs/PROOFS.md`` for the format grammar, the derivation rules with
worked examples, and the checker's trust base.
"""

from .checker import CheckOutcome, ProofChecker, ProofError
from .format import ProofSyntaxError
from .logger import ProofLogger

__all__ = [
    "CheckOutcome",
    "ProofChecker",
    "ProofError",
    "ProofLogger",
    "ProofSyntaxError",
]
