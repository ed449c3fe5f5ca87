"""Certify-after-solve smoke sweep: proof logging end to end.

For each quick-family instance, solve with a
:class:`repro.certify.ProofLogger` attached, then replay the produced
log with the independent :class:`repro.certify.ProofChecker` and
cross-check the checker's verdict against the solver's answer.  This is
the harness behind ``python -m repro.experiments certsmoke`` (the CI
``certify-smoke`` job) and the end-to-end certification tests.
"""

from __future__ import annotations

from io import StringIO
from typing import Any, Dict, List, Sequence

from ..certify import ProofChecker, ProofError, ProofLogger
from ..core.options import SolverOptions
from .runner import run_one
from .table1 import family_instances

#: The quick Table 1 stand-in families.
FAMILIES = ("mcnc", "ptl", "grout")


def run_certsmoke(
    families: Sequence[str] = FAMILIES,
    count: int = 1,
    scale: float = 0.5,
    time_limit: float = 30.0,
    solver: str = "bsolo-lpr",
) -> List[Dict[str, Any]]:
    """Solve, log, and independently re-check every instance.

    Returns one record per run with the solver's answer, the checker's
    verdict, and an ``ok`` flag that also demands the two agree (the
    checker certifying a *different* claim than the solver printed would
    be exactly the kind of bug proof logging exists to catch).
    """
    records: List[Dict[str, Any]] = []
    for family in families:
        instances, labels = family_instances(family, count=count, scale=scale)
        for instance, label in zip(instances, labels):
            sink = StringIO()
            logger = ProofLogger(sink)
            options = SolverOptions(time_limit=time_limit, proof=logger)
            record = run_one(solver, instance, label, options)
            logger.close()
            row: Dict[str, Any] = {
                "instance": label,
                "status": record.result.status,
                "cost": record.result.best_cost,
                "steps": logger.steps_logged,
                "uncertified_prunes": record.result.stats.uncertified_prunes,
            }
            try:
                outcome = ProofChecker(instance).check_text(sink.getvalue())
            except ProofError as exc:
                row["verified"] = False
                row["error"] = str(exc)
                row["ok"] = False
            else:
                row["verified"] = True
                row["claim"] = outcome.status
                row["claim_cost"] = outcome.cost
                row["ok"] = (
                    outcome.status == record.result.status
                    and outcome.cost == record.result.best_cost
                )
            records.append(row)
    return records


def format_certsmoke(records: Sequence[Dict[str, Any]]) -> str:
    """Fixed-width report, one line per run, summary last.  ``declined``
    counts the run's prunes left uncertified, which a verified proof
    does not show."""
    lines = [
        "%-12s %-14s %6s %8s  %s"
        % ("instance", "answer", "steps", "declined", "verdict")
    ]
    for row in records:
        answer = row["status"]
        if row["cost"] is not None:
            answer += " %d" % row["cost"]
        if row["ok"]:
            verdict = "verified"
        elif row["verified"]:
            verdict = "MISMATCH (claim %s %s)" % (
                row.get("claim"), row.get("claim_cost")
            )
        else:
            verdict = "REJECTED: %s" % row.get("error")
        lines.append(
            "%-12s %-14s %6d %8d  %s"
            % (
                row["instance"],
                answer,
                row["steps"],
                row["uncertified_prunes"],
                verdict,
            )
        )
    good = sum(1 for row in records if row["ok"])
    declined = sum(row["uncertified_prunes"] for row in records)
    lines.append(
        "certified %d/%d runs, %d prunes declined" % (good, len(records), declined)
    )
    return "\n".join(lines)
