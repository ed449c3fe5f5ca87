"""Canonicalized-instance result cache for the solve service.

Cache keys combine three components:

* the **canonical instance digest** (:func:`repro.pb.canonical_hash`)
  — permuting terms, shuffling constraints or renaming variables does
  not change it, so equivalent submissions from different users land on
  the same entry;
* the **canonical solver name** — results from different solvers are
  never conflated (``cache bypass on differing options`` contract);
* the **semantic options signature** (:func:`options_signature`) — any
  difference in an answer-affecting :class:`SolverOptions` knob keys a
  different entry.  Budget and instrument knobs (``time_limit``,
  ``profile``, ``progress_interval``) are excluded: only *conclusive*
  results (optimal / satisfiable / unsatisfiable) are ever stored, and
  a conclusive answer is correct under any budget.

Stored models live in canonical variable space; a hit translates the
model back through the requester's own renaming
(:meth:`repro.pb.CanonicalForm.from_canonical_model`), so a user whose
variables are numbered differently still receives a model over *their*
numbering.  Lookups compare the full canonical text, not just the
digest, so a SHA-256 collision degrades to a miss instead of a wrong
answer.  Proof-carrying jobs bypass the cache entirely in both
directions — a logged proof derives constraints by *input index and
variable name* and is not renaming-invariant.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.options import SolverOptions
from ..core.result import OPTIMAL, SATISFIABLE, UNSATISFIABLE
from ..pb.canonical import CanonicalForm

#: Option knobs excluded from the semantic signature: they bound or
#: observe the search without changing what a *conclusive* answer means.
NON_SEMANTIC_OPTIONS = frozenset({"time_limit", "profile", "progress_interval"})

#: Statuses eligible for caching (valid under any time budget).
CACHEABLE_STATUSES = (OPTIMAL, SATISFIABLE, UNSATISFIABLE)


def options_signature(options: Mapping[str, Any]) -> str:
    """Deterministic signature of the answer-affecting solver options.

    ``options`` is a mapping of scalar :class:`SolverOptions` overrides
    (the service's request whitelist).  Defaults are filled in before
    signing, so ``{}`` and an explicit ``{"lower_bound": "lpr"}``
    (the default) produce the same signature, while any semantically
    different knob — bound method, learning toggles, even conflict
    budgets — produces a different one.
    """
    described = SolverOptions(**dict(options)).describe()
    semantic = {
        key: value
        for key, value in described.items()
        if key not in NON_SEMANTIC_OPTIONS
    }
    return json.dumps(semantic, sort_keys=True)


class CacheEntry:
    """One stored conclusive result, in canonical variable space."""

    __slots__ = ("canonical_text", "status", "cost", "canonical_model", "stats")

    def __init__(
        self,
        canonical_text: str,
        status: str,
        cost: Optional[int],
        canonical_model: Optional[Dict[int, int]],
        stats: Optional[Dict[str, Any]],
    ):
        self.canonical_text = canonical_text
        self.status = status
        self.cost = cost
        self.canonical_model = canonical_model
        self.stats = stats


class ResultCache:
    """LRU cache of conclusive solve results keyed by canonical form.

    ``capacity`` bounds the number of entries (0 disables the cache
    entirely); ``hits`` / ``misses`` / ``evictions`` count lifetime
    outcomes and back the ``service_cache`` metrics family.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str, str], CacheEntry]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(
        self,
        form: CanonicalForm,
        solver: str,
        signature: str,
    ) -> Optional[Dict[str, Any]]:
        """Return a result payload for an equivalent prior solve.

        The payload's model is translated into the *requester's*
        variable numbering through ``form``; ``None`` means miss.  Hits
        refresh LRU recency.
        """
        if self.capacity == 0:
            return None
        key = (form.key, solver, signature)
        entry = self._entries.get(key)
        if entry is None or entry.canonical_text != form.text:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        model = None
        if entry.canonical_model is not None:
            model = {
                str(var): value
                for var, value in sorted(
                    form.from_canonical_model(entry.canonical_model).items()
                )
            }
        payload: Dict[str, Any] = {
            "status": entry.status,
            "cost": entry.cost,
            "model": model,
            "cached": True,
        }
        if entry.stats is not None:
            payload["stats"] = dict(entry.stats)
        return payload

    # ------------------------------------------------------------------
    def store(
        self,
        form: CanonicalForm,
        solver: str,
        signature: str,
        result: Mapping[str, Any],
    ) -> bool:
        """Store a worker result if it is conclusive; returns whether it
        was cached.

        ``result`` is the worker payload (``model`` keyed by stringified
        original variable indices); the model is re-keyed into canonical
        space before storage so any equivalent future submission can be
        served.
        """
        if self.capacity == 0:
            return False
        if result.get("status") not in CACHEABLE_STATUSES:
            return False
        model = result.get("model")
        canonical_model = None
        if model is not None:
            canonical_model = form.to_canonical_model(
                {int(var): value for var, value in model.items()}
            )
        key = (form.key, solver, signature)
        self._entries[key] = CacheEntry(
            canonical_text=form.text,
            status=result["status"],
            cost=result.get("cost"),
            canonical_model=canonical_model,
            stats=dict(result["stats"]) if result.get("stats") else None,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return True

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Counters for ``/healthz`` and the bench report."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
