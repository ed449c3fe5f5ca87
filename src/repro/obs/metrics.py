"""Low-overhead metrics: counters, gauges and histograms.

The second pillar of the observability layer (the first is event
tracing, :mod:`repro.obs.trace`): cheap *aggregate* instruments that
survive where per-event tracing is too expensive — portfolio fleets,
long benchmark runs, CI jobs.

Design rules, in order of importance:

1. **One count per event.**  The solvers count into plain ints
   (:class:`~repro.core.stats.SolverStats`, the engine's and the
   bounders' own counters), and :func:`repro.core.stats.record_metrics`
   adds them to the registry once, when a solve ends, so the search
   updates no instrument and a run without a registry (``None``) pays
   nothing for one.  Time inside a solve is the phase timer's
   (:mod:`repro.obs.timers`), not a metric.
2. **Deterministic exposition.**  :meth:`MetricsRegistry.render_text`
   and :meth:`MetricsRegistry.as_dict` order families and label sets
   lexicographically, so two runs that did the same work render the
   same report and text diffs are meaningful.
3. **Mergeable across processes.**  :meth:`MetricsRegistry.snapshot`
   produces a plain-dict state that travels over a multiprocessing
   queue; :meth:`MetricsRegistry.merge_snapshot` folds it into another
   registry (counters add, gauges keep the last write, histograms add
   bucket-wise).  The portfolio coordinator uses this to aggregate the
   fleet.

Instruments follow the Prometheus vocabulary:

* :class:`Counter` — monotonically increasing count (``inc``);
* :class:`Gauge` — a value that can go anywhere (``set``/``inc``/``dec``);
* :class:`Histogram` — observation counts in fixed, cumulative-rendered
  buckets plus sum/count (``observe``).

A *family* is a named instrument plus its labeled children::

    registry = MetricsRegistry()
    conflicts = registry.counter("solver_conflicts", "...", labels=("type",))
    conflicts.labels(type="logic").inc()
    print(registry.render_text())
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds, spanning 100 µs to
#: 10 s).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: End-to-end request-latency bucket bounds (seconds), spanning
#: cache-hit microlatencies to multi-minute solves; used by the service
#: layer's ``service_job_seconds`` family (:mod:`repro.service.metrics`).
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_COUNTER = "counter"
_GAUGE = "gauge"
_HISTOGRAM = "histogram"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can rise and fall (queue depth, current bound)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount


class Histogram:
    """Observation counts in fixed buckets, plus running sum and count.

    ``buckets`` holds the *upper bounds* of the non-cumulative bins; an
    implicit ``+Inf`` bin catches the tail.  Rendering is cumulative
    (Prometheus ``le`` semantics) so downstream tooling can compute
    quantile estimates.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + the +Inf tail bin
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(le, count)`` pairs with Prometheus-style cumulative counts."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((_format_bound(bound), running))
        out.append(("+Inf", self.count))
        return out


def _format_bound(bound: float) -> str:
    """Render a bucket bound without trailing float noise."""
    text = "%g" % bound
    return text


class _Family:
    """A named instrument family: metadata plus labeled children."""

    __slots__ = ("name", "help", "type", "label_names", "buckets", "_children")

    def __init__(self, name: str, help_text: str, metric_type: str,
                 label_names: Tuple[str, ...],
                 buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.help = help_text
        self.type = metric_type
        self.label_names = label_names
        self.buckets = tuple(buckets) if buckets is not None else None
        #: label-value tuple -> instrument
        self._children: Dict[Tuple[str, ...], Any] = {}

    # ------------------------------------------------------------------
    def labels(self, **label_values: str):
        """The child instrument for one label-value combination."""
        if set(label_values) != set(self.label_names):
            raise ValueError(
                "metric %r takes labels %r, got %r"
                % (self.name, self.label_names, tuple(sorted(label_values)))
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _default_child(self):
        """The unlabeled child (only valid for label-less families)."""
        if self.label_names:
            raise ValueError(
                "metric %r is labeled %r; use .labels(...)"
                % (self.name, self.label_names)
            )
        return self.labels()

    def _make_child(self):
        if self.type == _COUNTER:
            return Counter()
        if self.type == _GAUGE:
            return Gauge()
        return Histogram(self.buckets if self.buckets is not None else DEFAULT_BUCKETS)

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """Sorted ``(label_values, instrument)`` pairs."""
        return sorted(self._children.items())


class MetricsRegistry:
    """A process-local collection of metric families."""

    def __init__(self):
        self._families: Dict[str, _Family] = {}

    # -- registration ---------------------------------------------------
    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()):
        """Register (or re-fetch) a counter family.

        Label-less families return the :class:`Counter` directly; labeled
        families return the family, whose :meth:`~_Family.labels` hands
        out children.
        """
        return self._register(name, help_text, _COUNTER, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()):
        """Register (or re-fetch) a gauge family."""
        return self._register(name, help_text, _GAUGE, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS):
        """Register (or re-fetch) a histogram family with fixed buckets."""
        return self._register(name, help_text, _HISTOGRAM, labels, buckets)

    def _register(self, name: str, help_text: str, metric_type: str,
                  labels: Sequence[str],
                  buckets: Optional[Sequence[float]] = None):
        label_names = tuple(labels)
        family = self._families.get(name)
        if family is not None:
            if family.type != metric_type or family.label_names != label_names:
                raise ValueError(
                    "metric %r already registered as %s%r"
                    % (name, family.type, family.label_names)
                )
        else:
            family = _Family(name, help_text, metric_type, label_names, buckets)
            self._families[name] = family
        if not label_names:
            return family._default_child()
        return family

    # -- introspection --------------------------------------------------
    def families(self) -> List[_Family]:
        """All families, sorted by name."""
        return [self._families[name] for name in sorted(self._families)]

    def get_value(self, name: str, **label_values) -> Any:
        """Current value of one instrument (test/report convenience).

        Counters/gauges return the scalar; histograms return
        ``{"sum", "count"}``.  Missing metrics/children return None.
        """
        family = self._families.get(name)
        if family is None:
            return None
        key = tuple(str(label_values.get(n, "")) for n in family.label_names)
        child = family._children.get(key)
        if child is None:
            return None
        if isinstance(child, Histogram):
            return {"sum": child.sum, "count": child.count}
        return child.value

    # -- exposition -----------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-safe exposition of every family."""
        out: Dict[str, Any] = {}
        for family in self.families():
            samples = []
            for key, child in family.children():
                labels = dict(zip(family.label_names, key))
                if isinstance(child, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "sum": child.sum,
                            "count": child.count,
                            "buckets": [
                                {"le": le, "count": count}
                                for le, count in child.cumulative()
                            ],
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.type,
                "help": family.help,
                "samples": samples,
            }
        return out

    def render_text(self) -> str:
        """Prometheus-style text exposition (deterministic ordering)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append("# HELP %s %s" % (family.name, family.help))
            lines.append("# TYPE %s %s" % (family.name, family.type))
            for key, child in family.children():
                labels = _render_labels(family.label_names, key)
                if isinstance(child, Histogram):
                    for le, count in child.cumulative():
                        bucket_labels = _render_labels(
                            family.label_names + ("le",), key + (le,)
                        )
                        lines.append(
                            "%s_bucket%s %d" % (family.name, bucket_labels, count)
                        )
                    lines.append(
                        "%s_sum%s %s"
                        % (family.name, labels, _render_value(child.sum))
                    )
                    lines.append(
                        "%s_count%s %d" % (family.name, labels, child.count)
                    )
                else:
                    lines.append(
                        "%s%s %s"
                        % (family.name, labels, _render_value(child.value))
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    # -- cross-process aggregation --------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable full state, for shipping over a process boundary."""
        snap: Dict[str, Any] = {}
        for family in self.families():
            children = []
            for key, child in family.children():
                if isinstance(child, Histogram):
                    state: Any = {
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    state = child.value
                children.append([list(key), state])
            snap[family.name] = {
                "type": family.type,
                "help": family.help,
                "labels": list(family.label_names),
                "buckets": list(family.buckets) if family.buckets else None,
                "children": children,
            }
        return snap

    def merge_snapshot(self, snap: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram bins add; gauges take the incoming value
        (last write wins).  Families absent here are created from the
        snapshot's metadata.
        """
        for name in sorted(snap):
            entry = snap[name]
            family = self._families.get(name)
            if family is None:
                family = _Family(
                    name, entry.get("help", ""), entry["type"],
                    tuple(entry.get("labels", ())), entry.get("buckets"),
                )
                self._families[name] = family
            for key_list, state in entry.get("children", ()):
                key = tuple(key_list)
                child = family._children.get(key)
                if child is None:
                    child = family._make_child()
                    family._children[key] = child
                if family.type == _HISTOGRAM:
                    counts = state["counts"]
                    if len(counts) != len(child.counts):
                        raise ValueError(
                            "histogram %r bucket mismatch in snapshot" % name
                        )
                    for index, count in enumerate(counts):
                        child.counts[index] += count
                    child.sum += state["sum"]
                    child.count += state["count"]
                elif family.type == _COUNTER:
                    child.value += state
                else:  # gauge: last write wins
                    child.value = state


def _render_labels(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [
        '%s="%s"' % (name, str(value).replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in zip(names, values)
    ]
    return "{%s}" % ",".join(pairs) if pairs else ""


def _render_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
