"""Process-global metrics: counters, gauges, fixed-bucket histograms.

Stdlib-only and dependency-free — the serving stack (and the fault
layer underneath it) imports this module, so it must import nothing
from :mod:`repro` itself.

Cost model (mirrors :mod:`repro.faults`): registry instruments share
one :class:`threading.Lock` and are intended for paths that already
cost ≥ tens of microseconds (store appends, archive loads, ingest,
replica sync cycles, retries, error envelopes).  True hot paths — the
~5 µs cached in-process read — must *not* take that lock; they keep
plain ``int`` attributes on their owning object (GIL-atomic to read,
never torn) and :meth:`MetricsRegistry.render` merges those in at
scrape time via the ``extra`` parameter.  The measured dormant cost of
the hot-path scheme is <2% of a cached read (``BENCH_obs.json``).

Rendering follows the Prometheus text-exposition format v0.0.4 and is
deterministic: families sorted by name, labelled children sorted by
label values, values formatted identically on every scrape — so a
frozen registry renders byte-stable output.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "aggregate_expositions",
    "counter",
    "gauge",
    "histogram",
    "parse_exposition",
    "render",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): 100 µs .. 10 s, roughly log-spaced.
#: Wide enough for everything from an index lookup to a 1M-day append.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)


def _format_value(value: float) -> str:
    """Deterministic sample-value formatting (ints stay integral)."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace("\"", "\\\"")
                 .replace("\n", "\\n"))


def _label_block(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"'
                     for key, value in labels)
    return "{" + inner + "}"


class _Instrument:
    """Common family plumbing: named, labelled, children under one lock."""

    kind = ""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Sequence[str]) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label == "le":
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = registry._lock
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _new_child(self):
        raise NotImplementedError

    def _make_child(self):
        child = self._new_child()
        child._lock = self._lock
        return child

    def labels(self, **labels: str):
        """Return the child for the given label values (get-or-create)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
        return child

    def _default(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled {self.labelnames}; use .labels()")
        return self._children[()]


class _CounterChild:
    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Counter(_Instrument):
    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    def value(self, **labels: str) -> float:
        child = self.labels(**labels) if labels else self._default()
        return child.value


class _GaugeChild:
    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    def value(self, **labels: str) -> float:
        child = self.labels(**labels) if labels else self._default()
        return child.value


class _HistogramChild:
    __slots__ = ("buckets", "counts", "sum", "count", "_lock")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Sequence[str],
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(float(b) for b in buckets)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError("histogram buckets must be sorted and unique")
        self.buckets = ordered
        super().__init__(registry, name, help, labelnames)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)


#: An extra family injected at render time: (name, kind, help, samples)
#: where samples is a sequence of (labels-mapping, value).  Used for
#: hot-path plain-int counters that live outside the registry.
ExtraFamily = Tuple[str, str, str, Sequence[Tuple[Mapping[str, str], float]]]


class MetricsRegistry:
    """Get-or-create instrument families, one shared lock, stable render."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> _Instrument:
        with self._lock:
            existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"{name} already registered as {existing.kind}")
            if existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"{name} already registered with labels "
                    f"{existing.labelnames}")
            if (kwargs.get("buckets") is not None
                    and tuple(float(b) for b in kwargs["buckets"])
                    != existing.buckets):
                raise ValueError(f"{name} already registered with "
                                 f"different buckets")
            return existing
        instrument = cls(self, name, help, labelnames, **{
            key: value for key, value in kwargs.items() if value is not None})
        with self._lock:
            return self._families.setdefault(name, instrument)

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def reset(self) -> None:
        """Zero every child (families stay registered).  For tests."""
        with self._lock:
            for family in self._families.values():
                for key in list(family._children):
                    family._children[key] = family._make_child()

    def render(self, extra: Iterable[ExtraFamily] = ()) -> bytes:
        """Prometheus text exposition, byte-stable for a frozen registry."""
        blocks: Dict[str, List[str]] = {}
        with self._lock:
            families = sorted(self._families.items())
            for name, family in families:
                lines = [f"# HELP {name} {_escape_help(family.help)}",
                         f"# TYPE {name} {family.kind}"]
                for key, child in sorted(family._children.items()):
                    pairs = list(zip(family.labelnames, key))
                    if family.kind == "histogram":
                        cumulative = 0
                        for bound, count in zip(family.buckets + (math.inf,),
                                                child.counts):
                            cumulative += count
                            le = pairs + [("le", _format_value(bound))]
                            lines.append(f"{name}_bucket{_label_block(le)} "
                                         f"{cumulative}")
                        lines.append(f"{name}_sum{_label_block(pairs)} "
                                     f"{_format_value(child.sum)}")
                        lines.append(f"{name}_count{_label_block(pairs)} "
                                     f"{child.count}")
                    else:
                        lines.append(f"{name}{_label_block(pairs)} "
                                     f"{_format_value(child.value)}")
                blocks[name] = lines
        for name, kind, help, samples in extra:
            if name in blocks:
                raise ValueError(f"extra family {name} shadows a "
                                 f"registered one")
            lines = [f"# HELP {name} {_escape_help(help)}",
                     f"# TYPE {name} {kind}"]
            decorated = sorted(
                (tuple(sorted(labels.items())), value)
                for labels, value in samples)
            for pairs, value in decorated:
                lines.append(f"{name}{_label_block(pairs)} "
                             f"{_format_value(value)}")
            blocks[name] = lines
        out: List[str] = []
        for name in sorted(blocks):
            out.extend(blocks[name])
        return ("\n".join(out) + "\n").encode("utf-8") if out else b""

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe dump of the registry (for benchmark artifacts)."""
        result: Dict[str, Dict[str, object]] = {}
        with self._lock:
            for name, family in sorted(self._families.items()):
                samples = []
                for key, child in sorted(family._children.items()):
                    labels = dict(zip(family.labelnames, key))
                    if family.kind == "histogram":
                        samples.append({"labels": labels,
                                        "sum": child.sum,
                                        "count": child.count})
                    else:
                        samples.append({"labels": labels,
                                        "value": child.value})
                result[name] = {"kind": family.kind, "samples": samples}
        return result


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse exposition text into ``{"name{labels}": value}``.

    Shared by the ``repro-serve stats`` CLI, the tests, and the CI smoke
    assertions.  Keys keep the rendered label block verbatim (sorted by
    the renderer, so keys are stable across scrapes).
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            raise ValueError(f"malformed sample line: {line!r}")
        samples[key] = float(value)
    return samples


def aggregate_expositions(texts: Iterable[str]) -> str:
    """Merge several exposition scrapes into one combined exposition.

    This is how the pre-fork worker pool presents one ``/v1/metrics``
    for N processes: the parent scrapes every worker and serves the
    merged text.  Counters and histogram samples (``_bucket``/``_sum``/
    ``_count``) **sum** across inputs — per-worker request tallies
    become pool totals — while gauges take the **maximum** (the pool's
    staleness is its worst worker's, not the sum of everyone's).

    ``HELP``/``TYPE`` metadata comes from the first scrape mentioning a
    family; samples keep first-appearance order inside each family (so
    histogram buckets stay in ascending ``le`` order — every worker
    renders from the same registry code) and families sort by name.
    The output round-trips through :func:`parse_exposition` like any
    single-process render.
    """
    helps: Dict[str, str] = {}
    kinds: Dict[str, str] = {}
    family_order: List[str] = []
    sample_order: Dict[str, List[str]] = {}
    values: Dict[str, float] = {}

    for text in texts:
        current: Optional[str] = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                    name = parts[2]
                    rest = parts[3] if len(parts) > 3 else ""
                    if parts[1] == "TYPE":
                        kinds.setdefault(name, rest)
                        current = name
                        if name not in sample_order:
                            family_order.append(name)
                            sample_order[name] = []
                    else:
                        helps.setdefault(name, rest)
                continue
            key, _, value_text = line.rpartition(" ")
            if not key:
                raise ValueError(f"malformed sample line: {line!r}")
            bare = key.split("{", 1)[0]
            # Samples belong to the family of the preceding TYPE line
            # (histogram children carry _bucket/_sum/_count suffixes);
            # a sample with no TYPE at all is its own untyped family.
            family = bare
            if current is not None and (
                    bare == current
                    or bare in (current + "_bucket", current + "_sum",
                                current + "_count")):
                family = current
            if family not in sample_order:
                family_order.append(family)
                sample_order[family] = []
                kinds.setdefault(family, "untyped")
            value = float(value_text)
            if key not in values:
                values[key] = value
                sample_order[family].append(key)
            elif kinds.get(family) == "gauge":
                values[key] = max(values[key], value)
            else:
                values[key] += value

    lines: List[str] = []
    for family in sorted(family_order):
        help_text = helps.get(family)
        if help_text is not None:
            lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} {kinds.get(family, 'untyped')}")
        for key in sample_order[family]:
            lines.append(f"{key} {_format_value(values[key])}")
    return "\n".join(lines) + "\n" if lines else ""


#: The process-global registry every subsystem registers into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "",
            labelnames: Sequence[str] = ()) -> Counter:
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "",
          labelnames: Sequence[str] = ()) -> Gauge:
    return REGISTRY.gauge(name, help, labelnames)


def histogram(name: str, help: str = "", labelnames: Sequence[str] = (),
              buckets: Optional[Sequence[float]] = None) -> Histogram:
    return REGISTRY.histogram(name, help, labelnames, buckets)


def render(extra: Iterable[ExtraFamily] = ()) -> bytes:
    return REGISTRY.render(extra)
