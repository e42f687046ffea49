"""Base classes for Toto's resource-behaviour models.

Paper §3.3.1-3.3.2: model objects are **stateless** — they describe how
a metric's load changes but never store the previously reported value
themselves. The previous value is supplied by the caller: RgManager
keeps it in node-local memory for non-persisted metrics (so it resets
on failover, like memory or GP tempdb) and in the Naming Service for
persisted metrics (so a BC database's disk usage survives failovers).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelSpecError
from repro.core.selectors import DatabaseSelector
from repro.sqldb.database import DatabaseInstance


class ModelContext(NamedTuple):
    """Everything a stateless model may consult to produce one value.

    A named tuple rather than a frozen dataclass: one is built per
    modeled metric per report RPC, and a tuple is built without the
    dataclass's per-field ``object.__setattr__`` calls.

    Attributes:
        now: current simulation time (seconds).
        interval_seconds: time since this replica's previous report.
        database: the database the replica belongs to.
        is_primary: replica role (models may differ per role, §3.3.2).
        previous_value: last reported value for this metric, or ``None``
            when there is no history on this node (fresh replica, or a
            non-persisted metric right after a failover).
        rng: the node's seeded random stream for this model.
        start_weekday: weekday of simulation time zero (0 = Monday).
    """

    now: int
    interval_seconds: int
    database: DatabaseInstance
    is_primary: bool
    previous_value: Optional[float]
    rng: np.random.Generator
    start_weekday: int = 0


class ResourceModel(abc.ABC):
    """A declarative model for one metric over one database subset."""

    #: Metric name this model governs (a :mod:`repro.fabric.metrics` name).
    metric: str
    #: Whether the previous value is durably stored in the Naming
    #: Service (True) or only in RgManager memory (False). §3.3.2.
    persisted: bool
    #: Which databases the model applies to.
    selector: DatabaseSelector

    def applies_to(self, database: DatabaseInstance) -> bool:
        """True when this model governs ``database``."""
        return self.selector.matches(database)

    @abc.abstractmethod
    def initial_value(self, context: ModelContext) -> float:
        """Value to report when there is no previous value.

        For non-persisted metrics this is also the post-failover reset
        value (cold buffer pool, fresh tempdb).
        """

    @abc.abstractmethod
    def next_value(self, context: ModelContext) -> float:
        """Value to report given ``context.previous_value``.

        Must tolerate ``previous_value is None`` by delegating to
        :meth:`initial_value`.
        """

    def kind(self) -> str:
        """XML element name for this model (stable wire identifier)."""
        raise NotImplementedError


class TotoModelSet:
    """The parsed collection of resource models one RgManager holds.

    Lookup picks the *first* model whose metric matches and whose
    selector accepts the database, so more specific models should be
    listed before broad ones in the XML (documented contract).

    Each database's match per metric is bound on first lookup. A
    selector reads only the database's id and its SLO's fields, so the
    binding holds while the database keeps the same SLO object; each
    published model version builds a new set, which starts unbound.
    """

    def __init__(self, models: Sequence[ResourceModel] = ()) -> None:
        self._models: List[ResourceModel] = list(models)
        #: metric -> db_id -> (the SLO object matched against, model).
        self._bound: Dict[str, Dict[str, Tuple[object,
                                               Optional[ResourceModel]]]] = {}

    @property
    def models(self) -> List[ResourceModel]:
        return list(self._models)

    def __len__(self) -> int:
        return len(self._models)

    def find(self, metric: str,
             database: DatabaseInstance) -> Optional[ResourceModel]:
        """First model governing ``metric`` for ``database``, if any."""
        bound = self._bound.get(metric)
        if bound is None:
            bound = self._bound[metric] = {}
        # Any object with a ``db_id`` may be looked up (a custom
        # service's pods have no SLO); those bind against ``None``.
        slo = getattr(database, "slo", None)
        entry = bound.get(database.db_id)
        if entry is not None and entry[0] is slo:
            return entry[1]
        match = None
        for model in self._models:
            if model.metric == metric and model.applies_to(database):
                match = model
                break
        bound[database.db_id] = (slo, match)
        return match

    def metrics_modeled(self) -> List[str]:
        """Distinct metric names any model governs."""
        seen: List[str] = []
        for model in self._models:
            if model.metric not in seen:
                seen.append(model.metric)
        return seen


@dataclass(frozen=True)
class BinnedUniform:
    """Equal-probability bins, uniform within each bin.

    Paper §4.2.3: "The probability distribution was then created by
    partitioning the 'High Initial Growth' Delta Disk Usage values into
    five uniform bins, each with equal probability of being selected."
    """

    bins: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.bins:
            raise ModelSpecError("BinnedUniform needs at least one bin")
        for low, high in self.bins:
            if high < low:
                raise ModelSpecError(f"bin [{low}, {high}] is inverted")

    @classmethod
    def from_sample(cls, sample: Sequence[float],
                    n_bins: int = 5) -> "BinnedUniform":
        """Partition ``sample`` into ``n_bins`` equal-probability bins."""
        data = np.sort(np.asarray(sample, dtype=float))
        if data.size == 0:
            raise ModelSpecError("cannot bin an empty sample")
        edges = np.quantile(data, np.linspace(0.0, 1.0, n_bins + 1))
        bins = tuple((float(edges[i]), float(edges[i + 1]))
                     for i in range(n_bins))
        return cls(bins=bins)

    def sample(self, rng: np.random.Generator) -> float:
        """Pick a bin uniformly, then a value uniformly within it."""
        low, high = self.bins[int(rng.integers(len(self.bins)))]
        if high == low:
            return low
        return float(rng.uniform(low, high))

    def mean(self) -> float:
        """Expected value (bins are equiprobable)."""
        return float(np.mean([(low + high) / 2.0 for low, high in self.bins]))
