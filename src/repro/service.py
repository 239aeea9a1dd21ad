"""Closed-loop cadence settings for the region service.

The loop itself is :class:`repro.parallel.ShardedFleetService`: the
workload runs, recommendations are generated for *every* database,
auto-implementation applies them where enabled, validation reverts
regressions, and the classifier periodically retrains on the
accumulated validation history (Section 5.2).
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass
class ServiceSettings:
    """Closed-loop cadence settings."""

    step_hours: float = 2.0
    #: Statement cap per database per step (None = rate-driven).
    max_statements_per_step: Optional[int] = None
    #: Retrain the low-impact classifier every this many hours.
    classifier_retrain_hours: float = 48.0
