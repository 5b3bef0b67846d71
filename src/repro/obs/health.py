"""Operational health: SLO policies, shard lag, and OK/DEGRADED/FAILING.

The paper's freshness story — views stay current at bounded per-append
cost — becomes operational here.  Since the sharded engine decoupled
*admission* (a batch gets its sequence number on the serial path) from
*visibility* (the batch is readable once every shard's watermark passes
it), freshness is a measurable gap, the same signal streaming systems
watch as per-partition consumer lag.  This module gives it first-class
types:

* :class:`SloPolicy` — a small frozen declaration of the service-level
  objectives a deployment promises: p99 maintain latency, shard lag (in
  batches and seconds), worker queue depth, auditor violations, engine
  errors.  Carried on :class:`~repro.core.config.DatabaseConfig` as the
  ``slo`` field.
* :class:`ShardLag` / :class:`ShardHealth` — a point-in-time snapshot
  of every worker shard: watermark, lag behind admission, staleness,
  records applied, and the imbalance ratio across the fleet.  Built by
  :meth:`~repro.parallel.engine.ShardedDatabase.shard_health`.
* :class:`HealthCheck` / :class:`HealthReport` — one evaluated rule and
  the overall verdict.  :func:`evaluate_health` turns (metrics,
  auditor, shard snapshot) × policy into a report.

Verdict semantics are deterministic and documented, not vibes:

* **hard checks** (auditor violations beyond the permitted count,
  engine/worker errors) — any breach is ``FAILING``: a theorem-level
  invariant or a maintenance worker broke, and view state can no longer
  be trusted to be fresh;
* **soft checks** (p99 latency, shard lag, staleness, queue depth) —
  one breach is ``DEGRADED``, two or more are ``FAILING``: a single
  pressured dimension is a warning, several at once mean the engine is
  not keeping up.

The ``/health`` HTTP route (:mod:`repro.obs.exporters`) serves the
report as JSON — 200 for ``OK``/``DEGRADED``, 503 for ``FAILING`` — and
the CLI renders it as ``SHOW HEALTH``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError

#: The three health verdicts, healthiest first.
STATUSES = ("OK", "DEGRADED", "FAILING")


@dataclass(frozen=True)
class SloPolicy:
    """Declarative service-level objectives for one database.

    Every limit is inclusive ("observed <= limit is healthy").  Zero is
    a legal limit — ``max_maintain_p99_seconds=0`` declares that any
    maintenance latency at all breaches, which tests and drills use to
    inject deterministic SLO breaches.

    Parameters
    ----------
    max_maintain_p99_seconds:
        Permitted p99 of ``view_maintain_seconds`` across all views
        (soft).
    max_shard_lag_batches:
        Permitted gap between the admission watermark and the slowest
        shard's watermark, in sequence numbers (soft).
    max_shard_lag_seconds:
        Permitted staleness of a lagging shard — seconds since it last
        absorbed a window while batches are pending (soft).
    max_queue_depth:
        Permitted depth of the shard executor's work queue (soft).
    max_ipc_overhead_fraction:
        Permitted share of the sharded write path spent pickling —
        the summed ``ipc_encode_seconds``/``ipc_decode_seconds`` wall
        time over the summed ``ingest_visibility_seconds`` (soft).  Only
        evaluated once the process executor's telemetry relay has
        produced IPC samples; above the limit, the cross-process
        encoding — not maintenance — dominates the window and the
        ROADMAP's shared-memory payload work is the fix.
    max_auditor_violations:
        Permitted lifetime auditor violations (hard; default 0 — the
        no-chronicle-access theorem allows none).
    max_engine_errors:
        Permitted shard-worker/engine errors (hard; default 0).
    """

    max_maintain_p99_seconds: float = 0.25
    max_shard_lag_batches: int = 10_000
    max_shard_lag_seconds: float = 5.0
    max_queue_depth: int = 1_000
    max_ipc_overhead_fraction: float = 0.5
    max_auditor_violations: int = 0
    max_engine_errors: int = 0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(
                    f"SloPolicy.{spec.name} must be a number, got {value!r}"
                )
            if value < 0:
                raise ConfigError(
                    f"SloPolicy.{spec.name} must be >= 0, got {value!r}"
                )

    def as_dict(self) -> Dict[str, Any]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


class ShardLag:
    """One worker shard's freshness at a point in time."""

    __slots__ = (
        "shard",
        "watermark",
        "lag_batches",
        "lag_seconds",
        "records_applied",
        "windows_applied",
        "last_apply_at",
        "gap_watermark",
    )

    def __init__(
        self,
        shard: str,
        watermark: int,
        lag_batches: int,
        lag_seconds: float,
        records_applied: int,
        windows_applied: int,
        last_apply_at: float,
        gap_watermark: Optional[int] = None,
    ) -> None:
        self.shard = shard
        self.watermark = watermark
        #: Sequence numbers admitted but not yet absorbed by this shard.
        self.lag_batches = lag_batches
        #: Seconds this shard has been behind (0.0 when caught up).
        self.lag_seconds = lag_seconds
        self.records_applied = records_applied
        self.windows_applied = windows_applied
        self.last_apply_at = last_apply_at
        #: Watermark of the earliest window this shard failed to apply
        #: (its rows are missing here); ``None`` when there is no gap.
        self.gap_watermark = gap_watermark

    def as_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "watermark": self.watermark,
            "lag_batches": self.lag_batches,
            "lag_seconds": round(self.lag_seconds, 6),
            "records_applied": self.records_applied,
            "windows_applied": self.windows_applied,
            "last_apply_at": self.last_apply_at,
            "gap_watermark": self.gap_watermark,
        }

    def __repr__(self) -> str:
        return (
            f"ShardLag({self.shard!r}, watermark={self.watermark}, "
            f"lag_batches={self.lag_batches}, lag_seconds={self.lag_seconds:.3f})"
        )


class ShardHealth:
    """Point-in-time snapshot of the whole shard fleet.

    ``imbalance_ratio`` is max/mean of per-shard applied record counts
    (1.0 = perfectly balanced; 0.0 before any records flow) — the
    signal that says one shard is hot long before its latency shows it.
    """

    __slots__ = ("admission_watermark", "shards", "queue_depth", "at")

    def __init__(
        self,
        admission_watermark: int,
        shards: Sequence[ShardLag],
        queue_depth: int,
        at: Optional[float] = None,
    ) -> None:
        self.admission_watermark = admission_watermark
        self.shards: Tuple[ShardLag, ...] = tuple(shards)
        self.queue_depth = queue_depth
        self.at = time.time() if at is None else at

    @property
    def max_lag_batches(self) -> int:
        return max((s.lag_batches for s in self.shards), default=0)

    @property
    def max_lag_seconds(self) -> float:
        return max((s.lag_seconds for s in self.shards), default=0.0)

    @property
    def gap_shards(self) -> int:
        """Shards that lost a window (see :attr:`ShardLag.gap_watermark`)."""
        return sum(1 for s in self.shards if s.gap_watermark is not None)

    @property
    def imbalance_ratio(self) -> float:
        counts = [s.records_applied for s in self.shards]
        total = sum(counts)
        if not counts or not total:
            return 0.0
        return max(counts) / (total / len(counts))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "admission_watermark": self.admission_watermark,
            "queue_depth": self.queue_depth,
            "imbalance_ratio": round(self.imbalance_ratio, 4),
            "max_lag_batches": self.max_lag_batches,
            "max_lag_seconds": round(self.max_lag_seconds, 6),
            "gap_shards": self.gap_shards,
            "shards": [s.as_dict() for s in self.shards],
            "at": self.at,
        }

    def __repr__(self) -> str:
        return (
            f"ShardHealth(shards={len(self.shards)}, "
            f"max_lag_batches={self.max_lag_batches}, "
            f"imbalance={self.imbalance_ratio:.2f})"
        )


class HealthCheck:
    """One evaluated SLO rule: what was observed against which limit."""

    __slots__ = ("name", "observed", "limit", "ok", "hard")

    def __init__(
        self, name: str, observed: float, limit: float, hard: bool = False
    ) -> None:
        self.name = name
        self.observed = observed
        self.limit = limit
        self.ok = observed <= limit
        self.hard = hard

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "observed": self.observed,
            "limit": self.limit,
            "hard": self.hard,
        }

    def __repr__(self) -> str:
        state = "ok" if self.ok else "BREACH"
        return f"HealthCheck({self.name}: {self.observed} <= {self.limit} [{state}])"


class HealthReport:
    """The overall verdict plus every check that produced it."""

    __slots__ = ("status", "checks", "policy", "shard_health", "at")

    def __init__(
        self,
        status: str,
        checks: Sequence[HealthCheck],
        policy: SloPolicy,
        shard_health: Optional[ShardHealth] = None,
    ) -> None:
        self.status = status
        self.checks: Tuple[HealthCheck, ...] = tuple(checks)
        self.policy = policy
        self.shard_health = shard_health
        self.at = time.time()

    @property
    def breaches(self) -> Tuple[HealthCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "status": self.status,
            "at": self.at,
            "checks": [c.as_dict() for c in self.checks],
            "policy": self.policy.as_dict(),
        }
        if self.shard_health is not None:
            out["shards"] = self.shard_health.as_dict()
        return out

    def format(self) -> str:
        """Human-readable rendering (the CLI's ``SHOW HEALTH``)."""
        lines = [f"health: {self.status}"]
        for check in self.checks:
            mark = "ok" if check.ok else ("FAIL" if check.hard else "degraded")
            lines.append(
                f"  [{mark:>8}] {check.name}: "
                f"observed {check.observed:g} (limit {check.limit:g})"
            )
        sh = self.shard_health
        if sh is not None and sh.shards:
            lines.append(
                f"  shards: admission watermark {sh.admission_watermark}, "
                f"queue depth {sh.queue_depth}, "
                f"imbalance {sh.imbalance_ratio:.2f}"
            )
            for shard in sh.shards:
                lines.append(
                    f"    {shard.shard}: watermark={shard.watermark} "
                    f"lag={shard.lag_batches} batches / "
                    f"{shard.lag_seconds:.3f}s "
                    f"({shard.records_applied} records)"
                    + (
                        f" GAP since watermark {shard.gap_watermark}"
                        if shard.gap_watermark is not None
                        else ""
                    )
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"HealthReport({self.status!r}, breaches={len(self.breaches)})"


def evaluate_health(
    observability: Any,
    policy: Optional[SloPolicy] = None,
    shard_health: Optional[ShardHealth] = None,
) -> HealthReport:
    """Evaluate *policy* against one observability handle's state.

    Reads the merged ``view_maintain_seconds`` p99, the auditor's
    violation count, the ``engine_errors_total`` counter, and — when a
    :class:`ShardHealth` snapshot is supplied — shard lag, staleness,
    and queue depth.  Verdict: any hard breach is ``FAILING``; one soft
    breach is ``DEGRADED``; two or more soft breaches are ``FAILING``.
    """
    policy = policy if policy is not None else SloPolicy()
    checks: List[HealthCheck] = []

    merged = observability.metrics.merged_histogram("view_maintain_seconds")
    p99 = merged.quantile(0.99) if merged is not None and merged.count else 0.0
    checks.append(
        HealthCheck("maintain_p99_seconds", p99, policy.max_maintain_p99_seconds)
    )

    if shard_health is not None:
        checks.append(
            HealthCheck(
                "shard_lag_batches",
                shard_health.max_lag_batches,
                policy.max_shard_lag_batches,
            )
        )
        checks.append(
            HealthCheck(
                "shard_lag_seconds",
                shard_health.max_lag_seconds,
                policy.max_shard_lag_seconds,
            )
        )
        checks.append(
            HealthCheck(
                "queue_depth", shard_health.queue_depth, policy.max_queue_depth
            )
        )
        # A lost window is never healthy, and unlike lag it does not
        # drain: the check stays breached until restore() clears it.
        checks.append(HealthCheck("shard_gaps", shard_health.gap_shards, 0))

    # IPC overhead: only once the process executor's telemetry relay has
    # produced samples — a serial/thread deployment (or relay off) never
    # grows this check, so its report keeps the classic check set.
    encode = observability.metrics.merged_histogram("ipc_encode_seconds")
    decode = observability.metrics.merged_histogram("ipc_decode_seconds")
    ipc_samples = (encode.count if encode is not None else 0) + (
        decode.count if decode is not None else 0
    )
    if ipc_samples:
        ipc_seconds = (encode.sum if encode is not None else 0.0) + (
            decode.sum if decode is not None else 0.0
        )
        visibility = observability.metrics.merged_histogram(
            "ingest_visibility_seconds"
        )
        window_seconds = (
            visibility.sum if visibility is not None and visibility.count else 0.0
        )
        fraction = ipc_seconds / window_seconds if window_seconds > 0 else 1.0
        checks.append(
            HealthCheck(
                "ipc_overhead_fraction",
                round(fraction, 6),
                policy.max_ipc_overhead_fraction,
            )
        )

    violations = len(observability.auditor.violations)
    checks.append(
        HealthCheck(
            "auditor_violations",
            violations,
            policy.max_auditor_violations,
            hard=True,
        )
    )

    errors = observability.metrics.value("engine_errors_total") or 0
    checks.append(
        HealthCheck("engine_errors", errors, policy.max_engine_errors, hard=True)
    )

    hard_breaches = sum(1 for c in checks if c.hard and not c.ok)
    soft_breaches = sum(1 for c in checks if not c.hard and not c.ok)
    if hard_breaches or soft_breaches >= 2:
        status = "FAILING"
    elif soft_breaches:
        status = "DEGRADED"
    else:
        status = "OK"
    return HealthReport(status, checks, policy, shard_health)
