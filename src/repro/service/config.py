"""Configuration of the tuning/prediction service.

One frozen dataclass carries every knob of the server: network
binding, worker-pool sizing, admission control, cache sizing and the
timeouts that bound a request's life.  It is the only place a server
knob is declared: a fabric runs each shard under a copy of it
(:class:`~repro.fabric.config.FabricConfig` holds one as ``shard``),
and the CLI (``python -m repro serve``) generates its flags from the
fields' ``metadata`` (see :func:`_flag`), so the flags map 1:1 onto
these fields.  Tests construct the dataclass directly with an
ephemeral port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ServiceConfig"]


def _flag(
    default: Any, flag: str, help: str | None = None, **argparse_kwargs: Any
) -> Any:
    """A field settable by the ``serve`` flag ``flag``.

    ``metadata["flag"]`` names the option; the other metadata entries
    (``help``, ``metavar``, ``choices``) are passed to
    ``add_argument``.  The option's type comes from the field's
    annotation; a ``bool`` field becomes ``store_true`` (default
    ``False``) or ``store_false`` (default ``True``).  Fields without
    a flag are set only by code (the fabric, tests).
    """
    return field(
        default=default,
        metadata={"flag": flag, "help": help, **argparse_kwargs},
    )


@dataclass(frozen=True)
class ServiceConfig:
    """All tunables of one :class:`~repro.service.server.ReproService`.

    Every field but five is set by the ``serve`` flag named in its
    metadata.  ``shard_id``, ``db_dir`` and ``job_dir`` are set only by
    the fabric supervisor for each shard; ``max_body_bytes`` and
    ``latency_reservoir`` only by code.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (the bound
        port is returned by ``start()``).
    workers:
        Size of the executor pool evaluating jobs.
    executor:
        ``"process"`` (default; jobs are picklable top-level functions
        in :mod:`repro.service.jobs`) or ``"thread"`` (cheaper startup,
        used by tests and benchmarks).
    queue_limit:
        Admission control: maximum number of in-flight *fresh* jobs
        (running + queued).  Requests beyond it are shed with HTTP 429.
    response_cache_size:
        Entries kept in the in-process LRU response cache (tier 1).
    request_timeout_s:
        Per-request deadline; an expired request gets HTTP 504 (the
        underlying job keeps running for coalesced waiters).
    drain_timeout_s:
        On SIGTERM/``stop()``, how long to wait for in-flight requests
        before forcing shutdown.
    db_path:
        Optional path of the Offsite :class:`TuningDatabase` used as
        the warm persistent tier for ``/rank`` (loaded if present,
        updated after fresh rankings).
    max_body_bytes:
        Request bodies larger than this are rejected with HTTP 413.
    latency_reservoir:
        Samples kept per endpoint for the latency percentiles
        reported by ``/metrics``.
    breaker_threshold:
        Consecutive fresh-job failures on one endpoint before its
        circuit breaker opens.
    breaker_recovery_s:
        How long an open breaker waits before letting one half-open
        probe request through.
    degraded_mode:
        When an endpoint's breaker is open, serve the analytic
        fallback (HTTP 200 with ``"degraded": true``) instead of
        refusing with HTTP 503.
    shard_id:
        Fabric shard identity of this server (``None`` outside a
        fabric).  Surfaced on ``/healthz`` and as the ``shard``
        dimension of ``/metrics`` so a router fan-in can tell shard
        gauges apart instead of letting them shadow each other.
    db_dir:
        Directory of the segmented multi-process tuning database
        (:mod:`repro.util.segdb`).  Mutually exclusive with
        ``db_path``; requires ``shard_id``.
    job_dir:
        Directory of the fabric's tune-job ledger
        (:mod:`repro.autotune.jobs`).  When set, ``/tune`` jobs are
        enqueued as content-addressed resumable units with a lease,
        checkpointed, and publishable/stealable by peer shards.
    lease_ttl_s:
        Seconds a tune-job lease stays unstealable while its owner's
        pid is alive (a dead pid is adoptable immediately).
    steal_interval_s:
        Period of the idle-shard work-stealing scan over ``job_dir``
        (0 disables stealing; rerouted requests still adopt).  The
        scan runs only when ``job_dir`` is set, i.e. in a fabric
        shard.
    cost_routing:
        Cost-aware admission: classify each fresh job at admission by
        an analytic ECM cost estimate and route it to the ``cheap`` or
        ``expensive`` queue, each with its own admission bound and
        deadline.  Off by default — with routing off everything runs
        through the ``cheap`` queue with the legacy ``queue_limit`` and
        ``request_timeout_s``, byte-identical to the pre-split server.
    cost_threshold_s:
        Estimated job seconds at or above which a job is classed
        expensive.
    cheap_queue_limit, expensive_queue_limit:
        Per-class admission bounds (``None`` → ``queue_limit``).
    cheap_timeout_s, expensive_timeout_s:
        Per-class request deadlines (``None`` → ``request_timeout_s``).
    expensive_workers:
        Pool slots dedicated to the expensive queue (``None`` → share
        the main pool).  A separate pool keeps saturated tune work from
        starving cheap predictions of executor slots.
    approx_enabled:
        Serve near-match approximate answers (interpolated from stored
        exact observations for the same request family with a nearby
        grid).  Responses carry ``"approximate": true`` + a numeric
        confidence; clients opt out per request with ``"exact": true``.
    approx_confidence:
        Minimum confidence an interpolated answer needs; below it the
        request falls through to exact computation.
    approx_capacity:
        Exact observations retained as interpolation support.
    adaptive_limits:
        Replace the static per-class admission bounds with AIMD
        limiters (:class:`~repro.service.overload.AdaptiveLimiter`):
        grow on healthy latency, shrink multiplicatively when a class's
        windowed p95 breaches its target.  The static class limit stays
        as the hard ceiling (floor of 1), so the limiter only ever
        tightens admission.  Off by default — with it off admission is
        byte-identical to the static-limit server.
    adaptive_target_ms:
        Latency target of the *cheap* class's limiter (default aligned
        with the shipped 500 ms latency SLO).  The expensive class
        targets half its own request deadline — multi-second tune
        sweeps must not be judged by a prediction-latency bar.
    brownout:
        Arm the SLO-driven brownout ladder
        (:class:`~repro.service.overload.BrownoutLadder`): sustained
        page-severity burn alerts degrade service in stages (widen
        near-match acceptance → serve /predict analytically → shed
        tune/rank → full shed) with staged recovery.  Requires
        ``slo_enabled`` (the ladder is fed by the engine's alerts).
        Off by default with byte-identical responses.
    brownout_approx_confidence:
        The near-match tier's loosened acceptance bar while the ladder
        is at ``approx-wide`` or deeper (clamped to never *raise* the
        configured ``approx_confidence``).
    brownout_escalate_s:
        Seconds a page alert must burn before each downward step.
    brownout_recover_s:
        Calm seconds before each upward (recovery) step.
    slo_enabled:
        Construct the SLO engine: declarative objectives evaluated by
        multi-window burn-rate alerting, surfaced on ``/slo``, as
        ``alerts`` in ``/healthz`` and as ``slo`` rows in ``/metrics``.
        Off by default — without it those surfaces are byte-identical
        to the pre-SLO server.
    slo_config:
        Objectives source when ``slo_enabled``: ``None`` → shipped
        defaults, a path → JSON file, inline JSON text → parsed
        directly (see :func:`repro.telemetry.load_slo_config`).
    flight_recorder:
        Capacity of the per-request flight-recorder ring dumped by
        ``/debug/requests`` (0 disables recording; the endpoint then
        reports an empty ring).
    """

    host: str = _flag("127.0.0.1", "--host")
    port: int = _flag(8753, "--port", "0 picks an ephemeral port")
    workers: int = _flag(2, "--workers", "worker-pool size")
    executor: str = _flag(
        "process",
        "--executor",
        "worker-pool kind",
        choices=("process", "thread"),
    )
    queue_limit: int = _flag(
        64,
        "--queue-limit",
        "max in-flight jobs before load-shedding (HTTP 429)",
    )
    response_cache_size: int = _flag(
        1024, "--cache-size", "response LRU capacity (entries)"
    )
    request_timeout_s: float = _flag(
        120.0, "--timeout", "per-request deadline in seconds"
    )
    drain_timeout_s: float = _flag(
        30.0, "--drain-timeout", "graceful-shutdown budget in seconds"
    )
    db_path: str | None = _flag(
        None,
        "--db",
        "path of the persistent tuning database (/rank warm tier)",
    )
    max_body_bytes: int = 1 << 20
    latency_reservoir: int = 2048
    breaker_threshold: int = _flag(
        5,
        "--breaker-threshold",
        "consecutive fresh-job failures before an endpoint's "
        "circuit breaker opens",
    )
    breaker_recovery_s: float = _flag(
        30.0,
        "--breaker-recovery",
        "seconds an open breaker waits before a half-open probe",
    )
    degraded_mode: bool = _flag(
        True,
        "--no-degraded",
        "refuse (503) instead of serving analytic degraded "
        "answers while a breaker is open",
    )
    shard_id: int | None = None
    db_dir: str | None = None
    job_dir: str | None = None
    lease_ttl_s: float = _flag(
        60.0, "--lease-ttl", "fabric tune-job lease TTL in seconds"
    )
    steal_interval_s: float = _flag(
        0.5,
        "--steal-interval",
        "idle-shard work-stealing scan period in seconds (fabric mode)",
    )
    cost_routing: bool = _flag(
        False,
        "--cost-routing",
        "classify jobs by analytic cost at admission and route "
        "them to separate cheap/expensive queues",
    )
    cost_threshold_s: float = _flag(
        0.25,
        "--cost-threshold",
        "estimated job seconds at which a job classes as expensive",
    )
    cheap_queue_limit: int | None = _flag(
        None,
        "--cheap-queue-limit",
        "admission bound of the cheap queue (default: --queue-limit)",
    )
    expensive_queue_limit: int | None = _flag(
        None,
        "--expensive-queue-limit",
        "admission bound of the expensive queue (default: --queue-limit)",
    )
    cheap_timeout_s: float | None = _flag(
        None,
        "--cheap-timeout",
        "cheap-queue request deadline in seconds (default: --timeout)",
    )
    expensive_timeout_s: float | None = _flag(
        None,
        "--expensive-timeout",
        "expensive-queue request deadline in seconds (default: --timeout)",
    )
    expensive_workers: int | None = _flag(
        None,
        "--expensive-workers",
        "dedicated pool slots for the expensive queue "
        "(default: share the main pool)",
    )
    approx_enabled: bool = _flag(
        False,
        "--approx",
        "serve near-match approximate answers (interpolated from "
        "stored exact results; responses carry approximate+confidence)",
    )
    approx_confidence: float = _flag(
        0.75,
        "--approx-confidence",
        "minimum confidence an approximate answer needs; below "
        "it the request computes exactly",
    )
    approx_capacity: int = _flag(
        512,
        "--approx-capacity",
        "exact observations retained as interpolation support",
    )
    adaptive_limits: bool = _flag(
        False,
        "--adaptive-limits",
        "AIMD adaptive per-class admission limits: grow on "
        "healthy latency, halve when a class's windowed p95 breaches "
        "its target (static limit stays the hard ceiling, floor 1)",
    )
    adaptive_target_ms: float = _flag(
        500.0,
        "--adaptive-target-ms",
        "latency target of the cheap class's adaptive limiter "
        "(the expensive class targets half its own deadline)",
        metavar="MS",
    )
    brownout: bool = _flag(
        False,
        "--brownout",
        "SLO-burn-driven brownout ladder: sustained page alerts "
        "degrade in stages (widen approx acceptance, serve /predict "
        "analytically, shed tune/rank, full shed) with staged "
        "recovery; implies --slo",
    )
    brownout_approx_confidence: float = _flag(
        0.5,
        "--brownout-approx-confidence",
        "near-match acceptance bar while browned out (never "
        "raises the configured --approx-confidence)",
        metavar="C",
    )
    brownout_escalate_s: float = _flag(
        2.0,
        "--brownout-escalate",
        "seconds a page alert must burn before each brownout step",
        metavar="S",
    )
    brownout_recover_s: float = _flag(
        5.0,
        "--brownout-recover",
        "calm seconds before each brownout recovery step",
        metavar="S",
    )
    slo_enabled: bool = _flag(
        False,
        "--slo",
        "evaluate SLO objectives with multi-window burn-rate "
        "alerting (surfaced on /slo, as alerts in /healthz and as "
        "slo rows in /metrics)",
    )
    slo_config: str | None = _flag(
        None,
        "--slo-config",
        "objectives: a JSON file path or inline JSON object "
        "(implies --slo; default: the shipped objectives)",
        metavar="JSON|PATH",
    )
    flight_recorder: int = _flag(
        256,
        "--flight-recorder",
        "per-request flight-recorder ring capacity dumped by "
        "/debug/requests (0 disables recording)",
        metavar="N",
    )

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.executor not in ("process", "thread"):
            raise ValueError(
                f"executor must be 'process' or 'thread', got {self.executor!r}"
            )
        if self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if self.response_cache_size < 0:
            raise ValueError("response_cache_size must be >= 0")
        if self.request_timeout_s <= 0 or self.drain_timeout_s < 0:
            raise ValueError("timeouts must be positive")
        if self.breaker_threshold <= 0:
            raise ValueError("breaker_threshold must be positive")
        if self.breaker_recovery_s < 0:
            raise ValueError("breaker_recovery_s must be >= 0")
        if self.db_dir is not None and self.db_path is not None:
            raise ValueError("db_dir and db_path are mutually exclusive")
        if self.db_dir is not None and self.shard_id is None:
            raise ValueError("db_dir (segmented database) requires shard_id")
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if self.steal_interval_s < 0:
            raise ValueError("steal_interval_s must be >= 0")
        if self.cost_threshold_s <= 0:
            raise ValueError("cost_threshold_s must be positive")
        for name in ("cheap_queue_limit", "expensive_queue_limit"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("cheap_timeout_s", "expensive_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.expensive_workers is not None and self.expensive_workers <= 0:
            raise ValueError("expensive_workers must be positive")
        if not 0.0 < self.approx_confidence <= 1.0:
            raise ValueError("approx_confidence must be in (0, 1]")
        if self.approx_capacity < 0:
            raise ValueError("approx_capacity must be >= 0")
        if self.adaptive_target_ms <= 0:
            raise ValueError("adaptive_target_ms must be positive")
        if not 0.0 < self.brownout_approx_confidence <= 1.0:
            raise ValueError(
                "brownout_approx_confidence must be in (0, 1]"
            )
        if self.brownout_escalate_s <= 0 or self.brownout_recover_s <= 0:
            raise ValueError("brownout hold times must be positive")
        if self.brownout and not self.slo_enabled:
            raise ValueError(
                "brownout requires slo_enabled (the ladder is fed by"
                " the SLO engine's burn alerts)"
            )
        if self.slo_config is not None and not self.slo_enabled:
            raise ValueError("slo_config requires slo_enabled")
        if self.flight_recorder < 0:
            raise ValueError("flight_recorder must be >= 0")

    # -- per-class views (cost-aware admission) -------------------------
    def class_queue_limit(self, job_class: str) -> int:
        """Admission bound of one queue class."""
        if self.cost_routing and job_class == "expensive":
            return self.expensive_queue_limit or self.queue_limit
        if self.cost_routing and job_class == "cheap":
            return self.cheap_queue_limit or self.queue_limit
        return self.queue_limit

    def class_timeout_s(self, job_class: str) -> float:
        """Request deadline of one queue class."""
        if self.cost_routing and job_class == "expensive":
            return self.expensive_timeout_s or self.request_timeout_s
        if self.cost_routing and job_class == "cheap":
            return self.cheap_timeout_s or self.request_timeout_s
        return self.request_timeout_s

    def class_adaptive_target_s(self, job_class: str) -> float:
        """Latency target of one class's adaptive limiter.

        Cheap work answers to the interactive target
        (``adaptive_target_ms``); expensive work is healthy as long as
        it clears well inside its own deadline, so it targets half the
        class timeout (never tighter than the cheap target).
        """
        cheap_target = self.adaptive_target_ms / 1e3
        if job_class == "expensive":
            return max(cheap_target, self.class_timeout_s("expensive") / 2.0)
        return cheap_target
