"""Configuration of one fabric: router + N shard processes.

One frozen dataclass carries the topology knobs (shard count, ring
vnodes, probe cadence, restart policy) plus ``shard``, the
:class:`~repro.service.config.ServiceConfig` every shard runs under.
The fabric sets only the fields it owns on each shard's copy (see
:func:`shard_service_config`); every other server knob is declared
once, on ``ServiceConfig``.  The CLI (``python -m repro serve
--shards N``) builds the shard config from the same flags as a
single-process server; tests construct the dataclass directly with
``port=0`` and a tmp ``fabric_dir``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.fabric.ring import DEFAULT_VNODES
from repro.service.config import ServiceConfig

__all__ = ["FabricConfig", "shard_service_config"]


@dataclass(frozen=True)
class FabricConfig:
    """All tunables of one fabric.

    Parameters
    ----------
    fabric_dir:
        Shared state directory.  The supervisor creates three
        subdirectories under it: ``db/`` (segmented tuning database,
        :mod:`repro.util.segdb`), ``jobs/`` (tune-job ledger,
        :mod:`repro.autotune.jobs`) and ``ports/`` (one file per shard
        announcing its ephemeral port).
    host, port:
        Router bind address; ``port=0`` picks an ephemeral port.
        Shards always bind ephemeral ports on ``host`` and announce
        them through ``ports/``.
    shards:
        Number of shard server processes.
    vnodes:
        Virtual nodes per shard on the consistent-hash ring.
    probe_interval_s:
        Router health-probe period per shard.
    probe_timeout_s:
        Socket timeout of one health probe / forwarded request connect.
    restart_shards:
        Whether the router's probe loop asks the supervisor to restart
        a dead shard (tests that drill adoption disable this so the
        *surviving* shards must finish the dead shard's jobs).
    max_restarts:
        Per-shard restart budget; a shard past it stays down.
    shard_faults:
        Optional per-shard fault plans for chaos drills:
        ``((index, "<REPRO_FAULTS grammar>"), ...)``.  Only the named
        shards are armed — the shard-death drill kills exactly the
        job's owner and leaves the adopters clean.
    shard:
        The server config of every shard.  Its ``host``, ``port``,
        ``shard_id``, ``db_dir`` and ``job_dir`` are set per shard
        (:func:`shard_service_config`); every other knob applies to
        each shard as given.  The router forwards request bodies
        verbatim, so cost classification, limiters and brownout
        ladders run per shard over that shard's traffic, and the
        router's fan-in merges their documents.  A shard config the
        fabric cannot run (e.g. one with a ``db_path``, which excludes
        the segmented database) raises at construction.
    """

    fabric_dir: str
    host: str = "127.0.0.1"
    port: int = 8750
    shards: int = 3
    vnodes: int = DEFAULT_VNODES
    probe_interval_s: float = 1.0
    probe_timeout_s: float = 5.0
    restart_shards: bool = True
    max_restarts: int = 3
    shard_faults: tuple[tuple[int, str], ...] | None = None
    shard: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        if not self.fabric_dir:
            raise ValueError("fabric_dir is required")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.probe_interval_s <= 0 or self.probe_timeout_s <= 0:
            raise ValueError("probe intervals must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        # Reject shard knobs a shard cannot run now, not when the
        # supervisor first starts one.
        shard_service_config(self, 0)


def shard_service_config(config: FabricConfig, index: int) -> ServiceConfig:
    """The ServiceConfig shard ``index`` runs under."""
    root = Path(config.fabric_dir)
    return replace(
        config.shard,
        host=config.host,
        port=0,  # ephemeral; announced through the port file
        shard_id=index,
        db_dir=str(root / "db"),
        job_dir=str(root / "jobs"),
    )
