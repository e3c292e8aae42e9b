"""Work-stealing job ledger + the shard-death drill.

The drill is the fabric's load-bearing guarantee: SIGKILL (here via a
deterministic ``mode=exit`` fault) a shard mid-``/tune`` and the job
must finish on a survivor, resumed from the dead owner's checkpoint,
with a winner bit-identical to a serial single-process run.
"""

import os
import time

import pytest

from repro.autotune.jobs import JobLedger, _pid_alive
from repro.engine import shard_key
from repro.fabric import BackgroundFabric, FabricConfig, HashRing
from repro.service.background import BackgroundServer
from repro.service.config import ServiceConfig
from repro.service.jobs import normalize_tune, request_key
from repro.util import crashsafe


class TestPidAlive:
    def test_self_is_alive(self):
        assert _pid_alive(os.getpid())

    def test_nonsense_pids(self):
        assert not _pid_alive(0)
        assert not _pid_alive(-5)

    def test_dead_pid(self):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)  # reaped: fully gone
        assert not _pid_alive(pid)

    def test_zombie_is_not_alive(self):
        # A SIGKILLed shard is a zombie until its parent reaps it; its
        # jobs must be adoptable in that window (the process will never
        # run again), so the liveness probe must see through zombies.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        deadline = time.time() + 5.0
        while time.time() < deadline and _pid_alive(pid):
            time.sleep(0.01)
        try:
            assert not _pid_alive(pid)
        finally:
            os.waitpid(pid, 0)


class TestJobLedger:
    def test_enqueue_and_read(self, tmp_path):
        ledger = JobLedger(tmp_path)
        ledger.enqueue("k1", "/tune", {"stencil": "3d7pt"})
        job = ledger.job("k1")
        assert job["endpoint"] == "/tune"
        assert job["payload"] == {"stencil": "3d7pt"}

    def test_enqueue_is_idempotent(self, tmp_path):
        ledger = JobLedger(tmp_path)
        ledger.enqueue("k1", "/tune", {"a": 1})
        ledger.enqueue("k1", "/tune", {"a": 999})  # same key: kept as-is
        assert ledger.job("k1")["payload"] == {"a": 1}

    def test_claim_then_live_peer_blocks(self, tmp_path):
        ledger = JobLedger(tmp_path)
        assert ledger.claim("k1", "me", ttl_s=60)
        # Same pid (alive), different owner name: not adoptable.
        assert not ledger.claim("k1", "rival", ttl_s=60)
        # Re-claim by the holder extends.
        assert ledger.claim("k1", "me", ttl_s=60)

    def test_expired_lease_is_stolen(self, tmp_path):
        ledger = JobLedger(tmp_path)
        assert ledger.claim("k1", "slow", ttl_s=0.01)
        time.sleep(0.05)
        assert ledger.claim("k1", "thief", ttl_s=60)

    def test_dead_pid_lease_is_stolen_immediately(self, tmp_path):
        ledger = JobLedger(tmp_path)
        crashsafe.dump_envelope(
            ledger.lease_path("k1"),
            {
                "schema": 1,
                "owner": "ghost",
                "pid": 2**22 - 1,  # beyond any default pid_max
                "expires": time.time() + 3600,
            },
        )
        assert ledger.claim("k1", "adopter", ttl_s=60)

    def test_malformed_lease_is_adoptable(self, tmp_path):
        ledger = JobLedger(tmp_path)
        crashsafe.dump_envelope(
            ledger.lease_path("k1"),
            {"schema": 1, "owner": "x", "pid": "NaN", "expires": "later"},
        )
        assert ledger.claim("k1", "adopter", ttl_s=60)

    def test_complete_publishes_and_drops_lease(self, tmp_path):
        ledger = JobLedger(tmp_path)
        ledger.enqueue("k1", "/tune", {})
        ledger.claim("k1", "me", ttl_s=60)
        ledger.complete("k1", "me", {"answer": 42})
        assert ledger.result("k1") == {"answer": 42}
        assert ledger.result_owner("k1") == "me"
        assert ledger.lease("k1") is None
        assert ledger.pending() == []

    def test_adoptable_scan(self, tmp_path):
        ledger = JobLedger(tmp_path)
        ledger.enqueue("free", "/tune", {"n": 1})
        ledger.enqueue("held", "/tune", {"n": 2})
        ledger.claim("held", "worker", ttl_s=60)  # live: not adoptable
        ledger.enqueue("done", "/tune", {"n": 3})
        ledger.complete("done", "worker", {"ok": True})
        keys = [job["key"] for job in ledger.adoptable()]
        assert keys == ["free"]

    def test_corrupt_result_is_quarantined(self, tmp_path):
        ledger = JobLedger(tmp_path)
        ledger.result_path("k1").write_text("garbage")
        assert ledger.result("k1") is None
        assert not ledger.result_path("k1").exists()


DRILL_PAYLOAD = {
    "stencil": "3d7pt",
    "grid": [32, 32, 48],
    "machine": "clx",
    "tuner": "exhaustive",
}


@pytest.mark.slow
class TestShardDeathDrill:
    def test_killed_shards_tune_is_adopted_bit_identically(self, tmp_path):
        # Compute the owner in advance from a local ring — the same
        # deterministic route the router will take — and arm ONLY that
        # shard with a mid-sweep process kill (fires after enough
        # evaluations for at least one checkpoint flush of 4 jobs).
        owner = HashRing(["0", "1", "2"]).route(
            shard_key("/tune", DRILL_PAYLOAD)
        )
        config = FabricConfig(
            fabric_dir=str(tmp_path),
            port=0,
            shards=3,
            probe_interval_s=0.2,
            restart_shards=False,  # adoption, not restart, must resolve it
            shard_faults=((int(owner), "tuner.eval:nth=6:mode=exit"),),
            shard=ServiceConfig(
                executor="thread", workers=1, steal_interval_s=0.2
            ),
        )
        with BackgroundFabric(config) as fabric:
            result = fabric.client.tune(**DRILL_PAYLOAD)
            envelope = result["result"]
            # The dead owner really died (fault exit status)...
            dead = fabric.supervisor.shards[int(owner)]
            assert not dead.alive and dead.exitcode == 70
            # ...the ledger shows a different pid published the result...
            ledger = JobLedger(tmp_path / "jobs")
            key = request_key("/tune", normalize_tune(DRILL_PAYLOAD))
            publisher = ledger.result_owner(key)
            assert publisher is not None
            assert publisher != f"shard-pid-{dead.pid}"
            # ...resumed from the checkpoint, not recomputed from zero...
            assert envelope["recovery"]["resumed_jobs"] >= 1
            assert not envelope["recovery"]["degraded"]
            # ...and the fabric reports the loss.
            health = fabric.client.healthz()
            assert health["status"] == "degraded"
            assert health["shards"][owner]["up"] is False

        # Bit-identical winner vs a serial single-process run.
        with BackgroundServer(
            ServiceConfig(port=0, executor="thread", workers=1)
        ) as bg:
            serial = bg.client.tune(**DRILL_PAYLOAD)["result"]
        assert envelope["best_plan"] == serial["best_plan"]
        assert envelope["best_mlups"] == serial["best_mlups"]
        assert (
            envelope["variants_examined"] == serial["variants_examined"]
        )
