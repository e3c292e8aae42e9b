"""Overload-resilience unit + property tests.

Covers the pieces of :mod:`repro.service.overload` in isolation (fake
clocks, scripted alert sensors), the client-side retry hygiene (full
jitter, retry budget, deadline stamping), the dispatcher's queue-sweep
invariant under multi-threaded load, the router's Retry-After hints on
shard failure, and — critically — that every new knob is inert by
default: with the flags off, the service's responses stay
byte-identical to the pre-overload-control service.

The live brownout drill (sustained 2x overload -> ladder -> recovery)
lives in ``tests/test_overload_drill.py``.
"""

from __future__ import annotations

import asyncio
import http.client
import http.server
import json
import socket
import threading
import time

import pytest

from repro.fabric.config import FabricConfig
from repro.fabric.router import FabricRouter
from repro.service.background import BackgroundServer
from repro.service.batching import CoalescingDispatcher, DeadlineSwept, Overloaded
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.overload import (
    BROWNOUT_STAGES,
    DEADLINE_HEADER,
    AdaptiveLimiter,
    BrownoutLadder,
    ClassLatencyTracker,
    deadline_from_headers,
    format_deadline_ms,
)
from repro.telemetry import parse_prometheus

from tests.test_fabric import raw_request

PREDICT = {"stencil": "3d7pt", "grid": [32, 32, 48]}


def _request_with_headers(host, port, method, path, payload, extra_headers):
    """One request with caller-controlled headers; returns
    ``(status, raw_body, response_headers)``."""
    conn = http.client.HTTPConnection(host, port, timeout=60.0)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = dict(extra_headers)
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return (
            resp.status,
            resp.read(),
            {k.lower(): v for k, v in resp.getheaders()},
        )
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Deadline header helpers
# ----------------------------------------------------------------------
class TestDeadlineHeader:
    def test_roundtrip_reanchors_against_local_clock(self):
        headers = {DEADLINE_HEADER.lower(): format_deadline_ms(1.5)}
        deadline = deadline_from_headers(headers, now=100.0)
        assert deadline == pytest.approx(101.5, abs=0.002)

    def test_absent_header_means_no_deadline(self):
        assert deadline_from_headers(None) is None
        assert deadline_from_headers({}) is None
        assert deadline_from_headers({"content-type": "json"}) is None

    @pytest.mark.parametrize("raw", ["garbage", "", "nan", "inf", "-inf"])
    def test_malformed_budget_degrades_to_no_deadline(self, raw):
        assert deadline_from_headers({DEADLINE_HEADER.lower(): raw}) is None

    def test_negative_budget_is_already_expired(self):
        deadline = deadline_from_headers(
            {DEADLINE_HEADER.lower(): "-250"}, now=100.0
        )
        assert deadline == pytest.approx(99.75)

    def test_format_floors_at_one_millisecond(self):
        assert format_deadline_ms(0.0) == "1"
        assert format_deadline_ms(0.0001) == "1"
        assert format_deadline_ms(2.5) == "2500"


class TestClassLatencyTracker:
    def test_no_p95_until_enough_samples(self):
        tracker = ClassLatencyTracker()
        for value in (0.1, 0.2, 0.3):
            tracker.record(value)
            assert tracker.p95() is None
        tracker.record(0.4)
        assert tracker.p95() == pytest.approx(0.4)

    def test_p95_tracks_the_tail_over_the_window(self):
        tracker = ClassLatencyTracker(window=20)
        for _ in range(18):
            tracker.record(0.01)
        tracker.record(5.0)
        tracker.record(5.0)
        assert tracker.p95() == pytest.approx(5.0)
        # The slow samples eventually fall out of the window.
        for _ in range(20):
            tracker.record(0.01)
        assert tracker.p95() == pytest.approx(0.01)


# ----------------------------------------------------------------------
# AIMD adaptive limiter (fake clock)
# ----------------------------------------------------------------------
class TestAdaptiveLimiter:
    def _limiter(self, **kwargs):
        now = [0.0]
        defaults = dict(
            ceiling=16, target_s=0.1, cooldown_s=1.0, now_fn=lambda: now[0]
        )
        defaults.update(kwargs)
        return AdaptiveLimiter(**defaults), now

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLimiter(ceiling=0, target_s=1.0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(ceiling=4, target_s=0.0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(ceiling=4, target_s=1.0, shrink=1.0)

    def test_starts_at_ceiling_and_healthy_traffic_stays_there(self):
        limiter, _ = self._limiter()
        assert limiter.limit == 16
        for _ in range(100):
            limiter.record(0.01)
        assert limiter.limit == 16
        assert limiter.shrinks == 0

    def test_breach_cuts_multiplicatively(self):
        limiter, _ = self._limiter()
        for _ in range(4):
            limiter.record(0.5)  # p95 well above the 0.1s target
        assert limiter.limit == 8
        assert limiter.shrinks == 1

    def test_cooldown_limits_cuts_to_one_per_period(self):
        limiter, now = self._limiter()
        for _ in range(4):
            limiter.record(0.5)
        assert limiter.limit == 8
        # Still inside the cooldown: more slow completions, no new cut.
        for _ in range(8):
            limiter.record(0.5)
        assert limiter.limit == 8 and limiter.shrinks == 1
        now[0] = 1.5  # past the cooldown
        for _ in range(4):
            limiter.record(0.5)
        assert limiter.limit == 4 and limiter.shrinks == 2

    def test_floor_is_never_undercut(self):
        limiter, now = self._limiter(ceiling=4, floor=1)
        for step in range(10):
            now[0] = float(step * 2)
            for _ in range(4):
                limiter.record(9.9)
        assert limiter.limit == 1

    def test_recovers_additively_after_latency_heals(self):
        limiter, now = self._limiter()
        for _ in range(4):
            limiter.record(0.5)
        assert limiter.limit == 8
        now[0] = 10.0
        for _ in range(200):
            limiter.record(0.01)
        assert limiter.limit == 16  # back at the ceiling, gradually
        assert limiter.grows > 0

    def test_snapshot_shape(self):
        limiter, _ = self._limiter()
        snap = limiter.snapshot()
        assert snap == {
            "limit": 16,
            "ceiling": 16,
            "floor": 1,
            "target_ms": 100.0,
            "shrinks": 0,
            "grows": 0,
        }


# ----------------------------------------------------------------------
# Brownout ladder (fake clock, scripted alert sensor)
# ----------------------------------------------------------------------
def _alert(objective="latency-p95", severity="page", type_="latency"):
    return {"objective": objective, "severity": severity, "type": type_}


class TestBrownoutLadder:
    def _ladder(self, alerts, **kwargs):
        now = [0.0]
        defaults = dict(
            escalate_hold_s=2.0,
            recover_hold_s=5.0,
            eval_interval_s=0.0,
            now_fn=lambda: now[0],
        )
        defaults.update(kwargs)
        return BrownoutLadder(alerts, **defaults), now

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutLadder(lambda: [], escalate_hold_s=0.0)
        with pytest.raises(ValueError):
            BrownoutLadder(lambda: [], max_stage=0)
        with pytest.raises(ValueError):
            BrownoutLadder(lambda: [], max_stage=len(BROWNOUT_STAGES))

    def test_escalates_only_after_sustained_burn(self):
        ladder, now = self._ladder(lambda: [_alert()])
        assert ladder.evaluate() == 0  # first sighting starts the hold
        now[0] = 1.9
        assert ladder.evaluate() == 0  # not sustained long enough yet
        now[0] = 2.1
        assert ladder.evaluate() == 1
        assert ladder.state == "approx-wide"
        # The next step needs its own full hold period.
        now[0] = 2.2
        assert ladder.evaluate() == 1
        now[0] = 4.3
        assert ladder.evaluate() == 2
        assert ladder.state == "predict-analytic"

    def test_blip_resets_the_escalation_hold(self):
        firing = [True]
        ladder, now = self._ladder(lambda: [_alert()] if firing[0] else [])
        ladder.evaluate()
        now[0] = 1.5
        firing[0] = False
        ladder.evaluate()  # calm: the burn streak resets
        firing[0] = True
        now[0] = 3.0
        assert ladder.evaluate() == 0  # 1.5s of *new* burn < the hold
        now[0] = 5.1
        assert ladder.evaluate() == 1

    def test_recovers_stage_by_stage_after_sustained_calm(self):
        firing = [True]
        ladder, now = self._ladder(lambda: [_alert()] if firing[0] else [])
        for t in (0.0, 2.1, 4.2):
            now[0] = t
            ladder.evaluate()
        assert ladder.stage == 2
        firing[0] = False
        now[0] = 5.0
        assert ladder.evaluate() == 2  # calm streak starts
        now[0] = 9.9
        assert ladder.evaluate() == 2
        now[0] = 10.1
        assert ladder.evaluate() == 1
        now[0] = 15.2
        assert ladder.evaluate() == 0
        assert ladder.state == "normal"
        assert ladder.escalations == 2 and ladder.recoveries == 2

    def test_max_stage_caps_the_descent(self):
        ladder, now = self._ladder(lambda: [_alert()], max_stage=2)
        for step in range(1, 10):
            now[0] = step * 2.1
            ladder.evaluate()
        assert ladder.stage == 2

    def test_shed_rate_alerts_are_ignored(self):
        ladder, now = self._ladder(
            lambda: [_alert(objective="shed-rate", type_="shed_rate")]
        )
        for step in range(5):
            now[0] = step * 2.1
            ladder.evaluate()
        assert ladder.stage == 0  # the actuator must not sense itself

    def test_warn_severity_does_not_escalate(self):
        ladder, now = self._ladder(lambda: [_alert(severity="warn")])
        for step in range(5):
            now[0] = step * 2.1
            ladder.evaluate()
        assert ladder.stage == 0

    def test_broken_sensor_reads_as_calm(self):
        def boom():
            raise RuntimeError("slo engine exploded")

        ladder, now = self._ladder(boom)
        for step in range(5):
            now[0] = step * 2.1
            ladder.evaluate()
        assert ladder.stage == 0

    def test_evaluation_is_rate_limited(self):
        calls = []
        ladder, now = self._ladder(
            lambda: calls.append(1) or [], eval_interval_s=1.0
        )
        ladder.evaluate()
        now[0] = 0.5
        ladder.evaluate()  # inside the interval: sensor not consulted
        assert len(calls) == 1
        now[0] = 1.5
        ladder.evaluate()
        assert len(calls) == 2

    def test_transitions_are_ledgered_and_observed(self):
        seen = []
        firing = [True]
        ladder, now = self._ladder(
            lambda: [_alert()] if firing[0] else [],
            on_transition=seen.append,
        )
        now[0] = 0.0
        ladder.evaluate()
        now[0] = 2.1
        ladder.evaluate()
        firing[0] = False
        now[0] = 3.0
        ladder.evaluate()
        now[0] = 8.1
        ladder.evaluate()
        entries = list(ladder.transitions)
        assert [e["direction"] for e in entries] == ["escalate", "recover"]
        assert entries[0]["from"] == "normal"
        assert entries[0]["to"] == "approx-wide"
        assert entries[0]["alerts"] == ["latency-p95"]
        assert entries[1]["to"] == "normal"
        assert seen == entries
        snap = ladder.snapshot()
        assert snap["stage"] == 0
        assert snap["stages"] == list(BROWNOUT_STAGES)
        assert snap["escalations"] == 1 and snap["recoveries"] == 1

    def test_observer_failure_does_not_affect_control(self):
        def bad_observer(entry):
            raise RuntimeError("recorder full")

        ladder, now = self._ladder(
            lambda: [_alert()], on_transition=bad_observer
        )
        now[0] = 0.0
        ladder.evaluate()
        now[0] = 2.1
        assert ladder.evaluate() == 1  # transition happened regardless


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestOverloadConfig:
    def test_brownout_requires_slo_engine(self):
        with pytest.raises(ValueError, match="slo"):
            ServiceConfig(port=0, brownout=True, slo_enabled=False)

    def test_adaptive_target_must_be_positive(self):
        with pytest.raises(ValueError):
            ServiceConfig(port=0, adaptive_target_ms=0.0)

    def test_brownout_confidence_bounds(self):
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                ServiceConfig(
                    port=0,
                    slo_enabled=True,
                    brownout=True,
                    brownout_approx_confidence=bad,
                )

    def test_hold_times_must_be_positive(self):
        with pytest.raises(ValueError):
            ServiceConfig(
                port=0, slo_enabled=True, brownout=True,
                brownout_escalate_s=0.0,
            )

    def test_class_adaptive_targets(self):
        config = ServiceConfig(
            port=0,
            adaptive_target_ms=200.0,
            cost_routing=True,
            expensive_timeout_s=60.0,
        )
        assert config.class_adaptive_target_s("cheap") == pytest.approx(0.2)
        # Expensive work gets at least half its own deadline as target.
        assert config.class_adaptive_target_s("expensive") == pytest.approx(
            30.0
        )

    def test_fabric_config_carries_the_knobs_to_shards(self, tmp_path):
        from repro.fabric.proc import shard_service_config

        config = FabricConfig(
            fabric_dir=str(tmp_path),
            shards=1,
            shard=ServiceConfig(
                adaptive_limits=True,
                adaptive_target_ms=123.0,
                brownout=True,
                slo_enabled=True,
                brownout_escalate_s=1.0,
                brownout_recover_s=2.0,
                brownout_approx_confidence=0.25,
            ),
        )
        shard = shard_service_config(config, 0)
        assert shard.adaptive_limits is True
        assert shard.adaptive_target_ms == 123.0
        assert shard.brownout is True
        assert shard.brownout_escalate_s == 1.0
        assert shard.brownout_recover_s == 2.0
        assert shard.brownout_approx_confidence == 0.25


# ----------------------------------------------------------------------
# Client: full jitter, retry budget, deadline stamping
# ----------------------------------------------------------------------
class _RecordingHandler(http.server.BaseHTTPRequestHandler):
    """Scripted responses + a record of every request's headers."""

    script: list = []
    seen: list = []

    def _serve(self):
        length = int(self.headers.get("Content-Length", 0))
        if length:
            self.rfile.read(length)
        type(self).seen.append({k.lower(): v for k, v in self.headers.items()})
        status, headers, body = (
            type(self).script.pop(0)
            if type(self).script
            else (200, {}, b"{}")
        )
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _serve

    def log_message(self, *args):
        pass


@pytest.fixture()
def recording_server():
    handler = type(
        "Handler", (_RecordingHandler,), {"script": [], "seen": []}
    )
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], handler
    finally:
        server.shutdown()
        thread.join(timeout=5.0)


class TestClientJitter:
    def test_jitter_stays_within_the_scheduled_delay(self):
        client = ServiceClient(backoff_s=0.1, backoff_factor=2.0)
        for attempt in range(5):
            scheduled = 0.1 * 2.0**attempt
            for _ in range(50):
                delay = client._retry_delay_s(attempt, None)
                assert 0.0 <= delay <= scheduled

    def test_seeded_jitter_is_reproducible(self):
        a = ServiceClient(backoff_s=0.1, jitter_seed=42)
        b = ServiceClient(backoff_s=0.1, jitter_seed=42)
        seq_a = [a._retry_delay_s(k, None) for k in range(8)]
        seq_b = [b._retry_delay_s(k, None) for k in range(8)]
        assert seq_a == seq_b
        c = ServiceClient(backoff_s=0.1, jitter_seed=43)
        assert [c._retry_delay_s(k, None) for k in range(8)] != seq_a

    def test_jitter_spreads_the_schedule(self):
        client = ServiceClient(backoff_s=1.0, jitter_seed=7)
        delays = {client._retry_delay_s(0, None) for _ in range(20)}
        assert len(delays) > 10  # genuinely random, not quantized

    def test_retry_after_is_never_jittered(self):
        client = ServiceClient(backoff_s=30.0, jitter_seed=1)
        for _ in range(10):
            assert client._retry_delay_s(0, {"retry-after": "2"}) == 2.0


class TestClientRetryBudget:
    def test_sustained_storm_drains_the_bucket(self, recording_server):
        port, handler = recording_server
        body = b'{"error": "overloaded"}'
        handler.script[:] = [(429, {"Retry-After": "0"}, body)] * 100
        client = ServiceClient(
            port=port, retries=100, backoff_s=0.0, retry_budget=0.1
        )
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/tune", {})
        assert err.value.status == 429
        # The full bucket (10 tokens) + the first deposit bound the
        # retries far below the configured 100.
        assert len(handler.seen) <= 12
        assert client.retries_denied >= 1

    def test_budget_refills_across_requests(self, recording_server):
        port, handler = recording_server
        client = ServiceClient(
            port=port, retries=5, backoff_s=0.0, retry_budget=1.0
        )
        body = b'{"error": "overloaded"}'
        for _ in range(3):
            handler.script[:] = [
                (429, {"Retry-After": "0"}, body),
                (200, {}, b'{"ok": true}'),
            ]
            assert client.request("POST", "/tune", {}) == {"ok": True}
        assert client.retries_denied == 0

    def test_budget_none_disables_the_bucket(self, recording_server):
        port, handler = recording_server
        body = b'{"error": "overloaded"}'
        handler.script[:] = [(429, {"Retry-After": "0"}, body)] * 21
        client = ServiceClient(
            port=port, retries=20, backoff_s=0.0, retry_budget=None
        )
        with pytest.raises(ServiceError):
            client.request("POST", "/tune", {})
        assert len(handler.seen) == 21  # every configured retry ran
        assert client.retries_denied == 0


class TestClientDeadline:
    def test_no_deadline_sends_no_header(self, recording_server):
        port, handler = recording_server
        handler.script[:] = [(200, {}, b'{"ok": true}')]
        ServiceClient(port=port).request("POST", "/predict", PREDICT)
        assert DEADLINE_HEADER.lower() not in handler.seen[0]

    def test_deadline_header_carries_remaining_budget(self, recording_server):
        port, handler = recording_server
        handler.script[:] = [(200, {}, b'{"ok": true}')]
        ServiceClient(port=port, deadline_s=2.0).request(
            "POST", "/predict", PREDICT
        )
        budget_ms = float(handler.seen[0][DEADLINE_HEADER.lower()])
        assert 0 < budget_ms <= 2000

    def test_retries_restamp_a_shrinking_budget(self, recording_server):
        port, handler = recording_server
        body = b'{"error": "overloaded"}'
        handler.script[:] = [
            (429, {"Retry-After": "0.05"}, body),
            (200, {}, b'{"ok": true}'),
        ]
        client = ServiceClient(port=port, deadline_s=5.0, retries=2)
        client.request("POST", "/predict", PREDICT)
        first = float(handler.seen[0][DEADLINE_HEADER.lower()])
        second = float(handler.seen[1][DEADLINE_HEADER.lower()])
        assert second < first  # the retry saw less budget

    def test_exhausted_budget_fails_fast_without_sending(self):
        # Port 1 is unreachable; with a spent budget the client must
        # raise 504 before ever touching the network.
        client = ServiceClient(port=1, deadline_s=0.0)
        t0 = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/predict", PREDICT)
        assert err.value.status == 504
        assert err.value.body == {"error": "client deadline exceeded"}
        assert time.monotonic() - t0 < 1.0

    def test_sleep_never_overshoots_the_deadline(self, recording_server):
        port, handler = recording_server
        body = b'{"error": "overloaded"}'
        # The server demands a 30s wait; the caller only has ~0.3s.
        handler.script[:] = [(429, {"Retry-After": "30"}, body)] * 5
        client = ServiceClient(
            port=port, deadline_s=0.3, retries=5, timeout_s=60.0
        )
        t0 = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/predict", PREDICT)
        assert err.value.status == 504
        assert time.monotonic() - t0 < 2.0


# ----------------------------------------------------------------------
# Dispatcher queue sweep: the property test
# ----------------------------------------------------------------------
class _LoopThread:
    """An asyncio loop on a daemon thread (the dispatcher's home)."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()

    def run(self, coro, timeout=60.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout=timeout
        )

    def close(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


class TestDispatcherSweep:
    def test_swept_queue_never_executes_an_expired_job(self):
        """8 threads fire jobs with mixed deadlines; the invariant
        ``admitted == executed + swept`` must hold after the drain and
        no job whose deadline had already passed may ever execute."""
        config = ServiceConfig(
            port=0, executor="thread", workers=2, queue_limit=512
        )
        loops = _LoopThread()
        executed: list[int] = []
        executed_lock = threading.Lock()

        def job(payload):
            time.sleep(payload["sleep_s"])
            with executed_lock:
                executed.append(payload["index"])
            return {"index": payload["index"]}

        n_threads, per_thread = 8, 25

        async def submit(index: int):
            # A third of the jobs carry an already-expired deadline, a
            # third a tight-but-live one, a third none at all.
            kind = index % 3
            if kind == 0:
                deadline = time.time() - 1.0  # expired before admission
            elif kind == 1:
                deadline = time.time() + 0.2  # may expire in the queue
            else:
                deadline = None
            payload = {"index": index, "sleep_s": 0.005}
            try:
                served, task = dispatcher.dispatch(
                    f"job-{index}",
                    job,
                    payload,
                    job_class="cheap",
                    deadline_epoch=deadline,
                )
            except Overloaded:
                return index, "shed"
            try:
                await asyncio.shield(task)
                return index, "executed"
            except DeadlineSwept:
                return index, "swept"

        async def make_dispatcher():
            return CoalescingDispatcher(config)

        dispatcher = loops.run(make_dispatcher())
        outcomes: dict[int, str] = {}
        outcomes_lock = threading.Lock()

        def worker(thread_id: int):
            for k in range(per_thread):
                index = thread_id * per_thread + k
                idx, outcome = loops.run(submit(index))
                with outcomes_lock:
                    outcomes[idx] = outcome

        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)

            async def drain():
                await dispatcher.drain(timeout=30.0)
                return dispatcher.overload_snapshot()

            snap = loops.run(drain())
        finally:
            dispatcher.shutdown()
            loops.close()

        total = n_threads * per_thread
        assert len(outcomes) == total
        counts = snap["classes"]["cheap"]
        shed = sum(1 for o in outcomes.values() if o == "shed")
        # Sweep ledger: every admission is accounted for exactly once.
        assert counts["admitted"] == total - shed
        assert counts["admitted"] == counts["executed"] + counts["swept"]
        # The hard property: an expired-at-submit job NEVER executes.
        expired_at_submit = {
            i for i in range(total) if i % 3 == 0 and outcomes[i] != "shed"
        }
        assert expired_at_submit, "property test lost its subject"
        assert not (expired_at_submit & set(executed))
        for index in expired_at_submit:
            assert outcomes[index] == "swept"
        # Sanity: plenty of live work actually ran.
        assert counts["executed"] == len(executed) > 0
        assert counts["swept"] >= len(expired_at_submit)

    def test_deadline_free_dispatch_has_no_guard_overhead(self):
        config = ServiceConfig(port=0, executor="thread", workers=2)
        loops = _LoopThread()

        async def run_one():
            dispatcher = CoalescingDispatcher(config)
            served, task = dispatcher.dispatch(
                "k", lambda p: {"ok": True}, {}, job_class="cheap"
            )
            result = await asyncio.shield(task)
            snap = dispatcher.overload_snapshot()
            dispatcher.shutdown()
            return served, result, snap

        try:
            served, result, snap = loops.run(run_one())
        finally:
            loops.close()
        assert (served, result) == ("fresh", {"ok": True})
        row = snap["classes"]["cheap"]
        assert row["admitted"] == row["executed"] == 1
        assert row["swept"] == 0
        assert "adaptive" not in row  # limiter off by default


# ----------------------------------------------------------------------
# Router Retry-After hints
# ----------------------------------------------------------------------
class _RouterThread:
    """A FabricRouter on a daemon loop thread, no shard processes."""

    def __init__(self, config: FabricConfig, ports: dict[int, int]):
        self.router = FabricRouter(config, ports, supervisor=None)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()
        self.port = None

        def runner():
            asyncio.set_event_loop(self.loop)

            async def start():
                self.port = await self.router.start()
                started.set()

            self.loop.run_until_complete(start())
            self.loop.run_forever()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert started.wait(timeout=15.0)

    def close(self):
        async def stop():
            await self.router.stop()

        asyncio.run_coroutine_threadsafe(stop(), self.loop).result(
            timeout=15.0
        )
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestRouterRetryAfter:
    def test_retry_after_derives_from_the_probe_backoff(self, tmp_path):
        config = FabricConfig(
            fabric_dir=str(tmp_path), shards=2,
            probe_interval_s=1.5, probe_timeout_s=2.0,
        )
        router = FabricRouter(config, {}, supervisor=None)
        # ceil(1.5 + 2.0) = 4: one probe cycle must have completed
        # before a retry can possibly find a restarted shard.
        assert router._restart_retry_after_s() == 4

    def test_unroutable_request_carries_retry_after(self, tmp_path):
        config = FabricConfig(
            fabric_dir=str(tmp_path), shards=2,
            probe_interval_s=0.2, probe_timeout_s=0.3,
        )
        # Both shards point at closed ports: every forward is refused.
        ports = {0: _free_port(), 1: _free_port()}
        hosted = _RouterThread(config, ports)
        try:
            status, body, headers = raw_request(
                "127.0.0.1", hosted.port, "POST", "/predict", PREDICT
            )
        finally:
            hosted.close()
        assert status == 503
        assert json.loads(body)["error"] == "no live shard"
        expected = max(
            1,
            int(config.probe_interval_s + config.probe_timeout_s + 0.999),
        )
        assert headers["retry-after"] == str(expected)

    def test_deadline_expired_at_router_is_504(self, tmp_path):
        config = FabricConfig(
            fabric_dir=str(tmp_path), shards=1,
            probe_interval_s=0.2, probe_timeout_s=0.3,
        )
        ports = {0: _free_port()}
        hosted = _RouterThread(config, ports)
        try:
            # A budget that expired before the request even arrived:
            # the router must answer 504 itself, never forward.
            status, raw, _ = _request_with_headers(
                "127.0.0.1", hosted.port, "POST", "/predict", PREDICT,
                {DEADLINE_HEADER: "-1000"},
            )
        finally:
            hosted.close()
        assert status == 504
        assert json.loads(raw)["error"] == "deadline expired"


class _SlowShardHandler(_RecordingHandler):
    """A stub shard that answers only after 6.5 s: past the router's
    wait for a 0.5 s request deadline (0.5 s + 5 s slack)."""

    def _serve(self):
        time.sleep(6.5)
        super()._serve()

    do_GET = do_POST = _serve


@pytest.fixture()
def slow_shard():
    handler = type(
        "Handler", (_SlowShardHandler,), {"script": [], "seen": []}
    )
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], handler
    finally:
        server.shutdown()
        thread.join(timeout=5.0)


class TestRouterUpstreamWait:
    def test_wait_is_the_longest_class_deadline_plus_slack(self, tmp_path):
        plain = FabricConfig(fabric_dir=str(tmp_path))
        assert FabricRouter(plain, {})._upstream_timeout_s == 125.0
        routed = FabricConfig(
            fabric_dir=str(tmp_path),
            shard=ServiceConfig(
                cost_routing=True,
                cheap_timeout_s=2.0,
                expensive_timeout_s=300.0,
            ),
        )
        assert FabricRouter(routed, {})._upstream_timeout_s == 305.0

    def test_relays_an_expensive_answer_past_the_default_deadline(
        self, tmp_path, slow_shard
    ):
        # Cost routing lets the shard run an expensive job for 8 s, so
        # its answer at 6.5 s must be relayed, not cut off at 5.5 s.
        port, handler = slow_shard
        handler.script.append((200, {}, b'{"ok": true}'))
        config = FabricConfig(
            fabric_dir=str(tmp_path), shards=1, probe_interval_s=3600.0,
            shard=ServiceConfig(
                request_timeout_s=0.5,
                cost_routing=True,
                expensive_timeout_s=8.0,
            ),
        )
        hosted = _RouterThread(config, {0: port})
        try:
            status, body, headers = raw_request(
                "127.0.0.1", hosted.port, "POST", "/tune",
                {"stencil": "3d7pt", "grid": [64, 64, 64]},
            )
        finally:
            hosted.close()
        assert status == 200
        assert json.loads(body) == {"ok": True}
        assert headers["x-repro-shard"] == "0"

    def test_timeout_is_502_and_never_rerouted(self, tmp_path, slow_shard):
        # Past the wait the shard still holds the request: the router
        # answers 502 itself and neither marks it down nor replays it.
        port, _ = slow_shard
        config = FabricConfig(
            fabric_dir=str(tmp_path), shards=1, probe_interval_s=3600.0,
            shard=ServiceConfig(request_timeout_s=0.5),
        )
        hosted = _RouterThread(config, {0: port})
        try:
            status, body, _ = raw_request(
                "127.0.0.1", hosted.port, "POST", "/predict", PREDICT
            )
        finally:
            hosted.close()
        assert status == 502
        assert json.loads(body) == {"error": "shard timeout", "shard": "0"}
        assert hosted.router.down == set()
        assert hosted.router.counters["rerouted"] == 0


# ----------------------------------------------------------------------
# Byte identity: every knob off == the pre-overload-control service
# ----------------------------------------------------------------------
def _cfg(**kwargs) -> ServiceConfig:
    defaults = dict(port=0, executor="thread", workers=2)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


class TestByteIdentityWithFlagsOff:
    def test_default_surfaces_show_no_overload_keys(self):
        with BackgroundServer(_cfg()) as bg:
            envelope = bg.client.predict(**PREDICT)
            assert set(envelope) == {"endpoint", "served", "result"}
            health = bg.client.healthz()
            assert "brownout" not in health
            assert bg.client.slo() == {"enabled": False}
            metrics = bg.client.metrics()
            assert "overload" not in metrics
            for row in metrics["queues"].values():
                assert "adaptive_limit" not in row

    def test_deadline_header_alone_changes_nothing(self):
        with BackgroundServer(_cfg()) as bg:
            # Warm the response cache, then compare two *cache-served*
            # responses so both bodies are fully deterministic.
            raw_request("127.0.0.1", bg.port, "POST", "/predict", PREDICT)
            status_a, body_a, _ = raw_request(
                "127.0.0.1", bg.port, "POST", "/predict", PREDICT
            )
            # Same request with a generous deadline header attached.
            status_b, body_b, _ = _request_with_headers(
                "127.0.0.1", bg.port, "POST", "/predict", PREDICT,
                {DEADLINE_HEADER: "60000"},
            )
            assert (status_a, body_a) == (status_b, body_b)
            assert json.loads(body_a)["served"] == "response-cache"
            metrics = bg.client.metrics()
            assert "overload" not in metrics

    def test_adaptive_limits_surface_when_enabled(self):
        with BackgroundServer(_cfg(adaptive_limits=True)) as bg:
            bg.client.predict(**PREDICT)
            metrics = bg.client.metrics()
            assert "overload" in metrics
            cheap = metrics["overload"]["classes"]["cheap"]
            assert cheap["admitted"] >= 1
            assert cheap["admitted"] == cheap["executed"] + cheap["swept"]
            assert cheap["adaptive"]["ceiling"] >= 1
            for row in metrics["queues"].values():
                assert "adaptive_limit" in row
            status, body, _ = raw_request(
                "127.0.0.1", bg.port, "GET", "/metrics?format=prometheus"
            )
            assert status == 200
            families = parse_prometheus(body.decode())
            assert "repro_class_adaptive_limit" in families
            assert "repro_class_admitted_total" in families
            assert "repro_class_swept_total" in families

    def test_tight_deadline_is_rejected_with_429(self, monkeypatch):
        import repro.service.jobs as jobs

        real_predict = jobs.predict_job

        def slow_predict(payload):
            time.sleep(0.05)
            return real_predict(payload)

        monkeypatch.setitem(
            jobs.JOBS, "/predict", (jobs.normalize_predict, slow_predict)
        )
        with BackgroundServer(_cfg(workers=1)) as bg:
            # Warm the p95 tracker: every completion takes >= 50ms.
            for i in range(5):
                bg.client.predict(
                    stencil="3d7pt", grid=[16 + 2 * i, 16, 32]
                )
            # A 1ms budget can never cover the observed ~50ms p95: the
            # server must refuse fast instead of queueing a doomed job.
            status, raw, headers = _request_with_headers(
                "127.0.0.1", bg.port, "POST", "/predict",
                {"stencil": "3d7pt", "grid": [40, 40, 56]},
                {DEADLINE_HEADER: "1"},
            )
            assert status == 429
            body = json.loads(raw)
            assert body["error"] == "deadline too tight"
            assert body["queue_class"] == "cheap"
            assert body["observed_p95_ms"] >= 50.0
            assert "retry-after" in headers
            # The refusal is a shed, not a failure, in the ledger.
            outcomes = bg.client.metrics()["endpoints"]["/predict"][
                "outcomes"
            ]
            assert outcomes["shed"] == 1
            assert outcomes["failed"] == 0
