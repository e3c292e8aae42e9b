"""CLI tests (argument parsing and command output)."""

import argparse
import dataclasses

import pytest

from repro.cli import (
    EXPERIMENTS,
    _parse_shape,
    build_parser,
    main,
    serve_config,
)
from repro.fabric.config import FabricConfig, shard_service_config
from repro.service.config import ServiceConfig


class TestParsing:
    def test_parse_shape(self):
        assert _parse_shape("48x48x64") == (48, 48, 64)
        assert _parse_shape("8X8") == (8, 8)

    def test_parse_shape_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_shape("forty")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_shape("0x8")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_stencil_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "5dmagic"])

    def test_experiment_ids_complete(self):
        assert set(EXPERIMENTS) == {
            "t1", "t2", "t3", "t4", "f1", "f2", "f3", "f4", "f5", "f6", "f7",
            "f8", "f9", "f10", "f11",
        }


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "s3d7pt" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "CascadeLakeSP" in out and "Rome" in out

    def test_predict(self, capsys):
        code = main(
            ["predict", "3d7pt", "--grid", "16x16x32",
             "--cache-scale", "0.03125"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MLUP/s" in out and "cy/CL" in out

    def test_predict_explicit_block(self, capsys):
        code = main(
            ["predict", "3d7pt", "--grid", "16x16x32",
             "--block", "8x8x32", "--machine", "rome"]
        )
        assert code == 0
        assert "Rome" in capsys.readouterr().out

    def test_tune_ecm(self, capsys):
        code = main(
            ["tune", "3d7pt", "--grid", "16x16x32", "--tuner", "ecm"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "variants run     : 1" in out

    def test_experiment_t2(self, capsys):
        assert main(["experiment", "t2"]) == 0
        assert "Stencil suite" in capsys.readouterr().out

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out
        assert "repro.experiments.exp_f5_offsite_ranking" in out

    def test_experiment_without_id_errors(self, capsys):
        assert main(["experiment"]) == 2
        assert "error" in capsys.readouterr().err


class TestJsonOutput:
    """``--json`` emits the same serializer dicts the service uses."""

    def test_suite_json(self, capsys):
        import json

        assert main(["suite", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list)
        assert any("3d7pt" in str(row) for row in rows)

    def test_machines_json(self, capsys):
        import json

        assert main(["machines", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all({"CascadeLakeSP", "Rome"} <= set(row) for row in rows)
        assert rows[0]["characteristic"] == "Microarchitecture"

    def test_predict_json_matches_service_serializer(self, capsys):
        import json

        from repro.service.jobs import normalize_predict, predict_job

        argv = ["predict", "3d7pt", "--grid", "16x16x32",
                "--cache-scale", "0.03125"]
        assert main(argv + ["--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        expected = predict_job(normalize_predict(
            {"stencil": "3d7pt", "grid": [16, 16, 32],
             "cache_scale": 1 / 32}
        ))
        assert out == expected

    def test_tune_json(self, capsys):
        import json

        assert main(
            ["tune", "3d7pt", "--grid", "16x16x32", "--tuner", "ecm",
             "--json"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tuner"] == "ecm" and out["variants_run"] == 1
        assert out["best_mlups"] > 0
        assert out["stencil"] == "3d7pt" and out["grid"] == [16, 16, 32]


class TestRankCommand:
    def test_rank_human_output(self, capsys):
        assert main(
            ["rank", "--grid", "8x8x16", "--no-validate"]
        ) == 0
        out = capsys.readouterr().out
        assert "method  : PIRK[" in out
        assert "ivp     : grid8x8x16" in out
        assert "Variant ranking" in out
        assert "best    :" in out
        assert "tau" not in out  # no validation, no tau line

    def test_rank_validated_prints_tau(self, capsys):
        assert main(["rank", "--grid", "8x8x16"]) == 0
        out = capsys.readouterr().out
        assert "meas ms/step" in out
        assert "tau     :" in out and "top1_hit" in out

    def test_rank_json_matches_service_serializer(self, capsys):
        import json

        from repro.cachesim.memo import default_traffic_cache
        from repro.service.jobs import normalize_rank, rank_job

        argv = ["rank", "--grid", "8x8x16", "--no-validate", "--json"]
        default_traffic_cache().clear()
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        default_traffic_cache().clear()
        expected = rank_job(normalize_rank(
            {"grid": [8, 8, 16], "validate": False}
        ))
        # predict_seconds is wall clock; drop it on both sides.
        volatile = ("predict_seconds", "measure_seconds")
        strip = lambda d: {k: v for k, v in d.items() if k not in volatile}
        assert strip(out) == strip(expected)
        assert list(out) == list(expected)

    def test_rank_bad_block_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rank", "--block", "huge"])


class TestTraceFlag:
    def test_predict_trace_renders_span_tree_to_stderr(self, capsys):
        argv = ["predict", "3d7pt", "--grid", "16x16x32", "--trace"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "perf    :" in captured.out  # stdout unchanged
        err = captured.err
        assert "cli:predict" in err
        for name in ("engine.predict", "engine.yasksite",
                     "blocking.select", "ecm.predict"):
            assert name in err
        assert "ms" in err

    def test_predict_trace_json_emits_trace_to_stderr(self, capsys):
        import json

        argv = ["predict", "3d7pt", "--grid", "16x16x32",
                "--trace", "--json"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        result = json.loads(captured.out)
        assert result["grid"] == [16, 16, 32]
        trace = json.loads(captured.err)
        assert trace["name"] == "cli:predict"
        names = {c["name"] for c in trace["children"]}
        assert "engine.predict" in names

    def test_tune_trace_names_tuner_and_cachesim(self, capsys):
        argv = ["tune", "3d7pt", "--grid", "16x16x32",
                "--tuner", "greedy", "--trace"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        for name in ("cli:tune", "engine.tune", "tuner.greedy",
                     "tuner.evaluate", "cachesim.sweep"):
            assert name in err

    def test_trace_off_keeps_stderr_silent(self, capsys):
        assert main(["predict", "3d7pt", "--grid", "16x16x32"]) == 0
        assert capsys.readouterr().err == ""


class TestExperimentJson:
    def test_experiment_json_is_run_dict(self, capsys):
        import json

        assert main(["experiment", "t1", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "rows" in out


class TestErrorPath:
    def test_request_error_exits_2(self, capsys):
        # Grid/block rank mismatch passes argparse but fails engine
        # validation; main() maps RequestError onto exit code 2.
        argv = ["predict", "3d7pt", "--grid", "16x16", "--block", "8x8x8"]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# serve: flags -> ServiceConfig (one flag per field, one config)
# ----------------------------------------------------------------------
SERVE_FLAGS = [
    "--adaptive-limits", "--adaptive-target-ms", "--approx",
    "--approx-capacity", "--approx-confidence", "--breaker-recovery",
    "--breaker-threshold", "--brownout", "--brownout-approx-confidence",
    "--brownout-escalate", "--brownout-recover", "--cache-size",
    "--cheap-queue-limit", "--cheap-timeout", "--cost-routing",
    "--cost-threshold", "--db", "--drain-timeout", "--executor",
    "--expensive-queue-limit", "--expensive-timeout", "--expensive-workers",
    "--fabric-dir", "--flight-recorder", "--host", "--lease-ttl",
    "--no-degraded", "--port", "--queue-limit", "--shards", "--slo",
    "--slo-config", "--steal-interval", "--timeout", "--workers",
]

#: ServiceConfig fields no flag sets: the fabric sets the first three
#: per shard, code sets the last two.
FLAGLESS_FIELDS = {
    "shard_id", "db_dir", "job_dir", "max_body_bytes", "latency_reservoir",
}

#: ``repro serve`` with no flags (values pinned from the release
#: before flags were generated from the dataclass, except that
#: steal_interval_s is now 0.5 here too: inert without job_dir).
DEFAULT_SERVE = ServiceConfig(
    host="127.0.0.1",
    port=8753,
    workers=2,
    executor="process",
    queue_limit=64,
    response_cache_size=1024,
    request_timeout_s=120.0,
    drain_timeout_s=30.0,
    db_path=None,
    max_body_bytes=1 << 20,
    latency_reservoir=2048,
    breaker_threshold=5,
    breaker_recovery_s=30.0,
    degraded_mode=True,
    shard_id=None,
    db_dir=None,
    job_dir=None,
    lease_ttl_s=60.0,
    steal_interval_s=0.5,
    cost_routing=False,
    cost_threshold_s=0.25,
    cheap_queue_limit=None,
    expensive_queue_limit=None,
    cheap_timeout_s=None,
    expensive_timeout_s=None,
    expensive_workers=None,
    approx_enabled=False,
    approx_confidence=0.75,
    approx_capacity=512,
    adaptive_limits=False,
    adaptive_target_ms=500.0,
    brownout=False,
    brownout_approx_confidence=0.5,
    brownout_escalate_s=2.0,
    brownout_recover_s=5.0,
    slo_enabled=False,
    slo_config=None,
    flight_recorder=256,
)

#: Every service flag at a non-default value (``--db`` is added only in
#: single-process mode, where it is allowed).
ALL_FLAGS = [
    "--host", "127.0.0.2", "--port", "9999", "--workers", "3",
    "--executor", "thread", "--queue-limit", "7", "--cache-size", "11",
    "--timeout", "13.5", "--drain-timeout", "4.5",
    "--breaker-threshold", "9", "--breaker-recovery", "2.5",
    "--no-degraded", "--lease-ttl", "17", "--steal-interval", "0.25",
    "--cost-routing", "--cost-threshold", "0.5",
    "--cheap-queue-limit", "5", "--expensive-queue-limit", "3",
    "--cheap-timeout", "6.5", "--expensive-timeout", "300",
    "--expensive-workers", "1", "--approx", "--approx-confidence", "0.9",
    "--approx-capacity", "99", "--adaptive-limits",
    "--adaptive-target-ms", "250", "--brownout",
    "--brownout-approx-confidence", "0.3", "--brownout-escalate", "1.5",
    "--brownout-recover", "3.5", "--slo", "--slo-config",
    '{"objectives": []}', "--flight-recorder", "32",
]

ALL_FLAGS_SERVE = ServiceConfig(
    host="127.0.0.2",
    port=9999,
    workers=3,
    executor="thread",
    queue_limit=7,
    response_cache_size=11,
    request_timeout_s=13.5,
    drain_timeout_s=4.5,
    db_path="T.json",
    max_body_bytes=1 << 20,
    latency_reservoir=2048,
    breaker_threshold=9,
    breaker_recovery_s=2.5,
    degraded_mode=False,
    shard_id=None,
    db_dir=None,
    job_dir=None,
    lease_ttl_s=17.0,
    steal_interval_s=0.25,
    cost_routing=True,
    cost_threshold_s=0.5,
    cheap_queue_limit=5,
    expensive_queue_limit=3,
    cheap_timeout_s=6.5,
    expensive_timeout_s=300.0,
    expensive_workers=1,
    approx_enabled=True,
    approx_confidence=0.9,
    approx_capacity=99,
    adaptive_limits=True,
    adaptive_target_ms=250.0,
    brownout=True,
    brownout_approx_confidence=0.3,
    brownout_escalate_s=1.5,
    brownout_recover_s=3.5,
    slo_enabled=True,
    slo_config='{"objectives": []}',
    flight_recorder=32,
)


def _serve_config(*argv):
    return serve_config(build_parser().parse_args(["serve", *argv]))


def _serve_parser() -> argparse.ArgumentParser:
    sub = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return sub.choices["serve"]


class TestServeConfig:
    def test_flag_set_is_pinned(self):
        options = sorted(
            option
            for action in _serve_parser()._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        assert options == sorted(SERVE_FLAGS)
        assert len(options) == 35

    def test_every_field_has_a_flag_or_is_flagless(self):
        fields = dataclasses.fields(ServiceConfig)
        assert len(fields) == 38
        flagless = {f.name for f in fields if "flag" not in f.metadata}
        assert flagless == FLAGLESS_FIELDS
        flags = {f.metadata["flag"] for f in fields if "flag" in f.metadata}
        assert flags == set(SERVE_FLAGS) - {"--shards", "--fabric-dir"}

    def test_default_single_process(self):
        config = _serve_config()
        assert type(config) is ServiceConfig
        assert config == DEFAULT_SERVE

    def test_default_fabric_shards(self):
        config = _serve_config("--shards", "2", "--fabric-dir", "FD")
        assert isinstance(config, FabricConfig)
        topology = (config.fabric_dir, config.host, config.port)
        assert topology == ("FD", "127.0.0.1", 8753)
        assert config.shards == 2
        for index in range(2):
            assert shard_service_config(config, index) == dataclasses.replace(
                DEFAULT_SERVE,
                port=0,
                shard_id=index,
                db_dir="FD/db",
                job_dir="FD/jobs",
            )

    def test_every_flag_set(self):
        assert _serve_config(*ALL_FLAGS, "--db", "T.json") == ALL_FLAGS_SERVE

    def test_every_flag_set_fabric(self):
        config = _serve_config(
            *ALL_FLAGS, "--shards", "2", "--fabric-dir", "FD"
        )
        assert (config.host, config.port) == ("127.0.0.2", 9999)
        assert shard_service_config(config, 1) == dataclasses.replace(
            ALL_FLAGS_SERVE,
            port=0,
            db_path=None,
            shard_id=1,
            db_dir="FD/db",
            job_dir="FD/jobs",
        )

    @pytest.mark.parametrize(
        "argv", [["--brownout"], ["--slo-config", "slo.json"]]
    )
    def test_brownout_and_slo_config_imply_slo(self, argv):
        assert _serve_config(*argv).slo_enabled is True

    def test_shards_require_fabric_dir(self, capsys):
        assert main(["serve", "--shards", "2"]) == 2
        assert "--shards requires --fabric-dir" in capsys.readouterr().err

    def test_db_refused_with_shards(self, capsys, tmp_path):
        argv = ["serve", "--shards", "2", "--fabric-dir", str(tmp_path),
                "--db", "T.json"]
        assert main(argv) == 2
        assert "--db is single-process only" in capsys.readouterr().err

    def test_invalid_shard_knob_raises_at_fabric_construction(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            FabricConfig(
                fabric_dir=str(tmp_path), shard=ServiceConfig(workers=0)
            )
        # A knob only the fabric rejects: db_path excludes the
        # segmented database every shard runs.
        with pytest.raises(ValueError, match="db_path"):
            FabricConfig(
                fabric_dir=str(tmp_path), shard=ServiceConfig(db_path="x")
            )
        with pytest.raises(TypeError):
            FabricConfig(fabric_dir=str(tmp_path), shard={"workers": 1})
