"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``suite``
    Print the stencil-suite characteristics table (T2).
``machines``
    Print the evaluation-platform table (T1).
``predict``
    ECM prediction for one stencil/grid/machine configuration.
``tune``
    Run a tuner (ecm / exhaustive / greedy) and print the ledger.
``rank``
    Offsite PIRK variant ranking for one (method, grid, machine).
``experiment``
    Run one of the reconstructed experiments by id (t1, f2, ...);
    ``--list`` prints the id → module table.
``serve``
    Start the async tuning/prediction HTTP service.

``predict``, ``tune`` and ``rank`` are thin adapters over
:mod:`repro.engine` — flags become a request payload, the engine runs
it, and ``--json`` emits the canonical serializer output
(:mod:`repro.service.serializers`), so the JSON bytes on stdout equal
the ``result`` object the service responds with for the same request.
``--trace`` additionally records an :mod:`repro.obs` span tree of the
run and writes it to stderr (rendered, or as JSON with ``--json``),
keeping stdout unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
import time
import typing

from repro import obs
from repro.engine import (
    PredictRequest,
    RankRequest,
    RequestError,
    TuneRequest,
    default_engine,
)
from repro.offsite.tuner import TABLEAU_FAMILIES
from repro.stencil.library import STENCIL_SUITE, suite_table
from repro.util.tables import format_table

if typing.TYPE_CHECKING:
    from repro.fabric.config import FabricConfig
    from repro.service.config import ServiceConfig

EXPERIMENTS = {
    "t1": "exp_t1_machines",
    "t2": "exp_t2_stencils",
    "t3": "exp_t3_tuning_cost",
    "t4": "exp_t4_codegen_cost",
    "f1": "exp_f1_ecm_validation",
    "f2": "exp_f2_block_sweep",
    "f3": "exp_f3_scaling",
    "f4": "exp_f4_temporal",
    "f5": "exp_f5_offsite_ranking",
    "f6": "exp_f6_ode_speedup",
    "f7": "exp_f7_ablation_lc",
    "f8": "exp_f8_incore_detail",
    "f9": "exp_f9_overlap",
    "f10": "exp_f10_database",
    "f11": "exp_f11_distributed",
}


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}; expected e.g. 48x48x64"
        ) from None
    if not shape or any(s <= 0 for s in shape):
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    return shape


def _parse_block_policy(text: str) -> tuple[int, ...] | str:
    if text == "auto":
        return "auto"
    return _parse_shape(text)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="YaskSite reproduction (CGO 2021) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suite = sub.add_parser("suite", help="print the stencil suite table")
    suite.add_argument("--json", action="store_true", help="emit JSON rows")
    machines = sub.add_parser("machines", help="print the platform table")
    machines.add_argument(
        "--json", action="store_true", help="emit JSON rows"
    )

    pred = sub.add_parser("predict", help="ECM prediction for one config")
    pred.add_argument("stencil", choices=sorted(STENCIL_SUITE))
    pred.add_argument("--grid", type=_parse_shape, default=(48, 48, 64))
    pred.add_argument("--machine", default="clx")
    pred.add_argument("--block", type=_parse_shape, default=None)
    pred.add_argument("--cache-scale", type=float, default=None)
    pred.add_argument(
        "--predictor",
        choices=("auto", "lc", "simulate"),
        default="auto",
        help="traffic-predictor selection (accepted for interface "
        "symmetry; prediction is purely analytic, so no traffic is "
        "simulated either way)",
    )
    pred.add_argument("--json", action="store_true", help="emit JSON")
    pred.add_argument(
        "--trace",
        action="store_true",
        help="write a span tree of the run to stderr",
    )

    tune = sub.add_parser("tune", help="tune a stencil on a machine")
    tune.add_argument("stencil", choices=sorted(STENCIL_SUITE))
    tune.add_argument("--grid", type=_parse_shape, default=(48, 48, 64))
    tune.add_argument("--machine", default="clx")
    tune.add_argument(
        "--tuner", choices=("ecm", "exhaustive", "greedy"), default="ecm"
    )
    tune.add_argument("--cache-scale", type=float, default=1 / 32)
    tune.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for variant evaluation (empirical tuners)",
    )
    tune.add_argument(
        "--checkpoint",
        default=None,
        help="path of a crash-safe checkpoint file: completed variant "
        "measurements are persisted there and resumed on rerun "
        "(empirical tuners)",
    )
    tune.add_argument(
        "--predictor",
        choices=("auto", "simulate"),
        default="auto",
        help="traffic predictor for variant evaluation: 'auto' serves "
        "the layer-condition fast path when provably exact (falling "
        "back to the cache replay), 'simulate' always replays; both "
        "produce bit-identical reports, so winners match exactly, and "
        "the JSON ledger records which path served each variant "
        "(traffic_cache.lc_served / sim_served).  'lc' is tune-invalid: "
        "tuner sweeps include blocked variants the analysis never "
        "certifies, so forcing it could only fail",
    )
    tune.add_argument("--json", action="store_true", help="emit JSON")
    tune.add_argument(
        "--trace",
        action="store_true",
        help="write a span tree of the run to stderr",
    )

    rank = sub.add_parser(
        "rank", help="Offsite PIRK variant ranking for one method/grid"
    )
    rank.add_argument(
        "--method", choices=sorted(TABLEAU_FAMILIES), default="radau_iia"
    )
    rank.add_argument("--stages", type=int, default=4)
    rank.add_argument("--corrector-steps", type=int, default=3)
    rank.add_argument("--grid", type=_parse_shape, default=(16, 16, 32))
    rank.add_argument("--machine", default="clx")
    rank.add_argument("--cache-scale", type=float, default=1 / 32)
    rank.add_argument(
        "--block",
        type=_parse_block_policy,
        default=None,
        help="explicit block (e.g. 8x8x32), 'auto', or omit for whole-grid",
    )
    rank.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the simulated measurements (pure offline ranking)",
    )
    rank.add_argument("--seed", type=int, default=0)
    rank.add_argument(
        "--checkpoint",
        default=None,
        help="path of a crash-safe checkpoint file for the validation "
        "measurements (resumed on rerun)",
    )
    rank.add_argument(
        "--predictor",
        choices=("auto", "lc", "simulate"),
        default="auto",
        help="traffic-predictor selection (accepted for interface "
        "symmetry; ranking measures composite multi-sweep streams, "
        "which always replay)",
    )
    rank.add_argument("--json", action="store_true", help="emit JSON")
    rank.add_argument(
        "--trace",
        action="store_true",
        help="write a span tree of the run to stderr",
    )

    exp = sub.add_parser("experiment", help="run a reconstructed experiment")
    exp.add_argument("id", nargs="?", choices=sorted(EXPERIMENTS))
    exp.add_argument(
        "--list",
        action="store_true",
        help="print the experiment id → module table",
    )
    exp.add_argument(
        "--json",
        action="store_true",
        help="emit the experiment's raw result dict as JSON",
    )

    serve = sub.add_parser(
        "serve", help="start the async tuning/prediction HTTP service"
    )
    _add_service_flags(serve)
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run a sharded fabric with this many shard processes "
        "behind a consistent-hash router (0 = single process)",
    )
    serve.add_argument(
        "--fabric-dir",
        default=None,
        help="fabric state directory (segmented database, job ledger, "
        "port files); required with --shards",
    )

    obs_cmd = sub.add_parser(
        "obs", help="observability of a running server or fabric"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    tail = obs_sub.add_parser(
        "tail",
        help="print the newest flight-recorder entries "
        "(attribute a p99 spike or burn alert to actual requests)",
    )
    tail.add_argument("--host", default="127.0.0.1")
    tail.add_argument("--port", type=int, default=8753)
    tail.add_argument(
        "--n", type=int, default=20, help="entries to show (newest first)"
    )
    tail.add_argument(
        "--endpoint", default=None, help="only this endpoint (e.g. /tune)"
    )
    tail.add_argument(
        "--outcome", default=None,
        help="only this outcome (e.g. failed, shed)",
    )
    tail.add_argument(
        "--min-ms", type=float, default=None,
        help="only requests at least this slow",
    )
    tail.add_argument("--json", action="store_true", help="emit JSON")
    slo_status = obs_sub.add_parser(
        "slo", help="print a server's SLO objectives and burn rates"
    )
    slo_status.add_argument("--host", default="127.0.0.1")
    slo_status.add_argument("--port", type=int, default=8753)
    slo_status.add_argument("--json", action="store_true", help="emit JSON")
    slo_status.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="N",
        help="poll every N seconds instead of printing once "
        "(watch burn rates and brownout transitions live; ctrl-C "
        "to stop)",
    )
    slo_status.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="K",
        help="with --watch: stop after K polls (default: forever)",
    )

    store = sub.add_parser(
        "store", help="inspect the unified store tier stack"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats",
        help="print a running server's per-tier ledger table "
        "(hits/misses/puts/evictions/hit-rate)",
    )
    store_stats.add_argument("--host", default="127.0.0.1")
    store_stats.add_argument("--port", type=int, default=8753)
    store_stats.add_argument("--json", action="store_true", help="emit JSON")

    fabric = sub.add_parser(
        "fabric", help="inspect or maintain a running/settled fabric"
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)
    status = fabric_sub.add_parser(
        "status", help="print a router's health + metric fan-in"
    )
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=8750)
    status.add_argument("--json", action="store_true", help="emit JSON")
    compact = fabric_sub.add_parser(
        "compact",
        help="merge a fabric's database segments into the base segment",
    )
    compact.add_argument(
        "--db-dir",
        required=True,
        help="the fabric's segmented database directory (<fabric_dir>/db)",
    )
    compact.add_argument("--json", action="store_true", help="emit JSON")

    return parser


def _traced(args: argparse.Namespace, name: str, fn):
    """Run ``fn`` (optionally under a trace emitted to stderr)."""
    if not args.trace:
        return fn()
    trace = obs.start_trace(name)
    try:
        result = fn()
    finally:
        root = trace.finish()
        if args.json:
            print(json.dumps(root.to_dict(), indent=2), file=sys.stderr)
        else:
            print(obs.render_trace(root), file=sys.stderr)
    return result


def cmd_suite(args: argparse.Namespace) -> int:
    rows = suite_table()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(format_table(rows, title="Stencil suite"))
    return 0


def cmd_machines(args: argparse.Namespace) -> int:
    from repro.experiments.exp_t1_machines import run

    rows = run()["rows"]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(format_table(rows, title="Evaluation platforms"))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    request = PredictRequest.from_payload(
        {
            "stencil": args.stencil,
            "grid": list(args.grid),
            "machine": args.machine,
            "block": list(args.block) if args.block else None,
            "cache_scale": args.cache_scale,
        }
    )
    res = _traced(
        args, "cli:predict", lambda: default_engine().predict(request)
    )
    if args.json:
        from repro.service.serializers import predict_result_to_dict

        print(json.dumps(predict_result_to_dict(res), indent=2))
        return 0
    print(f"stencil : {res.stencil}")
    print(f"machine : {res.machine}")
    print(f"plan    : {res.plan.label}")
    print(f"ECM     : {res.ecm_notation}")
    print(f"regimes : {'/'.join(res.regimes)}")
    print(f"perf    : {res.mlups:.1f} MLUP/s (single core)")
    print(f"mem     : {res.mem_bytes_per_lup:.1f} B/LUP")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    request = TuneRequest.from_payload(
        {
            "stencil": args.stencil,
            "grid": list(args.grid),
            "machine": args.machine,
            "tuner": args.tuner,
            "cache_scale": args.cache_scale,
            "workers": args.workers,
            "predictor": args.predictor,
        }
    )
    if args.checkpoint:
        # checkpoint is execution-only (never part of request identity,
        # never read from remote payloads), so it rides constructor-side.
        import dataclasses

        request = dataclasses.replace(request, checkpoint=args.checkpoint)
    res = _traced(args, "cli:tune", lambda: default_engine().tune(request))
    if args.json:
        from repro.service.serializers import tune_result_to_dict

        print(json.dumps(tune_result_to_dict(res), indent=2))
        return 0
    print(f"tuner            : {res.tuner}")
    print(f"variants examined: {res.variants_examined}")
    print(f"variants run     : {res.variants_run}")
    print(f"workers          : {res.workers}")
    print(
        f"traffic cache    : {res.traffic_cache.hits} hits / "
        f"{res.traffic_cache.misses} misses"
    )
    cache = res.traffic_cache
    if cache.lc_served or cache.sim_served:
        parts = [f"lc={cache.lc_served}", f"sim={cache.sim_served}"]
        if cache.lc_validation_mismatch:
            parts.append(f"MISMATCH={cache.lc_validation_mismatch}")
        print(f"predictor        : {' '.join(parts)}")
    if not res.recovery.clean:
        rec = res.recovery
        parts = [f"retried={rec.retried_jobs}"]
        if rec.resumed_jobs:
            parts.append(f"resumed={rec.resumed_jobs}")
        if rec.failed_jobs:
            parts.append(f"failed={len(rec.failed_jobs)}")
        if rec.skipped_jobs:
            parts.append(f"skipped={len(rec.skipped_jobs)}")
        if rec.pool_restarts:
            parts.append(f"pool_restarts={rec.pool_restarts}")
        if rec.in_process_fallback:
            parts.append("in_process_fallback")
        if rec.degraded:
            parts.append("DEGRADED")
        print(f"recovery         : {' '.join(parts)}")
    print(f"best plan        : {res.best_plan.label}")
    print(f"best performance : {res.best_mlups:.1f} MLUP/s")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    if isinstance(args.block, tuple):
        block: list[int] | str | None = list(args.block)
    else:
        block = args.block
    request = RankRequest.from_payload(
        {
            "method": args.method,
            "stages": args.stages,
            "corrector_steps": args.corrector_steps,
            "grid": list(args.grid),
            "machine": args.machine,
            "cache_scale": args.cache_scale,
            "block": block,
            "validate": not args.no_validate,
            "seed": args.seed,
        }
    )
    if args.checkpoint:
        import dataclasses

        request = dataclasses.replace(request, checkpoint=args.checkpoint)
    res = _traced(args, "cli:rank", lambda: default_engine().rank(request))
    if args.json:
        from repro.service.serializers import rank_result_to_dict

        print(json.dumps(rank_result_to_dict(res), indent=2))
        return 0
    print(f"method  : {res.method}")
    print(f"ivp     : {res.ivp}")
    print(f"machine : {res.machine}")
    rows = []
    for t in sorted(res.timings, key=lambda t: t.predicted_s):
        row = {
            "variant": t.variant,
            "pred ms/step": round(t.predicted_s * 1e3, 3),
            "sweeps/step": t.sweeps_per_step,
        }
        if t.measured_s is not None:
            row["meas ms/step"] = round(t.measured_s * 1e3, 3)
            row["err %"] = round(t.error_pct, 1)
        rows.append(row)
    print(format_table(rows, title="Variant ranking"))
    print(f"best    : {res.best_variant}")
    if res.kendall_tau is not None:
        print(f"tau     : {res.kendall_tau:.3f}  top1_hit: {res.top1_hit}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.list:
        rows = [
            {"id": exp_id, "module": f"repro.experiments.{module}"}
            for exp_id, module in sorted(EXPERIMENTS.items())
        ]
        print(format_table(rows, title="Experiments"))
        return 0
    if args.id is None:
        print("error: experiment needs an id (or --list)", file=sys.stderr)
        return 2
    module = importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[args.id]}"
    )
    if args.json:
        print(json.dumps(module.run(), indent=2))
        return 0
    module.main()
    return 0


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    """One ``serve`` flag per :class:`ServiceConfig` field that names
    one in its metadata; the parsed value lands under the field name."""
    from repro.service.config import ServiceConfig

    hints = typing.get_type_hints(ServiceConfig)
    for f in dataclasses.fields(ServiceConfig):
        if "flag" not in f.metadata:
            continue
        kwargs = dict(f.metadata)
        flag = kwargs.pop("flag")
        if isinstance(f.default, bool):
            kwargs["action"] = "store_false" if f.default else "store_true"
        else:
            # ``int | None`` parses as int; the None default stays None.
            hint = hints[f.name]
            types = [t for t in typing.get_args(hint) if t is not type(None)]
            kwargs["type"] = types[0] if types else hint
            kwargs["default"] = f.default
            if "choices" not in kwargs:
                # Name the value after the flag, not after the field.
                metavar = flag[2:].replace("-", "_").upper()
                kwargs.setdefault("metavar", metavar)
        parser.add_argument(flag, dest=f.name, **kwargs)


def serve_config(
    args: argparse.Namespace,
) -> ServiceConfig | FabricConfig:
    """The one config ``serve`` runs: a :class:`ServiceConfig` built
    from the flags, wrapped in a :class:`FabricConfig` with
    ``--shards``."""
    from repro.service.config import ServiceConfig

    values = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ServiceConfig)
        if "flag" in f.metadata
    }
    # The brownout ladder and custom objectives need the SLO engine.
    values["slo_enabled"] = (
        args.slo_enabled or args.brownout or args.slo_config is not None
    )
    config = ServiceConfig(**values)
    if not args.shards:
        return config
    from repro.fabric.config import FabricConfig

    return FabricConfig(
        fabric_dir=args.fabric_dir,
        host=config.host,
        port=config.port,
        shards=args.shards,
        shard=config,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.shards and not args.fabric_dir:
        print("error: --shards requires --fabric-dir", file=sys.stderr)
        return 2
    if args.shards and args.db_path:
        print(
            "error: --db is single-process only; the fabric uses a "
            "segmented database under --fabric-dir",
            file=sys.stderr,
        )
        return 2
    config = serve_config(args)
    if args.shards:
        from repro.fabric import serve_fabric

        asyncio.run(serve_fabric(config))
    else:
        from repro.service.server import serve

        asyncio.run(serve(config))
    return 0


def _obs_slo_once(client, args: argparse.Namespace) -> int:
    """One ``repro obs slo`` status report; exit 1 while alerts fire."""
    document = client.slo()
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    if not document.get("enabled"):
        print("SLO engine not enabled (start with --slo)")
        return 1
    objectives = document.get("objectives") or []
    # A router /slo carries per-shard documents instead.
    shard_docs = document.get("shards")
    if not objectives and isinstance(shard_docs, dict):
        for member, doc in sorted(shard_docs.items()):
            for obj in doc.get("objectives") or ():
                objectives.append({**obj, "name": f"{obj['name']}@{member}"})
    rows = []
    for obj in objectives:
        burns = {
            label: row.get("burn_rate")
            for label, row in (obj.get("windows") or {}).items()
        }
        rows.append({
            "objective": obj.get("name"),
            "type": obj.get("type"),
            "state": obj.get("state"),
            "budget": obj.get("budget"),
            "burn": " ".join(
                f"{label}={value}" for label, value in burns.items()
            ),
        })
    print(format_table(rows, title="SLO objectives"))
    # Brownout: present only when the server runs with --brownout
    # (per-shard when the document came from a router fan-in).
    brownouts = []
    if isinstance(document.get("brownout"), dict):
        brownouts.append((None, document["brownout"]))
    elif isinstance(shard_docs, dict):
        for member, doc in sorted(shard_docs.items()):
            if isinstance(doc.get("brownout"), dict):
                brownouts.append((member, doc["brownout"]))
    for member, brownout in brownouts:
        where = f" shard={member}" if member is not None else ""
        print(
            f"brownout{where}: stage={brownout.get('stage')} "
            f"({brownout.get('state')}) "
            f"escalations={brownout.get('escalations')} "
            f"recoveries={brownout.get('recoveries')}"
        )
    alerts = document.get("alerts") or []
    for alert in alerts:
        shard = alert.get("shard")
        where = f" shard={shard}" if shard is not None else ""
        print(
            f"ALERT[{alert.get('severity')}] "
            f"{alert.get('objective')}{where} "
            f"burn={alert.get('burn_rates')}"
        )
    return 0 if not alerts else 1


def cmd_obs(args: argparse.Namespace) -> int:
    """``repro obs tail`` / ``repro obs slo``: triage a live server."""
    from repro.service.client import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    if args.obs_command == "slo":
        watch = getattr(args, "watch", None)
        if watch is None:
            return _obs_slo_once(client, args)
        if watch <= 0:
            print("error: --watch period must be positive", file=sys.stderr)
            return 2
        # Polling mode: one status block per period so the overload
        # drill (and an operator mid-incident) can watch burn rates
        # and brownout transitions without a shell loop.
        iterations = getattr(args, "iterations", None)
        polls = 0
        status = 0
        try:
            while iterations is None or polls < iterations:
                if polls:
                    time.sleep(watch)
                print(f"--- poll {polls + 1} ---", flush=True)
                try:
                    status = _obs_slo_once(client, args)
                except (ConnectionError, OSError) as exc:
                    print(f"(unreachable: {exc})", flush=True)
                    status = 1
                polls += 1
        except KeyboardInterrupt:
            pass
        return status

    document = client.debug_requests(
        n=args.n,
        endpoint=args.endpoint,
        outcome=args.outcome,
        min_ms=args.min_ms,
    )
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    print(
        f"flight recorder: held={document.get('held')} "
        f"recorded={document.get('recorded')} "
        f"dropped={document.get('dropped', '-')}"
    )
    for entry in document.get("requests") or ():
        shard = entry.get("shard")
        where = f" shard={shard}" if shard is not None else ""
        stages = entry.get("stages_ms") or {}
        stage_text = " ".join(
            f"{name}={value}" for name, value in sorted(stages.items())
        )
        print(
            f"#{entry.get('seq')} ts={entry.get('ts'):.3f} "
            f"{entry.get('endpoint')} {entry.get('outcome')} "
            f"http={entry.get('status')} "
            f"{entry.get('latency_ms')}ms served={entry.get('served')}"
            f" class={entry.get('queue_class', '-')}{where}"
            + (f"  [{stage_text}]" if stage_text else "")
        )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """``repro store stats``: one server's unified tier-ledger table."""
    from repro.service.client import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    metrics = client.metrics()
    tiers = metrics.get("tiers", {})
    # A fabric router reports per-shard snapshots + an aggregate; fall
    # back to the aggregate's tier table so one command covers both.
    if not tiers:
        tiers = metrics.get("aggregate", {}).get("tiers", {})
    if args.json:
        print(json.dumps(
            {"tiers": tiers, "queues": metrics.get("queues", {})}, indent=2
        ))
        return 0
    rows = []
    for name, ledger in sorted(tiers.items()):
        rate = ledger.get("hit_rate")
        rows.append({
            "tier": name,
            "hits": ledger.get("hits", 0),
            "misses": ledger.get("misses", 0),
            "puts": ledger.get("puts", 0),
            "evictions": ledger.get("evictions", 0),
            "size": ledger.get("size", ""),
            "hit_rate": f"{rate:.3f}" if rate is not None else "-",
        })
    print(format_table(rows, title="Store tiers"))
    queues = metrics.get("queues", {})
    for cls, gauges in sorted(queues.items()):
        print(
            f"queue {cls:<10}: pending={gauges.get('pending', 0)} "
            f"limit={gauges.get('limit', 0)} shed={gauges.get('shed', 0)} "
            f"deadline_s={gauges.get('deadline_s')}"
        )
    return 0


def cmd_fabric(args: argparse.Namespace) -> int:
    if args.fabric_command == "compact":
        from repro.util.segdb import SegmentedTuningDatabase

        report = SegmentedTuningDatabase.compact(args.db_dir)
        if args.json:
            print(json.dumps(report, indent=2))
            return 0
        print(f"records          : {report['records']}")
        print(f"segments merged  : {report['segments_merged']}")
        print(f"segments removed : {report['segments_removed']}")
        if report["segments_skipped"]:
            print(
                "segments skipped : "
                + ", ".join(report["segments_skipped"])
                + " (newer schema)"
            )
        return 0

    from repro.service.client import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    health = client.healthz()
    metrics = client.metrics() if health.get("http_status") != 0 else {}
    if args.json:
        print(json.dumps({"healthz": health, "metrics": metrics}, indent=2))
        return 0
    print(f"router  : http://{args.host}:{args.port}  "
          f"status={health.get('status')}")
    for member, info in sorted(health.get("shards", {}).items()):
        state = "up" if info.get("up") else "DOWN"
        print(f"shard {member} : {state}  port={info.get('port')}")
    aggregate = metrics.get("aggregate", {})
    if aggregate:
        print(f"requests: {aggregate.get('requests', 0)}  "
              f"steal={aggregate.get('steal')}")
    return 0 if health.get("status") in ("ok", "degraded") else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "suite":
            return cmd_suite(args)
        if args.command == "machines":
            return cmd_machines(args)
        if args.command == "predict":
            return cmd_predict(args)
        if args.command == "tune":
            return cmd_tune(args)
        if args.command == "rank":
            return cmd_rank(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "obs":
            return cmd_obs(args)
        if args.command == "store":
            return cmd_store(args)
        if args.command == "fabric":
            return cmd_fabric(args)
        return cmd_experiment(args)
    except RequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
