"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Print the paper's Table I from the model registry.
``train``
    Measure one training deployment (model x backend x GPUs).
``bench``
    Run a named paper experiment and print its table.
``tune``
    Run the Section VI auto-tuner on a deployment.
``translate``
    Port a Horovod or sequential training script to the Perseus API.
``faults``
    Inject node crashes into a simulated run and report the measured
    recovery trajectory (detection latency, rebuild time, goodput).
``chaos``
    Soak the elastic runtime under random schedules mixing crashes,
    flaps, stragglers, clean leaves and joins: every seed must
    terminate (complete or typed clean failure) with a deterministic
    outcome digest across replays.
``report``
    Run one fully-instrumented iteration and emit the observability
    report: per-rank step-time attribution, per-stream lane usage,
    per-link utilisation, plus Perfetto/Prometheus/JSONL artifacts.
    With ``--from-campaign`` it instead renders a campaign's durable
    results store.
``campaign``
    Crash-safe experiment campaigns over a durable SQLite results
    store: ``submit`` a parameter grid, ``run`` it across a process
    pool, ``status`` it, ``resume`` an interrupted campaign (workers or
    the orchestrator may be killed at any instant), ``report`` the
    recorded results with a resume-invariant digest, and ``diff`` two
    stores cell by cell (non-zero exit on divergence).
``cluster``
    Multi-tenant shared fabric: run the committed 3-job contention
    scenario with admission control, job-tagged flows, per-job SLO
    sentinels and the staged degradation ladder; ``--check-isolation``
    verifies chaos on one tenant leaves the neighbors' numeric digests
    bit-identical, ``--check-replay`` verifies determinism, and
    ``--expect-digest`` pins the cluster digest (CI golden).
``diagnose``
    Self-diagnosing runtime: run the benchmark baseline scenario under
    streaming detectors, emit typed findings (markdown/JSONL/Perfetto
    annotations), and evaluate the declarative SLOs against the pinned
    ``BENCH_simulator.json`` baseline (or a campaign store).  Exits
    non-zero on an SLO breach (2) or on findings at/above ``--fail-on``
    (3); ``--from-artifacts``/``--from-campaign`` re-diagnose recorded
    runs instead of simulating.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import typing as t

from repro.errors import ReproError

#: Experiment name -> harness function (resolved lazily).
EXPERIMENTS = (
    "fig2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "scaling", "ctr", "dawnbench", "autotune", "bandwidth", "congested",
    "planner", "insightface", "futuregpu",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIACC-Training reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_check_invariants(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--check-invariants", action="store_true",
            help="run under the simulation-wide invariant checker "
            "(resource accounting, cross-worker agreement, replay "
            "digest); equivalent to REPRO_CHECK_INVARIANTS=1")

    sub.add_parser("table1", help="print Table I (model characteristics)")

    train = sub.add_parser("train", help="measure one deployment")
    train.add_argument("--model", default="resnet50")
    train.add_argument("--backend", default="aiacc",
                       help="aiacc|horovod|pytorch-ddp|byteps|mxnet-kvstore")
    train.add_argument("--gpus", type=int, default=32)
    train.add_argument("--batch", type=int, default=None)
    train.add_argument("--rdma", action="store_true",
                       help="use the RDMA transport (100 Gbps)")
    train.add_argument("--streams", type=int, default=None,
                       help="AIACC stream count (default: tuned heuristic)")
    train.add_argument("--granularity-mb", type=float, default=None,
                       help="AIACC unit granularity in MB")
    add_check_invariants(train)

    bench = sub.add_parser("bench", help="run a paper experiment")
    bench.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    add_check_invariants(bench)

    tune = sub.add_parser("tune", help="run the §VI auto-tuner")
    tune.add_argument("--model", default="resnet50")
    tune.add_argument("--gpus", type=int, default=64)
    tune.add_argument("--budget", type=int, default=40)
    tune.add_argument("--seed", type=int, default=0)
    add_check_invariants(tune)

    translate = sub.add_parser("translate",
                               help="port a script to the Perseus API")
    translate.add_argument("script", type=pathlib.Path)
    translate.add_argument("--mode", choices=("horovod", "sequential"),
                           default="horovod")
    translate.add_argument("--workers", type=int, default=8)
    translate.add_argument("--output", type=pathlib.Path, default=None,
                           help="write here instead of stdout")

    faults = sub.add_parser(
        "faults", help="fault-injected training with self-healing recovery")
    faults.add_argument("--model", default="resnet50")
    faults.add_argument("--gpus", type=int, default=16)
    faults.add_argument("--iterations", type=int, default=20)
    faults.add_argument("--checkpoint-interval", type=int, default=5)
    faults.add_argument("--crash-node", type=int, action="append",
                        default=None,
                        help="node index to crash (repeatable; "
                        "default: node 1)")
    faults.add_argument("--crash-at", type=float, action="append",
                        default=None,
                        help="injection time in simulated seconds for the "
                        "matching --crash-node (default: 25%% of the run)")
    faults.add_argument("--mtbf", type=float, default=None,
                        help="draw a Poisson crash schedule with this mean "
                        "time between failures instead of --crash-node")
    faults.add_argument("--seed", type=int, default=0,
                        help="random seed for the --mtbf schedule")
    faults.add_argument("--sync-timeout", type=float, default=1.0)
    faults.add_argument("--unit-timeout", type=float, default=2.0)
    faults.add_argument("--retries", type=int, default=1)
    faults.add_argument("--trace-out", type=pathlib.Path, default=None,
                        help="write a Chrome trace JSON of the run")
    add_check_invariants(faults)

    chaos = sub.add_parser(
        "chaos", help="chaos soak: random crash/leave/join schedules")
    chaos.add_argument("--seeds", type=int, default=20,
                       help="number of random schedules (seeds 0..N-1)")
    chaos.add_argument("--seed-base", type=int, default=0,
                       help="first seed of the sweep")
    chaos.add_argument("--replays", type=int, default=2,
                       help="replays per seed; outcome digests must match")
    chaos.add_argument("--gpus", type=int, default=8)
    chaos.add_argument("--gpus-per-node", type=int, default=2)
    chaos.add_argument("--iterations", type=int, default=12)
    chaos.add_argument("--mtbf", type=float, default=0.35,
                       help="mean seconds between scheduled faults")
    chaos.add_argument("--horizon", type=float, default=2.5,
                       help="fault schedule horizon in simulated seconds")
    chaos.add_argument("--jsonl", type=pathlib.Path, default=None,
                       help="write the per-seed recovery/epoch timeline "
                       "here (JSONL)")

    report = sub.add_parser(
        "report", help="step-time attribution report with trace artifacts")
    report.add_argument("--model", default="resnet50")
    report.add_argument("--nodes", type=int, default=2)
    report.add_argument("--gpus-per-node", type=int, default=2)
    report.add_argument("--streams", type=int, default=None,
                        help="AIACC stream count (default: config default)")
    report.add_argument("--granularity-mb", type=float, default=None,
                        help="AIACC unit granularity in MB")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("results/report"),
                        help="directory for trace.json / timeline.jsonl / "
                        "metrics.prom")
    report.add_argument("--from-campaign", type=pathlib.Path, default=None,
                        metavar="STORE",
                        help="render a campaign results store instead of "
                        "running a simulation (typed error on a missing "
                        "or corrupt store)")
    report.add_argument("--campaign-id", type=int, default=None,
                        help="campaign id inside --from-campaign "
                        "(default: the latest)")

    campaign = sub.add_parser(
        "campaign",
        help="crash-safe experiment campaigns over a durable store")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def add_store(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--store", type=pathlib.Path,
                         default=pathlib.Path("results/campaigns.db"),
                         help="SQLite results store "
                         "(default: results/campaigns.db)")

    def add_runner_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--workers", type=int, default=2,
                         help="process-pool size")
        cmd.add_argument("--lease", type=float, default=10.0,
                         help="claim lease seconds; an expired lease "
                         "marks the claimant dead and re-queues the run")
        cmd.add_argument("--max-attempts", type=int, default=4)
        cmd.add_argument("--backoff", type=float, default=0.5,
                         help="base retry backoff seconds (doubles per "
                         "attempt, capped)")
        cmd.add_argument("--max-wall-s", type=float, default=None,
                         help="abort (resumably) past this wall-clock "
                         "budget")

    submit = campaign_sub.add_parser(
        "submit", help="expand a grid into pending runs")
    add_store(submit)
    submit.add_argument("--grid", default="smoke",
                        help="named grid (figures|smoke|chaos) or a JSON "
                        "grid file path")
    submit.add_argument("--name", default=None,
                        help="campaign name (default: the grid name)")

    run_cmd = campaign_sub.add_parser(
        "run", help="run a campaign to completion (submits --grid first "
        "unless --id is given)")
    add_store(run_cmd)
    run_cmd.add_argument("--id", type=int, default=None,
                         help="existing campaign id to run")
    run_cmd.add_argument("--grid", default=None,
                         help="submit this grid, then run it")
    run_cmd.add_argument("--name", default=None)
    add_runner_options(run_cmd)

    resume = campaign_sub.add_parser(
        "resume", help="resume an interrupted campaign exactly-once")
    resume.add_argument("id", type=int)
    add_store(resume)
    add_runner_options(resume)

    status = campaign_sub.add_parser(
        "status", help="run-state counts per campaign")
    add_store(status)
    status.add_argument("--id", type=int, default=None)

    creport = campaign_sub.add_parser(
        "report", help="render recorded results + resume-invariant digest")
    add_store(creport)
    creport.add_argument("--id", type=int, default=None,
                         help="campaign id (default: the latest)")
    creport.add_argument("--out", type=pathlib.Path, default=None,
                         help="also write summary.md / runs.jsonl / "
                         "metrics.prom here")

    cdiff = campaign_sub.add_parser(
        "diff", help="cell-by-cell comparison of two campaign stores "
        "(exit 1 on divergence)")
    cdiff.add_argument("store_a", type=pathlib.Path,
                       help="first campaign store")
    cdiff.add_argument("store_b", type=pathlib.Path,
                       help="second campaign store")
    cdiff.add_argument("--id-a", type=int, default=None,
                       help="campaign id inside store_a (default: latest)")
    cdiff.add_argument("--id-b", type=int, default=None,
                       help="campaign id inside store_b (default: latest)")

    cluster = sub.add_parser(
        "cluster",
        help="multi-tenant shared-fabric run: admission control, "
        "per-job SLOs, graceful degradation, isolation")
    cluster.add_argument("--no-chaos", action="store_true",
                         help="run the 3-job scenario without chaos on "
                         "tenant A")
    cluster.add_argument("--check-isolation", action="store_true",
                         help="run with and without chaos and verify the "
                         "neighbors' numeric digests are bit-identical "
                         "(exit 1 on violation)")
    cluster.add_argument("--check-replay", action="store_true",
                         help="run the schedule twice and verify the "
                         "cluster digests match (exit 1 on divergence)")
    cluster.add_argument("--expect-digest", default=None, metavar="HEX",
                         help="fail (exit 1) unless the cluster digest "
                         "matches this pinned value")
    cluster.add_argument("--json", type=pathlib.Path, default=None,
                         help="also write the full result as JSON here")

    diagnose = sub.add_parser(
        "diagnose",
        help="run + diagnose: streaming detectors, typed findings, "
        "SLO regression sentinel")
    diagnose.add_argument("--baseline", type=pathlib.Path,
                          default=pathlib.Path("BENCH_simulator.json"),
                          help="benchmark baseline file "
                          "(default: BENCH_simulator.json)")
    diagnose.add_argument("--scenario", default=None,
                          help="benchmark scenario to measure against "
                          "(default: step-8r-4s)")
    diagnose.add_argument("--baseline-label", default=None,
                          help="benchmark capture label "
                          "(default: the latest entry)")
    diagnose.add_argument("--baseline-campaign", type=pathlib.Path,
                          default=None, metavar="STORE",
                          help="baseline from a campaign store's best "
                          "completed cell instead of --baseline")
    diagnose.add_argument("--iterations", type=int, default=3,
                          help="measured iterations after one warm "
                          "iteration (default: 3)")
    diagnose.add_argument("--slo", type=pathlib.Path, default=None,
                          help="JSON SLO file (default: the stock SLOs)")
    diagnose.add_argument("--out", type=pathlib.Path,
                          default=pathlib.Path("results/diagnosis"),
                          help="directory for findings.md / "
                          "findings.jsonl / measurements.json + trace "
                          "artifacts")
    diagnose.add_argument("--from-artifacts", type=pathlib.Path,
                          default=None, metavar="DIR",
                          help="re-diagnose a recorded run from its "
                          "timeline.jsonl instead of simulating")
    diagnose.add_argument("--from-campaign", type=pathlib.Path,
                          default=None, metavar="STORE",
                          help="re-diagnose a campaign store's recorded "
                          "cells (findings persisted by cells with "
                          "'diagnose': true)")
    diagnose.add_argument("--campaign-id", type=int, default=None,
                          help="campaign id inside --from-campaign "
                          "(default: the latest)")
    diagnose.add_argument("--fail-on", default="warn",
                          help="exit 3 when any finding reaches this "
                          "severity: info|warn|error|critical "
                          "(default: warn)")
    diagnose.add_argument("--per-rank", action="store_true",
                          help="diagnose one message-level per-rank "
                          "iteration (supports straggler injection) "
                          "instead of the benchmark scenario")
    diagnose.add_argument("--model", default="resnet50",
                          help="model for --per-rank mode")
    diagnose.add_argument("--straggler-rank", type=int, default=None,
                          help="with --per-rank: slow this rank's "
                          "compute down")
    diagnose.add_argument("--straggler-factor", type=float, default=3.0,
                          help="compute slowdown factor for "
                          "--straggler-rank (default: 3.0)")
    add_check_invariants(diagnose)

    return parser


# -- command implementations ---------------------------------------------------

def cmd_table1(_args: argparse.Namespace) -> int:
    from repro.harness import format_table
    from repro.models import table1

    print(format_table(table1(), title="Table I: DNN model characteristics"))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.frameworks import make_backend
    from repro.harness import tuned_aiacc_config
    from repro.sim.rdma import RDMA, RDMA_DEFAULT_BANDWIDTH_BPS
    from repro.sim.tcp import TCP
    from repro.training.trainer import run_training

    transport = RDMA if args.rdma else TCP
    nic = RDMA_DEFAULT_BANDWIDTH_BPS if args.rdma else 30e9
    backend: t.Any = args.backend
    if args.backend == "aiacc":
        config = tuned_aiacc_config(args.model, args.gpus)
        overrides: dict[str, t.Any] = {}
        if args.streams is not None:
            overrides["num_streams"] = args.streams
        if args.granularity_mb is not None:
            overrides["granularity_bytes"] = args.granularity_mb * 1e6
        if overrides:
            config = config.replace(**overrides)
        backend = make_backend("aiacc", config=config)
    result = run_training(args.model, backend, args.gpus,
                          batch_per_gpu=args.batch,
                          transport=transport, nic_bandwidth_bps=nic)
    print(f"model:              {result.model}")
    print(f"backend:            {result.backend}")
    print(f"GPUs:               {result.num_gpus}")
    print(f"batch/GPU:          {result.batch_per_gpu}")
    print(f"iteration time:     {result.mean_iteration_s * 1e3:.2f} ms")
    print(f"throughput:         {result.throughput:,.0f} "
          f"{result.sample_unit}/s")
    print(f"scaling efficiency: {result.scaling_efficiency:.3f}")
    print(f"exposed comm:       {result.exposed_comm_s * 1e3:.2f} ms/iter")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro import harness
    from repro.harness import ascii_chart, format_table, save_report

    #: Optional bar-chart rendering: name -> (label_key, value_keys).
    charts: dict[str, tuple[str, list[str]]] = {
        "fig2": ("gpus", ["horovod_throughput", "linear_throughput"]),
        "fig13": ("gpus", ["aiacc", "mxnet-kvstore"]),
        "fig14": ("batch_per_gpu", ["speedup"]),
        "fig15": ("model", ["speedup"]),
        "bandwidth": ("streams", ["utilization"]),
        "congested": ("scenario", ["hierarchical_speedup"]),
        "planner": ("scenario", ["ring_ms", "hierarchical_ms", "ina_ms"]),
    }

    runners: dict[str, tuple[t.Callable[[], list], str]] = {
        "fig2": (harness.fig2_motivation, "Fig. 2: Horovod vs linear"),
        "fig9": (harness.fig9_cv_pytorch, "Fig. 9: PyTorch CV"),
        "fig10": (harness.fig10_nlp_pytorch, "Fig. 10: PyTorch NLP"),
        "fig11": (harness.fig11_tensorflow, "Fig. 11: TensorFlow"),
        "fig12": (harness.fig12_mxnet, "Fig. 12: MXNet"),
        "fig13": (harness.fig13_hybrid, "Fig. 13: hybrid parallelism"),
        "fig14": (harness.fig14_batchsize, "Fig. 14: batch size"),
        "fig15": (harness.fig15_rdma, "Fig. 15: RDMA"),
        "scaling": (harness.scaling_efficiency_summary,
                    "Scaling efficiency (§VIII-A)"),
        "ctr": (harness.ctr_production, "CTR production (§VIII-C)"),
        "dawnbench": (harness.dawnbench, "DAWNBench (§VIII-C)"),
        "autotune": (harness.autotune_parameters,
                     "Auto-tuned parameters (§VIII-D)"),
        "bandwidth": (harness.bandwidth_utilization,
                      "TCP utilisation (§III)"),
        "congested": (harness.congested_algorithm_choice,
                      "Algorithm choice under congestion (§V-B)"),
        "planner": (harness.planner_backend_sweep,
                    "Planner backends vs spine oversubscription (§V)"),
        "insightface": (harness.insightface_speedup,
                        "InsightFace face recognition (§VIII-C)"),
        "futuregpu": (harness.future_gpu_whatif,
                      "Future-GPU what-if (§VIII-A)"),
    }
    names = list(runners) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner, title = runners[name]
        rows = runner()
        table = format_table(rows, title=title)
        save_report(name, table)
        print(table)
        if name in charts:
            label_key, value_keys = charts[name]
            print()
            print(ascii_chart(rows, label_key, value_keys))
        print()
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.autotune import AutoTuner, make_evaluator
    from repro.harness import format_table

    tuner = AutoTuner(budget=args.budget, seed=args.seed)
    result = tuner.tune(make_evaluator(args.model, args.gpus))
    best = result.best_point
    print(f"best setting for {args.model} on {args.gpus} GPUs:")
    print(f"  streams:     {best.num_streams}")
    print(f"  granularity: {best.granularity_bytes / 1e6:.0f} MB")
    print(f"  algorithm:   {best.algorithm}")
    print(f"  iteration:   {result.best_cost_s * 1e3:.2f} ms")
    usage = [{"technique": name, "iterations": count}
             for name, count in sorted(result.technique_usage.items())]
    print(format_table(usage, title="warm-up budget allocation"))
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    from repro.core.translator import (
        translate_horovod_source,
        translate_sequential_source,
    )

    source = args.script.read_text()
    if args.mode == "horovod":
        out = translate_horovod_source(source)
    else:
        out = translate_sequential_source(source,
                                          num_workers=args.workers)
    if args.output is not None:
        args.output.write_text(out)
        print(f"wrote {args.output}")
    else:
        print(out)
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    import json

    from repro.errors import TrainingError
    from repro.sim.faults import FaultPlan, NodeCrash
    from repro.training.resilience import (
        run_fault_injected_training,
        simulate_resilient_training,
    )
    from repro.training.trainer import run_training

    num_nodes = args.gpus // 8
    if args.gpus % 8 != 0 or num_nodes < 2:
        raise TrainingError("--gpus must be a multiple of 8 and >= 16")

    # A quick healthy measurement fixes the iteration time, which anchors
    # both the default crash schedule and the analytical comparison.
    baseline = run_training(args.model, "aiacc", args.gpus,
                            measure_iterations=2, warmup_iterations=1)
    iter_s = baseline.mean_iteration_s
    horizon = args.iterations * iter_s

    if args.mtbf is not None:
        drawn = FaultPlan.poisson(args.mtbf, horizon, num_nodes,
                                  seed=args.seed)
        crashes = [f for f in drawn
                   if isinstance(f, NodeCrash)][:num_nodes - 1]
        plan = FaultPlan(crashes)
    else:
        nodes = args.crash_node if args.crash_node is not None else [1]
        if args.crash_at is not None:
            if len(args.crash_at) != len(nodes):
                raise TrainingError(
                    "--crash-at must be given once per --crash-node")
            times = args.crash_at
        else:
            # Spread defaults over the run, starting a quarter in.
            times = [horizon * (0.25 + 0.5 * i / max(1, len(nodes)))
                     for i in range(len(nodes))]
        plan = FaultPlan([NodeCrash(at_s=when, node=node)
                          for node, when in zip(nodes, times)])

    result = run_fault_injected_training(
        args.model, plan, num_gpus=args.gpus,
        total_iterations=args.iterations,
        checkpoint_interval=args.checkpoint_interval,
        sync_timeout_s=args.sync_timeout,
        unit_timeout_s=args.unit_timeout,
        comm_retries=args.retries,
        check_invariants=args.check_invariants,
    )

    print(f"model:               {result.model}")
    print(f"workers:             {result.initial_num_gpus} -> "
          f"{result.final_num_gpus} GPUs")
    print(f"iterations:          {result.total_iterations} "
          f"(+{result.wasted_iterations} lost to failures)")
    print(f"injected crashes:    {plan.crash_count}")
    print(f"total time:          {result.total_time_s:.1f} s simulated")
    print(f"goodput:             {result.goodput:.3f}")
    for index, rec in enumerate(result.recoveries):
        print(f"recovery {index}:          node(s) {list(rec.failed_nodes)} "
              f"died at t={rec.injected_at_s:.1f}s; detected in "
              f"{rec.detection_latency_s:.2f}s; rebuilt in "
              f"{rec.rebuild_time_s:.1f}s; lost {rec.lost_iterations} "
              f"iteration(s)")

    failure_at = sorted({min(int(rec.injected_at_s // iter_s),
                             args.iterations - 1)
                         for rec in result.recoveries})
    if failure_at:
        analytical = simulate_resilient_training(
            args.model, iter_s, args.iterations, args.checkpoint_interval,
            failure_at=failure_at)
        print(f"analytical goodput:  {analytical.goodput:.3f} "
              f"(simulate_resilient_training)")

    fault_counters = {name: value
                      for name, value in sorted(result.trace.counters.items())
                      if name.startswith("aiacc.faults.")}
    for name, value in fault_counters.items():
        print(f"{name}: {value:g}")

    if result.state_digest is not None:
        print(f"invariants:          ok (state digest "
              f"{result.state_digest})")

    if args.trace_out is not None:
        from repro.ioutil import atomic_write_text

        atomic_write_text(args.trace_out,
                          json.dumps(result.trace.to_chrome_trace()))
        print(f"wrote {args.trace_out}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.harness.chaos import run_chaos_soak

    seeds = range(args.seed_base, args.seed_base + args.seeds)
    report = run_chaos_soak(
        seeds, replays=args.replays, jsonl_path=args.jsonl,
        num_gpus=args.gpus, gpus_per_node=args.gpus_per_node,
        total_iterations=args.iterations,
        horizon_s=args.horizon, mtbf_s=args.mtbf)

    print(f"seeds:           {args.seeds} "
          f"({seeds.start}..{seeds.stop - 1}), "
          f"{args.replays} replay(s) each")
    print(f"completed:       {report.completed}")
    print(f"clean failures:  {report.clean_failures}")
    for kind, count in sorted(report.failure_kinds.items()):
        print(f"  {kind}: {count}")
    print()
    for outcome in report.outcomes:
        if outcome.completed:
            detail = (f"world {outcome.final_world} epoch "
                      f"{outcome.final_epoch} transitions "
                      f"{outcome.epoch_transitions} recoveries "
                      f"{outcome.recoveries} t={outcome.total_time_s:.2f}s")
        else:
            detail = f"{outcome.status}: {outcome.error}"
        print(f"seed {outcome.seed:>3}  "
              f"[{outcome.outcome_digest()[:12]}]  {detail}")
    if args.jsonl is not None:
        print(f"\nwrote {args.jsonl}")
    # Typed clean failures are expected chaos outcomes; only a harness
    # error (ReproError from run_chaos_soak itself) exits non-zero, via
    # the ReproError handler in main().
    return 0


def _campaign_grids(grid_arg: str) -> tuple[str, list]:
    """Resolve --grid: a named grid or a JSON grid-list file path."""
    from repro.campaign.grid import NAMED_GRIDS, grids_from_payload, \
        named_grids
    from repro.errors import CampaignError

    if grid_arg in NAMED_GRIDS:
        return grid_arg, named_grids(grid_arg)
    path = pathlib.Path(grid_arg)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CampaignError(
            f"--grid {grid_arg!r} is neither a named grid "
            f"({', '.join(sorted(NAMED_GRIDS))}) nor a readable JSON "
            f"file: {exc}") from exc
    return path.stem, grids_from_payload(text)


def _print_campaign_report(report: t.Any,
                           out: pathlib.Path | None) -> None:
    from repro.campaign.report import render_report, write_report_artifacts

    # Artifacts first: a consumer truncating stdout (head, a dropped
    # pipe) must not cost the durable files.
    written = {} if out is None else write_report_artifacts(out, report)
    print(render_report(report))
    for name, path in sorted(written.items()):
        print(f"wrote {name}: {path}")


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.policy import RetryPolicy
    from repro.campaign.report import load_report, load_report_from_path
    from repro.campaign.runner import CampaignRunner, submit_campaign
    from repro.campaign.store import CampaignStore, open_store_readonly

    def make_runner(campaign_id: int) -> CampaignRunner:
        policy = RetryPolicy(max_attempts=args.max_attempts,
                             base_backoff_s=args.backoff)
        return CampaignRunner(args.store, campaign_id,
                              max_workers=args.workers,
                              lease_s=args.lease, policy=policy)

    def run_to_completion(campaign_id: int) -> int:
        last: dict[str, int] = {}

        def progress(counts: dict[str, int]) -> None:
            nonlocal last
            if counts != last:
                last = counts
                states = " ".join(f"{state}={count}"
                                  for state, count in counts.items()
                                  if count)
                print(f"campaign {campaign_id}: {states}")

        counts = make_runner(campaign_id).run(
            progress=progress, max_wall_s=args.max_wall_s)
        with open_store_readonly(args.store) as store:
            report = load_report(store, campaign_id)
        print(f"report digest: {report.digest()}")
        incomplete = counts["pending"] + counts["claimed"] + \
            counts["running"]
        return 0 if incomplete == 0 else 1

    if args.campaign_command == "submit":
        name, grids = _campaign_grids(args.grid)
        with CampaignStore(args.store) as store:
            campaign_id = submit_campaign(store, grids,
                                          name=args.name or name)
            total = store.counts(campaign_id)["pending"]
        print(f"campaign {campaign_id}: {total} runs pending in "
              f"{args.store}")
        print(f"run it with: python -m repro campaign run "
              f"--store {args.store} --id {campaign_id}")
        return 0

    if args.campaign_command == "run":
        if (args.id is None) == (args.grid is None):
            from repro.errors import CampaignError

            raise CampaignError(
                "campaign run needs exactly one of --id or --grid")
        if args.id is not None:
            campaign_id = args.id
        else:
            name, grids = _campaign_grids(args.grid)
            with CampaignStore(args.store) as store:
                campaign_id = submit_campaign(store, grids,
                                              name=args.name or name)
            print(f"campaign {campaign_id}: submitted grid "
                  f"{args.grid!r}")
        return run_to_completion(campaign_id)

    if args.campaign_command == "resume":
        return run_to_completion(args.id)

    if args.campaign_command == "status":
        with open_store_readonly(args.store) as store:
            campaigns = store.campaigns()
            if args.id is not None:
                campaigns = [c for c in campaigns if c.id == args.id]
            for info in campaigns:
                counts = store.counts(info.id)
                states = " ".join(f"{state}={count}"
                                  for state, count in counts.items())
                print(f"campaign {info.id} ({info.name}): {states}")
        if not campaigns:
            print("no campaigns recorded")
        return 0

    if args.campaign_command == "diff":
        from repro.campaign.report import diff_reports

        report_a = load_report_from_path(args.store_a, args.id_a)
        report_b = load_report_from_path(args.store_b, args.id_b)
        diffs = diff_reports(report_a, report_b)
        print(f"A: campaign {report_a.campaign_id} ({report_a.name}), "
              f"digest {report_a.digest()}")
        print(f"B: campaign {report_b.campaign_id} ({report_b.name}), "
              f"digest {report_b.digest()}")
        if not diffs:
            print("stores agree: every cell's terminal outcome matches")
            return 0
        print(f"{len(diffs)} divergent cell(s):")
        for diff in diffs:
            print(f"  {diff.render()}")
        return 1

    assert args.campaign_command == "report"
    report = load_report_from_path(args.store, args.id)
    _print_campaign_report(report, args.out)
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import three_job_scenario
    from repro.harness import format_table
    from repro.ioutil import atomic_write_text

    def run(chaos: bool) -> t.Any:
        return three_job_scenario(chaos=chaos).run()

    result = run(chaos=not args.no_chaos)
    rows = []
    for job_id, rec in result.jobs.items():
        rows.append({
            "job": job_id, "status": rec["status"],
            "steps": rec["steps_done"], "streams": rec["streams"],
            "ladder": rec["ladder_stage"],
            "transitions": ",".join(
                str(tr["kind"]) for tr in
                t.cast(list, rec["transitions"])) or "-",
            "digest": (rec["numeric_digest"] or "-")[:12],
        })
    print(format_table(rows, title="tenants"))
    print()
    if result.findings:
        print(f"{len(result.findings)} finding(s):")
        for finding in result.findings:
            print(f"  [{finding.severity.name}] {finding.kind} "
                  f"{finding.subject}: {finding.message}")
    else:
        print("no findings: every tenant inside its SLO")
    print(f"findings digest: {result.findings_digest}")
    print(f"cluster digest:  {result.cluster_digest}")
    if args.json is not None:
        atomic_write_text(args.json, result.to_json())
        print(f"wrote {args.json}")
    failed = False
    if args.check_replay:
        replay = run(chaos=not args.no_chaos)
        if replay.cluster_digest == result.cluster_digest:
            print("replay check: digests match")
        else:
            print(f"replay check FAILED: {replay.cluster_digest} != "
                  f"{result.cluster_digest}", file=sys.stderr)
            failed = True
    if args.check_isolation:
        quiet = run(chaos=False)
        for job_id in sorted(result.jobs):
            with_chaos = result.job_digest(job_id)
            without = quiet.job_digest(job_id)
            verdict = "identical" if with_chaos == without else "DIVERGED"
            print(f"isolation {job_id}: {verdict}")
            if with_chaos != without:
                failed = True
    if args.expect_digest is not None \
            and result.cluster_digest != args.expect_digest:
        print(f"cluster digest {result.cluster_digest} does not match "
              f"expected {args.expect_digest}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.runtime import AIACCConfig
    from repro.harness import format_table
    from repro.obs import write_artifacts
    from repro.obs.report import build_step_report

    if args.from_campaign is not None:
        from repro.campaign.report import load_report_from_path

        report = load_report_from_path(args.from_campaign,
                                       args.campaign_id)
        _print_campaign_report(
            report, args.out if args.out != pathlib.Path("results/report")
            else None)
        return 0

    overrides: dict[str, t.Any] = {}
    if args.streams is not None:
        overrides["num_streams"] = args.streams
    if args.granularity_mb is not None:
        overrides["granularity_bytes"] = args.granularity_mb * 1e6
    config = AIACCConfig(**overrides)

    report = build_step_report(
        model=args.model, num_nodes=args.nodes,
        gpus_per_node=args.gpus_per_node, config=config, seed=args.seed)

    print(f"model:          {report.model}")
    print(f"workers:        {report.world_size} "
          f"({args.nodes} nodes x {args.gpus_per_node} GPUs)")
    print(f"iteration time: {report.iteration_time_s * 1e3:.2f} ms")
    print()
    rows = [a.as_row() for a in report.attributions]
    print(format_table(rows, title="step-time attribution (per rank)"))
    print(f"conservation:   components sum to step time within "
          f"{report.max_conservation_error:.2e} relative error")
    print()
    if report.stream_rows:
        print(format_table(list(report.stream_rows),
                           title="CUDA stream lanes"))
        print()
    if report.link_rows:
        print(format_table(list(report.link_rows),
                           title="per-stream link utilisation"))
        print()
    written = write_artifacts(args.out, report.obs.registry,
                              report.obs.timeline)
    for name, path in sorted(written.items()):
        print(f"wrote {name}: {path}")
    return 0


def _scenario_diagnosis(args: argparse.Namespace, baseline: t.Any
                        ) -> tuple[t.Any, t.Any, dict[str, float]]:
    """Run the baseline's benchmark scenario plain + instrumented.

    The plain (observability-disabled) run prices the instrumented one:
    ``obs_overhead_frac`` is the wall-clock factor between the best of
    two instrumented runs and the best of two plain runs, which the
    ``obs_overhead`` SLO then judges.  Returns the instrumented bundle,
    its diagnosis, and the run-level measurements.
    """
    import time

    from repro.frameworks.base import IterationStats
    from repro.obs import Observability, diagnose

    def build_and_run(obs: t.Any) -> tuple[float, float]:
        from repro.core.runtime import AIACCConfig
        from repro.frameworks import make_backend
        from repro.models.zoo import get_model
        from repro.training.trainer import build_train_context

        # The workload *is* the baseline's recorded scenario shape, so
        # the relative step-time SLO compares like with like (the same
        # full-link mode the benchmark suite pins).
        ranks = int(baseline.values.get("ranks", 8))
        streams = int(baseline.values.get("streams", 4))
        model = baseline.meta.get("model", "resnet50")
        algorithm = baseline.meta.get("algorithm", "ring")
        congested = baseline.meta.get("congested") == "true"
        core = baseline.values.get("core_oversubscription", 1.0)
        config = AIACCConfig(num_streams=streams, algorithm=algorithm)
        backend = make_backend("aiacc", config=config)
        spec = get_model(model)
        congested_links = {0: 0.9} if congested else None
        full_link_default = congested_links is None and core == 1.0
        ctx = build_train_context(
            spec, backend, ranks, spec.default_batch_size,
            congested_links=congested_links, core_oversubscription=core,
            representative=False if full_link_default else None,
            obs=obs)
        warm = ctx.sim.spawn(backend.warmup(ctx), name="warmup")
        ctx.sim.run(until=warm)
        times = []
        for index in range(args.iterations + 1):
            proc = ctx.sim.spawn(backend.iteration(ctx),
                                 name=f"iter{index}")
            ctx.sim.run(until=proc)
            stats = t.cast(IterationStats, proc.value)
            if index >= 1:
                times.append(stats.iteration_time_s)
        return sum(times) / len(times), ctx.compute_time_s

    def timed(make_obs: t.Callable[[], t.Any]
              ) -> tuple[float, tuple[t.Any, float, float]]:
        best_wall = float("inf")
        kept = None
        for _ in range(2):
            obs = make_obs()
            start = time.perf_counter()
            mean, compute = build_and_run(obs)
            best_wall = min(best_wall, time.perf_counter() - start)
            if kept is None:
                kept = (obs, mean, compute)
        return best_wall, t.cast(tuple, kept)

    def instrumented() -> t.Any:
        obs = Observability(enabled=True)
        obs.attach_detectors()
        return obs

    plain_wall, _ = timed(Observability.disabled)
    inst_wall, (obs, mean_step_s, compute_s) = timed(instrumented)

    report = diagnose(obs)
    measurements = {
        "simulated_step_s": mean_step_s,
        "scaling_efficiency": compute_s / mean_step_s
        if mean_step_s > 0 else 0.0,
        "obs_overhead_frac": inst_wall / plain_wall
        if plain_wall > 0 else 1.0,
    }
    return obs, report, measurements


def _per_rank_diagnosis(args: argparse.Namespace) -> tuple[t.Any, t.Any]:
    """Diagnose one message-level per-rank iteration."""
    from repro.obs import Observability, diagnose
    from repro.obs.report import build_step_report

    obs = Observability(enabled=True)
    obs.attach_detectors()
    skew = None
    if args.straggler_rank is not None:
        skew = {args.straggler_rank: args.straggler_factor}
    step_report = build_step_report(model=args.model, obs=obs,
                                    compute_skew=skew)
    return obs, diagnose(obs, attributions=step_report.attributions)


def _campaign_diagnosis(store: pathlib.Path, campaign_id: int | None
                        ) -> tuple[t.Any, dict[str, float]]:
    """Aggregate the findings recorded by a campaign's diagnosed cells."""
    from repro.campaign.report import load_report_from_path
    from repro.obs import DiagnosisReport, Finding, parse_severity

    report = load_report_from_path(store, campaign_id)
    findings = []
    diagnosed = 0
    best: tuple[float, t.Any] | None = None
    for row in report.rows:
        if row.state != "done" or not isinstance(row.result, dict):
            continue
        value = row.result.get("mean_iteration_s")
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and (best is None or float(value) < best[0]):
            best = (float(value), row)
        records = row.result.get("findings")
        if records is None:
            continue
        diagnosed += 1
        for rec in records:
            evidence = tuple(sorted(dict(rec.get("evidence", {})).items()))
            findings.append(Finding(
                severity=parse_severity(str(rec.get("severity", "WARN"))),
                component=str(rec.get("component", "runtime")),
                kind=str(rec.get("kind", "unknown")),
                subject=str(rec.get("subject", row.spec_id)),
                message=str(rec.get("message", "")),
                time_s=float(rec.get("time_s", 0.0)),
                evidence=evidence + (("spec_id", row.spec_id),)))
    findings.sort(key=lambda f: (-int(f.severity), f.component, f.kind,
                                 f.subject, f.time_s))
    print(f"campaign {report.campaign_id} ({report.name}): "
          f"{diagnosed} diagnosed cell(s)")
    measurements: dict[str, float] = {}
    if best is not None:
        efficiency = best[1].result.get("scaling_efficiency")
        if isinstance(efficiency, (int, float)):
            measurements["scaling_efficiency"] = float(efficiency)
    return DiagnosisReport(findings=tuple(findings)), measurements


def cmd_diagnose(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.obs import (
        DEFAULT_SLOS,
        evaluate_slos,
        load_artifacts,
        load_bench_baseline,
        load_campaign_baseline,
        load_slos,
        parse_severity,
        write_diagnosis_artifacts,
    )
    from repro.obs.baselines import DEFAULT_BENCH_SCENARIO
    from repro.obs.diagnosis import diagnose

    slos = load_slos(args.slo) if args.slo is not None else DEFAULT_SLOS
    fail_floor = parse_severity(args.fail_on)

    def bench_baseline() -> t.Any:
        return load_bench_baseline(
            args.baseline,
            scenario=args.scenario or DEFAULT_BENCH_SCENARIO,
            label=args.baseline_label)

    baseline = None
    if args.baseline_campaign is not None:
        baseline = load_campaign_baseline(args.baseline_campaign)

    measurements: dict[str, float] = {}
    obs = None
    if args.from_artifacts is not None:
        obs = load_artifacts(args.from_artifacts)
        report = diagnose(obs)
        if baseline is None and args.baseline.exists():
            baseline = bench_baseline()
    elif args.from_campaign is not None:
        report, measurements = _campaign_diagnosis(args.from_campaign,
                                                   args.campaign_id)
        if baseline is None and args.baseline.exists():
            baseline = bench_baseline()
    elif args.per_rank:
        # The per-rank engine is a different workload from the benchmark
        # scenarios, so no relative baseline applies to it.
        obs, report = _per_rank_diagnosis(args)
    else:
        if baseline is None:
            baseline = bench_baseline()
        obs, report, measurements = _scenario_diagnosis(args, baseline)

    merged = dict(report.measurements)
    merged.update(measurements)
    results = evaluate_slos(
        slos, merged, baseline=baseline,
        registry=obs.registry if obs is not None else None)
    report = dataclasses.replace(report, measurements=merged,
                                 slo_results=results)

    if baseline is not None:
        print(f"baseline: {baseline.describe()}")
    print()
    print(report.to_markdown())
    written = write_diagnosis_artifacts(args.out, report, obs=obs)
    for name, path in sorted(written.items()):
        print(f"wrote {name}: {path}")

    if report.breached_slos:
        names = ", ".join(r.slo.name for r in report.breached_slos)
        print(f"SLO BREACH: {names}", file=sys.stderr)
        return 2
    flagged = report.findings_at(fail_floor)
    if flagged:
        print(f"{len(flagged)} finding(s) at severity >= "
              f"{fail_floor.name}", file=sys.stderr)
        return 3
    return 0


def main(argv: t.Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "check_invariants", False):
        # The environment flag is how every simulator and AIACCConfig
        # constructed downstream picks the checker up, without threading
        # the option through each command's call graph.
        import os

        from repro.sim.invariants import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    handlers = {
        "table1": cmd_table1,
        "train": cmd_train,
        "bench": cmd_bench,
        "tune": cmd_tune,
        "translate": cmd_translate,
        "faults": cmd_faults,
        "chaos": cmd_chaos,
        "report": cmd_report,
        "campaign": cmd_campaign,
        "cluster": cmd_cluster,
        "diagnose": cmd_diagnose,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
