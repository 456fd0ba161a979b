"""Command-line interface.

The CLI exposes the common workflows without writing Python:

* ``repro datasets`` -- Table I statistics of the dataset stand-ins.
* ``repro raf`` -- run the RAF algorithm for one (initiator, target) pair
  (an explicit pair or an automatically screened one) and report the
  invitation set with its quality estimates.
* ``repro vmax`` -- the α = 1 solution (Lemma 7) for one pair.
* ``repro maximize`` -- the budgeted (maximum) active friending extension.
* ``repro experiment`` -- regenerate a table/figure of the paper (or all of
  them) on the stand-ins or on a user-supplied SNAP edge list.
* ``repro matrix`` -- run a scenario grid of (dataset × algorithm × budget
  × engine) cells in parallel, streaming resumable per-cell JSON records.
* ``repro serve`` -- a JSON-lines request loop over stdin/stdout answering
  pmax / evaluate / maximize queries through a shared
  :class:`~repro.service.QueryService` (request coalescing, admission
  control, metrics via the ``stats`` op).  With ``--listen HOST:PORT`` the
  same queries are served over TCP instead -- newline-delimited JSON or
  HTTP/1.1 on one port -- with one pool shared by every tenant, per-tenant
  token-bucket budgets and stats rows, per-connection backpressure windows,
  deadlines and priority admission (see DESIGN.md §9).
* ``repro bench-load`` -- replay the deterministic closed-loop load
  benchmark (coalescing vs. no-coalescing arm, bit-identity asserted).
* ``repro compile-graph`` -- stream a SNAP edge list into an on-disk CSR
  snapshot directory (bounded memory, DESIGN.md §8); ``raf``, ``matrix``
  and ``serve`` then accept ``--snapshot DIR`` to open it memory-mapped.

Every command accepts ``--seed`` for reproducibility and either
``--dataset`` (a built-in stand-in, with ``--scale``) or ``--edge-list``
(a SNAP file, weighted with the paper's 1/|N_v| convention on load).
Sampling-heavy commands additionally accept ``--engine`` (backend) and
``--workers N|auto`` (multi-process sampling fan-out; seeded results are
identical for every worker count), and ``matrix`` accepts
``--pool/--no-pool`` (+ ``--pool-budget N``) to reuse reverse samples
across its cells through a shared sample pool (:mod:`repro.pool`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.baselines.high_degree import high_degree_invitation
from repro.baselines.shortest_path import shortest_path_invitation
from repro.core.maximization import maximize_acceptance_probability
from repro.core.problem import ActiveFriendingProblem
from repro.core.raf import RAFConfig, run_raf
from repro.core.parameters import SamplePolicy
from repro.core.vmax import compute_vmax
from repro.diffusion.friending_process import estimate_acceptance_probability
from repro.diffusion.engine import ENGINE_NAMES
from repro.exceptions import ReproError
from repro.experiments.basic_experiment import format_basic_experiment, run_basic_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets_table import format_datasets_table, run_datasets_table
from repro.experiments.matrix import (
    MATRIX_ALGORITHM_NAMES,
    MatrixSpec,
    format_matrix,
    run_matrix,
)
from repro.experiments.pair_selection import select_pairs
from repro.experiments.ratio_comparison import format_ratio_comparison, run_ratio_comparison
from repro.experiments.realization_sweep import format_realization_sweep, run_realization_sweep
from repro.experiments.reporting import format_table
from repro.experiments.vmax_comparison import format_vmax_comparison, run_vmax_comparison
from repro.graph.compiled import CompiledGraph
from repro.graph.datasets import DATASET_NAMES, load_dataset
from repro.graph.io import read_snap_graph
from repro.graph.stream_compiler import WEIGHT_SCHEMES, compile_edge_list
from repro.graph.metrics import average_degree
from repro.graph.weights import apply_degree_normalized_weights
from repro.experiments.records import to_jsonable
from repro.parallel.engine import WORKERS_AUTO
from repro.service.loadgen import emit_load_report, run_load_benchmark
from repro.service.query_service import QUERY_KINDS, QueryService
from repro.service.server import DEFAULT_CONNECTION_WINDOW, serve_forever
from repro.types import PairSpec, ordered
from repro.utils.tables import render_table

__all__ = ["main", "build_parser"]

EXPERIMENT_CHOICES = ("table1", "fig3", "fig4", "fig5", "table2", "fig6", "all")


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=DATASET_NAMES, default="wiki",
        help="built-in dataset stand-in to use (default: wiki)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="fraction of the original node count to generate (default: dataset-specific)",
    )
    parser.add_argument(
        "--edge-list", type=str, default=None,
        help="path to a SNAP edge list; overrides --dataset/--scale",
    )


def _add_snapshot_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--snapshot", type=str, default=None, metavar="DIR",
        help="compiled snapshot directory (see `repro compile-graph`), opened "
             "memory-mapped; overrides --dataset/--scale/--edge-list",
    )


def _parse_workers(value: str) -> "int | str":
    """argparse type for ``--workers``: a positive integer or 'auto'."""
    if value.lower() == WORKERS_AUTO:
        return WORKERS_AUTO
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive integer or '{WORKERS_AUTO}', got {value!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {count}")
    return count


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=ENGINE_NAMES, default="python",
        help="reverse-sampling backend: 'python' (default, stdlib bisect walk), "
             "'numpy' (vectorized), 'numpy-alias' (vectorized, O(1) alias steps), "
             "or 'auto' (= numpy)",
    )
    parser.add_argument(
        "--workers", type=_parse_workers, default=None, metavar="{N,auto}",
        help="sampling worker processes ('auto' = one per CPU); seeded results "
             "are identical for every worker count (default: single-stream)",
    )


def _add_pair_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", type=int, default=None, help="initiator user id")
    parser.add_argument("--target", type=int, default=None, help="target user id")
    parser.add_argument(
        "--min-pmax", type=float, default=0.02,
        help="pmax screening threshold used when the pair is auto-selected (default: 0.02)",
    )


#: Help/metavar grouping of the subcommands: (group, description, commands).
#: ``build_parser`` registers the groups in this order and renders them as
#: the top-level help epilog, so ``repro --help`` reads as four workflows
#: rather than a flat nine-command list.
_COMMAND_GROUPS = (
    ("algorithms", "single-pair algorithms", ("raf", "vmax", "maximize")),
    ("experiments", "paper artefacts and scenario grids", ("datasets", "experiment", "matrix")),
    ("serving", "query serving and load benchmarking", ("serve", "bench-load")),
    ("data", "graph compilation tooling", ("compile-graph",)),
)


def _group_epilog() -> str:
    lines = ["command groups:"]
    for group, description, commands in _COMMAND_GROUPS:
        lines.append(f"  {group:<12} {', '.join(commands)}")
        lines.append(f"  {'':<12} {description}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (subcommands in workflow groups)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Active friending under the linear threshold model (Tong et al., ICDCS 2019).",
        epilog=_group_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=2019, help="random seed (default: 2019)")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    _register_algorithm_commands(subparsers)
    _register_experiment_commands(subparsers)
    _register_serving_commands(subparsers)
    _register_data_commands(subparsers)
    return parser


def _register_algorithm_commands(subparsers) -> None:
    raf = subparsers.add_parser("raf", help="run RAF for one (initiator, target) pair")
    _add_graph_arguments(raf)
    _add_snapshot_argument(raf)
    _add_pair_arguments(raf)
    _add_engine_argument(raf)
    raf.add_argument("--alpha", type=float, default=0.1, help="target fraction of pmax")
    raf.add_argument("--epsilon", type=float, default=None, help="guarantee slack (default alpha/5)")
    raf.add_argument("--realizations", type=int, default=5000, help="sampled realizations")
    raf.add_argument("--eval-samples", type=int, default=1000,
                     help="Process-1 simulations used to evaluate the output")
    raf.add_argument("--compare-baselines", action="store_true",
                     help="also evaluate HD and SP at the same budget")

    vmax = subparsers.add_parser("vmax", help="compute the alpha = 1 solution (Lemma 7)")
    _add_graph_arguments(vmax)
    _add_pair_arguments(vmax)

    maximize = subparsers.add_parser("maximize", help="budgeted (maximum) active friending")
    _add_graph_arguments(maximize)
    _add_pair_arguments(maximize)
    _add_engine_argument(maximize)
    maximize.add_argument("--budget", type=int, required=True, help="invitation budget")
    maximize.add_argument("--realizations", type=int, default=5000)


def _register_experiment_commands(subparsers) -> None:
    datasets = subparsers.add_parser("datasets", help="show Table I statistics of the stand-ins")
    datasets.add_argument("--scale", type=float, default=None)

    experiment = subparsers.add_parser("experiment", help="regenerate a table or figure")
    experiment.add_argument("name", choices=EXPERIMENT_CHOICES, help="which artefact to regenerate")
    _add_graph_arguments(experiment)
    _add_engine_argument(experiment)
    experiment.add_argument("--pairs", type=int, default=3, help="pairs per dataset (default: 3)")
    experiment.add_argument("--realizations", type=int, default=3000)
    experiment.add_argument("--eval-samples", type=int, default=250)
    experiment.add_argument(
        "--all-datasets", action="store_true",
        help="run over all four stand-ins instead of only --dataset",
    )

    matrix = subparsers.add_parser(
        "matrix",
        help="run a (dataset x algorithm x budget x engine) scenario grid with "
             "resumable per-cell JSON records",
    )
    matrix.add_argument(
        "--datasets", default="wiki,hepth",
        help="comma-separated dataset stand-ins (default: wiki,hepth)",
    )
    matrix.add_argument(
        "--algorithms", default="raf,hd",
        help=f"comma-separated algorithms out of {{{','.join(MATRIX_ALGORITHM_NAMES)}}} "
             "(default: raf,hd)",
    )
    matrix.add_argument(
        "--budgets", default="4,8",
        help="comma-separated invitation budgets (default: 4,8)",
    )
    matrix.add_argument(
        "--engines", default="python",
        help="comma-separated sampling backends (default: python)",
    )
    matrix.add_argument("--scale", type=float, default=0.03,
                        help="dataset generation scale (default: 0.03)")
    matrix.add_argument("--alpha", type=float, default=0.2, help="target fraction of pmax")
    matrix.add_argument("--realizations", type=int, default=2000,
                        help="backward traces sampled per raf cell")
    matrix.add_argument("--eval-samples", type=int, default=400,
                        help="reverse samples used to estimate each cell's f(I)")
    matrix.add_argument(
        "--output", default="matrix-records",
        help="directory for the per-cell JSON records (default: matrix-records)",
    )
    matrix.add_argument(
        "--workers", type=_parse_workers, default=None, metavar="{N,auto}",
        help="worker processes running grid cells concurrently ('auto' = one per "
             "CPU); records are byte-identical for every worker count",
    )
    matrix.add_argument(
        "--fresh", action="store_true",
        help="recompute every cell instead of resuming from existing records",
    )
    _add_snapshot_argument(matrix)
    matrix.add_argument(
        "--pool", action=argparse.BooleanOptionalAction, default=True,
        help="reuse reverse samples across cells through a shared sample pool "
             "(--no-pool disables; default: on; records are byte-identical "
             "with --no-pool, only slower)",
    )
    matrix.add_argument(
        "--pool-budget", type=int, default=None, metavar="N",
        help="cap on the total paths the pool keeps cached "
             "(default: unbounded)",
    )


def _register_serving_commands(subparsers) -> None:
    serve = subparsers.add_parser(
        "serve",
        help="answer pmax/evaluate/maximize queries as JSON lines over "
             "stdin/stdout through a shared coalescing query service",
    )
    _add_graph_arguments(serve)
    _add_snapshot_argument(serve)
    _add_engine_argument(serve)
    serve.add_argument(
        "--pool-budget", type=int, default=None, metavar="N",
        help="cap on the total paths the service pool keeps cached; with "
             "--listen the one pool all tenants share (default: unbounded)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=None, metavar="N",
        help="admission limit on concurrent query executions, across all "
             "tenants with --listen (default: unbounded)",
    )
    serve.add_argument(
        "--max-query-samples", type=int, default=None, metavar="N",
        help="per-query sample budget; larger requests are refused "
             "(default: unbounded)",
    )
    serve.add_argument(
        "--coalesce", action=argparse.BooleanOptionalAction, default=True,
        help="coalesce equal in-flight queries onto one execution "
             "(--no-coalesce disables; results are identical either way)",
    )
    serve.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="serve over TCP instead of stdin: newline-delimited JSON or "
             "HTTP/1.1 on one port (POST /query, GET /stats, GET /healthz); "
             "port 0 picks a free port (default: stdin/stdout loop)",
    )
    serve.add_argument(
        "--tenant-burst", type=int, default=None, metavar="N",
        help="per-tenant token-bucket capacity in sample units; requests "
             "beyond it are refused with error_type 'budget' "
             "(--listen only; default: unlimited)",
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=None, metavar="R",
        help="per-tenant bucket refill rate in sample units per second; "
             "requires --tenant-burst (--listen only; default: 0, no refill)",
    )
    serve.add_argument(
        "--max-tenants", type=int, default=64, metavar="N",
        help="cap on distinct tenants, each with its own budget and stats "
             "row over the shared pool (--listen only; default: 64)",
    )
    serve.add_argument(
        "--connection-window", type=int, default=DEFAULT_CONNECTION_WINDOW, metavar="N",
        help="bounded in-flight request window per connection; further "
             "reads wait until responses drain "
             f"(--listen only; default: {DEFAULT_CONNECTION_WINDOW})",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="deadline applied to requests that do not carry their own "
             "deadline_ms field (--listen only; default: none)",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="enable deterministic fault injection for chaos soak runs: "
             "seeds the FaultPlan driving the --fault-* rates; answers stay "
             "byte-identical (default: no faults; never use in production)",
    )
    serve.add_argument(
        "--fault-kill-rate", type=float, default=0.0, metavar="R",
        help="probability each dispatched sampling chunk SIGKILLs its "
             "worker (requires --fault-seed; default: 0)",
    )
    serve.add_argument(
        "--fault-slow-rate", type=float, default=0.0, metavar="R",
        help="probability each dispatched sampling chunk sleeps before "
             "running (requires --fault-seed; default: 0)",
    )
    serve.add_argument(
        "--fault-spill-rate", type=float, default=0.0, metavar="R",
        help="probability each pool spill write raises an I/O error "
             "(requires --fault-seed; default: 0)",
    )

    bench_load = subparsers.add_parser(
        "bench-load",
        help="replay the deterministic closed-loop load benchmark "
             "(coalescing vs. no-coalescing, bit-identity asserted)",
    )
    _add_graph_arguments(bench_load)
    _add_engine_argument(bench_load)
    bench_load.add_argument("--hot-pairs", type=int, default=2,
                            help="screened hot (source, target) pairs (default: 2)")
    bench_load.add_argument("--clients", type=int, default=48,
                            help="closed-loop clients per wave (default: 48)")
    bench_load.add_argument("--rounds", type=int, default=16,
                            help="request waves replayed (default: 16)")
    bench_load.add_argument("--pool-seed", type=int, default=77,
                            help="shared pool seed of both arms (default: 77)")
    bench_load.add_argument("--output", type=Path, default=None, metavar="PATH",
                            help="also write the JSON report to this file")
    bench_load.add_argument("--min-speedup", type=float, default=None,
                            help="fail unless the coalescing arm reaches this speedup")
    bench_load.add_argument("--socket", action="store_true",
                            help="also replay both arms over TCP through the asyncio "
                                 "front end (adds socket rows with client-side p99)")
    bench_load.add_argument("--min-socket-speedup", type=float, default=None,
                            help="fail unless the socket coalescing arm reaches this "
                                 "speedup (requires --socket)")
    bench_load.add_argument("--max-socket-p99-ms", type=float, default=None, metavar="MS",
                            help="fail when the socket arm's client-side p99 exceeds "
                                 "this many milliseconds (requires --socket)")


def _register_data_commands(subparsers) -> None:
    compile_graph = subparsers.add_parser(
        "compile-graph",
        help="stream a SNAP edge list into an on-disk CSR snapshot directory "
             "(bounded memory; see DESIGN.md §8 for the format)",
    )
    compile_graph.add_argument("edgelist", type=str, help="path to the SNAP edge list to compile")
    compile_graph.add_argument("snapshot_dir", type=str,
                               help="output snapshot directory (created if missing)")
    compile_graph.add_argument(
        "--weights", choices=WEIGHT_SCHEMES, default="degree",
        help="edge weight scheme: 'degree' (the paper's 1/|N_v|, default) or "
             "'uniform' (a fixed per-edge weight, capped at 1/|N_v|)",
    )
    compile_graph.add_argument(
        "--uniform-weight", type=float, default=0.1, metavar="W",
        help="per-edge weight for --weights uniform (default: 0.1)",
    )
    compile_graph.add_argument(
        "--name", type=str, default=None,
        help="graph name recorded in the snapshot metadata (default: edge list stem)",
    )
    compile_graph.add_argument(
        "--dedup", action=argparse.BooleanOptionalAction, default=True,
        help="drop repeated undirected edges like the in-memory loader "
             "(--no-dedup skips the duplicate set for pre-deduplicated inputs)",
    )
    compile_graph.add_argument(
        "--chunk-edges", type=int, default=None, metavar="N",
        help="edges buffered per streaming pass chunk (default: 1M; lower "
             "bounds peak memory, higher is faster)",
    )


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #


def _load_graph(args: argparse.Namespace):
    if getattr(args, "snapshot", None):
        return CompiledGraph.open(args.snapshot)
    if getattr(args, "edge_list", None):
        graph = apply_degree_normalized_weights(read_snap_graph(args.edge_list))
        return graph
    return load_dataset(args.dataset, scale=args.scale, rng=args.seed)


def _resolve_pair(graph, args: argparse.Namespace) -> PairSpec:
    if (args.source is None) != (args.target is None):
        raise ReproError("--source and --target must be given together")
    if args.source is not None:
        return PairSpec(source=args.source, target=args.target)
    pair = select_pairs(
        graph, 1, pmax_threshold=args.min_pmax, pmax_ceiling=1.0, min_distance=3,
        screen_samples=400, rng=args.seed, engine=getattr(args, "engine", "python"),
        workers=getattr(args, "workers", None),
    )[0]
    print(f"auto-selected pair: initiator={pair.source} target={pair.target} "
          f"(screened pmax={pair.pmax:.3f})")
    return pair


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        num_pairs=args.pairs,
        realizations=args.realizations,
        eval_samples=args.eval_samples,
        pair_screen_samples=max(200, args.eval_samples),
        engine=getattr(args, "engine", "python"),
        workers=getattr(args, "workers", None),
        seed=args.seed,
    )


def _experiment_graphs(args: argparse.Namespace) -> dict:
    if getattr(args, "edge_list", None):
        graph = apply_degree_normalized_weights(read_snap_graph(args.edge_list))
        return {graph.name or "edge-list": graph}
    if args.all_datasets:
        return {
            name: load_dataset(name, scale=args.scale, rng=args.seed + index)
            for index, name in enumerate(DATASET_NAMES)
        }
    return {args.dataset: load_dataset(args.dataset, scale=args.scale, rng=args.seed)}


# --------------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------------- #


def _command_datasets(args: argparse.Namespace) -> int:
    rows = run_datasets_table(scale=args.scale, rng=args.seed)
    print(format_datasets_table(rows))
    return 0


def _command_raf(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    print(f"graph: {graph.num_nodes} users, {graph.num_edges} friendships, "
          f"avg degree {average_degree(graph):.2f}")
    pair = _resolve_pair(graph, args)
    problem = ActiveFriendingProblem(graph, pair.source, pair.target, alpha=args.alpha)
    epsilon = args.epsilon if args.epsilon is not None else args.alpha / 5.0
    config = RAFConfig(
        epsilon=epsilon,
        sample_policy=SamplePolicy.FIXED,
        fixed_realizations=args.realizations,
        engine=args.engine,
        workers=args.workers,
    )
    result = run_raf(problem, config, rng=args.seed)
    print(f"\nRAF invitation set ({result.size} users):")
    print("  " + ", ".join(str(node) for node in ordered(result.invitation)))
    print(f"\npmax estimate            : {result.pmax_estimate:.4f}")
    print(f"sampled realizations     : {result.num_realizations} ({result.num_type1} type-1)")
    print(f"covered / target         : {result.covered_weight} / {result.cover_target}")
    print(f"size bound 2*sqrt(|B1|)  : {result.approx_ratio_bound:.1f}")
    achieved = estimate_acceptance_probability(
        graph, pair.source, pair.target, result.invitation,
        num_samples=args.eval_samples, rng=args.seed + 1,
    ).probability
    print(f"estimated f(I_RAF)       : {achieved:.4f}")
    if args.compare_baselines:
        rows = [{"algorithm": "RAF", "size": result.size, "acceptance": achieved}]
        for name, builder in (("HD", high_degree_invitation), ("SP", shortest_path_invitation)):
            invitation = builder(problem, max(1, result.size)).invitation
            value = estimate_acceptance_probability(
                graph, pair.source, pair.target, invitation,
                num_samples=args.eval_samples, rng=args.seed + 1,
            ).probability
            rows.append({"algorithm": name, "size": len(invitation), "acceptance": value})
        print()
        print(format_table(rows, title="Baselines at the same budget"))
    return 0


def _command_vmax(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    pair = _resolve_pair(graph, args)
    vmax = compute_vmax(graph, pair.source, pair.target)
    print(f"|Vmax| = {len(vmax)}")
    print("  " + ", ".join(str(node) for node in ordered(vmax)))
    return 0


def _command_maximize(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    pair = _resolve_pair(graph, args)
    result = maximize_acceptance_probability(
        graph, pair.source, pair.target, budget=args.budget,
        num_realizations=args.realizations, rng=args.seed, engine=args.engine,
        workers=args.workers,
    )
    print(f"budgeted invitation set ({result.size} of at most {result.budget} users):")
    print("  " + ", ".join(str(node) for node in ordered(result.invitation)))
    print(f"estimated fraction of pmax achieved: {result.estimated_fraction_of_pmax:.3f}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    graphs = _experiment_graphs(args)
    wanted = EXPERIMENT_CHOICES[:-1] if args.name == "all" else (args.name,)
    pairs: dict = {}
    if any(name != "table1" for name in wanted):
        # Only the pair-based experiments need the pmax-screened pairs.
        pairs = {
            name: select_pairs(
                graph, config.num_pairs,
                pmax_threshold=config.pmax_threshold, pmax_ceiling=config.pmax_ceiling,
                min_distance=config.min_distance, screen_samples=config.pair_screen_samples,
                rng=config.seed, engine=config.engine,
            )
            for name, graph in graphs.items()
        }

    if "table1" in wanted:
        print(format_datasets_table(run_datasets_table(scale=args.scale, rng=args.seed)))
        print()
    if "fig3" in wanted:
        for name, graph in graphs.items():
            result = run_basic_experiment(graph, pairs[name], config, dataset_name=name, rng=args.seed)
            print(format_basic_experiment(result))
            print()
    for figure, baseline in (("fig4", "HD"), ("fig5", "SP")):
        if figure in wanted:
            for name, graph in graphs.items():
                result = run_ratio_comparison(
                    graph, pairs[name], config, baseline=baseline, dataset_name=name, rng=args.seed
                )
                print(format_ratio_comparison(result))
                print()
    if "table2" in wanted:
        results = [
            run_vmax_comparison(graph, pairs[name], config, dataset_name=name, rng=args.seed)
            for name, graph in graphs.items()
        ]
        print(format_vmax_comparison(results))
        print()
    if "fig6" in wanted:
        name, graph = next(iter(graphs.items()))
        result = run_realization_sweep(
            graph, pairs[name][0], config, dataset_name=name, rng=args.seed
        )
        print(format_realization_sweep(result))
        print()
    return 0


def _split_csv(value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


def _command_matrix(args: argparse.Namespace) -> int:
    try:
        budgets = tuple(int(item) for item in _split_csv(args.budgets))
    except ValueError:
        raise ReproError(f"--budgets must be comma-separated integers, got {args.budgets!r}") from None
    datasets = _split_csv(args.datasets)
    if args.snapshot is not None:
        # A mapped snapshot replaces the dataset axis: every cell runs on the
        # one compiled graph, and the fingerprint binds its digest.
        datasets = ("snapshot",)
    spec = MatrixSpec(
        datasets=datasets,
        algorithms=_split_csv(args.algorithms),
        budgets=budgets,
        engines=_split_csv(args.engines),
        scale=args.scale,
        alpha=args.alpha,
        realizations=args.realizations,
        eval_samples=args.eval_samples,
        seed=args.seed,
        pool=args.pool,
        pool_budget=args.pool_budget,
        snapshot=args.snapshot,
    )
    result = run_matrix(
        spec, args.output, workers=args.workers, resume=not args.fresh, echo=print
    )
    print()
    print(format_matrix(result))
    print(f"\nrecords: {result.output_dir}")
    return 0


def _serve_malformed(line_number: int, reason: str) -> int:
    print(f"error: malformed request on line {line_number}: {reason}", file=sys.stderr)
    return 1


def _serve_reply(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def _serve_fault_plan(args: argparse.Namespace):
    """Build ``repro serve``'s opt-in FaultPlan (``None`` without --fault-seed).

    The rate flags are refused without ``--fault-seed`` rather than silently
    ignored: fault injection must never be half-configured into a serve
    process by accident.
    """
    rates = (
        ("--fault-kill-rate", args.fault_kill_rate),
        ("--fault-slow-rate", args.fault_slow_rate),
        ("--fault-spill-rate", args.fault_spill_rate),
    )
    if args.fault_seed is None:
        for flag, value in rates:
            if value:
                raise ReproError(f"{flag} requires --fault-seed (fault injection is opt-in)")
        return None
    from repro.faults import FaultPlan

    try:
        return FaultPlan(
            args.fault_seed,
            kill_rate=args.fault_kill_rate,
            slow_rate=args.fault_slow_rate,
            spill_fail_rate=args.fault_spill_rate,
        )
    except (TypeError, ValueError) as error:
        raise ReproError(str(error)) from None


def _command_serve(args: argparse.Namespace) -> int:
    """Dispatch ``repro serve``: stdin loop by default, TCP with --listen.

    The stdin mode is the original interface and its output is unchanged;
    the tenancy/budget/deadline flags only make sense for the socket server
    and are refused otherwise rather than silently ignored.
    """
    if args.listen is not None:
        return _serve_listen(args)
    for flag, value, unset in (
        ("--tenant-burst", args.tenant_burst, None),
        ("--tenant-rate", args.tenant_rate, None),
        ("--max-tenants", args.max_tenants, 64),
        ("--connection-window", args.connection_window, DEFAULT_CONNECTION_WINDOW),
        ("--default-deadline-ms", args.default_deadline_ms, None),
    ):
        if value != unset:
            raise ReproError(f"{flag} requires --listen (the stdin loop is single-tenant)")
    try:
        return _serve_stdin(args)
    except BrokenPipeError:
        # The downstream reader (e.g. `repro serve | head -1`) closed our
        # stdout mid-stream.  That is a normal way for a consumer to stop:
        # drain quietly and exit clean instead of dying on the traceback.
        print(
            "serve: stdout closed by the downstream reader; "
            "drained in-flight requests and stopped",
            file=sys.stderr,
        )
        _neutralize_stdout()
        return 0
    except KeyboardInterrupt:
        print(
            "serve: interrupted; drained in-flight requests and stopped",
            file=sys.stderr,
        )
        return 130


def _neutralize_stdout() -> None:
    """Detach the broken stdout so interpreter-shutdown flushes stay quiet.

    After EPIPE the buffered writer still holds the half-written line; the
    interpreter flushes every open file at exit, which would print an
    ``Exception ignored`` traceback to stderr.  Flush-and-close now (eating
    the expected error) and point ``sys.stdout`` at /dev/null.
    """
    try:
        sys.stdout.close()
    except (OSError, ValueError):
        pass
    try:
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    except OSError:  # pragma: no cover - /dev/null always opens on POSIX
        pass


def _serve_stdin(args: argparse.Namespace) -> int:
    """The JSON-lines request loop.

    One request object per input line, one response line per request *in
    input order*.  Requests are pipelined through a bounded window of
    concurrent submissions, so duplicates piped back-to-back genuinely meet
    in flight and coalesce, and ``--max-in-flight`` genuinely bounds the
    concurrent executions (the window never exceeds it, so admission
    control only refuses work an external co-user of the service is
    already running).  Library-level failures -- admission control,
    unreachable pairs -- become ``"ok": false`` lines and the loop
    continues.  A *malformed* request (invalid JSON, not an object,
    unknown ``op``, bad fields) drains the window, prints a diagnostic to
    stderr and exits non-zero: a client speaking the wrong protocol should
    fail loudly, not be half-served.  ``stats`` is a barrier: it drains the
    window first, so its counters cover every preceding line.
    """
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    graph = _load_graph(args)
    window = args.max_in_flight if args.max_in_flight is not None else DEFAULT_CONNECTION_WINDOW
    with QueryService(
        graph,
        engine=args.engine,
        workers=args.workers,
        seed=args.seed,
        pool_budget=args.pool_budget,
        max_in_flight=args.max_in_flight,
        max_query_samples=args.max_query_samples,
        coalesce=args.coalesce,
        fault_plan=_serve_fault_plan(args),
    ) as service, ThreadPoolExecutor(
        max_workers=window, thread_name_prefix="repro-serve"
    ) as executor:
        pending: deque = deque()

        def drain(down_to: int = 0) -> None:
            while len(pending) > down_to:
                op, future = pending.popleft()
                try:
                    result = future.result()
                except ReproError as error:
                    _serve_reply({"ok": False, "op": op, "error": str(error)})
                else:
                    _serve_reply({"ok": True, "op": op, "result": to_jsonable(result)})

        for line_number, line in enumerate(sys.stdin, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                drain()
                return _serve_malformed(line_number, f"invalid JSON ({error})")
            if not isinstance(request, dict):
                drain()
                return _serve_malformed(line_number, "expected a JSON object")
            op = request.pop("op", None)
            if op == "stats":
                drain()
                _serve_reply({"ok": True, "op": op, "result": service.metrics().as_dict()})
                continue
            builder = QUERY_KINDS.get(op)
            if builder is None:
                drain()
                known = ", ".join(sorted((*QUERY_KINDS, "stats")))
                return _serve_malformed(line_number, f"unknown op {op!r} (expected {known})")
            try:
                query = builder(**request)
            except (TypeError, ValueError) as error:
                drain()
                return _serve_malformed(line_number, str(error))
            pending.append((op, executor.submit(service.submit, query)))
            drain(down_to=window - 1)
        drain()
    return 0


def _parse_listen(value: str) -> tuple[str, int]:
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise ReproError(f"--listen expects HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(f"--listen port must be an integer, got {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise ReproError(f"--listen port must be in [0, 65535], got {port}")
    return host, port


def _format_latency_ms(seconds: "float | None") -> str:
    return "-" if seconds is None else f"{seconds * 1000.0:.2f}"


def _server_stats_report(stats: dict) -> str:
    """The shutdown report of ``repro serve --listen``: summary + tenant table."""
    server = stats["server"]
    summary = (
        f"shutting down: {server['responses_total']} responses on "
        f"{server['connections_total']} connections "
        f"({server['malformed_total']} malformed, "
        f"{server['budget_rejected_total']} over budget, "
        f"{server['deadline_expired_total']} deadline-expired)"
    )
    rows = [
        (
            name,
            tenant["requests"],
            tenant["executed"],
            tenant["coalesced"],
            tenant["rejected"],
            _format_latency_ms(tenant["latency_p50"]),
            _format_latency_ms(tenant["latency_p99"]),
            "-" if tenant["tokens"] is None else f"{tenant['tokens']:.1f}",
        )
        for name, tenant in stats["tenants"].items()
    ]
    if not rows:
        return summary
    table = render_table(
        ("tenant", "requests", "executed", "coalesced", "rejected",
         "p50 ms", "p99 ms", "tokens"),
        rows,
        title="per-tenant service metrics",
    )
    return f"{summary}\n{table}"


#: Exit code of ``repro serve --listen`` when the port is already bound.
#: Distinct from the generic error exit so supervisors (and the regression
#: test) can tell "pick another port" apart from "the server is broken".
EXIT_ADDR_IN_USE = 2


def _serve_listen(args: argparse.Namespace) -> int:
    """Run the asyncio socket/HTTP server until interrupted."""
    import asyncio
    import errno

    host, port = _parse_listen(args.listen)
    fault_plan = _serve_fault_plan(args)
    graph = _load_graph(args)

    def echo(message: str) -> None:
        # Control-plane chatter goes to stderr: stdout stays clean in case
        # the process is composed into a pipeline.
        print(message, file=sys.stderr, flush=True)

    try:
        asyncio.run(serve_forever(
            graph,
            engine=args.engine,
            workers=args.workers,
            seed=args.seed,
            pool_budget=args.pool_budget,
            max_in_flight=args.max_in_flight,
            max_query_samples=args.max_query_samples,
            coalesce=args.coalesce,
            host=host,
            port=port,
            tenant_burst=args.tenant_burst,
            tenant_rate=args.tenant_rate,
            max_tenants=args.max_tenants,
            connection_window=args.connection_window,
            default_deadline_ms=args.default_deadline_ms,
            fault_plan=fault_plan,
            echo=echo,
            on_shutdown=lambda stats: echo(_server_stats_report(stats)),
        ))
    except KeyboardInterrupt:
        print("serve: interrupted; server closed cleanly", file=sys.stderr)
        return 0
    except OSError as error:
        if error.errno != errno.EADDRINUSE:
            raise
        # The most common operational mistake gets a one-line diagnostic
        # and its own exit code instead of an asyncio traceback.
        print(
            f"error: {host}:{port} is already in use; stop the other "
            "listener or pass a different --listen port (0 picks a free one)",
            file=sys.stderr,
        )
        return EXIT_ADDR_IN_USE
    except ValueError as error:
        # Configuration errors from QueryServer (e.g. --tenant-rate without
        # --tenant-burst) surface as the CLI's usual error: line.
        raise ReproError(str(error)) from None
    return 0


def _command_compile_graph(args: argparse.Namespace) -> int:
    extra = {}
    if args.chunk_edges is not None:
        if args.chunk_edges < 1:
            raise ReproError(f"--chunk-edges must be at least 1, got {args.chunk_edges}")
        extra["chunk_edges"] = args.chunk_edges
    result = compile_edge_list(
        args.edgelist,
        args.snapshot_dir,
        weights=args.weights,
        uniform_weight=args.uniform_weight,
        name=args.name,
        dedup=args.dedup,
        **extra,
    )
    print(f"snapshot: {result.directory}")
    print(f"  nodes            : {result.num_nodes}")
    print(f"  edges            : {result.num_edges}")
    print(f"  digest           : {result.digest}")
    print(f"  self-loops skipped: {result.self_loops_skipped}")
    print(f"  duplicates skipped: {result.duplicates_skipped}")
    return 0


def _command_bench_load(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    report = run_load_benchmark(
        graph,
        hot_pairs=args.hot_pairs,
        num_clients=args.clients,
        rounds=args.rounds,
        seed=args.seed,
        pool_seed=args.pool_seed,
        engine=args.engine,
        workers=args.workers,
        socket_transport=args.socket,
    )
    return emit_load_report(
        report,
        output=args.output,
        min_speedup=args.min_speedup,
        min_socket_speedup=args.min_socket_speedup,
        max_socket_p99_ms=args.max_socket_p99_ms,
    )


_COMMANDS = {
    "datasets": _command_datasets,
    "raf": _command_raf,
    "vmax": _command_vmax,
    "maximize": _command_maximize,
    "experiment": _command_experiment,
    "matrix": _command_matrix,
    "serve": _command_serve,
    "bench-load": _command_bench_load,
    "compile-graph": _command_compile_graph,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
