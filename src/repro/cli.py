"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``map``        -- run one Iso-Map epoch over the harbor field and print
                    stats (optionally the ASCII map).
- ``compare``    -- run all five protocols and print the cost/fidelity
                    matrix.
- ``experiment`` -- regenerate one paper figure/table by id (e.g.
                    ``fig11a``, ``fig14a``, ``table1``, ``theorem41``) or
                    an ablation/extension id.
- ``serve``      -- run the async contour-map serving layer under
                    simulated client load and print a traffic report.
- ``theory``     -- print the paper's analytical Table 1.
- ``list``       -- list available experiment ids.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional


def _experiment_registry() -> Dict[str, Callable]:
    """Lazy registry: experiment id -> runner taking (jobs, cache_dir).

    Sweep experiments ported to :mod:`repro.experiments.runner` honour
    the worker count and result cache; the remaining single-shot
    experiments ignore them.
    """
    from repro.experiments.ablations import (
        run_ablation_filtering_placement,
        run_ablation_gradient,
        run_ablation_localization,
        run_ablation_regression,
        run_ablation_regulation,
    )
    from repro.experiments.extensions import (
        run_continuous_monitoring,
        run_localized_isomap,
        run_lossy_links,
    )
    from repro.experiments.fig07_gradient_error import run_fig07
    from repro.experiments.fig_continuous import run_fig_continuous
    from repro.experiments.fig_faults import run_fig_faults
    from repro.experiments.fig_predict import run_fig_predict
    from repro.experiments.fig_simplify import run_fig_simplify
    from repro.experiments.fig10_maps import run_fig10
    from repro.experiments.fig11_accuracy import run_fig11a, run_fig11b
    from repro.experiments.fig12_hausdorff import run_fig12a, run_fig12b
    from repro.experiments.fig13_filtering import run_fig09, run_fig13
    from repro.experiments.fig14_traffic import (
        MILLION_SCALING_N,
        TINYDB_MAX_N,
        run_fig14_scaling,
        run_fig14a,
        run_fig14b,
    )
    from repro.experiments.fig15_computation import run_fig15
    from repro.experiments.fig16_energy import run_fig16, run_fig16_scaling
    from repro.experiments.table1_overheads import run_table1, run_theorem41

    return {
        "fig07": lambda jobs, cache: run_fig07(seeds=(1,)),
        "fig09": lambda jobs, cache: run_fig09(),
        "fig10": lambda jobs, cache: run_fig10(seed=1),
        "fig11a": lambda jobs, cache: run_fig11a(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig11b": lambda jobs, cache: run_fig11b(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig12a": lambda jobs, cache: run_fig12a(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig12b": lambda jobs, cache: run_fig12b(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig13": lambda jobs, cache: run_fig13(seeds=(1,)),
        "fig14a": lambda jobs, cache: run_fig14a(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig14b": lambda jobs, cache: run_fig14b(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig14_scaling": lambda jobs, cache: run_fig14_scaling(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        # Million-node regime: faulted, tile-sharded epochs with TinyDB
        # blanked where its epoch is infeasible.  Hours of single-core
        # compute at n=10^6 -- run with a cache_dir.
        "fig14_scaling_xl": lambda jobs, cache: run_fig14_scaling(
            ns=MILLION_SCALING_N, seeds=(1,), jobs=jobs, cache_dir=cache,
            fault_intensity=0.5, tile_size="auto", tinydb_max_n=TINYDB_MAX_N,
        ),
        "fig15": lambda jobs, cache: run_fig15(seeds=(1,)),
        "fig16": lambda jobs, cache: run_fig16(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig16_scaling": lambda jobs, cache: run_fig16_scaling(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig16_scaling_xl": lambda jobs, cache: run_fig16_scaling(
            ns=MILLION_SCALING_N, seeds=(1,), jobs=jobs, cache_dir=cache,
            fault_intensity=0.5, tile_size="auto", tinydb_max_n=TINYDB_MAX_N,
        ),
        "fig_continuous": lambda jobs, cache: run_fig_continuous(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig_faults": lambda jobs, cache: run_fig_faults(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "fig_predict": lambda jobs, cache: run_fig_predict(
            seeds=(7,), jobs=jobs, cache_dir=cache
        ),
        "fig_simplify": lambda jobs, cache: run_fig_simplify(
            seeds=(1,), jobs=jobs, cache_dir=cache
        ),
        "table1": lambda jobs, cache: run_table1(seeds=(1,)),
        "theorem41": lambda jobs, cache: run_theorem41(seeds=(1,)),
        "ablation_gradient": lambda jobs, cache: run_ablation_gradient(seeds=(1,)),
        "ablation_filter_placement": lambda jobs, cache: run_ablation_filtering_placement(
            seeds=(1,)
        ),
        "ablation_regulation": lambda jobs, cache: run_ablation_regulation(
            seeds=(1,)
        ),
        "ablation_regression": lambda jobs, cache: run_ablation_regression(
            seeds=(1,)
        ),
        "ablation_localization": lambda jobs, cache: run_ablation_localization(
            seeds=(1,)
        ),
        "ext_lossy_links": lambda jobs, cache: run_lossy_links(seeds=(1,)),
        "ext_continuous": lambda jobs, cache: run_continuous_monitoring(),
        "ext_localization": lambda jobs, cache: run_localized_isomap(seeds=(1,)),
    }


def _cache_dir(path: str) -> str:
    """``--cache`` argument type: a directory, or a path not yet created."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} exists and is not a directory")
    return path


def _cmd_map(args: argparse.Namespace) -> int:
    from repro import profiling
    from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
    from repro.energy import energy_from_costs
    from repro.field import make_harbor_field
    from repro.field.harbor import DEFAULT_ISOLEVELS
    from repro.metrics import mapping_accuracy
    from repro.network import SensorNetwork
    from repro.viz import render_band_map

    if args.profile:
        profiling.reset()
        profiling.enable()
    field = make_harbor_field(seed=args.field_seed)
    network = SensorNetwork.random_deploy(
        field, args.nodes, radio_range=args.radio_range, seed=args.seed
    )
    query = ContourQuery(6.0, 12.0, 2.0, epsilon_fraction=args.epsilon)
    protocol = IsoMapProtocol(query, FilterConfig(args.sa, args.sd))
    result = protocol.run(network)

    accuracy = mapping_accuracy(field, result.contour_map, list(DEFAULT_ISOLEVELS))
    energy = energy_from_costs(result.costs)
    print(f"nodes                : {network.n_nodes} (degree {network.average_degree():.1f})")
    print(f"isoline nodes        : {len(result.detection.isoline_nodes)}")
    print(f"reports delivered    : {len(result.delivered_reports)}")
    print(f"traffic              : {result.costs.total_traffic_kb():.1f} KB")
    print(f"mapping accuracy     : {accuracy:.1%}")
    print(f"per-node energy      : {energy.per_node_mean_mj():.3f} mJ")
    if args.render:
        print()
        print(render_band_map(result.contour_map, nx=args.width, ny=args.height))
    if args.profile:
        print()
        print(profiling.format_table("sink-side stage profile"))
    return 0


def _cmd_compare_impl(args: argparse.Namespace) -> int:
    from repro.baselines import (
        DataSuppressionProtocol,
        EScanProtocol,
        INLRProtocol,
        TinyDBProtocol,
    )
    from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
    from repro.energy import energy_from_costs
    from repro.field import make_harbor_field
    from repro.field.harbor import DEFAULT_ISOLEVELS
    from repro.metrics import mapping_accuracy
    from repro.network import SensorNetwork

    field = make_harbor_field()
    levels = list(DEFAULT_ISOLEVELS)
    random_net = SensorNetwork.random_deploy(field, args.nodes, seed=args.seed)
    grid_net = SensorNetwork.grid_deploy(field, args.nodes, seed=args.seed)

    print(f"{'protocol':12s} {'delivered':>9s} {'traffic KB':>10s} {'ops/node':>9s} "
          f"{'energy mJ':>9s} {'accuracy':>8s}")
    iso = IsoMapProtocol(ContourQuery(6.0, 12.0, 2.0), FilterConfig(30, 4)).run(random_net)
    rows = [("iso-map", len(iso.delivered_reports), iso.costs,
             mapping_accuracy(field, iso.contour_map, levels))]
    for proto, net in (
        (TinyDBProtocol(levels), grid_net),
        (INLRProtocol(levels), grid_net),
        (EScanProtocol(levels), random_net),
        (DataSuppressionProtocol(levels), grid_net),
    ):
        run = proto.run(net)
        rows.append((run.name, run.reports_delivered, run.costs,
                     mapping_accuracy(field, run.band_map, levels)))
    for name, delivered, costs, acc in rows:
        e = energy_from_costs(costs)
        print(f"{name:12s} {delivered:9d} {costs.total_traffic_kb():10.1f} "
              f"{costs.per_node_ops_mean():9.1f} {e.per_node_mean_mj():9.3f} {acc:8.1%}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import profiling

    registry = _experiment_registry()
    if args.id not in registry:
        print(f"unknown experiment {args.id!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.profile:
        profiling.reset()
        profiling.enable()
    result = registry[args.id](args.jobs, args.cache)
    print(result.to_table())
    if args.profile:
        print()
        print(profiling.format_table("stage profile (all workers)"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serving import ChaosPlan, MapService, SessionConfig, run_load
    from repro.serving.supervisor import SupervisorConfig

    if args.scenario not in ("steady", "tide", "storm", "pulse", "front"):
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        return 2
    if not 0.0 <= args.chaos <= 1.0:
        print("--chaos must be in [0, 1]", file=sys.stderr)
        return 2
    if args.simplify_tolerance is not None and args.simplify_tolerance < 0:
        print("--simplify-tolerance must be non-negative", file=sys.stderr)
        return 2
    if args.simplified_subscribers and args.simplify_tolerance is None:
        print("--simplified-subscribers needs --simplify-tolerance "
              "(the session must produce the SIMPLIFIED stream)",
              file=sys.stderr)
        return 2
    if args.prediction_tolerance is not None and args.prediction_tolerance <= 0:
        print("--prediction-tolerance must be positive", file=sys.stderr)
        return 2
    if args.prediction_heartbeat < 0:
        print("--prediction-heartbeat must be non-negative", file=sys.stderr)
        return 2
    config = SessionConfig(
        query_id="harbor",
        n_nodes=args.nodes,
        seed=args.seed,
        field="harbor",
        scenario=args.scenario,
        value_lo=6.0,
        value_hi=12.0,
        granularity=2.0,
        epsilon_fraction=0.05,
        radio_range=1.5,
        simplify_tolerance=args.simplify_tolerance,
        prediction_tolerance=args.prediction_tolerance,
        prediction_heartbeat=args.prediction_heartbeat,
    )
    chaos = ChaosPlan.at_intensity(args.chaos, seed=args.chaos_seed)
    supervision = None
    if not chaos.is_null:
        # Injected hangs burn a full compute deadline each; keep it
        # short so a chaos demo finishes in seconds, not minutes.
        supervision = SupervisorConfig(
            compute_timeout=1.0, backoff_base=0.005, backoff_cap=0.04
        )

    async def run():
        service = MapService(
            [config], n_shards=args.shards,
            supervision=supervision, chaos=chaos,
        )
        loop = asyncio.get_running_loop()
        interrupted = asyncio.Event()
        handled = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, interrupted.set)
                handled.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platforms/threads without loop signal support
        load = asyncio.ensure_future(run_load(
            service,
            "harbor",
            epochs=args.epochs,
            n_snapshot_clients=args.clients,
            n_subscribers=args.subscribers,
            n_simplified_subscribers=args.simplified_subscribers,
            epoch_interval=args.interval,
        ))
        stopper = asyncio.ensure_future(interrupted.wait())
        try:
            await asyncio.wait(
                [load, stopper], return_when=asyncio.FIRST_COMPLETED
            )
            if interrupted.is_set() and not load.done():
                load.cancel()
                try:
                    await load
                except asyncio.CancelledError:
                    pass
                # run_load stops the service itself on the happy path;
                # on interrupt we shut it down here -- draining
                # subscribers, then closing the shard pool (which kills
                # stragglers rather than hang).
                await service.stop(drain=True)
                return None
            return await load
        finally:
            stopper.cancel()
            for sig in handled:
                loop.remove_signal_handler(sig)

    report = asyncio.run(run())
    if report is None:
        print("interrupted: service stopped cleanly", flush=True)
        return 0
    print(report.to_table())
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    from repro.analysis import table1

    print(table1())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for key in sorted(_experiment_registry()):
        print(key)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Iso-Map reproduction: run the protocol, the baselines, "
        "or any paper experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="run one Iso-Map epoch on the harbor field")
    p_map.add_argument("--nodes", type=int, default=2500)
    p_map.add_argument("--seed", type=int, default=1)
    p_map.add_argument("--field-seed", type=int, default=2003)
    p_map.add_argument("--radio-range", type=float, default=1.5)
    p_map.add_argument("--epsilon", type=float, default=0.05,
                       help="border region as a fraction of the granularity")
    p_map.add_argument("--sa", type=float, default=30.0,
                       help="angular separation filter threshold (deg)")
    p_map.add_argument("--sd", type=float, default=4.0,
                       help="distance separation filter threshold")
    p_map.add_argument("--render", action="store_true", help="print the ASCII map")
    p_map.add_argument("--width", type=int, default=64)
    p_map.add_argument("--height", type=int, default=28)
    p_map.add_argument("--profile", action="store_true",
                       help="print a sink-side stage timing breakdown")
    p_map.set_defaults(func=_cmd_map)

    p_cmp = sub.add_parser("compare", help="run all five protocols")
    p_cmp.add_argument("--nodes", type=int, default=2500)
    p_cmp.add_argument("--seed", type=int, default=1)
    p_cmp.set_defaults(func=_cmd_compare_impl)

    p_exp = sub.add_parser("experiment", help="regenerate one paper experiment")
    p_exp.add_argument("id", help="experiment id (see: python -m repro list)")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweep experiments "
                       "(results are identical at any job count)")
    p_exp.add_argument("--cache", type=_cache_dir, default=None, metavar="DIR",
                       help="cache sweep-point results in DIR and reuse them")
    p_exp.add_argument("--profile", action="store_true",
                       help="print a stage timing breakdown after the table "
                       "(worker-process stages are merged in)")
    p_exp.set_defaults(func=_cmd_experiment)

    p_srv = sub.add_parser(
        "serve", help="run the map-serving layer under simulated client load"
    )
    p_srv.add_argument("--nodes", type=int, default=2500)
    p_srv.add_argument("--seed", type=int, default=1)
    p_srv.add_argument("--epochs", type=int, default=6)
    p_srv.add_argument("--clients", type=int, default=16,
                       help="concurrent snapshot-polling clients")
    p_srv.add_argument("--subscribers", type=int, default=200,
                       help="concurrent delta-stream subscribers")
    p_srv.add_argument("--simplify-tolerance", type=float, default=None,
                       help="also produce the SIMPLIFIED stream at this "
                       "Hausdorff tolerance (field units); enables "
                       "--simplified-subscribers")
    p_srv.add_argument("--simplified-subscribers", type=int, default=0,
                       help="subscribers negotiating the SIMPLIFIED "
                       "encoding (requires --simplify-tolerance)")
    p_srv.add_argument("--prediction-tolerance", type=float, default=None,
                       help="run the monitor with model-predictive report "
                       "suppression at this position tolerance (field "
                       "units); deltas are tagged DELTA_PREDICTED")
    p_srv.add_argument("--prediction-heartbeat", type=int, default=8,
                       help="max consecutive suppressed epochs per track "
                       "(staleness bound; 0 disables suppression)")
    p_srv.add_argument("--interval", type=float, default=0.0,
                       help="seconds between epochs")
    p_srv.add_argument("--shards", type=int, default=0,
                       help="worker processes (0 = compute inline)")
    p_srv.add_argument("--scenario", default="tide",
                       help="field evolution: steady, tide, storm, pulse "
                       "or front (rigid steady drift)")
    p_srv.add_argument("--chaos", type=float, default=0.0,
                       help="seeded failure-injection intensity in [0, 1] "
                       "(worker kills, hangs, drops, corruption)")
    p_srv.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the chaos plan's counter-based draws")
    p_srv.set_defaults(func=_cmd_serve)

    p_theory = sub.add_parser("theory", help="print the analytical Table 1")
    p_theory.set_defaults(func=_cmd_theory)

    p_list = sub.add_parser("list", help="list experiment ids")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into something that closed early (e.g. head).
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
