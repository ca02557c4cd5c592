"""placeweave command line: pipeline stages as subcommands.

Exit codes: 0 success, 2 input or schema error, 3 invariant violation.
A missing input, a directory where a file belongs, or an --out that is a
file exits 2 naming the path. Logs go to stderr; data only to files.

main lets OpenBLAS's idle worker threads sleep at once
(OPENBLAS_THREAD_TIMEOUT=4) unless the environment already sets that
variable; the pool size is left to OpenBLAS.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields

from . import __version__
from .config import CENSUS_MODES, NETWORK_MODES, WEIGHTING_MODES, RunConfig, validate_config
from .errors import InvariantError, SchemaError

logger = logging.getLogger("placeweave")


def _global_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument(
        "--threads", type=int,
        help="thread count, at least 1 (default: 1); changes neither the output nor the work",
    )
    common.add_argument("--seed", type=int, help="seed recorded in reports and used by generators")
    common.add_argument("--out", help="output directory (or file for refnet)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = argparse.ArgumentParser(
        prog="placeweave",
        description="Weighted place networks and motif censuses from device stay records",
    )
    parser.add_argument("--version", action="version", version=f"placeweave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic world and traffic")
    p.add_argument("--world", required=True, help="world spec JSON")
    p.add_argument("--traffic", required=True, help="traffic spec JSON")

    p = sub.add_parser("ingest", parents=[common], help="parse stops, apply the visit criterion")
    p.add_argument("--stops", required=True)
    p.add_argument("--pois", required=True)
    p.add_argument("--min-dwell", type=int, dest="min_dwell")
    p.add_argument("--utc-offset", type=float, dest="utc_offset")

    p = sub.add_parser("network", parents=[common], help="build daily and merged place networks")
    p.add_argument("--sequences", required=True)
    p.add_argument("--mode", choices=NETWORK_MODES, dest="network_mode")

    p = sub.add_parser("metrics", parents=[common], help="degree, clustering and fit metrics")
    p.add_argument("--network", required=True)

    p = sub.add_parser("refnet", parents=[common], help="generate a reference network")
    p.add_argument("--kind", required=True, choices=("random", "scale-free"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--avg-degree", required=True, type=float, dest="avg_degree")

    p = sub.add_parser("motifs", parents=[common], help="motif census of a network or trajectories")
    p.add_argument("--network")
    p.add_argument("--mode", choices=CENSUS_MODES, dest="census_mode")
    p.add_argument("--sequences")
    p.add_argument("--pois")
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.add_argument("--distance-weighting", choices=WEIGHTING_MODES, dest="distance_weighting")

    p = sub.add_parser("attributed", parents=[common], help="attributed motif and category ranking")
    p.add_argument("--instances", required=True)
    p.add_argument("--pois", required=True)
    p.add_argument("--top", type=int, dest="top_k")

    p = sub.add_parser("series", parents=[common], help="daily series, distance tables, report")
    p.add_argument("--census-dir", required=True, dest="census_dir")
    p.add_argument("--pois", required=True)
    p.add_argument("--summary", help="summary.json from the metrics stage")
    p.add_argument("--window", type=int, default=7)
    p.add_argument("--distance-weighting", choices=WEIGHTING_MODES, dest="distance_weighting")

    p = sub.add_parser("run", parents=[common], help="full pipeline: ingest through report")
    p.add_argument("--stops")
    p.add_argument("--pois")
    p.add_argument("--distance-weighting", choices=WEIGHTING_MODES, dest="distance_weighting")

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = validate_config(getattr(args, "config", None))
    return cfg.with_overrides(**{f.name: getattr(args, f.name, None) for f in fields(RunConfig)})


def _require_out(cfg: RunConfig) -> str:
    if not cfg.out:
        raise SchemaError("--out is required")
    return cfg.out


def _dispatch(args: argparse.Namespace) -> None:
    from . import ingest, pipeline  # here, so that building the parser loads no numpy
    from .network import read_network

    cfg = _resolve_config(args)
    if args.command == "synth":
        pipeline.stage_synth(args.world, args.traffic, _require_out(cfg))
    elif args.command == "ingest":
        pipeline.stage_ingest(
            cfg.stops, cfg.pois, cfg.min_dwell, cfg.utc_offset, _require_out(cfg)
        )
    elif args.command == "network":
        sequences = ingest.read_sequences(args.sequences)
        pipeline.stage_network(sequences, cfg.network_mode, _require_out(cfg))
    elif args.command == "metrics":
        pipeline.stage_metrics(read_network(args.network), _require_out(cfg))
    elif args.command == "refnet":
        if not cfg.out:
            raise SchemaError("--out FILE is required")
        kind = args.kind.replace("-", "_")
        pipeline.stage_refnet(kind, args.n, args.avg_degree, cfg.seed, cfg.out)
    elif args.command == "motifs":
        pipeline.stage_motifs(
            _require_out(cfg),
            mode=cfg.census_mode,
            min_count=args.min_count,
            weighting=cfg.distance_weighting,
            **pipeline.load_motifs_inputs(cfg.census_mode, args.network, args.sequences, args.pois),
        )
    elif args.command == "attributed":
        instances = pipeline.load_instance_table(args.instances, args.pois)
        pipeline.stage_attributed(instances, cfg.top_k, _require_out(cfg))
    elif args.command == "series":
        out = _require_out(cfg)
        table, census_doc, summary_doc = pipeline.load_series_inputs(
            args.census_dir, args.pois, out, args.summary
        )
        pipeline.stage_series(table, census_doc, summary_doc, out, cfg, window=args.window)
    elif args.command == "run":
        if not (cfg.stops and cfg.pois):
            raise SchemaError("run requires --stops and --pois (or config values)")
        _require_out(cfg)
        pipeline.run_pipeline(cfg)
    else:  # pragma: no cover - argparse enforces the choices
        raise SchemaError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    # numpy first loads in _dispatch, and with it OpenBLAS, whose nproc - 1
    # workers busy-wait 2**28 cycles (about 0.1 s) after the load and after
    # each BLAS call. The one call, codegrees' dense A @ A, still runs on
    # the whole pool; 4 (2**4 cycles, OpenBLAS's minimum) only puts the
    # workers to sleep at once. On 2 cores this took the readme benchmark
    # job from 1.05 to 0.80 s of CPU (medians of 10 runs) at equal wall time.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    try:
        _dispatch(args)
    except SchemaError as exc:
        logger.error("%s", exc)
        return 2
    except FileNotFoundError as exc:
        logger.error("missing input: %s", exc)
        return 2
    except (IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        # a bad path, not a failing disk, so no bare OSError here
        logger.error("%s: %s", exc.strerror, exc.filename)
        return 2
    except ValueError as exc:
        logger.error("%s", exc)
        return 2
    except InvariantError as exc:
        logger.error("invariant violation: %s", exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
