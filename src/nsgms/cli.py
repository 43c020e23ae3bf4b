"""Command-line interface.

Subcommands: model, sample, estimate, decorrelate, lemma, experiment.
Exit codes: 0 on success, 2 for configuration/usage errors, 3 for
numerical failures (non-positive-definite matrices, infeasible model
construction).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .concentration import QuadraticForm
from .decorrelate import StationarySeries, decorrelation_report, to_block_samples
from .errors import (
    ConfigError,
    ConstructionFailure,
    InfeasibleConfigError,
    NotPositiveDefiniteError,
    NsgmsError,
    TrendViolationError,
)
from .experiments import (
    emit_csv,
    emit_lemma_csv,
    load_config,
    run_lemma_check,
    run_node_recovery,
    run_phase_transition,
)
from .graph import random_cig
from .model import build_block_model, min_edge_strength
from .regression import DEFAULT_RANK_TOL, EstimatorConfig, default_lambda, estimate_graph, estimate_neighborhood
from .sampling import BlockDraws
from .serialize import (
    format_edges,
    format_neighborhood,
    load_model,
    load_samples,
    save_graph,
    save_model,
    save_samples,
)

_NUMERICAL_ERRORS = (
    ConstructionFailure,
    NotPositiveDefiniteError,
    InfeasibleConfigError,
    TrendViolationError,
    np.linalg.LinAlgError,
)


def _cmd_model(args) -> int:
    cig = random_cig(args.p, args.s_max, args.seed)
    model = build_block_model(cig, args.blocks, args.length, args.beta, args.coupling, args.seed + 1)
    save_model(model, args.output)
    if args.graph:
        save_graph(cig, args.graph)
    print(f"rho_min_achieved={min_edge_strength(model, cig):.6g}")
    return 0


def _cmd_sample(args) -> int:
    # Every block's root K^-1/2 is formed here, before the output is opened,
    # so a block that is not positive definite writes nothing; each block is
    # then drawn as it is written.
    draws = BlockDraws(load_model(args.model), args.seed)
    save_samples(draws, args.output, binary=args.binary)
    return 0


def _cmd_estimate(args) -> int:
    samples = load_samples(args.samples, binary=args.binary)
    lam = args.lam if args.lam is not None else default_lambda(args.rho_min)
    config = EstimatorConfig(s=args.s, lam=lam, rank_tol=args.rank_tol)
    if args.node is not None:
        text = format_neighborhood(estimate_neighborhood(samples, args.node, config)) + "\n"
    else:
        text = format_edges(estimate_graph(samples, config, combine=args.combine))
    if args.output:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decorrelate(args) -> int:
    record = load_samples(args.samples, binary=args.binary)
    if record.B != 1:
        raise ConfigError(f"expected a single-block record, got B={record.B}")
    series = StationarySeries(p=record.p, N=record.L, data=record.data[0], W=args.width)
    blocks = to_block_samples(series)
    # The report is measured first, so a report that fails leaves no output.
    rep = decorrelation_report(blocks) if args.report else None
    save_samples(blocks, args.output)
    if args.report:
        print(f"cross_block_energy={rep.cross_block_energy:.6g} "
              f"within_block_flatness={rep.within_block_flatness:.6g}")
    return 0


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _cmd_lemma(args) -> int:
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise ConfigError("--a and --b must be given together")
        form = QuadraticForm(a=_parse_floats(args.a), b=_parse_floats(args.b))
    elif args.random_len:
        rng = np.random.default_rng(args.seed)
        form = QuadraticForm(
            a=rng.uniform(-1, 1, args.random_len),
            b=rng.uniform(-1, 1, args.random_len),
        )
    else:
        raise ConfigError("give either --a/--b or --random-len")
    if args.etas:
        eta_grid = _parse_floats(args.etas)
    else:
        scale = np.linalg.norm(form.a) + np.linalg.norm(form.b)
        eta_grid = np.geomspace(0.1, 10.0, args.eta_points) * scale
    rows = run_lemma_check(form, eta_grid, args.trials, args.seed + 1)
    emit_lemma_csv(rows, args.output)
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    runner = run_phase_transition if args.phase else run_node_recovery
    rows = runner(config, timings=not args.no_timings)
    emit_csv(rows, args.output)
    return 0


def _int_at_least(least: int):
    """An argparse type: an integer >= ``least``; anything else is a usage error."""
    def parse(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"need an integer >= {least}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse says "invalid int value" for a non-integer
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="nsgms",
        description="Graphical model selection from block-wise Gaussian data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--workers", type=int, default=1,
                        help="ignored: trials run in one thread; accepted so that "
                             "existing command lines keep working")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("model", help="generate and serialize a random block model")
    q.add_argument("-p", type=int, required=True, help="number of nodes")
    q.add_argument("--s-max", type=int, required=True, help="maximum node degree")
    q.add_argument("-B", "--blocks", type=int, required=True)
    q.add_argument("-L", "--length", type=int, required=True)
    q.add_argument("--beta", type=float, required=True, help="covariance eigenvalue cap")
    q.add_argument("--coupling", type=float, required=True)
    q.add_argument("--seed", type=_int_at_least(0), required=True)
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--graph", help="also write the ground-truth edge list here")
    q.set_defaults(func=_cmd_model)

    q = sub.add_parser("sample", help="draw samples from a serialized model")
    q.add_argument("model")
    q.add_argument("--seed", type=_int_at_least(0), required=True)
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--binary", action="store_true", help="write raw float64 plus .meta sidecar")
    q.set_defaults(func=_cmd_sample)

    q = sub.add_parser("estimate", help="per-node or whole-graph neighborhood estimates")
    q.add_argument("samples")
    q.add_argument("--node", type=int, help="estimate only this node's neighborhood")
    q.add_argument("-s", type=int, required=True, help="subset size budget")
    penalty = q.add_mutually_exclusive_group(required=True)
    penalty.add_argument("--lam", type=float, help="penalty weight")
    penalty.add_argument("--rho-min", type=float, help="derive the penalty as rho_min/6")
    q.add_argument("--combine", choices=("OR", "AND"), default="OR")
    q.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    q.add_argument("--binary", action="store_true")
    q.add_argument("-o", "--output")
    q.set_defaults(func=_cmd_estimate)

    q = sub.add_parser("decorrelate", help="DFT a stationary record into i.i.d.-ish blocks")
    q.add_argument("samples", help="single-block samples file (the stationary record)")
    q.add_argument("--width", type=int, required=True, help="correlation width W (divides N)")
    q.add_argument("--binary", action="store_true")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--report", action="store_true", help="print decorrelation diagnostics")
    q.set_defaults(func=_cmd_decorrelate)

    q = sub.add_parser("lemma", help="tail bound vs Monte Carlo for a quadratic form")
    q.add_argument("--a", help="comma-separated quadratic coefficients")
    q.add_argument("--b", help="comma-separated linear coefficients")
    q.add_argument("--random-len", type=_int_at_least(1), help="draw coefficients uniform in [-1,1]")
    q.add_argument("--etas", help="comma-separated deviation levels")
    q.add_argument("--eta-points", type=_int_at_least(1), default=10,
                   help="auto grid size spanning [0.1,10] x (|a|+|b|)")
    q.add_argument("--trials", type=int, default=100_000)
    q.add_argument("--seed", type=_int_at_least(0), required=True)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=_cmd_lemma)

    q = sub.add_parser("experiment", help="run a declarative Monte Carlo sweep")
    q.add_argument("config")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--phase", action="store_true",
                   help="enforce the monotone error-rate trend across the grid")
    q.add_argument("--no-timings", action="store_true",
                   help="write wall_ms as 0 so output bytes are reproducible")
    q.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except NsgmsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
