"""Command-line front end.

Subcommands: ``analyze`` (one line, JSON report), ``sweep`` (grid of lines,
CSV or JSON table), ``simulate`` (simulated cross-check, JSON), and
``phases`` (phase-space inspection). Exit codes: 0 success, 2 input error,
3 numerical error; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .errors import InputError, NegativeBufferError, NumericalError
from .generator import triplet_lines
from .model import TandemConfig, load_config_file, validate_config
from .phases import DEFAULT_MAX_PHASES, enumerate_phases
from .simulate import simulate_saturated
from .throughput import lambda_max

SWEEP_HEADER = "servers,buffer_capacity,mu0,mu_rest,M,lambda_max"
MAX_STATES_HELP = "phase-count cap (default %(default)s)"


def _parse_list(text: str, convert: type, noun: str) -> list:
    """A comma-separated list of ``convert`` values; ``noun`` names them in errors."""
    items = [piece.strip() for piece in text.split(",")]
    try:
        return [convert(piece) for piece in items if piece != ""]
    except ValueError:
        raise InputError(f"expected a comma-separated list of {noun}: {text!r}")


def _parse_server_counts(text: str) -> list[int]:
    """Server-count grids: "3..6" (inclusive range), "4", or "3,5,7"."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise InputError(f"expected a server range like 3..6: {text!r}")
        counts = list(range(lo, hi + 1))
    else:
        counts = _parse_list(text, int, "integers")
    if not counts or min(counts) < 1:
        raise InputError(f"expected at least one server count, each 1 or more: {text!r}")
    return counts


def _config_from_args(args: argparse.Namespace) -> TandemConfig:
    if args.config is not None:
        if args.mu is not None or args.buffers is not None:
            raise InputError("--config cannot be combined with --mu/--buffers")
        return load_config_file(args.config)
    if args.mu is None:
        raise InputError("either --mu or --config is required")
    rates = _parse_list(args.mu, float, "numbers")
    buffers = [] if args.buffers is None else _parse_list(args.buffers, int, "integers")
    # homogeneous shorthand: one capacity stands for every interior buffer
    if len(buffers) == 1 and len(rates) > 2:
        buffers = buffers * (len(rates) - 1)
    return validate_config(rates, buffers)


def _check_max_states(args: argparse.Namespace) -> None:
    # checked before any line, so that no line is refused by a cap of 0
    if args.max_states < 1:
        raise InputError(f"--max-states must be at least 1, got {args.max_states}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", help="comma-separated service rates, first server first")
    parser.add_argument(
        "--buffers",
        help="comma-separated interior buffer capacities; a single value is "
        "replicated for every buffer",
    )
    parser.add_argument("--config", help="path to a JSON config document")


def _cmd_analyze(args: argparse.Namespace) -> int:
    _check_max_states(args)
    config = _config_from_args(args)
    report = lambda_max(config, max_phases=args.max_states)
    if args.dump_blocks:
        blocks = report.blocks
        n = blocks.num_phases
        print(f"# level-preserving block {n} x {n}", file=sys.stderr)
        for line in triplet_lines(blocks.level_same):
            print(line, file=sys.stderr)
        print(f"# level-decreasing block {n} x {n}", file=sys.stderr)
        for line in triplet_lines(blocks.level_down):
            print(line, file=sys.stderr)
    out: dict = {
        "lambda_max": report.lambda_max,
        "M": report.num_phases,
        "residual": report.residual,
        "solver": report.solver,
        "iterations": report.iterations,
    }
    if report.closed_form is not None:
        out["closed_form_check"] = {
            "value": report.closed_form,
            "abs_diff": abs(report.closed_form - report.lambda_max),
        }
    if args.dump_pi:
        out["pi"] = list(report.pi)
    print(json.dumps(out))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_max_states(args)
    server_counts = _parse_server_counts(args.servers)
    mu0_values = _parse_list(args.mu0, float, "numbers")
    if not mu0_values:
        raise InputError(f"expected at least one first-server rate: {args.mu0!r}")
    mu_rest = args.mu_rest
    capacity = args.buffer
    # checked here, not per line: a one-server line has no buffer to check
    if capacity < 0:
        raise NegativeBufferError(f"--buffer must be non-negative, got {capacity}")
    rows = []
    for servers in server_counts:
        for mu0 in mu0_values:
            config = validate_config(
                [mu0] + [mu_rest] * (servers - 1), [capacity] * (servers - 1)
            )
            report = lambda_max(config, max_phases=args.max_states)
            rows.append((servers, capacity, mu0, mu_rest, report.num_phases,
                         report.lambda_max))

    full = args.precision == "full"
    if args.format == "csv":
        print(SWEEP_HEADER)
        for servers, cap, mu0, rest, m, value in rows:
            rate = f"{value:.17g}" if full else f"{value:.9f}"
            print(f"{servers},{cap},{mu0},{rest},{m},{rate}")
    else:
        payload = [
            {
                "servers": servers,
                "buffer_capacity": cap,
                "mu0": mu0,
                "mu_rest": rest,
                "M": m,
                "lambda_max": value if full else round(value, 9),
            }
            for servers, cap, mu0, rest, m, value in rows
        ]
        print(json.dumps(payload))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = simulate_saturated(config, args.departures, seed=args.seed)
    print(
        json.dumps(
            {
                "estimate": result.throughput_estimate,
                "ci95": result.ci_half_width,
                "departures": result.departures_counted,
                "seed": result.seed,
            }
        )
    )
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    _check_max_states(args)
    if args.k < 0:
        raise InputError("--k must be non-negative")
    if args.buffer < 0:
        raise NegativeBufferError(f"--buffer must be non-negative, got {args.buffer}")
    config = validate_config([1.0] * (args.k + 1), [args.buffer] * args.k)
    space = enumerate_phases(config, max_phases=args.max_states)
    print(space.num_phases)
    if args.list:
        for m in space.phases.tolist():
            print(",".join(str(v) for v in m))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tandemqbd",
        description="Maximum-throughput analysis of tandem lines with "
        "finite buffers and blocking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="saturation rate of one line")
    _add_config_flags(p_analyze)
    p_analyze.add_argument("--dump-blocks", action="store_true",
                           help="dump the rate blocks as triplets to stderr")
    p_analyze.add_argument("--dump-pi", action="store_true",
                           help="include the stationary phase vector in the output")
    p_analyze.add_argument("--max-states", type=int, default=DEFAULT_MAX_PHASES,
                           help=MAX_STATES_HELP)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="grid of homogeneous-buffer lines")
    p_sweep.add_argument("--servers", required=True,
                         help='server counts: "3..6", "4", or "3,5"')
    p_sweep.add_argument("--mu0", required=True,
                         help="comma-separated rates for the first server")
    p_sweep.add_argument("--mu-rest", type=float, default=1.0,
                         help="rate shared by the remaining servers (default 1.0)")
    p_sweep.add_argument("--buffer", type=int, default=0,
                         help="capacity shared by every interior buffer (default 0)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--precision", choices=("9", "full"), default="9",
                         help="9-decimal fixed output or full double precision")
    p_sweep.add_argument("--max-states", type=int, default=DEFAULT_MAX_PHASES,
                         help=MAX_STATES_HELP)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="simulated saturation estimate")
    _add_config_flags(p_sim)
    p_sim.add_argument("--departures", type=int, default=1_000_000,
                       help="departures to count after warm-up (default %(default)s)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_phases = sub.add_parser("phases", help="count (and list) phase tuples")
    p_phases.add_argument("--k", type=int, required=True,
                          help="number of stations after the first server")
    p_phases.add_argument("--buffer", type=int, default=0,
                          help="capacity shared by every interior buffer")
    p_phases.add_argument("--list", action="store_true",
                          help="also print every phase, one per line")
    p_phases.add_argument("--max-states", type=int, default=DEFAULT_MAX_PHASES)
    p_phases.set_defaults(func=_cmd_phases)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parsing leaves no state on the parser: main builds it once per process
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
