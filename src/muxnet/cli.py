"""Command-line entry point: muxnet verify | simulate | sweep | capacity.

Exit codes: 0 success, 1 check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import ConfigError, MuxnetError
from .experiments import (
    DEFAULT_CONFIG,
    REPORT_COLUMNS,
    SWEEPABLE_PARAMS,
    VERIFY_COLUMNS,
    report_to_json,
    rows_to_csv,
    run_capacity,
    run_simulate,
    run_sweep,
    run_verify,
    verify_seed,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _add_common(sub: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        sub.add_argument("--config", metavar="PATH", help="JSON experiment config")
        sub.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    sub.add_argument("--out", metavar="PATH", help="write the report here (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muxnet",
        description="Secure multiplex network coding: simulate, verify bounds, sweep parameters.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run the exhaustive invariant suites")
    _add_common(p_verify)

    p_sim = subs.add_parser("simulate", help="run one experiment and report leakage rows")
    _add_common(p_sim)

    p_sweep = subs.add_parser("sweep", help="run one experiment per parameter value")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE_PARAMS)
    p_sweep.add_argument(
        "--values", required=True, metavar="LIST", help="comma-separated numeric values"
    )
    p_sweep.add_argument(
        "--parallel", type=_positive_int, default=1, metavar="N",
        help="worker processes, at most one per value",
    )

    p_cap = subs.add_parser("capacity", help="rate-tuple membership and leakage-rate floors")
    _add_common(p_cap, config=False)
    p_cap.add_argument("--rates", required=True, metavar="LIST", help="comma-separated rates")
    p_cap.add_argument("--n", required=True, type=_positive_int, help="symbols per slot")
    p_cap.add_argument("--mu", type=_positive_int, default=1, help="tapped links per slot")

    return parser


def _load_config(args) -> dict:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        config = json.loads(json.dumps(DEFAULT_CONFIG))
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_values(raw: str, flag: str) -> list[float]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            num = float(piece)
        except ValueError:
            raise ConfigError(f"{flag}: {piece!r} is not a number") from None
        if not math.isfinite(num):
            raise ConfigError(f"{flag}: {piece!r} is not a finite number")
        out.append(int(num) if num == int(num) else num)
    if not out:
        raise ConfigError(f"{flag} is empty")
    return out


# built by the first `main` call and reused: each parser is a reference
# cycle that only a full collection frees
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.command == "verify":
            seed = verify_seed(_load_config(args))
            rows, all_hold = run_verify(seed)
            if args.format == "json":
                _emit(report_to_json({"checks": rows, "all_hold": all_hold}), args.out)
            else:
                _emit(rows_to_csv(rows, VERIFY_COLUMNS), args.out)
            if not all_hold:
                failing = [r["check"] for r in rows if not r["holds"]]
                print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
                return EXIT_CHECK_FAILED
            return EXIT_OK

        if args.command == "simulate":
            meta, rows = run_simulate(_load_config(args))
            if args.format == "json":
                _emit(report_to_json({"experiment": meta, "rows": rows}), args.out)
            else:
                _emit(rows_to_csv(rows, REPORT_COLUMNS), args.out)
            return EXIT_OK

        if args.command == "sweep":
            config = _load_config(args)
            values = _parse_values(args.values, "--values")
            rows = run_sweep(config, args.param, values, parallel=args.parallel)
            if args.format == "json":
                _emit(report_to_json({"rows": rows}), args.out)
            else:
                _emit(rows_to_csv(rows, REPORT_COLUMNS), args.out)
            return EXIT_OK

        if args.command == "capacity":
            report = run_capacity(_parse_values(args.rates, "--rates"), args.n, args.mu)
            if args.format == "json":
                _emit(report_to_json(report), args.out)
            else:
                head = f"member,{str(report['member']).lower()},sum={report['rate_total']},n={report['n']},mu={report['mu']}\n"
                table = rows_to_csv(
                    report["floors"], ("subset", "rate_sum", "floor_symbols_per_slot")
                )
                _emit(head + table, args.out)
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MuxnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
