"""Command-line front-end for the Monte-Carlo harness."""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import (
    CONFIG_FIELD_TYPES,
    CRLB_SCENARIOS,
    PRESET_NAMES,
    config_from_mapping,
    csv_text,
    emit_csv,
    load_config_file,
    parse_config_value,
    preset,
    run_experiment,
)

def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    for key in CONFIG_FIELD_TYPES:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--timing", action="store_true",
                        help="record wall time per sweep point "
                             "(breaks byte-level reproducibility)")


def _collect_overrides(args: argparse.Namespace) -> dict:
    values = {}
    for key in CONFIG_FIELD_TYPES:
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = parse_config_value(key, str(raw))
    return values


def _emit(records, out_path) -> None:
    if out_path:
        emit_csv(records, out_path)
        print(f"wrote {len(records)} records to {out_path}")
    else:
        sys.stdout.write(csv_text(records))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencil-doa",
        description="Matrix-pencil DoA estimation experiments for "
                    "fully-digital and hybrid receivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file "
                                       "and/or flags")
    run_p.add_argument("--config", default=None,
                       help="flat key = value configuration file")
    _add_override_flags(run_p)

    preset_p = sub.add_parser("preset", help="run a named study preset")
    preset_p.add_argument("name", choices=PRESET_NAMES)
    _add_override_flags(preset_p)

    crlb_p = sub.add_parser("crlb", help="evaluate a root bound curve")
    _add_override_flags(crlb_p)

    sub.add_parser("list-presets", help="list the available presets")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            for name in PRESET_NAMES:
                cfg = preset(name)
                print(f"{name}: scenario={cfg.scenario} m={cfg.m} l={cfg.l} "
                      f"snapshots={cfg.snapshots} sweep={cfg.sweep}")
            return 0

        values = _collect_overrides(args)
        base = None
        if args.command == "run" and args.config:
            values = {**load_config_file(args.config), **values}
        elif args.command == "preset":
            base = preset(args.name)
        elif args.command == "crlb":
            values.setdefault("scenario", "crlb_fd")
            if values["scenario"] not in CRLB_SCENARIOS:
                raise ConfigError(
                    f"scenario: crlb expects one of {CRLB_SCENARIOS}")
        cfg = config_from_mapping(values, base)

        records = run_experiment(cfg, measure_time=args.timing)
        _emit(records, args.out)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
