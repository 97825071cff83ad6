"""Command-line front end: sweeps, state dumps, and the two bundled presets.

Exit codes: 0 on success, 2 for an invalid configuration, 3 for an I/O
failure. Amplitudes are parsed as plain reals ("0.6"), cartesian pairs
("re,im"), or polar literals ("r@phase_degrees").
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .dimer import DimerParams, closed_form_state, param_tau_bar
from .errors import InvalidConfig, MqDimerError
from .sweep import QUANTITIES, SweepConfig, run_sweep

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

PRESETS = {
    "fig1": dict(
        alpha=1.0 + 0j,
        beta=0j,
        b=10.0,
        tau_bar_start=0.0,
        tau_bar_end=math.pi,
        points=501,
        quantities=("j2", "concurrence"),
        output_path="fig1.csv",
    ),
    "fig2": dict(
        alpha=complex(_INV_SQRT2),
        beta=complex(_INV_SQRT2),
        b=0.1,
        tau_bar_start=0.0,
        tau_bar_end=math.pi,
        points=201,
        quantities=("discord",),
        measured_subsystem=2,
        output_path="fig2.csv",
    ),
}


def parse_amplitude(text: str) -> complex:
    """Parse an amplitude literal: "x", "re,im", or "r@degrees"."""
    if not isinstance(text, str):
        return complex(text)
    stripped = text.strip()
    if not stripped:
        raise InvalidConfig("empty amplitude literal")

    def parse_float(segment: str, offset: int) -> float:
        try:
            return float(segment)
        except ValueError:
            raise InvalidConfig(
                f"bad amplitude {text!r}: invalid number {segment.strip()!r} "
                f"at position {offset}"
            ) from None

    if "@" in stripped:
        mag_s, _, phase_s = stripped.partition("@")
        if "@" in phase_s:
            raise InvalidConfig(
                f"bad amplitude {text!r}: second '@' at position "
                f"{stripped.index('@', len(mag_s) + 1)}"
            )
        mag = parse_float(mag_s, 0)
        phase = parse_float(phase_s, len(mag_s) + 1)
        return mag * complex(math.cos(math.radians(phase)), math.sin(math.radians(phase)))
    if "," in stripped:
        re_s, _, im_s = stripped.partition(",")
        if "," in im_s:
            raise InvalidConfig(
                f"bad amplitude {text!r}: second ',' at position "
                f"{stripped.index(',', len(re_s) + 1)}"
            )
        return complex(parse_float(re_s, 0), parse_float(im_s, len(re_s) + 1))
    return complex(parse_float(stripped, 0))


def parse_quantities(text) -> tuple[str, ...]:
    if isinstance(text, (list, tuple)):
        names = [str(q).strip() for q in text]
    else:
        names = [q.strip() for q in str(text).split(",") if q.strip()]
    unknown = [q for q in names if q not in QUANTITIES]
    if unknown:
        raise InvalidConfig(f"unknown quantities {unknown}; choose from {QUANTITIES}")
    return tuple(q for q in QUANTITIES if q in names)


def format_state(alpha: complex, beta: complex, b: float, tau_bar: float) -> str:
    """Evolved density matrix rendered to 9 significant digits, row-major.

    tau_bar is rendered as given, NaN included; the state command checks
    it with param_tau_bar before it gets here.
    """
    p = DimerParams(alpha, beta, b)
    rho = closed_form_state(p, float(tau_bar))
    lines = [
        f"rho at tau_bar={tau_bar:#.9g} for alpha={alpha}, beta={beta}, b={b:#.9g}"
    ]
    for row in rho:
        lines.append("  ".join(f"{z.real:#.9g}{z.imag:+#.9g}i" for z in row))
    return "\n".join(lines)


def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", help="spin-1 amplitude on |0>")
    sub.add_argument("--beta", help="spin-1 amplitude on |1>")
    sub.add_argument("--b", type=float, help="thermal factor of spin 2")
    sub.add_argument("--tau-start", type=float, dest="tau_bar_start", metavar="TAU_START",
                     help="first tau_bar")
    sub.add_argument("--tau-end", type=float, dest="tau_bar_end", metavar="TAU_END",
                     help="last tau_bar")
    sub.add_argument("--points", type=int, help="number of rows (2..1e6)")
    sub.add_argument("--quantities", help="comma list from: " + ",".join(QUANTITIES))
    sub.add_argument("--measured", type=int, choices=(1, 2), dest="measured_subsystem",
                     help="measured spin for discord")
    sub.add_argument("--out", dest="output_path", metavar="OUT",
                     help="output path; extension set per format")
    sub.add_argument("--format", choices=("csv", "svg", "both"), help="output format")
    sub.add_argument("--renormalize", action="store_true", default=None,
                     help="rescale amplitudes onto the unit sphere")
    sub.add_argument("--config", help="JSON file with sweep settings; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqdimer",
        description="Two-spin dipolar pair: coherence intensities, concurrence, discord.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="sweep quantities over tau_bar")
    _add_sweep_flags(sweep)

    for name in ("fig1", "fig2"):
        preset = subs.add_parser(name, help=f"run the bundled {name} sweep")
        _add_sweep_flags(preset)

    state = subs.add_parser("state", help="print the evolved density matrix")
    state.add_argument("--alpha", default="1")
    state.add_argument("--beta", default="0")
    state.add_argument("--b", type=float, default=10.0)
    state.add_argument("--tau-bar", type=float, default=0.0)
    state.add_argument("--renormalize", action="store_true")
    return parser


def _load_config_file(path: str, keys: set) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidConfig(f"config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfig(f"config file {path}: expected a JSON object")
    unknown = set(raw) - keys
    if unknown:
        raise InvalidConfig(f"config file {path}: unknown keys {sorted(unknown)}")
    return raw


def _sweep_config(args: argparse.Namespace, preset: dict | None) -> SweepConfig:
    # each sweep flag's dest is the SweepConfig field it sets
    keys = {field.name for field in dataclasses.fields(SweepConfig)}
    fields: dict = dict(preset or {})
    if args.config:
        fields.update(_load_config_file(args.config, keys))
    fields.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)

    def coerce(key, converter, kind):
        if key not in fields:
            return
        try:
            fields[key] = converter(fields[key])
        except (TypeError, ValueError, OverflowError):
            raise InvalidConfig(f"{key} must be {kind}, got {fields[key]!r}") from None

    for key in ("alpha", "beta"):
        coerce(key, parse_amplitude, "an amplitude literal or number")
    for key in ("b", "tau_bar_start", "tau_bar_end"):
        coerce(key, float, "a number")
    coerce("quantities", parse_quantities, "a list of quantities")
    if "points" in fields:
        coerce("points", float, "an integer")
        if not fields["points"].is_integer():
            raise InvalidConfig(f"points must be an integer, got {fields['points']!r}")
        fields["points"] = int(fields["points"])
    coerce("measured_subsystem", int, "1 or 2")
    coerce("output_path", str, "a path")
    return SweepConfig(**fields)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "state":
        alpha = parse_amplitude(args.alpha)
        beta = parse_amplitude(args.beta)
        p = (DimerParams.normalized if args.renormalize else DimerParams)(alpha, beta, args.b)
        print(format_state(p.alpha, p.beta, args.b, param_tau_bar(p.d, None, args.tau_bar)))
        return 0
    cfg = _sweep_config(args, PRESETS.get(args.command))
    for path in run_sweep(cfg):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except MqDimerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
