"""Command-line front end: sweeps, state dumps, and the two bundled presets.

The CLI only turns text into values: every string value, from a flag, a
preset or the --config file, goes through its one parser in _PARSERS, and
SweepConfig.check and param_tau_bar own every type and range rule. `state`
reads --tau-bar, its amplitudes, b and --renormalize through the same flags.

Exit codes: 0 on success, 2 for an invalid configuration, 3 for an I/O
failure. Amplitudes are parsed as plain reals ("0.6"), cartesian pairs
("re,im"), or polar literals ("r@phase_degrees").
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    stripped = text.strip()
    if not stripped:
        raise InvalidConfig("empty amplitude literal")

    def parse_float(segment: str, offset: int) -> float:
        try:
            return float(segment)
        except ValueError:
            raise InvalidConfig(f"bad amplitude {text!r}: invalid number {segment.strip()!r} "
                                f"at position {offset}") from None

    sep = "@" if "@" in stripped else ","
    if sep not in stripped:
        return complex(parse_float(stripped, 0))
    first, _, second = stripped.partition(sep)
    if sep in second:
        raise InvalidConfig(f"bad amplitude {text!r}: second {sep!r} at position "
                            f"{stripped.index(sep, len(first) + 1)}")
    x, y = parse_float(first, 0), parse_float(second, len(first) + 1)
    if sep == ",":
        return complex(x, y)
    return x * complex(math.cos(math.radians(y)), math.sin(math.radians(y)))


def _integer_text(text: str | float) -> int | float:
    """"4", "4.0", "1e3" or a JSON 4.0 as an int; 1.5 stays 1.5, for check() to reject."""
    number = float(text)
    return int(number) if number.is_integer() else number


def _quantity_list(text: str) -> tuple[str, ...]:
    """"j2, g0" -> ("g0", "j2"): QUANTITIES order, unknown names last for check() to reject."""
    names = {name.strip() for name in text.split(",")} - {""}
    return tuple(q for q in QUANTITIES if q in names) + tuple(sorted(names - set(QUANTITIES)))


#: one text parser per CLI value; the values not named here keep their text
_PARSERS = dict(alpha=parse_amplitude, beta=parse_amplitude, b=float, tau_bar_start=float,
                tau_bar_end=float, points=_integer_text, measured_subsystem=_integer_text,
                quantities=_quantity_list, tau_bar=float)


def _parse(key: str, value):
    """A string value read by its parser (an integer field also reads a JSON float:
    4.0 is 4); any other value is left as it is for SweepConfig.check or param_tau_bar."""
    parse = _PARSERS.get(key)
    if parse is None or not isinstance(value, (str, float) if parse is _integer_text else str):
        return value
    try:
        return parse(value)
    except ValueError:
        kind = "an integer" if parse is _integer_text else "a number"
        raise InvalidConfig(f"{key} must be {kind}, got {value!r}") from None


def format_state(alpha: complex, beta: complex, b: float, tau_bar: float) -> str:
    """Evolved density matrix rendered to 9 significant digits, row-major.

    tau_bar is rendered as given, NaN included; the state command checks
    it with param_tau_bar before it gets here.
    """
    rho = closed_form_state(DimerParams(alpha, beta, b), float(tau_bar))
    rows = ("  ".join(f"{z.real:#.9g}{z.imag:+#.9g}i" for z in row) for row in rho)
    return "\n".join([f"rho at tau_bar={tau_bar:#.9g} for alpha={alpha}, beta={beta}, b={b:#.9g}", *rows])


def _add_sweep_flags(sub: argparse.ArgumentParser, full: bool = True) -> None:
    """Sweep flags (only the four that set DimerParams unless `full`), kept as text:
    _PARSERS reads them and SweepConfig.check owns the choices of --measured, --format."""
    add = sub.add_argument
    add("--alpha", help="spin-1 amplitude on |0>")
    add("--beta", help="spin-1 amplitude on |1>")
    add("--b", help="thermal factor of spin 2")
    if full:
        add("--tau-start", dest="tau_bar_start", metavar="TAU_START", help="first tau_bar")
        add("--tau-end", dest="tau_bar_end", metavar="TAU_END", help="last tau_bar")
        add("--points", help="number of rows (2..1e6)")
        add("--quantities", help="comma list from: " + ",".join(QUANTITIES))
        add("--measured", dest="measured_subsystem", metavar="{1,2}", help="measured spin for discord")
        add("--out", dest="output_path", metavar="OUT", help="output path; extension set per format")
        add("--format", metavar="{csv,svg,both}", help="output format")
    add("--renormalize", action="store_true", default=None,
        help="rescale amplitudes onto the unit sphere")


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqdimer",
        description="Two-spin dipolar pair: coherence intensities, concurrence, discord.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep", "fig1", "fig2"):
        sub = subs.add_parser(name, help="sweep quantities over tau_bar" if name == "sweep"
                              else f"run the bundled {name} sweep")
        _add_sweep_flags(sub)
        sub.add_argument("--config", help="JSON file with sweep settings; flags override it")

    state = subs.add_parser("state", help="print the evolved density matrix")
    _add_sweep_flags(state, full=False)
    state.add_argument("--tau-bar", default=0.0)
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
    """The preset, then the --config file, then the flags, each field's text parsed."""
    keys = {field.name for field in dataclasses.fields(SweepConfig)}
    fields: dict = dict(preset or {})
    if getattr(args, "config", None):
        fields.update(_load_config_file(args.config, keys))
    fields.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    return SweepConfig(**{k: _parse(k, v) for k, v in fields.items()})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "state":
            p, tau_bar = _sweep_config(args, None).params(), _parse("tau_bar", args.tau_bar)
            print(format_state(p.alpha, p.beta, p.b, param_tau_bar(p.d, None, tau_bar)))
        else:
            for path in run_sweep(_sweep_config(args, PRESETS.get(args.command))):
                print(f"wrote {path}")
        return 0
    except MqDimerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
