"""Property tests at the library and CLI boundaries.

Every public function that takes a time, DimerParams, the functions that
take a measurement direction and those that take a state, an operator or
a spin label either return finite numbers or raise an MqDimerError,
whatever they are given: a scalar, an array, a non-finite or huge number,
a numpy complex, None or a string. An input that is or holds a bool or text,
numeric text too, must raise, and so must a complex value given where a real
one is due (a time, b, d, an angle, a direction, a sweep range end).
Any value of a SweepConfig field in a --config file makes the CLI exit 0
or 2. On valid DimerParams, the initial polarization stays within the error
bound of the plain form that cancels. The examples are derandomized, so every
run draws the same ones.
"""

import cmath
import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqdimer import (
    DimerParams,
    MqDimerError,
    analytic_intensities,
    classical_correlations,
    concurrence_analytic,
    concurrence_numeric,
    conditional_entropy,
    conditional_entropy_many,
    decompose,
    direction,
    discord,
    discord_curve,
    evolve_analytic,
    evolve_numeric,
    ht_reference,
    initial_polarization,
    initial_state,
    minimize_conditional_entropy,
    mutual_information,
    projector_pair,
    propagator,
    require_state,
    spin_flip,
)
from mqdimer.cli import main
from mqdimer.linalg import eig_hermitian, partial_trace, von_neumann_entropy
from mqdimer.sweep import CSV_COLUMNS, SweepConfig, read_csv

BOUNDARY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
#: numpy complex scalars with a zero and a non-zero imaginary part, 0-d and 1-d complex arrays
COMPLEX = st.one_of(
    st.builds(lambda kind, re, im: kind(complex(re, im)), st.sampled_from([np.complex128, np.complex64]),
              st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0, -2.5])),
    st.complex_numbers(max_magnitude=1e3).map(np.array),
    st.lists(st.complex_numbers(max_magnitude=1e3), min_size=1, max_size=3).map(np.array),
)
VALUES = st.one_of(
    COMPLEX,
    ANY_FLOAT,
    st.integers(min_value=-(10**400), max_value=10**400),
    st.lists(ANY_FLOAT, max_size=3).map(np.array),
    st.lists(ANY_FLOAT, min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2))),
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["0.5", "-2", "nan", "-inf", "1e400", "x", ""]),
)

P = DimerParams(0.6, 0.8, 2.0, d=1.5)
RHO0 = initial_state(P)

# each takes (tau, tau_bar); a tau goes with the coupling 1.5
TIME_CALLS = {
    "evolve_analytic": lambda tau, tau_bar: evolve_analytic(P, tau, tau_bar=tau_bar),
    "analytic_intensities": lambda tau, tau_bar: analytic_intensities(P, tau, tau_bar=tau_bar),
    "concurrence_analytic": lambda tau, tau_bar: concurrence_analytic(P, tau, tau_bar=tau_bar),
    "discord_curve": lambda tau, tau_bar: discord_curve(P, tau, tau_bar=tau_bar),
    "propagator": lambda tau, tau_bar: propagator(
        None if tau is None else 1.5, tau, tau_bar=tau_bar),
    "evolve_numeric": lambda tau, tau_bar: evolve_numeric(
        RHO0, None if tau is None else 1.5, tau, tau_bar=tau_bar),
    "ht_reference": lambda tau, tau_bar: ht_reference(
        None if tau is None else 1.5, tau, tau_bar=tau_bar),
}


def holds(x, types, kinds) -> bool:
    """Whether x is or holds an instance of `types`, or is an array of a dtype kind in `kinds`."""
    if isinstance(x, types):
        return True
    if isinstance(x, np.ndarray):
        return x.dtype.kind in kinds or (x.dtype == object and any(holds(v, types, kinds) for v in x.flat))
    return isinstance(x, (list, tuple)) and any(holds(v, types, kinds) for v in x)


def holds_bool_or_text(x) -> bool:
    """Whether x is or holds a bool, str or bytes, which numpy would read as numbers."""
    return holds(x, (bool, np.bool_, str, bytes), "bSU")


def is_real_number(x) -> bool:
    """Whether x may pass as real numbers: it holds no bool, text or complex value."""
    return not holds_bool_or_text(x) and not holds(x, (complex, np.complexfloating), "c")


def finite_or_typed_error(call, numbers=True):
    """call() raises an MqDimerError, or returns finite numbers if its input is `numbers`."""
    try:
        result = call()
    except MqDimerError:
        return
    assert numbers, f"read bools or text as numbers: {result!r}"
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    parts = result if isinstance(result, tuple) else (result,)
    for part in parts:
        assert np.isfinite(np.asarray(part, dtype=complex)).all(), result


@pytest.mark.parametrize("name", sorted(TIME_CALLS))
@BOUNDARY
@given(time=VALUES, physical=st.booleans())
@example(time=np.complex128(0.3 + 1j), physical=False)
@example(time=np.complex64(0.3), physical=True)
@example(time=np.array([0.3 + 1j]), physical=False)
def test_time_inputs(name, time, physical):
    call = TIME_CALLS[name]
    finite_or_typed_error(lambda: call(time, None) if physical else call(None, time),
                          is_real_number(time))


@pytest.mark.parametrize("name", sorted(TIME_CALLS))
def test_no_time_or_two_times(name):
    for tau, tau_bar in ((None, None), (0.5, 0.5)):
        with pytest.raises(MqDimerError):
            TIME_CALLS[name](tau, tau_bar)


#: finite values up to 1e308, whose squares overflow a float
LARGE = st.one_of(
    st.floats(min_value=1e150, max_value=1e308),
    st.floats(min_value=-1e308, max_value=-1e150),
    st.complex_numbers(min_magnitude=1e150, max_magnitude=1e308, allow_infinity=False),
)


@BOUNDARY
@given(field=st.sampled_from(["alpha", "beta", "b", "d"]), value=st.one_of(VALUES, LARGE))
@example(field="b", value=np.complex128(2.0))
@example(field="d", value=np.complex64(1.5 + 1j))
@example(field="alpha", value=np.complex128(0.6))
def test_dimer_params_fields(field, value):
    """A complex amplitude is valid; a complex b or d is not."""
    fields = {"alpha": 0.6, "beta": 0.8, "b": 2.0, "d": 1.5, field: value}
    numbers = is_real_number(value) if field in ("b", "d") else not holds_bool_or_text(value)
    finite_or_typed_error(lambda: DimerParams(**fields).thermal_weights, numbers)
    finite_or_typed_error(lambda: DimerParams.normalized(**fields).thermal_weights, numbers)


#: valid DimerParams: spin 1 at polar angle theta with a relative phase, b from 1e-300 to 800
VALID_PARAMS = st.builds(
    lambda theta, phase, b: DimerParams(math.cos(theta), math.sin(theta) * cmath.exp(1j * phase), b),
    st.floats(0.0, math.pi / 2.0),
    st.floats(-math.pi, math.pi),
    st.one_of(st.floats(0.0, 800.0), st.floats(-300.0, 2.9).map(lambda e: 10.0**e)),
)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(p=VALID_PARAMS)
@example(p=DimerParams(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 1e-12))
@example(p=DimerParams(0.0, 1.0, 40.0))
def test_initial_polarization_matches_the_plain_form(p):
    """|F| <= 1, and F is within the error bound of a2 w0 - b2 w1, the form that cancels."""
    f = initial_polarization(p)
    w0, w1 = p.thermal_weights
    a2, b2 = abs(p.alpha) ** 2, abs(p.beta) ** 2
    assert abs(f) <= 1.0
    assert abs(f - (a2 * w0 - b2 * w1)) <= 4.0 * np.finfo(float).eps * (a2 * w0 + b2 * w1)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(p=VALID_PARAMS, measured=st.sampled_from([1, 2]))
@example(p=DimerParams(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 1e-300), measured=2)
@example(p=DimerParams(1.0, 0.0, 800.0), measured=1)
def test_discord_curve_is_a_discord(p, measured):
    """Over b from 1e-300 to 800, the closed-form discord is finite and within [0, 1] bit."""
    q = discord_curve(p, tau_bar=np.linspace(-7.0, 7.0, 57), measured=measured)
    assert np.isfinite(q).all() and q.min() >= 0.0 and q.max() <= 1.0 + 1e-15


RHO_EVOLVED = evolve_analytic(P, tau_bar=0.7)
DIRECTIONS = st.one_of(
    VALUES,
    LARGE.map(lambda x: [x, 0.0, 0.0]),
    st.lists(ANY_FLOAT, min_size=3, max_size=3),
    st.lists(st.lists(ANY_FLOAT, min_size=3, max_size=3), max_size=3).map(
        lambda rows: np.reshape(np.array(rows, dtype=float), (-1, 3))),
    st.sampled_from([[0.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "x", ["x", 0, 0],
                     [True, 0, 0], [[0, 0, np.True_]]]),
)


@BOUNDARY
@given(n=DIRECTIONS, measured=st.sampled_from([1, 2]))
@example(n=[True, 0, 0], measured=2)
@example(n=[[0, 0, np.True_]], measured=1)
@example(n=np.array([0.0, 0.0, 1.0 + 0j]), measured=2)
def test_measurement_directions(n, measured):
    numbers = is_real_number(n)
    finite_or_typed_error(lambda: conditional_entropy_many(RHO_EVOLVED, n, measured), numbers)
    finite_or_typed_error(lambda: conditional_entropy(RHO_EVOLVED, n, measured), numbers)
    finite_or_typed_error(lambda: projector_pair(n), numbers)


@BOUNDARY
@given(theta=VALUES, phi=st.one_of(ANY_FLOAT, COMPLEX))
@example(theta=np.complex128(0.3 + 1j), phi=0.0)
@example(theta=0.5, phi=np.complex64(1.0))
def test_direction_angles(theta, phi):
    finite_or_typed_error(lambda: direction(theta, phi), is_real_number(theta) and is_real_number(phi))


def _psd_state(entries):
    # m m^H over its trace: a state when the drawn entries allow one, NaN or inf otherwise
    with np.errstate(all="ignore"):
        m = np.reshape(entries, (4, 4))
        m = m @ m.conj().T
        return m / np.trace(m)


def _hermitian(entries):
    # the strict upper triangle mirrored, plus the real part of the diagonal: no sum overflows
    m = np.reshape(entries, (4, 4)).astype(complex)
    upper = np.triu(m, 1)
    return upper + upper.conj().T + np.diag(m.diagonal().real)


#: states in all but type: numeric text, bools of trace 1, one text entry in an object array
NOT_NUMBERS = [np.where(np.eye(4, dtype=bool), "0.25", "0"), np.diag([True, False, False, False]),
               np.array([["0.25", 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
                        dtype=object)]
STATES = st.one_of(
    VALUES,
    st.lists(ANY_FLOAT, min_size=16, max_size=16).map(lambda v: np.reshape(v, (4, 4))),
    st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=16, max_size=16)
    .map(_psd_state),
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=16, max_size=16).map(_psd_state),
    st.sampled_from([RHO_EVOLVED, RHO0, np.eye(4) / 4.0, np.eye(2) / 2.0, np.eye(3) / 3.0,
                     RHO_EVOLVED.T, RHO_EVOLVED + 1e-10, [[1.0, 0.0], [0.0]], "x"]),
    st.sampled_from(NOT_NUMBERS),
    st.lists(LARGE, min_size=16, max_size=16).map(lambda v: np.reshape(v, (4, 4))),
    st.lists(LARGE, min_size=16, max_size=16).map(_hermitian),
)
MEASURED = st.one_of(
    st.sampled_from([1, 2, np.int64(1), np.int8(2), True, False, 2.0, np.array(2), np.array([1]),
                     "2", None]),
    st.integers(min_value=-(10**400), max_value=10**400),
    ANY_FLOAT,
)
STATE_CALLS = {
    "discord": discord,
    "classical_correlations": classical_correlations,
    "minimize_conditional_entropy": minimize_conditional_entropy,
    "conditional_entropy": lambda rho, measured: conditional_entropy(rho, [0, 0.6, 0.8], measured),
    "conditional_entropy_many": lambda rho, measured: conditional_entropy_many(
        rho, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], measured),
    "mutual_information": lambda rho, measured: mutual_information(rho),
    "von_neumann_entropy": lambda rho, measured: von_neumann_entropy(rho),
    "require_state": lambda rho, measured: require_state(rho),
    "concurrence_numeric": lambda rho, measured: concurrence_numeric(rho),
    "partial_trace": lambda rho, measured: partial_trace(rho, measured),
    "evolve_numeric": lambda rho, measured: evolve_numeric(rho, tau_bar=0.7),
    "spin_flip": lambda rho, measured: spin_flip(rho),
    "decompose": lambda rho, measured: tuple(decompose(rho).values()),
    "eig_hermitian": lambda rho, measured: eig_hermitian(rho),
}


@pytest.mark.parametrize("name", sorted(STATE_CALLS))
@BOUNDARY
@given(rho=STATES, measured=MEASURED)
@example(rho=NOT_NUMBERS[0], measured=2)
@example(rho=NOT_NUMBERS[1], measured=1)
@example(rho=NOT_NUMBERS[2], measured=2)
@example(rho=np.full((4, 4), 1e308), measured=1)
def test_state_and_spin_inputs(name, rho, measured):
    finite_or_typed_error(lambda: STATE_CALLS[name](rho, measured), not holds_bool_or_text(rho))


@BOUNDARY
@given(field=st.sampled_from(["alpha", "beta", "b", "tau_bar_start", "tau_bar_end"]), value=VALUES)
@example(field="tau_bar_end", value=np.complex128(2.0))
@example(field="b", value=np.complex64(2.0 + 1j))
def test_sweep_config_numbers(field, value):
    """Numeric fields as the library takes them, numpy values that no config file holds too:
    check() and params() give finite numbers or InvalidConfig; only alpha and beta are complex."""
    cfg = SweepConfig(**{field: value})
    numbers = not holds_bool_or_text(value) if field in ("alpha", "beta") else is_real_number(value)
    finite_or_typed_error(lambda: (cfg.check(), cfg.params().thermal_weights), numbers)


#: what a config file may hold for a field: ints (some above 1e308), integral and
#: non-integral floats, bools, null, numeric and junk strings, lists, amplitude literals;
#: the text has no "/", which would name a missing directory (an I/O error, exit 3)
CONFIG_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=10**309, max_value=10**400),
    st.integers(min_value=-3, max_value=12).map(float),
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.5, 1.5, 1e308, -1e308, 5e-324, float("nan"), float("inf"), -float("inf")]),
    st.booleans(),
    st.none(),
    st.sampled_from(["4", "4.0", " 3 ", "1e1", "2.5", "-1", "nan", "inf", "1e400", "true", "x", "",
                     "csv", "svg", "both", "g0", "j2, g0", "discord", "g0,bogus", ","]),
    st.text(alphabet=st.characters(exclude_characters="/"), max_size=6),
    st.lists(st.sampled_from(["g0", "j2", "concurrence", "x", 1, None]), max_size=3),
    st.sampled_from(["0.6", "0.6,0.8", "0,1", "-1", "1@90", "5@30", "1@2@3", "1,2,3", "@", "0.6,"]),
)

#: the CSV columns each quantity fills
QUANTITY_COLUMNS = {"g0": {"g0"}, "j2": {"g2", "gm2", "j2"}, "concurrence": {"concurrence"},
                    "discord": {"discord"}}


def requested_columns(quantities) -> set:
    names = quantities.split(",") if isinstance(quantities, str) else quantities
    return set().union(*(QUANTITY_COLUMNS[name.strip()] for name in names if name.strip()))


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SweepConfig)])
@settings(BOUNDARY, max_examples=20)  # ~5 ms each: the eleven fields take about 1 s
@given(value=CONFIG_VALUES)
def test_sweep_config_values_through_the_cli(field, value):
    """Any value of one field in a --config file exits 0 or 2 and never raises; a 0
    leaves CSVs whose requested columns are full and the others empty."""
    config = {"points": 3, "quantities": ["discord" if field == "measured_subsystem" else "g0"],
              "output_path": "out", field: value}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("cfg.json").write_text(json.dumps(config))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["sweep", "--config", "cfg.json"])
            assert code in (0, 2), err.getvalue()
            written = [line.removeprefix("wrote ") for line in out.getvalue().split("\n")[:-1]]
            assert bool(written) == (code == 0), err.getvalue()
            for path in written:
                assert Path(path).is_file(), path
                if path.endswith(".csv"):
                    cols = read_csv(path)
                    assert len(cols["tau_bar"]) >= 2
                    want = requested_columns(config["quantities"])
                    for name in CSV_COLUMNS[1:]:
                        if name in want:
                            assert cols[name] is not None and np.isfinite(cols[name]).all(), name
                        else:
                            assert cols[name] is None, name
        finally:
            os.chdir(cwd)
