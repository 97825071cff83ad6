"""Property tests at the library and CLI boundaries.

Every public function that takes a time, DimerParams, the functions that
take a measurement direction and those that take a state or a spin label
either return finite numbers or raise an MqDimerError, whatever they are
given: a scalar, an array, a non-finite or huge number, None or a string.
Any value of a SweepConfig field in a --config file makes the CLI exit 0
or 2. The examples are derandomized, so every run draws the same ones.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    discord,
    evolve_analytic,
    evolve_numeric,
    ht_reference,
    initial_state,
    minimize_conditional_entropy,
    mutual_information,
    projector_pair,
    propagator,
    require_state,
)
from mqdimer.cli import main
from mqdimer.linalg import partial_trace, von_neumann_entropy
from mqdimer.sweep import CSV_COLUMNS, SweepConfig, read_csv

BOUNDARY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
VALUES = st.one_of(
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
    "propagator": lambda tau, tau_bar: propagator(
        None if tau is None else 1.5, tau, tau_bar=tau_bar),
    "evolve_numeric": lambda tau, tau_bar: evolve_numeric(
        RHO0, None if tau is None else 1.5, tau, tau_bar=tau_bar),
    "ht_reference": lambda tau, tau_bar: ht_reference(
        None if tau is None else 1.5, tau, tau_bar=tau_bar),
}


def finite_or_typed_error(call):
    try:
        result = call()
    except MqDimerError:
        return
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    parts = result if isinstance(result, tuple) else (result,)
    for part in parts:
        assert np.isfinite(np.asarray(part, dtype=complex)).all(), result


@pytest.mark.parametrize("name", sorted(TIME_CALLS))
@BOUNDARY
@given(time=VALUES, physical=st.booleans())
def test_time_inputs(name, time, physical):
    call = TIME_CALLS[name]
    finite_or_typed_error(lambda: call(time, None) if physical else call(None, time))


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
def test_dimer_params_fields(field, value):
    fields = {"alpha": 0.6, "beta": 0.8, "b": 2.0, "d": 1.5, field: value}
    finite_or_typed_error(lambda: DimerParams(**fields).thermal_weights)
    finite_or_typed_error(lambda: DimerParams.normalized(**fields).thermal_weights)


RHO_EVOLVED = evolve_analytic(P, tau_bar=0.7)
DIRECTIONS = st.one_of(
    VALUES,
    LARGE.map(lambda x: [x, 0.0, 0.0]),
    st.lists(ANY_FLOAT, min_size=3, max_size=3),
    st.lists(st.lists(ANY_FLOAT, min_size=3, max_size=3), max_size=3).map(
        lambda rows: np.reshape(np.array(rows, dtype=float), (-1, 3))),
    st.sampled_from([[0.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "x", ["x", 0, 0]]),
)


@BOUNDARY
@given(n=DIRECTIONS, measured=st.sampled_from([1, 2]))
def test_measurement_directions(n, measured):
    finite_or_typed_error(lambda: conditional_entropy_many(RHO_EVOLVED, n, measured))
    finite_or_typed_error(lambda: conditional_entropy(RHO_EVOLVED, n, measured))
    finite_or_typed_error(lambda: projector_pair(n))


def _psd_state(entries):
    # m m^H over its trace: a state when the drawn entries allow one, NaN or inf otherwise
    with np.errstate(all="ignore"):
        m = np.reshape(entries, (4, 4))
        m = m @ m.conj().T
        return m / np.trace(m)


STATES = st.one_of(
    VALUES,
    st.lists(ANY_FLOAT, min_size=16, max_size=16).map(lambda v: np.reshape(v, (4, 4))),
    st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=16, max_size=16)
    .map(_psd_state),
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=16, max_size=16).map(_psd_state),
    st.sampled_from([RHO_EVOLVED, RHO0, np.eye(4) / 4.0, np.eye(2) / 2.0, np.eye(3) / 3.0,
                     RHO_EVOLVED.T, RHO_EVOLVED + 1e-10, [[1.0, 0.0], [0.0]], "x"]),
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
    "partial_trace": lambda rho, measured: partial_trace(RHO_EVOLVED, measured),
}


@pytest.mark.parametrize("name", sorted(STATE_CALLS))
@BOUNDARY
@given(rho=STATES, measured=MEASURED)
def test_state_and_spin_inputs(name, rho, measured):
    finite_or_typed_error(lambda: STATE_CALLS[name](rho, measured))


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
