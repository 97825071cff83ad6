"""Property tests at the library boundary.

Every public function that takes a time, and DimerParams, either returns
finite numbers or raises an MqDimerError, whatever it is given: a scalar,
an array, a non-finite number, None or a string. The examples are
derandomized, so every run draws the same ones.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqdimer import (
    DimerParams,
    MqDimerError,
    analytic_intensities,
    concurrence_analytic,
    evolve_analytic,
    evolve_numeric,
    ht_reference,
    initial_state,
    propagator,
)

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
    parts = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
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


@BOUNDARY
@given(field=st.sampled_from(["alpha", "beta", "b", "d"]), value=VALUES)
def test_dimer_params_fields(field, value):
    fields = {"alpha": 0.6, "beta": 0.8, "b": 2.0, "d": 1.5, field: value}
    finite_or_typed_error(lambda: DimerParams(**fields).thermal_weights)
    finite_or_typed_error(lambda: DimerParams.normalized(**fields).thermal_weights)
