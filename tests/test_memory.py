"""History buffer and kernel-weighted quadratures of the boundary trace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kawalab.memory import (HistoryBuffer, LagQuadrature, TraceWeights,
                            feedback_integral, memory_integral,
                            trace_sq_integral, weighted_trace, z_energy)
from kawalab.model import MemoryKernel


KERNEL = MemoryKernel(tau1=1.0, tau2=2.0, form="constant", c=1.0)


def const_buffer(value=1.0, dt=0.01, tau2=2.0):
    return HistoryBuffer.from_initial(lambda t: value, dt, tau2)


# ---------------------------------------------------------------------------
# buffer mechanics


def test_from_initial_spans_tau2():
    buf = HistoryBuffer.from_initial(lambda t: t, 0.01, 2.0)
    assert buf.span >= 2.0
    assert buf.t_now == 0.0
    assert buf.w_at(0.0) == 0.0
    assert buf.w_at(-1.5) == pytest.approx(-1.5, abs=1e-12)


def test_push_fifo_and_time_advance():
    buf = const_buffer(0.0, dt=0.1)
    buf.push(1.0)
    buf.push(2.0)
    assert buf.t_now == pytest.approx(0.2)
    assert buf.w_at(buf.t_now) == 2.0
    assert buf.w_at(buf.t_now - 0.1) == 1.0


def test_eviction_bounds_length():
    dt, tau2 = 0.1, 2.0
    buf = const_buffer(1.0, dt=dt, tau2=tau2)
    cap = math.ceil(tau2 / dt) + 3
    for k in range(500):
        buf.push(float(k))
        assert len(buf.w) <= cap
        assert buf.span >= tau2


def test_eviction_does_not_change_integrals():
    """Dropping samples older than tau2 leaves every functional bitwise equal."""
    dt = 0.1
    w = lambda t: math.sin(1.3 * t) + 0.2
    long = HistoryBuffer(dt, 2.0, [w(-dt * k) for k in range(25, -1, -1)], 0.0)
    short = HistoryBuffer(dt, 2.0, [w(-dt * k) for k in range(22, -1, -1)], 0.0)
    assert memory_integral(long, KERNEL) == memory_integral(short, KERNEL)
    assert z_energy(long, KERNEL) == z_energy(short, KERNEL)
    assert trace_sq_integral(long, KERNEL, "s") == \
        trace_sq_integral(short, KERNEL, "s")


def test_copy_is_independent():
    buf = const_buffer(1.0)
    snap = buf.copy()
    buf.push(99.0)
    assert snap.t_now == 0.0
    assert snap.w_at(0.0) == 1.0


def test_w_at_outside_span_raises():
    buf = const_buffer(1.0, dt=0.1, tau2=1.0)
    with pytest.raises(ValueError):
        buf.w_at(buf.t_now - buf.span - 1.0)
    with pytest.raises(ValueError):
        buf.w_at(buf.t_now + 1.0)


def test_insufficient_span_raises():
    buf = HistoryBuffer(0.1, 1.0, np.ones(12), 0.0)
    with pytest.raises(ValueError):
        memory_integral(buf, KERNEL)   # needs span 2.0


# ---------------------------------------------------------------------------
# analytic quadrature oracles (constant trace w = 1, lam = 1 on (1, 2))


def test_memory_integral_constant_history():
    buf = const_buffer(1.0)
    assert memory_integral(buf, KERNEL) == pytest.approx(1.0, rel=1e-12)


def test_z_energy_plain_constant_history():
    # int_1^2 lam(s) * s ds = 3/2
    buf = const_buffer(1.0)
    assert z_energy(buf, KERNEL, "plain") == pytest.approx(1.5, rel=1e-12)


def test_z_energy_exp_constant_history():
    # int_1^2 (1 - e^{-s}) ds = 1 + e^{-2} - e^{-1}
    buf = const_buffer(1.0)
    exact = 1.0 + math.exp(-2.0) - math.exp(-1.0)
    # trapezoid on the curved integrand: O(dt^2) quadrature error
    assert z_energy(buf, KERNEL, "exp", delta=1.0) == pytest.approx(exact,
                                                                    rel=1e-5)


def test_trace_sq_integrals_constant_history():
    buf = const_buffer(2.0)   # w^2 = 4
    assert trace_sq_integral(buf, KERNEL, "one") == pytest.approx(4.0, rel=1e-12)
    assert trace_sq_integral(buf, KERNEL, "s") == pytest.approx(6.0, rel=1e-12)
    exact = 4.0 * (math.exp(-1.0) - math.exp(-2.0))
    assert trace_sq_integral(buf, KERNEL, "exp", delta=1.0) == \
        pytest.approx(exact, rel=1e-5)


def test_memory_integral_linear_history():
    # w(t) = t: int_1^2 (0 - s) ds = -3/2 at t = 0
    buf = HistoryBuffer.from_initial(lambda t: t, 0.01, 2.0)
    assert memory_integral(buf, KERNEL) == pytest.approx(-1.5, rel=1e-10)


def test_exponential_kernel_memory_integral():
    k = MemoryKernel(tau1=1.0, tau2=2.0, form="exponential", c=1.0, sigma=1.0)
    buf = const_buffer(1.0)
    exact = math.exp(-1.0) - math.exp(-2.0)
    assert memory_integral(buf, k) == pytest.approx(exact, rel=1e-4)


def test_offgrid_lags_are_handled():
    """tau1, tau2 need not be multiples of dt."""
    k = MemoryKernel(tau1=0.95, tau2=1.85, form="constant", c=1.0)
    buf = HistoryBuffer.from_initial(lambda t: 1.0, 0.1, 1.85)
    assert memory_integral(buf, k) == pytest.approx(0.9, rel=1e-10)


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 31), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_memory_integral_linear_in_history(seed, a, b):
    rng = np.random.default_rng(seed)
    n = 25
    w1, w2 = rng.standard_normal(n), rng.standard_normal(n)
    mk = lambda w: HistoryBuffer(0.1, 2.0, w, 0.0)
    lhs = memory_integral(mk(a * w1 + b * w2), KERNEL)
    rhs = a * memory_integral(mk(w1), KERNEL) + b * memory_integral(mk(w2), KERNEL)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 31))
def test_cauchy_schwarz_gap_nonnegative(seed):
    """(int lam w)^2 <= int lam * int lam w^2 on the discrete quadrature."""
    rng = np.random.default_rng(seed)
    buf = HistoryBuffer(0.1, 2.0, rng.standard_normal(25), 0.0)
    I = memory_integral(buf, KERNEL)
    Q = trace_sq_integral(buf, KERNEL, "one")
    assert I * I <= KERNEL.lambda_integral * Q + 1e-12


def test_z_energy_against_2d_quadrature():
    """z_energy = int lam(s) int_0^s w(t - sig)^2 dsig ds on a smooth trace."""
    dt = 0.002
    w = lambda t: math.cos(2.0 * t) + 0.5
    buf = HistoryBuffer.from_initial(w, dt, 2.0)
    from scipy.integrate import dblquad
    exact, err = dblquad(lambda sig, s: w(-sig) ** 2, 1.0, 2.0, 0.0, lambda s: s,
                         epsabs=1e-12)
    assert z_energy(buf, KERNEL, "plain") == pytest.approx(exact, rel=1e-5)


# ---------------------------------------------------------------------------
# set-up-once forms against the interpolating functions


def _kernel(form, tau1, tau2):
    if form == "constant":
        return MemoryKernel(tau1, tau2, "constant", c=1.3)
    if form == "exponential":
        return MemoryKernel(tau1, tau2, "exponential", c=1.0, sigma=0.8)
    mid = 0.5 * (tau1 + tau2)
    return MemoryKernel(tau1, tau2, "tabulated",
                        samples=((tau1 - 0.1, 0.5), (mid, 1.5), (tau2 + 0.1, 0.7)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 31), dt=st.sampled_from([0.01, 0.02, 0.05]),
       tau1=st.floats(0.05, 1.5), width=st.floats(0.01, 1.5),
       form=st.sampled_from(["constant", "exponential", "tabulated"]),
       t_now=st.floats(0.0, 100.0), delta=st.floats(0.0, 2.0))
def test_weighted_trace_matches_interpolating_functionals(seed, dt, tau1, width,
                                                          form, t_now, delta):
    """Each fixed-weight functional equals the interpolating one to rounding.

    The scale is the same functional of the constant history max|w|, which
    bounds it, so a functional that nearly vanishes does not set the scale.
    The interpolating form evaluates w at t_now - tau, whose cell fraction is
    rounded by ulp(t_now)/dt; that bounds the difference by about
    4 ulp(t_now)/dt (5.7e-12 at t_now = 100, dt = 0.01).  Largest measured
    over 6000 draws, half of them with narrow windows at t_now in [64, 100]:
    7.4e-13.
    """
    tau2 = tau1 + width
    kernel = _kernel(form, tau1, tau2)
    rng = np.random.default_rng(seed)
    n = math.ceil(tau2 / dt) + 3
    w = rng.standard_normal(n)
    buf = HistoryBuffer(dt, tau2, w, t_now)
    top = HistoryBuffer(dt, tau2, np.full(n, np.abs(w).max()), t_now)
    got = weighted_trace(buf, TraceWeights(kernel, dt, delta))
    oracle = {
        "memory": lambda b: memory_integral(b, kernel),
        "lam_sq": lambda b: trace_sq_integral(b, kernel, "one"),
        "slam_sq": lambda b: trace_sq_integral(b, kernel, "s"),
        "z_plain": lambda b: z_energy(b, kernel, "plain"),
        "z_exp": lambda b: z_energy(b, kernel, "exp", delta=delta),
    }
    for name, f in oracle.items():
        assert abs(getattr(got, name) - f(buf)) <= 1e-11 * f(top), name


def test_feedback_integral_is_memory_integral_bitwise():
    k = MemoryKernel(0.955, 1.853, "exponential", c=1.0, sigma=0.7)
    rng = np.random.default_rng(5)
    buf = HistoryBuffer(0.01, 1.853, rng.standard_normal(200), 0.0)
    quad = LagQuadrature(k)
    for step in range(400):
        for t_eval in (buf.t_now, buf.t_now + buf.dt):
            assert feedback_integral(buf, quad, t_eval) == \
                memory_integral(buf, k, t_eval)
        buf.push(rng.standard_normal())
    with pytest.raises(ValueError):
        feedback_integral(buf, quad, buf.t_now - 0.5)


def test_push_reuses_storage():
    buf = const_buffer(0.0, dt=0.1)
    storage = buf.w.base
    for k in range(50):
        buf.push(float(k))
    assert buf.w.base is storage
    assert buf.w[-1] == 49.0 and buf.w[-2] == 48.0
