"""History buffer and kernel-weighted quadratures of the boundary trace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (copy_history, history_window, memory_integral,
                      trace_sq_integral, w_at, weighted_trace, z_energy)
from kawalab.memory import (HistoryBuffer, TraceWeights, feedback_block,
                            trace_series)
from kawalab.model import MemoryKernel


KERNEL = MemoryKernel(tau1=1.0, tau2=2.0, form="constant", c=1.0)


def const_buffer(value=1.0, dt=0.01, tau2=2.0, steps=0):
    return HistoryBuffer.from_initial(lambda t: value, dt, tau2, steps)


# ---------------------------------------------------------------------------
# buffer mechanics


def test_from_initial_spans_tau2():
    buf = HistoryBuffer.from_initial(lambda t: t, 0.01, 2.0, 0)
    assert buf.span >= 2.0
    assert buf.t_now == 0.0
    assert w_at(buf, 0.0) == 0.0
    assert w_at(buf, -1.5) == pytest.approx(-1.5, abs=1e-12)


def test_push_fifo_and_time_advance():
    buf = const_buffer(0.0, dt=0.1, steps=2)
    buf.push(1.0)
    buf.push(2.0)
    assert buf.t_now == pytest.approx(0.2)
    assert w_at(buf, buf.t_now) == 2.0
    assert w_at(buf, buf.t_now - 0.1) == 1.0


def test_eviction_bounds_length():
    dt, tau2 = 0.1, 2.0
    buf = const_buffer(1.0, dt=dt, tau2=tau2, steps=500)
    cap = math.ceil(tau2 / dt) + 3
    for k in range(500):
        buf.push(float(k))
        assert len(history_window(buf)[1]) <= cap
        assert buf.span >= tau2


def test_eviction_does_not_change_integrals():
    """Dropping samples older than tau2 leaves every functional bitwise equal."""
    dt = 0.1
    w = lambda t: math.sin(1.3 * t) + 0.2
    long = HistoryBuffer(dt, 2.0, [w(-dt * k) for k in range(25, -1, -1)], 0)
    short = HistoryBuffer(dt, 2.0, [w(-dt * k) for k in range(22, -1, -1)], 0)
    assert memory_integral(long, KERNEL) == memory_integral(short, KERNEL)
    assert z_energy(long, KERNEL) == z_energy(short, KERNEL)
    assert trace_sq_integral(long, KERNEL, "s") == \
        trace_sq_integral(short, KERNEL, "s")


def test_copy_is_independent():
    buf = const_buffer(1.0, steps=1)
    snap = copy_history(buf, 0)
    buf.push(99.0)
    assert snap.t_now == 0.0
    assert w_at(snap, 0.0) == 1.0


def test_w_at_outside_span_raises():
    buf = const_buffer(1.0, dt=0.1, tau2=1.0)
    with pytest.raises(ValueError):
        w_at(buf, buf.t_now - buf.span - 1.0)
    with pytest.raises(ValueError):
        w_at(buf, buf.t_now + 1.0)


def test_insufficient_span_raises():
    buf = HistoryBuffer(0.1, 1.0, np.ones(12), 0)
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
    buf = HistoryBuffer.from_initial(lambda t: t, 0.01, 2.0, 0)
    assert memory_integral(buf, KERNEL) == pytest.approx(-1.5, rel=1e-10)


def test_exponential_kernel_memory_integral():
    k = MemoryKernel(tau1=1.0, tau2=2.0, form="exponential", c=1.0, sigma=1.0)
    buf = const_buffer(1.0)
    exact = math.exp(-1.0) - math.exp(-2.0)
    assert memory_integral(buf, k) == pytest.approx(exact, rel=1e-4)


def test_offgrid_lags_are_handled():
    """tau1, tau2 need not be multiples of dt."""
    k = MemoryKernel(tau1=0.95, tau2=1.85, form="constant", c=1.0)
    buf = HistoryBuffer.from_initial(lambda t: 1.0, 0.1, 1.85, 0)
    assert memory_integral(buf, k) == pytest.approx(0.9, rel=1e-10)


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 31), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_memory_integral_linear_in_history(seed, a, b):
    rng = np.random.default_rng(seed)
    n = 25
    w1, w2 = rng.standard_normal(n), rng.standard_normal(n)
    mk = lambda w: HistoryBuffer(0.1, 2.0, w, 0)
    lhs = memory_integral(mk(a * w1 + b * w2), KERNEL)
    rhs = a * memory_integral(mk(w1), KERNEL) + b * memory_integral(mk(w2), KERNEL)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 31))
def test_cauchy_schwarz_gap_nonnegative(seed):
    """(int lam w)^2 <= int lam * int lam w^2 on the discrete quadrature."""
    rng = np.random.default_rng(seed)
    buf = HistoryBuffer(0.1, 2.0, rng.standard_normal(25), 0)
    I = memory_integral(buf, KERNEL)
    Q = trace_sq_integral(buf, KERNEL, "one")
    assert I * I <= KERNEL.lambda_integral * Q + 1e-12


def test_z_energy_against_2d_quadrature():
    """z_energy = int lam(s) int_0^s w(t - sig)^2 dsig ds on a smooth trace."""
    dt = 0.002
    w = lambda t: math.cos(2.0 * t) + 0.5
    buf = HistoryBuffer.from_initial(w, dt, 2.0, 0)
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
def test_trace_series_matches_interpolating_functionals(seed, dt, tau1, width,
                                                        form, t_now, delta):
    """Each fixed-weight functional equals the interpolating one to rounding,
    at the last time of the trace.

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
    buf = HistoryBuffer(dt, tau2, w, 0)
    top = HistoryBuffer(dt, tau2, np.full(n, np.abs(w).max()), 0)
    buf.t_now = top.t_now = t_now
    got = trace_series(w, TraceWeights(kernel, dt, delta))
    oracle = {
        "memory": lambda b: memory_integral(b, kernel),
        "lam_sq": lambda b: trace_sq_integral(b, kernel, "one"),
        "slam_sq": lambda b: trace_sq_integral(b, kernel, "s"),
        "z_plain": lambda b: z_energy(b, kernel, "plain"),
        "z_exp": lambda b: z_energy(b, kernel, "exp", delta=delta),
    }
    for name, f in oracle.items():
        assert abs(getattr(got, name)[-1] - f(buf)) <= 1e-11 * f(top), name


def feedback_blocks(kernel, dt, steps, seed=5):
    """Step a buffer of random samples for `steps` steps as `Stepper.step`
    does, with a new block, on one dict of node tables, each time the last
    one is used up.  Check each step's values at t and at t + dt against
    memory_integral on the buffer of that step, bit for bit.  Returns the
    block lengths."""
    rng = np.random.default_rng(seed)
    buf = HistoryBuffer.from_initial(lambda t: math.sin(3.0 * t + 0.2), dt,
                                     kernel.tau2, steps)
    lengths, k, tables = [], 0, {}
    while k < steps:
        m0, m1 = feedback_block(buf, kernel, steps - k, tables)
        assert len(m0) == len(m1)
        lengths.append(len(m1))
        for start, end in zip(m0, m1):
            t = buf.t_now
            assert start == memory_integral(buf, kernel, t), k
            assert end == memory_integral(buf, kernel, t + dt), k
            buf.push(rng.standard_normal())
            k += 1
    return lengths


# (tau1, tau2, dt, steps) and the length of a full block: one step while
# tau1 < 2 dt, two at tau1 = 2 dt (the second step's top node lands on the
# newest stored sample), else the steps that fit below tau1, or as many as
# the cap of 8192 nodes holds (40 steps of 202 nodes)
BLOCK_CASES = {
    "one-step": ((0.015, 0.853, 0.01, 40), 1),
    "tau1-2dt": ((0.02, 0.853, 0.01, 40), 2),
    "five": ((0.055, 0.087, 0.01, 60), 5),
    "offgrid-95": ((0.955, 1.2, 0.01, 240), 95),
    "aligned-333": ((1.0, 1.03, 0.003, 700), 333),
    "aligned-capped": ((1.0, 2.0, 0.01, 130), 40),
}


@pytest.mark.parametrize("form", ["constant", "exponential", "tabulated"])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_feedback_block_is_memory_integral_bitwise(case, form):
    """Both values of every step of every block equal memory_integral bit
    for bit: blocks of one step to 333, grid-aligned and off-grid lags."""
    (tau1, tau2, dt, steps), full = BLOCK_CASES[case]
    lengths = feedback_blocks(_kernel(form, tau1, tau2), dt, steps)
    assert lengths[0] == full, lengths
    assert sum(lengths) == steps


def test_feedback_block_span_errors():
    """The span checks of memory_integral: a history shorter than tau2, and
    a kernel whose lags reach past the newest sample (tau1 < dt)."""
    buf = HistoryBuffer.from_initial(math.sin, 0.01, 1.0, 10)
    with pytest.raises(ValueError, match="insufficient history span"):
        feedback_block(buf, _kernel("constant", 0.5, 1.5), 10, {})
    with pytest.raises(ValueError, match="outside the stored history span"):
        feedback_block(buf, _kernel("constant", 0.005, 0.5), 10, {})


@pytest.mark.parametrize("form", ["constant", "exponential", "tabulated"])
@pytest.mark.parametrize("tau1, tau2", [(0.955, 1.853), (1.0, 2.0), (0.05, 0.07)])
def test_trace_series_matches_weighted_trace(form, tau1, tau2):
    """Entry i of each series is `weighted_trace` of the buffer that ends at
    sample K + i, to rounding: 1e-13 of the column's largest magnitude."""
    dt = 0.01
    kernel = _kernel(form, tau1, tau2)
    weights = TraceWeights(kernel, dt, 1.0)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(600) * np.exp(rng.uniform(-3.0, 3.0, 600))
    n0 = math.ceil(tau2 / dt) + 3
    buf = HistoryBuffer(dt, tau2, w[:n0], len(w) - n0)
    rows = [weighted_trace(buf, weights)]
    for x in w[n0:]:
        buf.push(x)
        rows.append(weighted_trace(buf, weights))
    got = trace_series(w[n0 - 1 - weights.K:], weights)
    for col, name in zip(got, got._fields):
        want = np.array([getattr(r, name) for r in rows])
        assert col.shape == want.shape
        assert np.abs(col - want).max() <= 1e-13 * np.abs(want).max(), name
    with pytest.raises(ValueError):
        trace_series(w[:weights.K], weights)


def test_trace_keeps_every_sample():
    """`trace` is the initial samples followed by every pushed value;
    `history_window` gives its last maxlen samples, or the whole trace while
    it is shorter."""
    init = np.linspace(-1.0, 0.0, 12)
    buf = HistoryBuffer(0.1, 1.0, init, 40)
    assert buf.maxlen == 13
    pushed = []
    for k in range(40):
        assert (buf.trace == np.concatenate((init, pushed))).all(), k
        assert (history_window(buf)[1] == buf.trace[-buf.maxlen:]).all(), k
        buf.push(float(k))
        pushed.append(float(k))


def test_from_initial_reserves_room_for_its_steps():
    """A buffer with room for n steps stores n pushes in place."""
    buf = HistoryBuffer.from_initial(math.sin, 0.1, 2.0, steps=50)
    base = buf.trace.base
    for k in range(50):
        buf.push(float(k))
        assert buf.trace.base is base, k
    assert buf.trace[-1] == 49.0 and buf.trace[-2] == 48.0


def test_push_past_reserved_room_raises():
    """A push past the room the buffer was sized for raises, and leaves the
    stored samples and the clock as they were."""
    buf = HistoryBuffer.from_initial(math.sin, 0.1, 2.0, steps=3)
    for x in (1.0, 2.0, 3.0):
        buf.push(x)
    trace, t_now = buf.trace.copy(), buf.t_now
    with pytest.raises(IndexError):
        buf.push(4.0)
    assert (buf.trace == trace).all() and buf.t_now == t_now


def test_trace_view_taken_before_pushes_sees_them():
    """A view of `trace` taken before pushes stays a view of the buffer's one
    array, which every later push writes."""
    buf = HistoryBuffer.from_initial(math.sin, 0.1, 2.0, steps=50)
    before = buf.trace
    n0 = len(before)
    values = np.arange(50.0)
    for x in values:
        buf.push(x)
    assert before.base is buf.trace.base
    assert (before.base[n0:] == values).all()
    assert (buf.trace[:n0] == before).all()
