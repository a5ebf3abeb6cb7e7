"""History of the boundary trace w(t) = u_xx(t, 0) and its weighted integrals.

The transported variable z(t, rho, s) = w(t - rho*s) never needs separate
storage: every functional of z reduces, by the change of variable
sigma = rho*s, to integrals of w over [t - tau2, t].  `HistoryBuffer` is
the one store of w, in one array sized for the run: every sample of a run
at the solver step size, from the initial history on, and the run's clock.
The lags tau1, tau2 need not be multiples of dt (endpoint cells use linear
interpolation).  Gain factors beta, |beta| are applied by callers.

The general forms of these functionals, `memory_integral`,
`trace_sq_integral` and `z_energy`, interpolate the history at freshly built
lag nodes on every call; they live in `tests/conftest.py` as the test
oracle.  The solver uses batched forms of them: `feedback_block` (the
memory integral at both ends of each step of a block of up to about
tau1/dt steps, whose lag nodes all lie in the stored past; each value
bit-identical to `memory_integral`, because the trajectory amplifies a
single rounding change; its arrays have one row per step, and only the lag
nodes of each clock offset are kept between blocks) and `trace_series` (the
observation functionals behind the energy, the Lyapunov functional and the
boundary flux, as fixed weights run along the buffer's whole trace after a
run, which gives them at every step).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import MemoryKernel

try:    # np.interp's compiled routine, without the wrapper's dtype dispatch
    from numpy._core.multiarray import interp as _interp
except ImportError:     # another numpy layout: the wrapper, with the same values
    _interp = np.interp


class HistoryBuffer:
    """The boundary trace w at spacing dt, and the clock t_now of its newest
    sample.

    `trace` is every sample since the initial history, oldest first; its
    last `maxlen` samples, at times t_now - `_lags`, cover at least
    [t_now - tau2, t_now].  The one array has room for `steps` pushes:
    `push` writes into it in place, never moving a stored sample, and raises
    IndexError past that room.  Single-writer: the time loop pushes once per
    completed step.
    """

    def __init__(self, dt: float, tau2: float, samples: np.ndarray,
                 steps: int):
        self.dt = dt
        self.tau2 = tau2
        self.maxlen = math.ceil(tau2 / dt) + 3
        samples = np.asarray(samples, dtype=float)
        self._n = len(samples)
        self._data = np.empty(self._n + steps)
        self._data[:self._n] = samples
        # lag dt*k of each of the last maxlen samples, oldest first: their
        # times are t_now - lags
        self._lags = dt * np.arange(self.maxlen - 1, -1, -1)
        self.t_now = 0.0
        if self.span < tau2:
            raise ValueError("initial history does not span tau2")

    @classmethod
    def from_initial(cls, z0, dt: float, tau2: float,
                     steps: int) -> "HistoryBuffer":
        """Sample the initial history z0(t), t in (-tau2, 0], once at setup,
        with room for `steps` pushes."""
        k = math.ceil(tau2 / dt) + 2
        times = -dt * np.arange(k, -1, -1)
        samples = np.array([float(z0(t)) for t in times])
        return cls(dt, tau2, samples, steps)

    @property
    def trace(self) -> np.ndarray:
        """Every stored sample, oldest first; trace[-1] is w(t_now).  A view."""
        return self._data[:self._n]

    @property
    def span(self) -> float:
        return (min(self._n, self.maxlen) - 1) * self.dt

    def __len__(self) -> int:
        """The number of stored samples."""
        return self._n

    def push(self, w_new: float) -> None:
        self._data[self._n] = w_new     # IndexError past the room
        self._n += 1
        self.t_now += self.dt


def _lag_grid(dt: float, lo: float, hi: float, off: float):
    """Lag nodes on [lo, hi] aligned with the sample times, endpoints included,
    and the integer k of each interior node off + k*dt."""
    # sigma = t_eval - sample_time lands on off + k*dt, off = t_eval - t_now
    k0 = math.ceil((lo - off) / dt - 1e-12)
    k1 = math.floor((hi - off) / dt + 1e-12)
    ks = np.arange(k0, k1 + 1)
    nodes = off + dt * ks
    keep = (nodes > lo + 1e-15) & (nodes < hi - 1e-15)
    return np.concatenate(([lo], nodes[keep], [hi])), ks[keep]


# the most lag nodes in a block, so that its arrays stay small (~0.5 MB):
# blocks with ~2 MB of them ran slower per step than one step at a time
_BLOCK_NODES = 8192


def _lag_table(kernel: MemoryKernel, dt: float, off: float) -> tuple:
    """The lag nodes of a step whose clock advances by off = (t + dt) - t,
    and the length of their first segment.  The nodes are a read-only table
    of shape (1, 3, N), one row per step as in a block: rows s, lam(s) and
    the spacing to the next node, over the segment of t, then that of
    t + dt; the spacing that spans the two segments, and the last one, are
    unused."""
    segs = [_lag_grid(dt, kernel.tau1, kernel.tau2, o)[0] for o in (0.0, off)]
    s = np.concatenate(segs)
    table = np.stack((s, np.concatenate([np.asarray(kernel(x)) for x in segs]),
                      np.diff(s, append=s[-1])))[np.newaxis]
    table.flags.writeable = False
    return table, len(segs[0])


def feedback_block(buf: HistoryBuffer, kernel: MemoryKernel, steps: int,
                   tables: dict) -> tuple:
    """The memory integral of the next steps of a run at their two ends:
    lists m0 and m1 of `memory_integral` at t and at t + dt, one float per
    step, where t is the step's clock.  Each value is bit for bit what
    `memory_integral` gives on the buffer of that step; how a step combines
    the two is its integrator's choice.

    Since tau1 >= dt the integral reads only the past.  The block holds as
    many steps, up to `steps` and at least one, as have all their lag nodes
    at or before the newest sample stored now, with lag nodes of one length
    and at most `_BLOCK_NODES` nodes in all.  Each step's clock is advanced
    by the same repeated `+ dt` as `push`, and each step interpolates in its
    own window, cut off at the stored samples; the nodes, the kernel
    weights and the trapezoid sums are 2-D array work, one row per step.

    `tables`, one dict per run, keeps the lag nodes of each clock offset
    (t + dt) - t between calls (`_lag_table`); a run visits a handful of
    offsets, all from rounding.
    """
    dt, tau1, tau2 = buf.dt, kernel.tau1, kernel.tau2
    n0, maxlen = len(buf), buf.maxlen
    eps = 1e-9 * dt
    t = buf.t_now
    # the span checks of the oracle, at the first step: later steps have
    # the same lags and at least as many samples
    if t - tau2 < t - buf.span - eps:
        raise ValueError("insufficient history span for the memory integral")
    if t + dt - tau1 > t + eps:
        raise ValueError("requested time outside the stored history span")
    clock, block = [t], []
    for j in range(max(1, steps)):
        te = t + dt     # the clock, advanced as `push` advances it
        # the top node te - tau1 must lie at or before the newest stored
        # sample, whose time in this step's window is t - j dt, and the
        # block holds at most _BLOCK_NODES nodes
        if j and (te - tau1 > t - dt * j
                  or (j + 1) * block[0].shape[-1] > _BLOCK_NODES):
            break
        off = te - t
        entry = tables.get(off)
        if entry is None:
            entry = tables[off] = _lag_table(kernel, dt, off)
        table, ns = entry
        if block and table.shape != block[0].shape:
            break   # lag nodes of another length start the next block
        block.append(table)
        clock.append(te)
        t = te

    nodes = np.concatenate(block)
    s, lam, d = nodes[:, 0], nodes[:, 1], nodes[:, 2, :-1]
    clock = np.array(clock)[:, np.newaxis]
    t0, t1 = clock[:-1], clock[1:]
    # the evaluation times x = t - s over the segment of t, t + dt - s
    # over that of t + dt
    x = t1 - s
    np.subtract(t0, s[:, :ns], out=x[:, :ns])
    times = t0 - buf._lags      # the samples' times in each step's window
    data = buf._data
    y = np.empty(s.shape)
    for j in range(len(block)):
        a = min(n0 + j, maxlen)
        y[j] = _interp(x[j], times[j, maxlen - a:maxlen - j], data[n0 + j - a:n0])
    np.multiply(lam, y, out=y)      # lam(s) w(x)
    # np.trapezoid's arithmetic, d * (y[1:] + y[:-1]) / 2.0, summed per segment
    terms = np.add(y[:, 1:], y[:, :-1])
    np.multiply(d, terms, out=terms)
    np.divide(terms, 2.0, out=terms)
    m0 = np.add.reduce(terms[:, :ns - 1], axis=-1).tolist()
    m1 = np.add.reduce(terms[:, ns:], axis=-1).tolist()
    return m0, m1


# ---------------------------------------------------------------------------
# observation functionals as fixed weights


class TraceValues(NamedTuple):
    """The history functionals at every sample time (no beta factors)."""

    memory: np.ndarray    # int lam(s) w(t-s) ds
    lam_sq: np.ndarray    # int lam(s) w(t-s)^2 ds
    slam_sq: np.ndarray   # int s lam(s) w(t-s)^2 ds
    z_plain: np.ndarray   # z_energy(..., "plain")
    z_exp: np.ndarray     # z_energy(..., "exp", delta)


def _trapezoid_weights(s: np.ndarray) -> np.ndarray:
    d = np.diff(s)
    t = np.zeros_like(s)
    t[:-1] += 0.5 * d
    t[1:] += 0.5 * d
    return t


class TraceWeights:
    """Quadrature weights of the `TraceValues` functionals, built once.

    At t_eval = t_now the lag nodes are the sample lags k*dt plus the
    off-grid endpoints tau1 and tau2, so every functional is a weighted sum
    over the node values V = (w(t - K dt), ..., w(t), v(tau1), v(tau2)),
    taken to the first power (`memory`) or squared (the others), with
    v(tau) = w(t - tau) interpolated between its two neighbouring samples.
    The weights are those of the trapezoid rules in `memory_integral`,
    `trace_sq_integral` and `z_energy` (whose cumulative inner integral and
    interpolation at tau1 are linear, hence folded into the weights), so
    the sums agree with those functions to rounding.
    """

    def __init__(self, kernel: MemoryKernel, dt: float, delta: float):
        self.dt = dt
        t1, t2 = kernel.tau1, kernel.tau2
        # the endpoints as fractional lags: v(tau) = (1-f) w_lag[j] + f w_lag[j+1]
        self.ends = []
        for tau in (t1, t2):
            j = math.floor(tau / dt)
            self.ends.append((j, tau / dt - j))
        self.K = max(j + (f > 0.0) for j, f in self.ends)
        n_v = self.K + 3            # lags K..0 (oldest first), v(tau1), v(tau2)

        # [tau1, tau2]: lam(s) W(s) v(s)^p with trapezoid weights
        s, ks = _lag_grid(dt, t1, t2, 0.0)
        c = np.asarray(kernel(s)) * _trapezoid_weights(s)
        slots = np.concatenate(([n_v - 2], self.K - ks, [n_v - 1]))
        rows = np.zeros((4, n_v))
        rows[0, slots] = c
        rows[1, slots] = c * s

        # z_energy: trapezoid over s of lam(s) G(s), G the cumulative
        # trapezoid of u = W v^2 on the sigma grid [0, tau2]; adjoint sweep
        sig, ks_sig = _lag_grid(dt, 0.0, t2, 0.0)
        gbar = np.zeros(len(sig))    # weight of G at each sigma node
        m = len(s) - 1               # s[1:] are the last m sigma nodes
        gbar[len(sig) - m:] += c[1:]
        j = min(max(np.searchsorted(sig, t1, side="right") - 1, 0), len(sig) - 2)
        f = (t1 - sig[j]) / (sig[j + 1] - sig[j])
        gbar[j] += c[0] * (1.0 - f)
        gbar[j + 1] += c[0] * f
        tail = np.cumsum(gbar[::-1])[::-1]   # tail[i] = sum_{j >= i} gbar[j]
        h = 0.5 * np.diff(sig) * tail[1:]
        ubar = np.zeros(len(sig))
        ubar[:-1] += h
        ubar[1:] += h
        slots = np.concatenate(([self.K], self.K - ks_sig, [n_v - 1]))
        rows[2, slots] = ubar
        # clipped, delta * sig stays finite: exp(-1e300) = 0 as exp(-inf)
        delta = min(delta, 1e300 / max(1.0, sig[-1]))
        rows[3, slots] = ubar * np.exp(-delta * sig)

        self.linear = rows[0]        # memory, the same weights as lam_sq
        self.quadratic = rows        # lam_sq, slam_sq, z_plain, z_exp


def trace_series(w: np.ndarray, weights: TraceWeights) -> TraceValues:
    """The `TraceValues` functionals at every sample time of a trace.

    `w` is a whole trace at spacing weights.dt, oldest first; entry i of each
    array is the functional at the time of w[K + i], the first time with K
    samples behind it.  One correlation per functional plus the two
    interpolated endpoint terms.
    """
    K = weights.K
    n = len(w)
    if n <= K:
        raise ValueError("insufficient history span")
    ends = []
    for j, f in weights.ends:
        a = w[K - j:n - j]
        ends.append(a if f == 0.0 else (1.0 - f) * a + f * w[K - j - 1:n - j - 1])
    v1, v2 = ends

    def series(row, x, e1, e2):
        return np.correlate(x, row[:K + 1], "valid") + row[K + 1] * e1 + row[K + 2] * e2

    # a diverging trace may overflow here, like the state norms in the run;
    # the step's finiteness check aborts such runs
    with np.errstate(over="ignore", invalid="ignore"):
        memory = series(weights.linear, w, v1, v2)
        w2, s1, s2 = w * w, v1 * v1, v2 * v2
        return TraceValues(memory, *(series(row, w2, s1, s2)
                                     for row in weights.quadratic))
