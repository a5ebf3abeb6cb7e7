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
oracle.  The solver uses set-up-once forms of them: `feedback_integrals`
(the memory feedback at the one or two times of a step, bit-identical to
`memory_integral`, because the trajectory amplifies a single rounding
change) and `trace_series` (the observation functionals behind the energy,
the Lyapunov functional and the boundary flux, as fixed weights run along
the buffer's whole trace after a run, which gives them at every step).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import MemoryKernel


class HistoryBuffer:
    """The boundary trace w at spacing dt, and the clock t_now of its newest
    sample.

    `trace` is every sample since the initial history, oldest first.
    `window()` gives its last `maxlen` samples, which cover at least
    [t_now - tau2, t_now], with their times.  The one array has room for
    `steps` pushes: `push` writes into it in place, never moving a stored
    sample, and raises IndexError past that room.  Single-writer: the
    time loop pushes once per completed step.
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
        # lag dt*k of each of the last maxlen samples, oldest first: the
        # times of `window` are t_now - lags
        self._lags = dt * np.arange(self.maxlen - 1, -1, -1)
        self._times = np.empty(self.maxlen)     # `window`'s times
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

    def window(self):
        """(times, w) of the last `maxlen` samples: the times in an array
        that the next call overwrites, w a view."""
        m = min(self._n, self.maxlen)
        times = self._times[self.maxlen - m:]
        np.subtract(self.t_now, self._lags[self.maxlen - m:], out=times)
        return times, self._data[self._n - m:self._n]

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


class LagQuadrature:
    """The set-up of the oracle `memory_integral`, cached per tuple of offsets
    t_eval - t_now.

    The lag nodes depend on the time only through that offset, which takes a
    handful of distinct values in a run (t_eval is t_now or t_now + dt, and
    (t_now + dt) - t_now rounds to a few values); for each tuple a `LagNodes`
    is kept.
    """

    _MAX_OFFSETS = 256  # a bound on the cache, far above what a run visits

    def __init__(self, kernel: MemoryKernel):
        self.kernel = kernel
        self._cache = {}

    def nodes(self, dt: float, offs: tuple) -> "LagNodes":
        key = (dt, offs)
        hit = self._cache.get(key)
        if hit is None:
            if len(self._cache) >= self._MAX_OFFSETS:
                self._cache.clear()
            hit = self._cache[key] = LagNodes(self.kernel, dt, offs)
        return hit


class LagNodes:
    """The lag nodes of each offset, one segment per offset in concatenated
    arrays: the kernel values, the node spacings (the one that spans two
    segments is not used) and the scratch arrays of `feedback_integrals`,
    which make it single-threaded per `LagQuadrature`."""

    def __init__(self, kernel: MemoryKernel, dt: float, offs: tuple):
        self.segs = [_lag_grid(dt, kernel.tau1, kernel.tau2, off)[0]
                     for off in offs]
        self.lam = np.concatenate([np.asarray(kernel(s)) for s in self.segs])
        self.d = np.diff(np.concatenate(self.segs))
        n = len(self.lam)
        self.x, self.y, self.terms = np.empty(n), np.empty(n), np.empty(n - 1)
        self.y_hi, self.y_lo = self.y[1:], self.y[:-1]
        ends = np.cumsum([len(s) for s in self.segs]).tolist()
        bounds = list(zip([0] + ends[:-1], ends))
        self.x_segs = [self.x[lo:hi] for lo, hi in bounds]
        self.term_segs = [self.terms[lo:hi - 1] for lo, hi in bounds]


def feedback_integrals(buf: HistoryBuffer, quad: LagQuadrature,
                       t_evals: tuple) -> list:
    """[memory_integral(buf, quad.kernel, t) for t in t_evals], bit for bit,
    from cached nodes and one interpolation over the nodes of all times."""
    t_now, dt = buf.t_now, buf.dt
    tau1, tau2 = quad.kernel.tau1, quad.kernel.tau2
    nodes = quad.nodes(dt, tuple([t - t_now for t in t_evals]))
    times, w = buf.window()
    eps = 1e-9 * dt
    oldest = t_now - (len(w) - 1) * dt - eps     # t_now - span
    newest = t_now + eps
    for t, s, x in zip(t_evals, nodes.segs, nodes.x_segs):
        # t - s runs from t - tau1 down to t - tau2, the nodes' exact ends
        if t - tau2 < oldest:
            raise ValueError("insufficient history span for the memory integral")
        if t - tau1 > newest:
            raise ValueError("requested time outside the stored history span")
        np.subtract(t, s, out=x)
    terms = nodes.terms
    np.multiply(nodes.lam, np.interp(nodes.x, times, w), out=nodes.y)
    # np.trapezoid's arithmetic, d * (y[1:] + y[:-1]) / 2.0, summed per segment
    np.add(nodes.y_hi, nodes.y_lo, out=terms)
    np.multiply(nodes.d, terms, out=terms)
    np.divide(terms, 2.0, out=terms)
    return [float(np.add.reduce(ts)) for ts in nodes.term_segs]


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

    def __init__(self, kernel: MemoryKernel, dt: float, delta: float = 0.0):
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
        rows = np.zeros((5, n_v))
        rows[0, slots] = c
        rows[1, slots] = c
        rows[2, slots] = c * s

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
        rows[3, slots] = ubar
        rows[4, slots] = ubar * np.exp(-delta * sig)

        self.linear = rows[0]        # memory
        self.quadratic = rows[1:]    # lam_sq, slam_sq, z_plain, z_exp


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
