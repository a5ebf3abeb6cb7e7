"""History of the boundary trace w(t) = u_xx(t, 0) and its weighted integrals.

The transported variable z(t, rho, s) = w(t - rho*s) never needs separate
storage: every functional of z reduces, by the change of variable
sigma = rho*s, to integrals of w over [t - tau2, t].  The buffer keeps w
samples at the solver step size; the lags tau1, tau2 need not be multiples
of dt (endpoint cells use linear interpolation).  Gain factors beta, |beta|
are applied by callers.

`memory_integral`, `trace_sq_integral` and `z_energy` interpolate the history
at freshly built lag nodes on every call; they are the general path and the
test oracle.  The time loop uses two set-up-once forms of them:
`feedback_integral` (the memory feedback, bit-identical to `memory_integral`,
because the trajectory amplifies a single rounding change) and
`weighted_trace` (the observation functionals at t_eval = t_now, as fixed
weights on the stored samples).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import MemoryKernel


class HistoryBuffer:
    """Samples of w at spacing dt covering at least [t_now - tau2, t_now].

    The samples live in a preallocated array of `maxlen` slots, newest last;
    `push` shifts them in place.  Single-writer: the time loop pushes once
    per completed step.  Snapshots (`copy`) are handed to any consumer that
    must keep an earlier history.
    """

    def __init__(self, dt: float, tau2: float, samples: np.ndarray, t_now: float = 0.0):
        self.dt = dt
        self.tau2 = tau2
        self.maxlen = math.ceil(tau2 / dt) + 3
        samples = np.asarray(samples, dtype=float)[-self.maxlen:]
        self._data = np.zeros(self.maxlen)
        self._n = len(samples)
        self._data[self.maxlen - self._n:] = samples
        # lag dt*k of each slot, oldest slot first: times() = t_now - lags
        self._lags = dt * np.arange(self.maxlen - 1, -1, -1)
        self.t_now = t_now
        if self.span < tau2:
            raise ValueError("initial history does not span tau2")

    @classmethod
    def from_initial(cls, z0, dt: float, tau2: float) -> "HistoryBuffer":
        """Sample the initial history z0(t), t in (-tau2, 0], once at setup."""
        k = math.ceil(tau2 / dt) + 2
        times = -dt * np.arange(k, -1, -1)
        return cls(dt, tau2, np.array([float(z0(t)) for t in times]), t_now=0.0)

    @property
    def w(self) -> np.ndarray:
        """The stored samples, oldest first; w[-1] is w(t_now).  A view."""
        return self._data[self.maxlen - self._n:]

    @property
    def span(self) -> float:
        return (self._n - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t_now - self._lags[self.maxlen - self._n:]

    def copy(self) -> "HistoryBuffer":
        return HistoryBuffer(self.dt, self.tau2, self.w, self.t_now)

    def push(self, w_new: float) -> None:
        d = self._data
        if self._n < self.maxlen:
            self._n += 1
        lo = self.maxlen - self._n
        d[lo:-1] = d[lo + 1:]
        d[-1] = w_new
        self.t_now += self.dt

    def w_at(self, t):
        """Linear interpolation of the stored history at time(s) t."""
        t = np.asarray(t, dtype=float)
        t0 = self.t_now - self.span
        eps = 1e-9 * self.dt
        if np.any(t < t0 - eps) or np.any(t > self.t_now + eps):
            raise ValueError("requested time outside the stored history span")
        out = np.interp(t, self.times(), self.w)
        return out if out.ndim else float(out)


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


def _lag_nodes(buf: HistoryBuffer, lo: float, hi: float, t_eval: float) -> np.ndarray:
    return _lag_grid(buf.dt, lo, hi, t_eval - buf.t_now)[0]


def memory_integral(buf: HistoryBuffer, kernel: MemoryKernel,
                    t_eval: float | None = None) -> float:
    """int_{tau1}^{tau2} lam(sigma) w(t - sigma) d sigma (no beta factor)."""
    t = buf.t_now if t_eval is None else t_eval
    if t - kernel.tau2 < buf.t_now - buf.span - 1e-9 * buf.dt:
        raise ValueError("insufficient history span for the memory integral")
    s = _lag_nodes(buf, kernel.tau1, kernel.tau2, t)
    vals = np.asarray(kernel(s)) * buf.w_at(t - s)
    return float(np.trapezoid(vals, s))


class LagQuadrature:
    """The set-up of `memory_integral`, cached per offset t_eval - t_now.

    The lag nodes depend on the time only through that offset, which takes a
    handful of distinct values in a run (t_eval is t_now or t_now + dt, and
    the two clocks drift apart by rounding); for each one the nodes, the
    kernel values and the node spacings are kept.
    """

    _MAX_OFFSETS = 256  # a bound on the cache, far above what a run visits

    def __init__(self, kernel: MemoryKernel):
        self.kernel = kernel
        self._cache = {}

    def nodes(self, dt: float, off: float):
        """(lag nodes, lam at the nodes, node spacings) for one offset."""
        key = (dt, off)
        hit = self._cache.get(key)
        if hit is None:
            if len(self._cache) >= self._MAX_OFFSETS:
                self._cache.clear()
            s = _lag_grid(dt, self.kernel.tau1, self.kernel.tau2, off)[0]
            hit = self._cache[key] = (s, np.asarray(self.kernel(s)), np.diff(s))
        return hit


def feedback_integral(buf: HistoryBuffer, quad: LagQuadrature, t_eval: float) -> float:
    """memory_integral(buf, quad.kernel, t_eval), bit for bit, from cached nodes."""
    s, lam, d = quad.nodes(buf.dt, t_eval - buf.t_now)
    x = t_eval - s
    # t_eval - s decreases along s, so its ends bound it
    eps = 1e-9 * buf.dt
    if x[-1] < buf.t_now - buf.span - eps:
        raise ValueError("insufficient history span for the memory integral")
    if x[0] > buf.t_now + eps:
        raise ValueError("requested time outside the stored history span")
    y = lam * np.interp(x, buf.times(), buf.w)
    # np.trapezoid's arithmetic
    return float((d * (y[1:] + y[:-1]) / 2.0).sum())


def _cumulative_w2(buf: HistoryBuffer, kernel: MemoryKernel, weight, t: float):
    """sigma grid on [0, tau2] and G(s) = int_0^s weight(sig) w(t-sig)^2 dsig."""
    s = _lag_nodes(buf, 0.0, kernel.tau2, t)
    vals = weight(s) * buf.w_at(t - s) ** 2
    G = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(s))))
    return s, G


def z_energy(buf: HistoryBuffer, kernel: MemoryKernel, weight: str = "plain",
             delta: float = 0.0, t_eval: float | None = None) -> float:
    """Double integral int lam(s) int_0^s W(sigma) w(t-sigma)^2 dsigma ds.

    W = 1 for weight='plain' (the memory part of the energy), or
    W = exp(-delta*sigma) for weight='exp' (the E2 functional).
    The |beta| factor is applied by the caller.
    """
    t = buf.t_now if t_eval is None else t_eval
    if t - kernel.tau2 < buf.t_now - buf.span - 1e-9 * buf.dt:
        raise ValueError("insufficient history span for the memory energy")
    if weight == "plain":
        W = lambda s: np.ones_like(s)
    elif weight == "exp":
        W = lambda s: np.exp(-delta * s)
    else:
        raise ValueError(f"unknown weight {weight!r}")
    sig, G = _cumulative_w2(buf, kernel, W, t)
    s = _lag_nodes(buf, kernel.tau1, kernel.tau2, t)
    vals = np.asarray(kernel(s)) * np.interp(s, sig, G)
    return float(np.trapezoid(vals, s))


def trace_sq_integral(buf: HistoryBuffer, kernel: MemoryKernel, weight: str = "one",
                      delta: float = 0.0, t_eval: float | None = None) -> float:
    """int lam(s) W(s) w(t-s)^2 ds with W in {1, s, exp(-delta*s)}."""
    t = buf.t_now if t_eval is None else t_eval
    if t - kernel.tau2 < buf.t_now - buf.span - 1e-9 * buf.dt:
        raise ValueError("insufficient history span")
    s = _lag_nodes(buf, kernel.tau1, kernel.tau2, t)
    if weight == "one":
        W = np.ones_like(s)
    elif weight == "s":
        W = s
    elif weight == "exp":
        W = np.exp(-delta * s)
    else:
        raise ValueError(f"unknown weight {weight!r}")
    vals = np.asarray(kernel(s)) * W * buf.w_at(t - s) ** 2
    return float(np.trapezoid(vals, s))


# ---------------------------------------------------------------------------
# observation functionals as fixed weights


class TraceValues(NamedTuple):
    """The history functionals at t_now (no beta factors)."""

    memory: float    # int lam(s) w(t-s) ds
    lam_sq: float    # int lam(s) w(t-s)^2 ds
    slam_sq: float   # int s lam(s) w(t-s)^2 ds
    z_plain: float   # z_energy(..., "plain")
    z_exp: float     # z_energy(..., "exp", delta)


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


def weighted_trace(buf: HistoryBuffer, weights: TraceWeights) -> TraceValues:
    """The history functionals at t_now as fixed-weight sums over the samples."""
    if buf.dt != weights.dt:
        raise ValueError("history buffer and weights have different dt")
    w = buf.w
    n, K = len(w), weights.K
    if n <= K:
        raise ValueError("insufficient history span")
    V = np.empty(K + 3)
    V[:K + 1] = w[n - 1 - K:]
    for slot, (j, f) in zip((K + 1, K + 2), weights.ends):
        a = w[n - 1 - j]
        V[slot] = a if f == 0.0 else (1.0 - f) * a + f * w[n - 2 - j]
    # a diverging trace may overflow here, like the state norms in the run;
    # the step's finiteness check aborts such runs
    with np.errstate(over="ignore", invalid="ignore"):
        quad = weights.quadratic @ (V * V)
    return TraceValues(float(weights.linear @ V), *map(float, quad))
