"""Shared fixtures: the reference configuration in object and JSON form, and
the oracles that the package's fast forms must reproduce: the dense operator
assembly, the interpolating history functionals, their fixed-weight form at
one time and the closed form of det P."""

import json
import math

import numpy as np
import pytest

from kawalab.discretization import _D1, _D3, _D5
from kawalab.memory import HistoryBuffer, TraceValues, TraceWeights, _lag_grid
from kawalab.model import FeedbackGains, MemoryKernel, PhysicalParams, r_max
from kawalab.solver import SimConfig


REFERENCE_DOC = {
    "model": {"a": 1.0, "b": 1.0, "L": math.pi, "p": 1.0},
    "gains": {"alpha": 0.5, "beta": 0.25, "mu1": 0.01, "mu2": 0.01, "delta": 1.0},
    "kernel": {"form": "constant", "tau1": 1.0, "tau2": 2.0, "params": {"c": 1.0}},
    "numerics": {"N": 128, "dt": 0.01, "T_end": 30.0, "record_every": 10,
                 "linear_only": False},
    "initial": {"u0": {"type": "sine", "mode": 1, "h_norm_r_max_fraction": 0.5},
                "z0": {"type": "zero"}},
    "seed": 0,
}


@pytest.fixture
def reference_doc():
    return json.loads(json.dumps(REFERENCE_DOC))


@pytest.fixture
def reference_config_path(tmp_path, reference_doc):
    p = tmp_path / "reference.json"
    p.write_text(json.dumps(reference_doc))
    return str(p)


@pytest.fixture(scope="session")
def ref_params():
    return PhysicalParams(a=1.0, b=1.0, L=math.pi, p=1.0)


@pytest.fixture(scope="session")
def ref_gains():
    return FeedbackGains(alpha=0.5, beta=0.25, mu1=0.01, mu2=0.01, delta=1.0)


@pytest.fixture(scope="session")
def ref_kernel():
    return MemoryKernel(tau1=1.0, tau2=2.0, form="constant", c=1.0)


def reference_sim_config(linear_only=False, **over):
    """SimConfig matching the reference document; keyword overrides applied."""
    params = PhysicalParams(a=1.0, b=1.0, L=math.pi, p=1.0)
    gains = FeedbackGains(alpha=0.5, beta=0.25, mu1=0.01, mu2=0.01, delta=1.0)
    kernel = MemoryKernel(tau1=1.0, tau2=2.0, form="constant", c=1.0)
    L = params.L
    amp = 0.5 * r_max(params) / math.sqrt(L / 2.0)
    base = dict(params=params, gains=gains, kernel=kernel, N=128, dt=0.01,
                T_end=30.0,
                u0=lambda x: amp * np.sin(math.pi * np.asarray(x) / L),
                z0=lambda t: 0.0,
                record_every=10, linear_only=linear_only)
    base.update(over)
    return SimConfig(**base)


def _ghost_fit(powers, nodes, xi):
    """Weights on the values at `nodes` (in units of h) of the fit
    sum_k c_k y^k, k in `powers`, evaluated at the ghost node y = xi."""
    V = np.array([[float(n) ** k for k in powers] for n in nodes])
    return np.array([xi ** k for k in powers]) @ np.linalg.inv(V)


def _right_ghost(xi):
    """(weights on u_N..u_{N-3}, coefficient of F h^2) of the ghost at
    y = xi h about x = L, from the fit F y^2 / 2 + sum_{k=3..6} d_k y^k
    matched at y = -h..-4h: the sum is fitted to u - F y^2 / 2 there."""
    nodes = [-1.0, -2.0, -3.0, -4.0]
    w = _ghost_fit(range(3, 7), nodes, xi)
    return w, 0.5 * xi * xi - w @ (0.5 * np.array([n * n for n in nodes]))


def dense_operator_oracle(params, grid):
    """(A, g_F) assembled as dense N x N rows, one extended row per stencil
    entry: the assembly that `build_operator` replaced, kept as its oracle.

    Every extended value u_{-2}..u_{N+3} is a row of weights over the
    interior values plus a coefficient of F; row j of A sums scale * c times
    the rows its stencil reads.  The ghost weights come from the fits that
    the `discretization` docstring states, solved here: on the left,
    sum_{k=2..6} c_k x^k through u_1..u_5 at x = -h, -2h; on the right,
    `_right_ghost` at y = h, 2h.
    """
    N, h = grid.N, grid.h
    ext_w = {}
    ext_f = {}
    for j in range(1, N + 1):
        row = np.zeros(N)
        row[j - 1] = 1.0
        ext_w[j], ext_f[j] = row, 0.0
    ext_w[0] = ext_w[N + 1] = np.zeros(N)
    ext_f[0] = ext_f[N + 1] = 0.0
    for idx in (-1, -2):
        row = np.zeros(N)
        row[0:5] = _ghost_fit(range(2, 7), range(1, 6), float(idx))
        ext_w[idx], ext_f[idx] = row, 0.0
    for idx, xi in ((N + 2, 1.0), (N + 3, 2.0)):
        w, fc = _right_ghost(xi)
        row = np.zeros(N)
        row[N - 1:N - 5:-1] = w     # weights on u_N, u_{N-1}, u_{N-2}, u_{N-3}
        ext_w[idx], ext_f[idx] = row, fc * h * h

    A = np.zeros((N, N))
    g_F = np.zeros(N)
    for stencil, scale in ((_D1, params.a / h), (_D3, params.b / h ** 3),
                           (-_D5, 1.0 / h ** 5)):
        half = len(stencil) // 2
        for j in range(1, N + 1):
            for o, c in zip(range(-half, half + 1), stencil):
                if c == 0.0:
                    continue
                A[j - 1] += scale * c * ext_w[j + o]
                g_F[j - 1] += scale * c * ext_f[j + o]
    return A, g_F


def dense_d1(N, h):
    """Centered first difference with zero-Dirichlet closure, N x N."""
    D1 = np.zeros((N, N))
    for j in range(N):
        if j > 0:
            D1[j, j - 1] = -0.5 / h
        if j < N - 1:
            D1[j, j + 1] = 0.5 / h
    return D1


def det_P_closed_form(gains: FeedbackGains, kernel: MemoryKernel) -> float:
    """det P = |b| (int lam)^-1 { [1 - |b| int lam]^2 - a^2 }."""
    lam = kernel.lambda_integral
    b = abs(gains.beta)
    return (b / lam) * ((1.0 - b * lam) ** 2 - gains.alpha ** 2)


# ---------------------------------------------------------------------------
# interpolating history functionals: the general forms of
# `memory.feedback_block` and `memory.trace_series`


def history_window(buf: HistoryBuffer):
    """(times, w) of the last `maxlen` samples of `buf`, or of all of them
    while there are fewer: the times t_now - lags, w a view."""
    m = min(len(buf), buf.maxlen)
    return buf.t_now - buf._lags[buf.maxlen - m:], buf.trace[-m:]


def copy_history(buf: HistoryBuffer, steps: int) -> HistoryBuffer:
    """A snapshot of `buf` that later pushes leave unchanged, with room for
    `steps` pushes of its own."""
    copy = HistoryBuffer(buf.dt, buf.tau2, history_window(buf)[1], steps)
    copy.t_now = buf.t_now
    return copy


def w_at(buf: HistoryBuffer, t):
    """Linear interpolation of the stored history at time(s) t."""
    t = np.asarray(t, dtype=float)
    t0 = buf.t_now - buf.span
    eps = 1e-9 * buf.dt
    if np.any(t < t0 - eps) or np.any(t > buf.t_now + eps):
        raise ValueError("requested time outside the stored history span")
    out = np.interp(t, *history_window(buf))
    return out if out.ndim else float(out)


def _lag_nodes(buf: HistoryBuffer, lo: float, hi: float, t_eval: float) -> np.ndarray:
    return _lag_grid(buf.dt, lo, hi, t_eval - buf.t_now)[0]


def memory_integral(buf: HistoryBuffer, kernel: MemoryKernel,
                    t_eval: float | None = None) -> float:
    """int_{tau1}^{tau2} lam(sigma) w(t - sigma) d sigma (no beta factor)."""
    t = buf.t_now if t_eval is None else t_eval
    if t - kernel.tau2 < buf.t_now - buf.span - 1e-9 * buf.dt:
        raise ValueError("insufficient history span for the memory integral")
    s = _lag_nodes(buf, kernel.tau1, kernel.tau2, t)
    vals = np.asarray(kernel(s)) * w_at(buf, t - s)
    return float(np.trapezoid(vals, s))


def _cumulative_w2(buf: HistoryBuffer, kernel: MemoryKernel, weight, t: float):
    """sigma grid on [0, tau2] and G(s) = int_0^s weight(sig) w(t-sig)^2 dsig."""
    s = _lag_nodes(buf, 0.0, kernel.tau2, t)
    vals = weight(s) * w_at(buf, t - s) ** 2
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
    vals = np.asarray(kernel(s)) * W * w_at(buf, t - s) ** 2
    return float(np.trapezoid(vals, s))


def weighted_trace(buf: HistoryBuffer, weights: TraceWeights) -> TraceValues:
    """The `TraceValues` functionals at t_now of one buffer, as floats: the
    `TraceWeights` rows applied to the node values of that one time, the
    per-time form of `memory.trace_series`."""
    if buf.dt != weights.dt:
        raise ValueError("history buffer and weights have different dt")
    w = history_window(buf)[1]
    n, K = len(w), weights.K
    if n <= K:
        raise ValueError("insufficient history span")
    V = np.empty(K + 3)
    V[:K + 1] = w[n - 1 - K:]
    for slot, (j, f) in zip((K + 1, K + 2), weights.ends):
        a = w[n - 1 - j]
        V[slot] = a if f == 0.0 else (1.0 - f) * a + f * w[n - 2 - j]
    quad = weights.quadratic @ (V * V)
    return TraceValues(float(weights.linear @ V), *map(float, quad))
