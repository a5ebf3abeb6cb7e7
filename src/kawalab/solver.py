"""IMEX time integration of the semi-discrete boundary-feedback system.

du/dt = -(A u + g_F * F(t)) - u^p u_x (+ optional manufactured forcing),
F(t) = alpha * u_xx(t,0) + beta * memory integral.

The stiff linear part, including the instantaneous alpha feedback (a rank-one
coupling g_F * trace0), is advanced with Crank-Nicolson; the memory term is
known from history and enters explicitly at the midpoint, as does the
nonlinearity via second-order Adams-Bashforth extrapolation (explicit Euler
bootstrap on the first step).  The implicit solve is a banded system,
factored once with LAPACK gbtrf, plus a rank-one Sherman-Morrison
correction.  Every state-advancing operation keeps the arithmetic of the
plain formulation (dense matvecs, `memory.memory_integral`, `solve_banded`
per step) bit for bit: a single rounding change early in a run moves the
final energy by up to ~1e-5 relative.

The nonlinearity uses the split u^p u_x ~ (D1(g) + |u|^p (D1 u)) / (p+2)
with g = |u|^p u, which is consistent for all p in [1, 2] and makes
<u, N(u)> vanish identically for the antisymmetric D1 (for non-integer p and
u < 0 this fixes the u^p convention to |u|^p, an odd-antiderivative form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .discretization import BANDWIDTH, Grid, SpatialOperator, build_operator
from .memory import (HistoryBuffer, LagQuadrature, TraceWeights,
                     feedback_integral, weighted_trace)
from .model import FeedbackGains, MemoryKernel, PhysicalParams


class SolverAbort(RuntimeError):
    def __init__(self, message, step_index, t):
        super().__init__(f"{message} at step {step_index}, t = {t:.6g}")
        self.step_index = step_index
        self.t = t


@dataclass(frozen=True)
class SimConfig:
    params: PhysicalParams
    gains: FeedbackGains
    kernel: MemoryKernel
    N: int
    dt: float
    T_end: float
    u0: Callable[[np.ndarray], np.ndarray]
    z0: Callable[[float], float]
    record_every: int = 10
    linear_only: bool = False
    mms_amplitude: Optional[float] = None
    # Rannacher smoothing: number of initial backward-Euler steps.  The
    # L-stable startup damps spurious oscillations excited by initial data
    # that violate the boundary conditions; it also removes energy without a
    # matching boundary flux, so runs with smooth compatible data (a priori
    # estimate and observability suites) set it to 0.
    startup_steps: int = 2

    def __post_init__(self):
        for name in ("dt", "T_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T_end < 0:
            raise ValueError("T_end must be nonnegative")
        if self.dt > self.kernel.tau1:
            raise ValueError("dt must not exceed tau1")

    @property
    def n_steps(self) -> int:
        """Time steps to reach T_end; the last one may overshoot it."""
        return math.ceil(self.T_end / self.dt - 1e-12) if self.T_end > 0 else 0


@dataclass
class SimState:
    u: np.ndarray
    history: HistoryBuffer
    t_now: float
    step_index: int
    prev_nl: Optional[np.ndarray] = None  # N(u) at the previous level, for AB2


def _pow_p(u: np.ndarray, p: float) -> np.ndarray:
    if p == round(p):
        return u ** int(round(p))
    return np.abs(u) ** p


def _build_mms(params: PhysicalParams, amplitude: float):
    """Manufactured solution A e^{-t} x^2 (L-x)^2 sin(pi x / L) and its residual.

    Satisfies u = u_x = 0 at both ends and u_xx = 0 at both ends, so the
    feedback loop is consistent with F* = 0.  The solution is nonnegative on
    (0, L), so u^p is well defined for fractional p.
    """
    import sympy as sp

    x, t = sp.symbols("x t")
    L = sp.Float(params.L, 30)
    u = amplitude * sp.exp(-t) * x ** 2 * (L - x) ** 2 * sp.sin(sp.pi * x / L)
    f = (sp.diff(u, t) + params.a * sp.diff(u, x) + params.b * sp.diff(u, x, 3)
         - sp.diff(u, x, 5) + u ** sp.Float(params.p) * sp.diff(u, x))
    exact = sp.lambdify((x, t), u, "numpy")
    forcing = sp.lambdify((x, t), f, "numpy")
    return exact, forcing


class _ImplicitSystem:
    """The implicit system I + theta dt (A + alpha g_F trace0^T), set up once.

    The band part I + theta dt A is factored with LAPACK gbtrf; `solve`
    applies it.  The instantaneous feedback is the rank-one rest, solved by
    Sherman-Morrison: x = y - c (trace0 . y) / denom q with y = solve(rhs),
    q = solve(g_F), c = theta dt alpha and denom = 1 + c (trace0 . q).
    """

    def __init__(self, op: SpatialOperator, dt: float, alpha: float, theta: float):
        cdt = theta * dt
        # LAPACK band storage ab[2*BANDWIDTH + i - j, j] = M[i, j]; gbtrf uses
        # the top BANDWIDTH rows for the fill-in of partial pivoting
        ab = np.zeros((3 * BANDWIDTH + 1, len(op.g_F)))
        ab[BANDWIDTH:] = cdt * op.bands
        ab[2 * BANDWIDTH] += 1.0
        self.lu, self.piv, info = dgbtrf(ab, BANDWIDTH, BANDWIDTH,
                                         overwrite_ab=True)
        if info != 0:
            raise SolverAbort("singular implicit system", 0, 0.0)
        self.q = self.solve(op.g_F)
        self.c = cdt * alpha
        self.denom = 1.0 + self.c * float(op.trace0_vec @ self.q)
        if abs(self.denom) < 1e-14:
            raise SolverAbort("singular implicit system", 0, 0.0)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The banded solve (without the rank-one term)."""
        y, info = dgbtrs(self.lu, BANDWIDTH, BANDWIDTH, rhs, self.piv)
        if info != 0:
            raise SolverAbort("singular implicit system", 0, 0.0)
        return y


class Stepper:
    """Holds the factorized pieces; `step` is the single time advance."""

    def __init__(self, config: SimConfig, op: SpatialOperator | None = None):
        self.config = config
        self.grid = Grid(config.N, config.params.L)
        self.op = op if op is not None else build_operator(config.params, self.grid)
        dt = config.dt
        alpha = config.gains.alpha
        # I - dt/2 A in place, the one dense N x N array (a banded matvec
        # rounds differently); 0.0 - x keeps the +0 of the zero entries
        self.rhs_mat = self.op.dense()
        self.rhs_mat *= 0.5 * dt
        np.subtract(0.0, self.rhs_mat, out=self.rhs_mat)
        self.rhs_mat.flat[::config.N + 1] += 1.0
        self.cn = _ImplicitSystem(self.op, dt, alpha, 0.5)
        # backward-Euler startup system (Rannacher smoothing of rough data)
        self.be = _ImplicitSystem(self.op, dt, alpha, 1.0)
        self.n_startup = config.startup_steps
        # centered first difference, rows (-c, 0, c) about the diagonal
        self._d1 = 0.5 / self.grid.h
        self.memory_quad = LagQuadrature(config.kernel)
        self.trace_weights = TraceWeights(config.kernel, dt, config.gains.delta)
        if config.mms_amplitude is not None:
            self.mms_exact, self.mms_forcing = _build_mms(
                config.params, config.mms_amplitude)
        else:
            self.mms_exact = self.mms_forcing = None

    def _solve_implicit(self, rhs: np.ndarray, be: bool = False) -> np.ndarray:
        system = self.be if be else self.cn
        y = system.solve(rhs)
        return y - system.c * float(self.op.trace0_vec @ y) / system.denom * system.q

    def _apply_d1(self, v: np.ndarray) -> np.ndarray:
        """D1 @ v from two shifted slices, the same two products per row."""
        c = self._d1
        out = np.empty_like(v)
        out[0] = c * v[1]
        out[1:-1] = c * v[2:] - c * v[:-2]
        out[-1] = -(c * v[-2])
        return out

    def nonlinear(self, u: np.ndarray) -> np.ndarray:
        p = self.config.params.p
        # blowing-up trajectories overflow here; the step's finiteness check
        # turns the resulting non-finite values into a SolverAbort
        with np.errstate(over="ignore", invalid="ignore"):
            up = _pow_p(u, p)
            g = up * u
            return (self._apply_d1(g) + up * self._apply_d1(u)) / (p + 2.0)

    def step(self, state: SimState) -> SimState:
        """Advance one step.  The history buffer is advanced in place: the
        returned state shares it with `state`."""
        cfg = self.config
        dt = cfg.dt
        u = state.u
        t = state.t_now
        buf = state.history

        be = state.step_index < self.n_startup

        # explicit memory feedback, fully known from history since tau1 >= dt:
        # midpoint value for CN, end-of-step value for the BE startup steps
        if be:
            mem = feedback_integral(buf, self.memory_quad, t + dt)
            t_force = t + dt
        else:
            mem = 0.5 * (feedback_integral(buf, self.memory_quad, t)
                         + feedback_integral(buf, self.memory_quad, t + dt))
            t_force = t + 0.5 * dt
        expl = -self.op.g_F * (cfg.gains.beta * mem)

        nl = None
        if not cfg.linear_only:
            nl = self.nonlinear(u)
            nl_mid = (1.5 * nl - 0.5 * state.prev_nl
                      if not be and state.prev_nl is not None else nl)
            expl = expl - nl_mid
        if self.mms_forcing is not None:
            expl = expl + self.mms_forcing(self.grid.x, t_force)

        if be:
            rhs = u + dt * expl
        else:
            rhs = self.rhs_mat @ u
            rhs -= 0.5 * dt * cfg.gains.alpha * self.op.trace_uxx0(u) * self.op.g_F
            rhs += dt * expl
        u_new = self._solve_implicit(rhs, be=be)
        if not np.all(np.isfinite(u_new)):
            raise SolverAbort("non-finite state", state.step_index + 1, t + dt)

        buf.push(self.op.trace_uxx0(u_new))
        return SimState(u=u_new, history=buf, t_now=t + dt,
                        step_index=state.step_index + 1, prev_nl=nl)

    def initial_state(self) -> SimState:
        u0 = np.asarray(self.config.u0(self.grid.x), dtype=float)
        buf = HistoryBuffer.from_initial(self.config.z0, self.config.dt,
                                         self.config.kernel.tau2)
        return SimState(u=u0, history=buf, t_now=0.0, step_index=0)


@dataclass
class TimeSeries:
    """Per-step scalars, for trapezoid time integrals in the diagnostics."""

    t: np.ndarray
    w: np.ndarray          # u_xx(t, 0)
    F: np.ndarray          # feedback value
    l2: np.ndarray         # ||u||^2
    lam_z1sq: np.ndarray   # int lam(s) z(t,1,s)^2 ds
    slam_z1sq: np.ndarray  # int s lam(s) z(t,1,s)^2 ds


@dataclass
class RunResult:
    records: list
    final: SimState
    series: TimeSeries
    h_norm0_sq: float
    mms_error: Optional[float] = None


def run(config: SimConfig) -> RunResult:
    """Advance to T_end, recording diagnostics every record_every steps.

    Deterministic: identical configs produce bitwise-identical trajectories.
    """
    from . import diagnostics  # local import: diagnostics also drives runs

    st = Stepper(config)
    state = st.initial_state()
    n_steps = config.n_steps

    records = []
    cols = {k: [] for k in ("t", "w", "F", "l2", "lam_z1sq", "slam_z1sq")}

    def sample(state: SimState):
        buf = state.history
        w = float(buf.w[-1])
        tv = weighted_trace(buf, st.trace_weights)
        cols["t"].append(state.t_now)
        cols["w"].append(w)
        cols["F"].append(config.gains.alpha * w + config.gains.beta * tv.memory)
        # A diverging state may overflow here; the step's finiteness check
        # turns it into SolverAbort, so inf in the last sample is harmless.
        with np.errstate(over="ignore"):
            cols["l2"].append(float(st.grid.h * (state.u ** 2).sum()))
        cols["lam_z1sq"].append(tv.lam_sq)
        cols["slam_z1sq"].append(tv.slam_sq)

    h0 = (st.grid.h * (state.u ** 2).sum()
          + abs(config.gains.beta)
          * weighted_trace(state.history, st.trace_weights).z_plain)
    sample(state)
    if config.record_every > 0:
        records.append(diagnostics.compute_record(state, config, st.op,
                                                  st.trace_weights))
    for k in range(n_steps):
        state = st.step(state)
        sample(state)
        if config.record_every > 0 and (
                state.step_index % config.record_every == 0 or k == n_steps - 1):
            records.append(diagnostics.compute_record(state, config, st.op,
                                                      st.trace_weights))

    series = TimeSeries(**{k: np.array(v) for k, v in cols.items()})
    mms_err = None
    if st.mms_exact is not None:
        exact = st.mms_exact(st.grid.x, state.t_now)
        mms_err = float(np.sqrt(st.grid.h * ((state.u - exact) ** 2).sum()))
    return RunResult(records=records, final=state, series=series,
                     h_norm0_sq=float(h0), mms_error=mms_err)
