"""IMEX time integration of the semi-discrete boundary-feedback system.

du/dt = -(A u + g_F * F(t)) - u^p u_x (+ optional manufactured forcing),
F(t) = alpha * u_xx(t,0) + beta * memory integral.

The stiff linear part, including the instantaneous alpha feedback (a rank-one
coupling g_F * trace0), is advanced with Crank-Nicolson; the memory term is
known from history and enters explicitly at the midpoint, as does the
nonlinearity via second-order Adams-Bashforth extrapolation (explicit Euler
bootstrap on the first step).  The implicit solve is a banded system,
factored once with LAPACK dgbtrf and solved with dgbtrs, plus a rank-one
Sherman-Morrison correction; `_lapack` loads those two routines from scipy's
compiled wrappers without importing scipy.linalg.  Every state-advancing
operation keeps the arithmetic of the plain formulation bit for bit: the
`I - dt/2 A` matvec (the dense N x N product, computed as BLAS products on
narrow row blocks, `_rhs_layout`, for N up to `MAX_N`; `SimConfig` and
`Stepper` accept a larger N, where the blocks hold the exact entries but the
product may differ from the dense one in its last bits), the memory feedback
of the oracle `memory_integral` in `tests/conftest.py` (`memory.feedback_block`
gives its values at both ends of each step of a block of steps at once, and
`Stepper.step` alone takes the end value or the midpoint mean), the D1
products and the band solve.  A single rounding change early in a run moves
the final energy by up to ~1e-5 relative.

Two rules keep those bits while the step stays lean.  Constants set up
once are the scalar prefixes that Python forms left to right in the plain
expressions (`-g_F`, whose negation is exact, `0.5 * dt * alpha` and
`p + 2.0`), never vectors pre-multiplied by a scalar: `g_F * (beta * mem)`
and `(beta * g_F) * mem` round differently.  Every intermediate is written
with `out=` into work arrays set up once, in the plain formulation's order;
a step's new `u` and `prev_nl` are fresh arrays.  The step enters no
`np.errstate`: `run` enters one around its time loop, so that a diverging
state overflows silently until the step's finiteness check turns it into a
`SolverAbort`.

The `Stepper` owns a run's state and advances it in place; the history
buffer in it is the run's one store of the boundary trace and its one clock.
The time loop stores t and ||u||^2 per step, and at a record step the few
record values that need the state; the history functionals are computed
from the buffer's trace after the run (`memory.trace_series`), and
the energy records from the series (`build_records`).

The nonlinearity uses the split u^p u_x ~ (D1(g) + |u|^p (D1 u)) / (p+2)
with g = |u|^p u, which is consistent for all p in [1, 2] and makes
<u, N(u)> vanish identically for the antisymmetric D1 (for non-integer p and
u < 0 this fixes the u^p convention to |u|^p, an odd-antiderivative form).
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Callable, Optional, Sequence

import numpy as np

from .discretization import (BANDWIDTH, Grid, SpatialOperator, build_operator,
                             weighted_mass)
from .memory import HistoryBuffer, TraceWeights, feedback_block, trace_series
from .model import FeedbackGains, MemoryKernel, PhysicalParams, assemble_P


def _lapack():
    """scipy's compiled LAPACK wrappers, `scipy.linalg._flapack`, loaded
    without importing the scipy.linalg package (~85 modules, ~0.2 s and
    ~25 MB per process) for the two band routines the solver calls.

    The module is registered under its own name, so a later
    `import scipy.linalg` reuses it: `scipy.linalg.lapack.dgbtrf` is then
    this module's `dgbtrf`.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")   # finds, does not import
    for root in scipy.submodule_search_locations if scipy else ():
        finder = FileFinder(os.path.join(root, "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    return importlib.import_module("scipy.linalg.lapack")  # an unusual layout


_flapack = _lapack()
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs


class SolverAbort(RuntimeError):
    """A run that cannot go on.  `run` fills in the time and the value of
    the last finite ||u||^2 before the abort (None if there is none), and
    the `energy` at that step (None if it is not finite); a blow-up
    overflows ||u||^2 some steps before the state itself."""

    def __init__(self, message, step_index, t):
        super().__init__(f"{message} at step {step_index}, t = {t:.6g}")
        self.step_index = step_index
        self.t = t
        self.last_finite_t = None
        self.last_finite_l2 = None
        self.last_finite_E = None


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


def _pow_p(u: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """u^p for p = 1 or 2 (u itself for p = 1), |u|^p for a fractional p,
    written into `out` unless it is u."""
    if p == 1.0:
        return u
    if p == 2.0:
        return np.square(u, out=out)
    return np.power(np.abs(u, out=out), p, out=out)


def _build_mms(params: PhysicalParams, amplitude: float, linear_only: bool):
    """Manufactured solution A e^{-t} x^2 (L-x)^2 sin(pi x / L) and its
    residual in the equation the run solves: without u^p u_x if
    `linear_only`.

    Satisfies u = u_x = 0 at both ends and u_xx = 0 at both ends, so the
    feedback loop is consistent with F* = 0.  The solution is nonnegative on
    (0, L), so u^p is well defined for fractional p.  The x-derivatives of
    q(x) sin(k x), q = x^2 (L-x)^2 and k = pi / L, follow from the Leibniz
    rule: q^(j) = 0 for j > 4, and the m-th derivative of sin(k x) is k^m
    times sin, cos, -sin or -cos for m = 0, 1, 2, 3 mod 4.
    """
    L = params.L
    k = math.pi / L
    q = np.polynomial.Polynomial([0.0, 0.0, L * L, -2.0 * L, 1.0])
    dq = [q.deriv(j) for j in range(5)]

    def derivs(x, orders):
        """d^n/dx^n of q(x) sin(k x) for each n in `orders`."""
        x = np.asarray(x, dtype=float)
        sin, cos = np.sin(k * x), np.cos(k * x)
        trig = (sin, cos, -sin, -cos)
        qx = [d(x) for d in dq]
        return [sum(math.comb(n, j) * k ** (n - j) * qx[j] * trig[(n - j) % 4]
                    for j in range(min(n, 4) + 1)) for n in orders]

    def exact(x, t):
        (v,) = derivs(x, (0,))
        return amplitude * math.exp(-t) * v

    def forcing(x, t):
        v, v1, v3, v5 = derivs(x, (0, 1, 3, 5))
        c = amplitude * math.exp(-t)
        u, ux = c * v, c * v1
        f = -u + params.a * ux + params.b * c * v3 - c * v5
        return f if linear_only else f + u ** params.p * ux

    return exact, forcing


# The CN right-hand side (I - dt/2 A) u is one BLAS dgemv per row block on a
# narrow column window.  Up to MAX_N the dense N x N product is one column
# block of OpenBLAS's dgemv_t kernel, and each window keeps that kernel's
# order of the terms of every row, so the result equals the dense product
# bit for bit (checked with OpenBLAS 0.3.31 on one thread for every N from
# 12 to 300 and for N = 2030 and 2048, in tests/test_solver.py).  With
# another BLAS, or past MAX_N, the blocks still hold the exact entries, so at
# most the last bits of the product change.
_RHS_ROWS = 64          # rows per block
_WINDOW_ALIGN = 16      # window starts, and ends short of N, on multiples
# The largest N of a config (`cli`'s `numerics.N` check): the top of the range
# checked bit for bit above.  Finer grids give worse answers, as round-off
# grows with cond(I + dt/2 A) ~ dt h^-5: the manufactured-solution error is
# 5.6e-5 at N = 2048 and 1.9e-3 at 4096.
MAX_N = 2048


def _rhs_layout(N: int) -> list:
    """Row blocks (r0, r1, c0, c1) of the CN right-hand side.

    Blocks of 64 rows are cut on multiples of 4, the kernel's row groups,
    and the N % 4 leftover rows go in the last block (a one-row block would
    go to numpy's dot path, which rounds differently).  Each window covers
    the band of its rows, starts at a multiple of 16 and ends at one or at
    N, so the N % 4 tail columns stay in the same call.
    """
    cuts = list(range(_RHS_ROWS, N - N % 4, _RHS_ROWS))
    a = _WINDOW_ALIGN
    return [(r0, r1, max(0, r0 - BANDWIDTH) // a * a,
             min(N, -(-(r1 + BANDWIDTH) // a) * a))
            for r0, r1 in zip([0] + cuts, cuts + [N])]


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
        self.q = self.solve(op.g_F.copy())
        self.c = cdt * alpha
        self.denom = 1.0 + self.c * float(op.trace0_vec @ self.q)
        if abs(self.denom) < 1e-14:
            raise SolverAbort("singular implicit system", 0, 0.0)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The banded solve (without the rank-one term), in place: returns
        `rhs`, overwritten with the solution."""
        y, info = dgbtrs(self.lu, BANDWIDTH, BANDWIDTH, rhs, self.piv,
                         overwrite_b=True)
        if info != 0:
            raise SolverAbort("singular implicit system", 0, 0.0)
        return y


class Stepper:
    """The one owner of a run's state: `u`, its trace `w0` = u_xx(t, 0),
    `prev_nl` (N(u) at the previous level, for AB2), the step index `k` and
    the `history` buffer.  `initial_state` sets it and `step`, the single
    time advance, advances it in place.  Also holds the factorized pieces,
    the constants and the work arrays of a step, which make a Stepper
    single-threaded, and the memory integrals of the current block of
    steps, indexed by the number of samples pushed since it was built."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.grid = Grid(config.N, config.params.L)
        self.op = build_operator(config.params, self.grid)
        N, dt = config.N, config.dt
        alpha = config.gains.alpha
        # I - dt/2 A as row blocks B on the windows of `_rhs_layout`, each
        # with the entries of the dense construction: 0.0 - A dt/2 keeps the
        # +0 of the zero entries, then +1 on the diagonal.  `_cn_rhs` copies
        # u into _u and fills _rhs one product (B, window of _u, rows of
        # _rhs) at a time; the BE step writes its right-hand side into _rhs too
        self._u = np.empty(N)
        self._rhs = np.empty(N)
        self._rhs_products = []
        for r0, r1, c0, c1 in _rhs_layout(N):
            B = self.op.block(r0, r1, c0, c1)
            B *= 0.5 * dt
            np.subtract(0.0, B, out=B)
            rows = np.arange(r0, r1)
            B[rows - r0, rows - c0] += 1.0
            self._rhs_products.append((B, self._u[c0:c1], self._rhs[r0:r1]))
        self.cn = _ImplicitSystem(self.op, dt, alpha, 0.5)
        # backward-Euler startup system (Rannacher smoothing of rough data)
        self.be = _ImplicitSystem(self.op, dt, alpha, 1.0)
        self.n_startup = config.startup_steps
        self.trace_weights = TraceWeights(config.kernel, dt, config.gains.delta)
        self._lag_tables = {}     # the lag nodes of `feedback_block`
        if config.mms_amplitude is not None:
            self.mms_exact, self.mms_forcing = _build_mms(
                config.params, config.mms_amplitude, config.linear_only)
        else:
            self.mms_exact = self.mms_forcing = None

        # the constants of the plain formulation, as it forms them: -g_F (an
        # exact negation), the scalar prefix 0.5 * dt * alpha of the alpha
        # feedback term and the divisor p + 2.0
        self._dt = dt
        self._beta = config.gains.beta
        self._neg_g_F = -self.op.g_F
        self._half_dt_alpha = 0.5 * dt * alpha
        self._p = config.params.p
        self._p2 = self._p + 2.0
        # centered first difference, rows (-c, 0, c) about the diagonal
        self._d1 = 0.5 / self.grid.h
        # work arrays: the explicit term, the AB2 midpoint, the alpha
        # feedback term and rank-one correction, |u|^p, and the D1 rows of
        # `nonlinear`: (+0, g, -0) and (+0, u, -0) for `_apply_d1`, then
        # D1 g and D1 u
        self._expl = np.empty(N)
        self._mid = np.empty(N)
        self._corr = np.empty(N)
        self._up = np.empty(N)
        self._pad = np.zeros((2, N + 2))
        self._pad[:, -1] = -0.0
        self._pad_g, self._pad_u = self._pad[:, 1:-1]
        self._d1_rows = np.empty((2, N))

    def _solve_implicit(self, rhs: np.ndarray, be: bool = False) -> np.ndarray:
        """The implicit system's solution, a new array.  Overwrites `rhs`."""
        system = self.be if be else self.cn
        y = system.solve(rhs)
        corr = np.multiply(
            system.q, system.c * float(self.op.trace0_vec @ y) / system.denom,
            out=self._corr)
        return np.subtract(y, corr)

    def _cn_rhs(self, u: np.ndarray) -> np.ndarray:
        """(I - dt/2 A) u, bit for bit the dense product, in the reused
        array `_rhs`."""
        self._u[...] = u
        for B, x, y in self._rhs_products:
            B.dot(x, out=y)
        return self._rhs

    def _apply_d1(self, pad: np.ndarray, out=None) -> np.ndarray:
        """D1 @ v for each row (+0, v, -0) of `pad`: c v[i+1] - c v[i-1].

        The same two products per row as the dense D1; the zeros make the
        end rows c v[1] - (+0) = c v[1] and (-0) - c v[-2] = -(c v[-2]),
        signed zeros included.  Scales `pad` by c in place.
        """
        cp = np.multiply(pad, self._d1, out=pad)
        return np.subtract(cp[..., 2:], cp[..., :-2], out=out)

    def nonlinear(self, u: np.ndarray) -> np.ndarray:
        """(D1(|u|^p u) + |u|^p (D1 u)) / (p + 2), a new array.  Enters no
        errstate: a blow-up overflows here, under `run`'s."""
        up = _pow_p(u, self._p, self._up)
        np.multiply(up, u, out=self._pad_g)             # g = |u|^p u
        self._pad_u[...] = u
        dg, du = self._apply_d1(self._pad, out=self._d1_rows)
        nl = np.multiply(up, du)
        np.add(dg, nl, out=nl)
        return np.divide(nl, self._p2, out=nl)

    def step(self) -> None:
        """Advance the state one step, in place; a step that aborts leaves
        it as it was.  Enters no errstate (see `run`)."""
        dt = self._dt
        u = self.u
        buf = self.history
        t = buf.t_now
        expl = self._expl

        be = self.k < self.n_startup

        # explicit memory feedback, fully known from history since tau1 >= dt:
        # end value for the BE startup steps, mean of the values at t and
        # t + dt for CN; row i of the block built on _block_n stored samples
        i = len(buf) - self._block_n
        m0, m1 = self._block
        if not 0 <= i < len(m1):
            m0, m1 = self._block = feedback_block(
                buf, self.config.kernel, self.config.n_steps - self.k,
                self._lag_tables)
            self._block_n, i = len(buf), 0
        mem = m1[i] if be else 0.5 * (m0[i] + m1[i])
        np.multiply(self._neg_g_F, self._beta * mem, out=expl)

        nl = None
        if not self.config.linear_only:
            nl = self.nonlinear(u)
            nl_mid = nl
            if not be and self.prev_nl is not None:
                # 1.5 nl - 0.5 prev_nl
                nl_mid = np.multiply(nl, 1.5, out=self._mid)
                np.subtract(nl_mid, np.multiply(self.prev_nl, 0.5,
                                                out=self._corr), out=nl_mid)
            np.subtract(expl, nl_mid, out=expl)
        if self.mms_forcing is not None:
            t_force = t + dt if be else t + 0.5 * dt
            np.add(expl, self.mms_forcing(self.grid.x, t_force), out=expl)
        np.multiply(expl, dt, out=expl)

        if be:
            rhs = np.add(u, expl, out=self._rhs)
        else:
            rhs = self._cn_rhs(u)
            np.subtract(rhs, np.multiply(self.op.g_F,
                                         self._half_dt_alpha * self.w0,
                                         out=self._corr), out=rhs)
            np.add(rhs, expl, out=rhs)
        u_new = self._solve_implicit(rhs, be=be)
        # the trace dot multiplies every entry of u_new, and 0 * inf = NaN,
        # so a finite w0 means a finite u_new; the whole state is checked
        # only when it is not
        w0 = self.op.trace_uxx0(u_new)
        if not math.isfinite(w0) and not np.isfinite(u_new).all():
            raise SolverAbort("non-finite state", self.k + 1, t + dt)
        buf.push(w0)
        self.u, self.w0, self.prev_nl = u_new, w0, nl
        self.k += 1

    def initial_state(self) -> None:
        """Set the state to step 0: u0, its trace (not the history's z0(0))
        and the initial history, with room for the run's steps."""
        cfg = self.config
        self.u = np.asarray(cfg.u0(self.grid.x), dtype=float)
        self.history = HistoryBuffer.from_initial(cfg.z0, cfg.dt,
                                                  cfg.kernel.tau2, cfg.n_steps)
        self.w0 = self.op.trace_uxx0(self.u)
        self.prev_nl, self.k = None, 0
        self._block, self._block_n = ([], []), 0


@dataclass
class TimeSeries:
    """Per-step scalars, for trapezoid time integrals in the diagnostics;
    the history functionals keep their `memory.TraceValues` names."""

    t: np.ndarray
    w: np.ndarray          # u_xx(t, 0)
    l2: np.ndarray         # ||u||^2
    memory: np.ndarray     # int lam(s) z(t,1,s) ds
    lam_sq: np.ndarray     # int lam(s) z(t,1,s)^2 ds
    slam_sq: np.ndarray    # int s lam(s) z(t,1,s)^2 ds
    z_plain: np.ndarray    # int lam(s) int_0^s z(t,1,sigma)^2 dsigma ds
    z_exp: np.ndarray      # the same with the weight exp(-delta sigma)


@dataclass
class RunResult:
    records: np.recarray   # one `RECORD` row per record step
    u: np.ndarray          # the profile at the last step
    series: TimeSeries
    h_norm0_sq: float
    mms_error: Optional[float] = None


# one energy record: the columns of series.csv, in their order
RECORD = np.dtype([(name, np.float64) for name in
                   ("t", "E", "E1", "E2", "xi", "w0", "F", "qform", "l2",
                    "h2seminorm")])


def state_scalars(u: np.ndarray, w0: float, op) -> tuple:
    """(E1, w0, ||u_xx||^2) of one state: the record values that need u.
    `w0` is u_xx(t, 0) of u, the trace the state carries (`Stepper.w0`)."""
    grid = op.grid
    E1 = weighted_mass(u, grid)
    # ||u_xx||^2 by centered differences; boundary values from the traces
    h = grid.h
    uext = np.concatenate(([0.0], u, [0.0]))
    uxx = (uext[:-2] - 2.0 * uext[1:-1] + uext[2:]) / h ** 2
    uxxL = op.trace_uxxL(u)
    with np.errstate(over="ignore"):    # numpy's ** gives inf, Python's raises
        h2 = h * (0.5 * np.float64(w0) ** 2 + (uxx ** 2).sum()
                  + 0.5 * np.float64(uxxL) ** 2)
    return E1, w0, float(h2)


def energy(l2, z_plain, gains):
    """E = ||u||^2 + |beta| z_plain, elementwise."""
    return l2 + abs(gains.beta) * z_plain


def build_records(config, series, steps: Sequence[int],
                  scalars: Sequence[tuple]) -> np.recarray:
    """The energy records at the time steps `steps` of a run, one `RECORD`
    row each: `records.E` is a column, `records[k].E` one value.

    `series` holds the run's per-step t, ||u||^2 and history functionals;
    `scalars` holds the `state_scalars` of each record's state.
    w0 comes from the state, not from the series: at step 0 the series
    holds the history sample z0(0), which need not equal u0''(0).
    """
    gains = config.gains
    i = np.asarray(steps, dtype=int)
    E1, w0, h2 = np.array(scalars, dtype=float).reshape(-1, 3).T
    l2, mem = series.l2[i], series.memory[i]
    P = assemble_P(gains, config.kernel)
    with np.errstate(over="ignore", invalid="ignore"):
        E = energy(l2, series.z_plain[i], gains)
        E2 = abs(gains.beta) * series.z_exp[i]
        xi = E + gains.mu1 * E1 + gains.mu2 * E2
        F = gains.alpha * w0 + gains.beta * mem
        # <PV,V>, V = (w0, mem), is an upper bound of dE/dt, not equal to
        # it: dE/dt = <PV,V> - D with the Cauchy-Schwarz defect
        # D = |beta| (int lam z1^2 - mem^2 / int lam)
        qform = ((w0 * P[0, 0] + mem * P[1, 0]) * w0
                 + (w0 * P[0, 1] + mem * P[1, 1]) * mem)
    return np.rec.fromarrays((series.t[i], E, E1, E2, xi, w0, F, qform, l2,
                              h2), dtype=RECORD)


def run(config: SimConfig) -> RunResult:
    """Advance to T_end, recording diagnostics every record_every steps.

    The loop stores t and ||u||^2 of every step, and the
    `state_scalars` of every record step, from the Stepper's u
    and its carried trace w0; the history buffer keeps the trace w.  The
    history functionals of the series and the records come from those after
    the loop.  Deterministic: identical configs produce bitwise-identical
    trajectories.

    The time loop runs under one `np.errstate` that ignores overflow and
    invalid operations: a diverging state overflows ||u||^2 some steps
    before the state itself turns non-finite, which the step's finiteness
    check makes a SolverAbort.
    """
    st = Stepper(config)
    st.initial_state()
    buf = st.history
    n_steps = config.n_steps
    h = st.grid.h
    # the initial history, then w(t_k) at index i0 + k of the buffer's trace
    i0 = len(buf.trace) - 1
    K = st.trace_weights.K

    t = np.empty(n_steps + 1)
    l2 = np.empty(n_steps + 1)
    sq = np.empty(config.N)             # u^2, for ||u||^2
    rec_steps, rec_scalars = [], []     # each record's step and state_scalars

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(n_steps + 1):
                if k:
                    st.step()
                t[k] = buf.t_now
                l2[k] = h * np.add.reduce(np.square(st.u, out=sq))
                if config.record_every > 0 and (
                        k % config.record_every == 0 or k == n_steps):
                    rec_steps.append(k)
                    rec_scalars.append(state_scalars(st.u, st.w0, st.op))
        except SolverAbort as e:
            finite = np.flatnonzero(np.isfinite(l2[:k]))
            if finite.size:
                j = finite[-1]
                e.last_finite_t, e.last_finite_l2 = float(t[j]), float(l2[j])
                # the failed step pushed nothing: the trace ends at t_{k-1}
                tv = trace_series(buf.trace[i0 - K:], st.trace_weights)
                E = float(energy(l2[j], tv.z_plain[j], config.gains))
                e.last_finite_E = E if math.isfinite(E) else None
            raise

    tv = trace_series(buf.trace[i0 - K:], st.trace_weights)
    series = TimeSeries(t=t, w=buf.trace[i0:], l2=l2, **tv._asdict())
    records = build_records(config, series, rec_steps, rec_scalars)
    h0 = energy(l2[0], series.z_plain[0], config.gains)
    mms_err = None
    if st.mms_exact is not None:
        exact = st.mms_exact(st.grid.x, buf.t_now)
        mms_err = float(np.sqrt(st.grid.h * ((st.u - exact) ** 2).sum()))
    return RunResult(records=records, u=st.u, series=series,
                     h_norm0_sq=float(h0), mms_error=mms_err)
