"""Time integrator: fixed points, decay, convergence, determinism, aborts."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbtrf

from conftest import dense_d1, dense_operator_oracle, reference_sim_config
from kawalab.discretization import BANDWIDTH
from kawalab.memory import memory_integral
from kawalab.model import FeedbackGains, MemoryKernel, PhysicalParams
from kawalab.solver import SimConfig, SolverAbort, Stepper, run


def test_dt_exceeding_tau1_rejected():
    params = PhysicalParams(1.0, 1.0, math.pi, 1.0)
    gains = FeedbackGains(0.5, 0.25, 0.01, 0.01)
    kernel = MemoryKernel(0.05, 2.0)
    with pytest.raises(ValueError, match="tau1"):
        SimConfig(params, gains, kernel, N=32, dt=0.1, T_end=1.0,
                  u0=lambda x: np.zeros_like(x), z0=lambda t: 0.0)


def test_zero_data_is_exact_fixed_point():
    cfg = reference_sim_config(T_end=1.0, record_every=1,
                               u0=lambda x: np.zeros_like(np.asarray(x)),
                               z0=lambda t: 0.0)
    result = run(cfg)
    assert np.all(result.final.u == 0.0)
    assert all(r.E == 0.0 for r in result.records)
    assert result.h_norm0_sq == 0.0


def test_linear_run_decays():
    cfg = reference_sim_config(linear_only=True, T_end=8.0)
    result = run(cfg)
    E = [r.E for r in result.records]
    assert E[-1] < 1e-2 * E[0]
    inc = np.diff(E)
    assert inc.max() <= 1e-10 * E[0]


def test_nonlinear_conserves_under_skew_split():
    """<u, N(u)> = 0 exactly for the energy-conserving nonlinear split."""
    cfg = reference_sim_config(T_end=0.0)
    st = Stepper(cfg)
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = rng.standard_normal(cfg.N)
        assert abs(u @ st.nonlinear(u)) <= 1e-10 * (np.abs(u).max() ** 3 + 1.0)


def test_mms_convergence_order():
    params = PhysicalParams(1.0, 1.0, math.pi, 1.0)
    gains = FeedbackGains(0.5, 0.25, 0.01, 0.01)
    kernel = MemoryKernel(1.0, 2.0)
    L = params.L
    errs = []
    for N in (48, 96):
        h = L / (N + 1)
        cfg = SimConfig(params, gains, kernel, N=N, dt=0.5 * h, T_end=1.0,
                        u0=lambda x: x ** 2 * (L - x) ** 2 * np.sin(np.pi * x / L),
                        z0=lambda t: 0.0, record_every=0, mms_amplitude=1.0)
        errs.append(run(cfg).mms_error)
    order = math.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2, (errs, order)


def test_fractional_p_runs():
    cfg = reference_sim_config(T_end=0.5)
    cfg = SimConfig(params=PhysicalParams(1.0, 1.0, math.pi, 1.5),
                    gains=cfg.gains, kernel=cfg.kernel, N=64, dt=0.01,
                    T_end=0.5, u0=cfg.u0, z0=cfg.z0, record_every=10)
    result = run(cfg)
    assert np.all(np.isfinite(result.final.u))


def test_determinism_bitwise():
    cfg = reference_sim_config(T_end=2.0)
    r1 = run(cfg)
    r2 = run(cfg)
    assert (r1.final.u == r2.final.u).all()
    assert r1.series.w.tolist() == r2.series.w.tolist()


def test_memory_feedback_alters_trajectory():
    cfg = reference_sim_config(linear_only=True, T_end=3.0)
    strong = SimConfig(params=cfg.params,
                       gains=FeedbackGains(0.5, 0.45, 0.01, 0.01),
                       kernel=cfg.kernel, N=cfg.N, dt=cfg.dt, T_end=3.0,
                       u0=cfg.u0,
                       z0=lambda t: math.sin(2.0 * t), record_every=10,
                       linear_only=True)
    weak = SimConfig(params=cfg.params,
                     gains=FeedbackGains(0.5, 0.05, 0.01, 0.01),
                     kernel=cfg.kernel, N=cfg.N, dt=cfg.dt, T_end=3.0,
                     u0=cfg.u0,
                     z0=lambda t: math.sin(2.0 * t), record_every=10,
                     linear_only=True)
    assert not np.allclose(run(strong).final.u, run(weak).final.u)


def test_solver_abort_on_blowup():
    params = PhysicalParams(1.0, 1.0, math.pi, 1.0)
    gains = FeedbackGains(0.5, 0.25, 0.01, 0.01)
    kernel = MemoryKernel(1.0, 2.0)
    cfg = SimConfig(params, gains, kernel, N=64, dt=0.9, T_end=40.0,
                    u0=lambda x: 1e8 * np.sin(np.pi * np.asarray(x) / math.pi),
                    z0=lambda t: 0.0, record_every=0)
    with pytest.raises(SolverAbort):
        run(cfg)


def test_stability_at_dt_equal_h():
    """The implicit treatment of dispersion permits dt ~ h without blowup."""
    params = PhysicalParams(1.0, 1.0, math.pi, 1.0)
    gains = FeedbackGains(0.5, 0.25, 0.01, 0.01)
    kernel = MemoryKernel(1.0, 2.0)
    for N in (128, 256, 512):
        h = math.pi / (N + 1)
        cfg = SimConfig(params, gains, kernel, N=N, dt=h, T_end=1.0,
                        u0=lambda x: 0.3 * np.sin(np.asarray(x)),
                        z0=lambda t: 0.0, record_every=0, linear_only=True)
        result = run(cfg)
        assert np.all(np.isfinite(result.final.u))
        assert float(np.abs(result.final.u).max()) < 10.0


def test_run_record_schedule():
    cfg = reference_sim_config(linear_only=True, T_end=1.0, record_every=25)
    result = run(cfg)
    steps = round(cfg.T_end / cfg.dt)
    expected = 1 + steps // 25 + (0 if steps % 25 == 0 else 1)
    assert len(result.records) == expected
    assert result.records[0].t == 0.0
    assert result.records[-1].t == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the fast path against the plain formulation, bit for bit


class ReferenceStepper:
    """The plain formulation of Stepper.step on the dense-row assembly of A:
    banded matrices copied entry by entry from the dense I + theta dt A and
    solved with solve_banded on every step, memory_integral for the feedback
    and dense D1 matvecs."""

    def __init__(self, st):
        self.st = st
        cfg, op = st.config, st.op
        dt, alpha, N = cfg.dt, cfg.gains.alpha, cfg.N
        self.A, g_F = dense_operator_oracle(cfg.params, st.grid)
        assert (g_F == op.g_F).all()
        self.D1 = dense_d1(N, st.grid.h)
        self.systems = {}
        for be, theta_dt in ((False, 0.5 * dt), (True, dt)):
            ab = self.to_banded(np.eye(N) + theta_dt * self.A)
            q = solve_banded((4, 4), ab, op.g_F)
            denom = 1.0 + theta_dt * alpha * float(op.trace0_vec @ q)
            self.systems[be] = (ab, q, theta_dt * alpha, denom)

    @staticmethod
    def to_banded(M):
        N = M.shape[0]
        ab = np.zeros((9, N))
        for i in range(N):
            for j in range(max(0, i - 4), min(N, i + 5)):
                ab[4 + i - j, j] = M[i, j]
        return ab

    def solve(self, rhs, be):
        ab, q, c, denom = self.systems[be]
        y = solve_banded((4, 4), ab, rhs, check_finite=False)
        return y - c * float(self.st.op.trace0_vec @ y) / denom * q

    def nonlinear(self, u):
        p, D1 = self.st.config.params.p, self.D1
        up = u ** int(p)
        return (D1 @ (up * u) + up * (D1 @ u)) / (p + 2.0)

    def step(self, u, buf, k, prev_nl):
        cfg, op = self.st.config, self.st.op
        dt, t = cfg.dt, buf.t_now
        be = k < cfg.startup_steps
        if be:
            mem = memory_integral(buf, cfg.kernel, t + dt)
        else:
            mem = 0.5 * (memory_integral(buf, cfg.kernel, t)
                         + memory_integral(buf, cfg.kernel, t + dt))
        expl = -op.g_F * (cfg.gains.beta * mem)
        nl = None
        if not cfg.linear_only:
            nl = self.nonlinear(u)
            nl_mid = 1.5 * nl - 0.5 * prev_nl if not be and prev_nl is not None else nl
            expl = expl - nl_mid
        if be:
            rhs = u + dt * expl
        else:
            rhs = (np.eye(cfg.N) - 0.5 * dt * self.A) @ u
            rhs -= 0.5 * dt * cfg.gains.alpha * op.trace_uxx0(u) * op.g_F
            rhs += dt * expl
        u_new = self.solve(rhs, be)
        buf.push(op.trace_uxx0(u_new))
        return u_new, nl


OFFGRID_KERNELS = {
    "constant": MemoryKernel(0.955, 1.853),
    "exponential": MemoryKernel(0.955, 1.853, "exponential", c=1.0, sigma=0.7),
    "tabulated": MemoryKernel(0.955, 1.853, "tabulated",
                              samples=((0.9, 1.0), (1.3, 0.6), (1.9, 1.2))),
}


@pytest.mark.parametrize("linear_only", [False, True])
@pytest.mark.parametrize("form", sorted(OFFGRID_KERNELS))
def test_fast_step_matches_plain_formulation_bitwise(form, linear_only):
    cfg = SimConfig(PhysicalParams(1.0, 1.0, math.pi, 1.0),
                    FeedbackGains(0.5, 0.25, 0.01, 0.01), OFFGRID_KERNELS[form],
                    N=64, dt=0.01, T_end=3.0,
                    u0=lambda x: 2.0 * np.sin(np.asarray(x)),
                    z0=lambda t: 0.3 * math.sin(2.0 * t + 0.4),
                    linear_only=linear_only, startup_steps=2)
    st = Stepper(cfg)
    ref = ReferenceStepper(st)
    state = st.initial_state()
    u, buf, prev_nl = state.u, state.history.copy(), None
    for k in range(300):
        state = st.step(state)
        u, prev_nl = ref.step(u, buf, k, prev_nl)
        assert (state.u == u).all(), k
        assert (state.history.w == buf.w).all(), k
    assert state.history.t_now == buf.t_now


@pytest.mark.parametrize("N", [128, 2048])
def test_implicit_solve_matches_solve_banded_bitwise(N):
    cfg = reference_sim_config(N=N, T_end=0.0)
    st = Stepper(cfg)
    ref = ReferenceStepper(st)
    rng = np.random.default_rng(N)
    for be in (False, True):
        for _ in range(5):
            rhs = rng.standard_normal(N)
            assert (st._solve_implicit(rhs.copy(), be=be) == ref.solve(rhs, be)).all()


@pytest.mark.parametrize("N", [12, 128, 2048])
def test_set_up_matches_dense_oracle_bitwise(N):
    """rhs_mat and the LU factors and pivots of both implicit systems equal
    those built from the dense-row assembly of A, signed zeros included."""
    cfg = reference_sim_config(N=N, T_end=0.0)
    st = Stepper(cfg)
    A, _ = dense_operator_oracle(cfg.params, st.grid)
    dt = cfg.dt
    rhs_mat = np.eye(N) - 0.5 * dt * A
    assert (st.rhs_mat.view(np.int64) == rhs_mat.view(np.int64)).all()
    for system, theta in ((st.cn, 0.5), (st.be, 1.0)):
        ab = np.zeros((3 * BANDWIDTH + 1, N))
        for k in range(-BANDWIDTH, BANDWIDTH + 1):
            diag = theta * dt * np.diagonal(A, k)
            row = ab[2 * BANDWIDTH - k]
            if k >= 0:
                row[k:] = diag
            else:
                row[:N + k] = diag
        ab[2 * BANDWIDTH] += 1.0
        lu, piv, info = dgbtrf(ab, BANDWIDTH, BANDWIDTH)
        assert info == 0
        assert (system.lu.view(np.int64) == lu.view(np.int64)).all()
        assert (system.piv == piv).all()


def test_nonlinear_matches_dense_d1_bitwise():
    st = Stepper(reference_sim_config(N=128, T_end=0.0))
    ref = ReferenceStepper(st)
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.standard_normal(128) * 10.0 ** rng.uniform(-3, 3)
        assert (st.nonlinear(u) == ref.nonlinear(u)).all()


def test_singular_implicit_system_aborts():
    """A zero pivot in the band factorization is reported, not solved."""
    cfg = reference_sim_config(N=32, T_end=0.0)
    st = Stepper(cfg)
    bands = np.zeros_like(st.op.bands)
    bands[BANDWIDTH, 5] = -1.0 / (0.5 * cfg.dt)    # I + dt/2 A has a zero row
    op = replace(st.op, bands=bands)
    with pytest.raises(SolverAbort, match="singular implicit system"):
        Stepper(cfg, op)
