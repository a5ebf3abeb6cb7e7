"""Time integrator: fixed points, decay, convergence, determinism, aborts."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbtrf

from conftest import (copy_history, dense_d1, dense_operator_oracle,
                      history_window, memory_integral, reference_sim_config,
                      weighted_trace, z_energy)
from kawalab.cli import build_sim_config, load_config
from kawalab.discretization import BANDWIDTH
from kawalab.memory import HistoryBuffer
from kawalab.model import FeedbackGains, MemoryKernel, PhysicalParams, assemble_P
from kawalab.solver import (MAX_N, SimConfig, SolverAbort, Stepper, _build_mms,
                            _ImplicitSystem, _rhs_layout, run)


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
    assert np.all(result.u == 0.0)
    assert all(r.E == 0.0 for r in result.records)
    assert result.series.E[0] == 0.0


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
    """Second order in space and time, for the nonlinear and the linear
    equation: a linear run's forcing leaves out u^p u_x, as its solver does."""
    params = PhysicalParams(1.0, 1.0, math.pi, 1.0)
    gains = FeedbackGains(0.5, 0.25, 0.01, 0.01)
    kernel = MemoryKernel(1.0, 2.0)
    L = params.L
    for linear_only in (False, True):
        errs = []
        for N in (48, 96):
            h = L / (N + 1)
            cfg = SimConfig(
                params, gains, kernel, N=N, dt=0.5 * h, T_end=1.0,
                u0=lambda x: x ** 2 * (L - x) ** 2 * np.sin(np.pi * x / L),
                z0=lambda t: 0.0, record_every=0, mms_amplitude=1.0,
                linear_only=linear_only)
            errs.append(run(cfg).mms_error)
        order = math.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2, (linear_only, errs, order)


def test_fractional_p_runs():
    cfg = reference_sim_config(T_end=0.5)
    cfg = SimConfig(params=PhysicalParams(1.0, 1.0, math.pi, 1.5),
                    gains=cfg.gains, kernel=cfg.kernel, N=64, dt=0.01,
                    T_end=0.5, u0=cfg.u0, z0=cfg.z0, record_every=10)
    result = run(cfg)
    assert np.all(np.isfinite(result.u))


def test_determinism_bitwise():
    cfg = reference_sim_config(T_end=2.0)
    r1 = run(cfg)
    r2 = run(cfg)
    assert (r1.u == r2.u).all()
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
    assert not np.allclose(run(strong).u, run(weak).u)


def abort_of_run(cfg):
    """The SolverAbort of `run(cfg)`, which must emit no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverAbort) as info:
            run(cfg)
    return info.value


def states_by_hand(cfg):
    """(t, ||u||^2, E) of each state up to a run's abort, E from the
    z_energy oracle on the live history, and the Stepper at its last state."""
    st = Stepper(cfg)
    st.initial_state()
    rows = []
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverAbort):
        while True:
            l2 = float(st.grid.h * (st.u ** 2).sum())
            E = l2 + abs(cfg.gains.beta) * z_energy(st.history, cfg.kernel)
            rows.append((st.history.t_now, l2, E))
            st.step()
    return rows, st


def test_solver_abort_on_blowup():
    params = PhysicalParams(1.0, 1.0, math.pi, 1.0)
    gains = FeedbackGains(0.5, 0.25, 0.01, 0.01)
    kernel = MemoryKernel(1.0, 2.0)
    cfg = SimConfig(params, gains, kernel, N=64, dt=0.9, T_end=40.0,
                    u0=lambda x: 1e8 * np.sin(np.pi * np.asarray(x) / math.pi),
                    z0=lambda t: 0.0, record_every=0)
    e = abort_of_run(cfg)
    # the same steps by hand: the abort carries the last finite ||u||^2 and
    # the energy of that state
    rows, st = states_by_hand(cfg)
    assert st.k + 1 == e.step_index
    t, l2, E = [r for r in rows if math.isfinite(r[1])][-1]
    assert (e.last_finite_t, e.last_finite_l2) == (t, l2)
    assert math.isfinite(E)
    assert e.last_finite_E == pytest.approx(E, rel=1e-12, abs=0.0)
    # the state doubles its exponent per step: ||u||^2 overflows before u
    assert e.last_finite_t < e.t - cfg.dt


def test_abort_energy_none_when_not_finite():
    """A history too large to square gives an infinite z_plain at the last
    finite ||u||^2: the abort reports its energy as None."""
    cfg = reference_sim_config(N=32, T_end=5.0, record_every=0,
                               z0=lambda t: 1e200)
    e = abort_of_run(cfg)
    rows, _ = states_by_hand(cfg)
    t, l2, E = [r for r in rows if math.isfinite(r[1])][-1]
    assert (e.last_finite_t, e.last_finite_l2) == (t, l2)
    assert E == math.inf
    assert e.last_finite_E is None


def test_one_store_and_one_clock(monkeypatch):
    """The run's series reads the history buffer's trace, which holds every
    step, and the buffer's clock is the run's: no copy of either."""
    steppers = []
    initial_state = Stepper.initial_state

    def keep(st):
        initial_state(st)
        steppers.append(st)

    monkeypatch.setattr(Stepper, "initial_state", keep)
    cfg = reference_sim_config(N=32, T_end=0.5, z0=lambda t: math.cos(t))
    result = run(cfg)
    (st,) = steppers
    buf = st.history
    assert buf.t_now == result.series.t[-1]
    assert result.series.w.base is buf.trace.base
    assert len(buf.trace) == len(HistoryBuffer.from_initial(
        cfg.z0, cfg.dt, cfg.kernel.tau2, 0).trace) + cfg.n_steps
    assert (result.series.w == buf.trace[-cfg.n_steps - 1:]).all()


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
        assert np.all(np.isfinite(result.u))
        assert float(np.abs(result.u).max()) < 10.0


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
    and dense D1 matvecs.  The MMS forcing and the dense I - dt/2 A of the
    right-hand side are built once."""

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
        self.rhs_matrix = np.eye(N) - 0.5 * dt * self.A
        self.forcing = None
        if cfg.mms_amplitude is not None:
            _, self.forcing = _build_mms(cfg.params, cfg.mms_amplitude,
                                         cfg.linear_only)

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
        up = u ** int(p) if p == int(p) else np.abs(u) ** p
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
        if self.forcing is not None:
            expl = expl + self.forcing(self.st.grid.x,
                                       t + dt if be else t + 0.5 * dt)
        if be:
            rhs = u + dt * expl
        else:
            rhs = self.rhs_matrix @ u
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
    # tau1 = 2 dt at dt = 0.01: blocks of the memory feedback of one or two
    # steps, whose top lag node can land exactly on the newest stored sample
    "tau1-2dt": MemoryKernel(0.02, 0.853, "exponential", c=1.0, sigma=0.7),
}


# (linear_only, p, mms_amplitude, startup_steps): every branch that
# Stepper.step and Stepper.nonlinear specialise (u itself as u^1, u^2,
# |u|^p, the forcing, a first CN step on the initial state's trace)
STEP_CASES = {"p1": (False, 1.0, None, 2), "linear": (True, 1.0, None, 2),
              "p1.5": (False, 1.5, None, 2), "p2": (False, 2.0, None, 2),
              "p1-mms": (False, 1.0, 0.8, 2), "p1.5-mms": (False, 1.5, 0.8, 2),
              "linear-mms": (True, 1.0, 0.8, 2),
              "p1-no-startup": (False, 1.0, None, 0)}


@pytest.mark.parametrize("case", list(STEP_CASES))
@pytest.mark.parametrize("form", sorted(OFFGRID_KERNELS))
def test_fast_step_matches_plain_formulation_bitwise(form, case):
    linear_only, p, mms, startup_steps = STEP_CASES[case]
    # gains that are not powers of two, so that a reordered product shows
    cfg = SimConfig(PhysicalParams(1.0, 1.0, math.pi, p),
                    FeedbackGains(0.45, 0.3, 0.01, 0.01), OFFGRID_KERNELS[form],
                    N=64, dt=0.01, T_end=3.0,
                    u0=lambda x: 2.0 * np.sin(np.asarray(x)),
                    z0=lambda t: 0.3 * math.sin(2.0 * t + 0.4),
                    linear_only=linear_only, mms_amplitude=mms,
                    startup_steps=startup_steps)
    st = Stepper(cfg)
    ref = ReferenceStepper(st)
    st.initial_state()
    u, buf, prev_nl = st.u, copy_history(st.history, 300), None
    for k in range(300):
        st.step()
        u, prev_nl = ref.step(u, buf, k, prev_nl)
        assert (st.u == u).all(), k
        assert (history_window(st.history)[1]
                == history_window(buf)[1]).all(), k
    assert st.history.t_now == buf.t_now


def test_push_between_steps_keeps_every_step_exact():
    """A block of the memory feedback is indexed by the samples pushed since
    it was built, and its values depend only on those and the clock.  A
    push between steps that the solver did not make, or a new initial
    state, leaves every step that of the plain formulation."""
    cfg = SimConfig(PhysicalParams(1.0, 1.0, math.pi, 1.0),
                    FeedbackGains(0.45, 0.3, 0.01, 0.01),
                    OFFGRID_KERNELS["constant"], N=64, dt=0.01, T_end=3.0,
                    u0=lambda x: 2.0 * np.sin(np.asarray(x)),
                    z0=lambda t: 0.3 * math.sin(2.0 * t + 0.4))
    st = Stepper(cfg)
    ref = ReferenceStepper(st)
    # the second pass starts over inside the first pass's one block, of 44
    # steps, with other initial samples; it pushes twice inside a block
    for steps, shift, extra in ((5, 0.0, ()), (60, 0.25, (10, 37))):
        st.initial_state()
        st.history.trace[:] += shift
        u, buf, prev_nl = st.u, copy_history(st.history, 300), None
        for k in range(steps):
            if k in extra:
                st.history.push(0.7)
                buf.push(0.7)
            st.step()
            u, prev_nl = ref.step(u, buf, k, prev_nl)
            assert (st.u == u).all(), (shift, k)


def test_lag_tables_are_keyed_by_clock_offset():
    """The Stepper keeps the lag nodes of each clock offset (t + dt) - t, of
    which a run visits a handful, all from rounding: 10 on the 3000 steps of
    configs/reference.json.  A cache keyed by step or by clock time would
    hold one entry per block, 76 here."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "reference.json")
    cfg = build_sim_config(load_config(path))
    st = Stepper(cfg)
    st.initial_state()
    for _ in range(cfg.n_steps):
        st.step()
    assert st.k == 3000
    assert 1 <= len(st._lag_tables) <= 16, sorted(st._lag_tables)


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


@pytest.mark.parametrize("N", [12, 128, 2048, 2051])
def test_set_up_matches_dense_oracle_bitwise(N):
    """The right-hand side blocks are sub-matrices of I - dt/2 A, and the LU
    factors and pivots of both implicit systems equal those built from the
    dense-row assembly of A, signed zeros included.  The blocks partition
    the rows, and each window holds every nonzero of its rows."""
    cfg = reference_sim_config(N=N, T_end=0.0)
    st = Stepper(cfg)
    A, _ = dense_operator_oracle(cfg.params, st.grid)
    dt = cfg.dt
    rhs_mat = np.eye(N) - 0.5 * dt * A
    r_end = 0
    for (r0, r1, c0, c1), (B, _, _) in zip(_rhs_layout(N), st._rhs_products):
        assert r0 == r_end and r1 - r0 >= 4
        r_end = r1
        sub = rhs_mat[r0:r1, c0:c1]
        assert B.shape == sub.shape
        assert (B.view(np.int64) == sub.view(np.int64)).all()
        rest = rhs_mat[r0:r1].copy()
        rest[:, c0:c1] = 0.0
        assert not rest.any()
    assert r_end == N
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


def test_rhs_layout_over_the_whole_accepted_range():
    """For every N that a config accepts, the blocks partition [0, N) in
    order, cut on multiples of 4 into 64 rows each but the last, which has
    at least 4, and each window starts on a multiple of 16 and covers the
    band of its rows, [r0 - 4, r1 + 4) within [0, N)."""
    for N in range(12, MAX_N + 1):
        layout = _rhs_layout(N)
        r_end = 0
        for i, (r0, r1, c0, c1) in enumerate(layout):
            last = i == len(layout) - 1
            assert r0 == r_end and r0 % 4 == 0, N
            assert (r1 - r0 >= 4) if last else (r1 - r0 == 64), N
            assert c0 % 16 == 0, N
            assert c0 <= max(0, r0 - 4) and min(N, r1 + 4) <= c1 <= N, N
            r_end = r1
        assert r_end == N


# Run in a fresh interpreter on one BLAS thread, as the benchmark runs: with
# more threads OpenBLAS splits the rows of the dense product among them, which
# changes the bits of the product itself.
_BLOCK_RHS_SCRIPT = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from conftest import reference_sim_config
from kawalab.solver import Stepper

rng = np.random.default_rng(2024)
bad = []
Ns = list(range(12, 301)) + [2030, 2048]
for N in Ns:
    for dt in (0.01, 0.0037):
        st = Stepper(reference_sim_config(N=N, dt=dt, T_end=0.0))
        M = st.op.dense()       # I - dt/2 A in place, as a dense array
        M *= 0.5 * dt
        np.subtract(0.0, M, out=M)
        M.flat[::N + 1] += 1.0
        # magnitudes within 1e+-2 make the order of a row's sum show in its
        # rounding; 1e+-212 probe overflow-free extremes
        for scale in (2, 212):
            u = rng.standard_normal(N) * 10.0 ** rng.uniform(-scale, scale, N)
            u[rng.random(N) < 0.05] = 0.0
            u[rng.random(N) < 0.02] = -0.0
            got = st._cn_rhs(u).view(np.int64)
            n = int((got != (M @ u).view(np.int64)).sum())
            if n:
                bad.append([N, dt, n])
        del M
print(json.dumps({"checked": len(Ns), "mismatches": bad}))
"""


def test_block_rhs_matches_dense_product_bitwise():
    """The row-block right-hand side equals the dense (I - dt/2 A) u bit for
    bit (int64 views) for every N from 12 to 300 and for N = 2030 and
    MAX_N = 2048, on u of magnitudes up to 1e+-212 with +0 and -0 entries."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.join(here, "..", "src"))
    out = subprocess.run([sys.executable, "-c", _BLOCK_RHS_SCRIPT, here],
                         env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"checked": 291, "mismatches": []}


def test_stepper_allocates_no_dense_matrix():
    N = 4096
    cfg = reference_sim_config(N=N, T_end=0.0)
    tracemalloc.start()
    try:
        Stepper(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense I - dt/2 A alone was N * N * 8 = 134 MB; 5.3 MB measured
    assert peak < N * N * 8 / 16


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
        _ImplicitSystem(op, cfg.dt, cfg.gains.alpha, 0.5)


# ---------------------------------------------------------------------------
# the post-run series against per-step sampling


def sampled_series(cfg):
    """The series sampled after every step, as the time loop once did: t, w,
    ||u||^2 and `weighted_trace` of the live buffer."""
    st = Stepper(cfg)
    st.initial_state()
    cols = {k: [] for k in ("t", "w", "memory", "l2", "lam_sq",
                            "slam_sq", "z_plain")}

    def sample():
        buf = st.history
        tv = weighted_trace(buf, st.trace_weights)
        cols["t"].append(buf.t_now)
        cols["w"].append(float(buf.trace[-1]))
        cols["memory"].append(tv.memory)
        cols["l2"].append(float(st.grid.h * (st.u ** 2).sum()))
        cols["lam_sq"].append(tv.lam_sq)
        cols["slam_sq"].append(tv.slam_sq)
        cols["z_plain"].append(tv.z_plain)

    sample()
    for _ in range(cfg.n_steps):
        st.step()
        sample()
    return {k: np.array(v) for k, v in cols.items()}


@pytest.mark.parametrize("startup_steps", [0, 2])
@pytest.mark.parametrize("form", sorted(OFFGRID_KERNELS))
def test_series_matches_per_step_sampling(form, startup_steps):
    cfg = SimConfig(PhysicalParams(1.0, 1.0, math.pi, 1.0),
                    FeedbackGains(0.5, 0.25, 0.01, 0.01), OFFGRID_KERNELS[form],
                    N=64, dt=0.01, T_end=3.0,
                    u0=lambda x: 2.0 * np.sin(np.asarray(x)),
                    z0=lambda t: 0.3 * math.sin(2.0 * t + 0.4),
                    record_every=0, startup_steps=startup_steps)
    series = run(cfg).series
    want = sampled_series(cfg)
    for name in ("t", "w", "l2"):
        assert (getattr(series, name) == want[name]).all(), name
    for name in ("memory", "lam_sq", "slam_sq", "z_plain"):
        got = getattr(series, name)
        assert got.shape == want[name].shape
        assert np.abs(got - want[name]).max() <= \
            1e-13 * np.abs(want[name]).max(), name


# ---------------------------------------------------------------------------
# the post-run records against records of the live state


def live_records(cfg):
    """The energy record of the live state at every record step, as the time
    loop once computed it: the norms and traces of u and `weighted_trace` of
    the live buffer."""
    st = Stepper(cfg)
    gains, grid, op = cfg.gains, st.grid, st.op
    h, absb = grid.h, abs(gains.beta)
    P = assemble_P(gains, cfg.kernel)
    recs = []

    def record():
        u = st.u
        tv = weighted_trace(st.history, st.trace_weights)
        l2 = float(h * (u ** 2).sum())
        E1 = float(h * (grid.x * u ** 2).sum())
        w0 = op.trace_uxx0(u)
        uxxL = op.trace_uxxL(u)
        uext = np.concatenate(([0.0], u, [0.0]))
        uxx = (uext[:-2] - 2.0 * uext[1:-1] + uext[2:]) / h ** 2
        E = l2 + absb * tv.z_plain
        E2 = absb * tv.z_exp
        V = np.array([w0, tv.memory])
        recs.append(dict(
            t=st.history.t_now, E=E, E1=E1, E2=E2, xi=E + gains.mu1 * E1 + gains.mu2 * E2,
            w0=w0, F=gains.alpha * w0 + gains.beta * tv.memory,
            qform=float(V @ P @ V), l2=l2,
            h2seminorm=float(h * (0.5 * w0 * w0 + (uxx ** 2).sum()
                                  + 0.5 * uxxL * uxxL))))

    st.initial_state()
    record()
    for k in range(1, cfg.n_steps + 1):
        st.step()
        if k % cfg.record_every == 0 or k == cfg.n_steps:
            record()
    return recs


@pytest.mark.parametrize("linear_only", [False, True])
@pytest.mark.parametrize("form", sorted(OFFGRID_KERNELS))
def test_records_match_live_state(form, linear_only):
    """The records built after the loop equal those of the live state: the
    state's values bit for bit, record 0 included, and the history
    functionals to rounding, 1e-13 of each column's largest magnitude."""
    cfg = SimConfig(PhysicalParams(1.0, 1.0, math.pi, 1.0),
                    FeedbackGains(0.5, 0.25, 0.01, 0.01),
                    OFFGRID_KERNELS[form], N=64, dt=0.01, T_end=1.0,
                    u0=lambda x: 2.0 * np.sin(np.asarray(x)),
                    z0=lambda t: 0.3 * math.sin(2.0 * t + 0.4),
                    record_every=7, linear_only=linear_only)
    result = run(cfg)
    got, want = result.records, live_records(cfg)
    assert len(got) == len(want) == 16
    # record 0's w0 is u0''(0), not the history sample z0(0) of the series
    assert got[0].w0 != result.series.w[0]
    for name in ("t", "w0", "l2", "E1", "h2seminorm"):
        assert [getattr(r, name) for r in got] == [r[name] for r in want], name
    for name in ("E", "E2", "xi", "F", "qform"):
        g = np.array([getattr(r, name) for r in got])
        w = np.array([r[name] for r in want])
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max(), name


# ---------------------------------------------------------------------------
# the manufactured solution against symbolic differentiation


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_mms_matches_symbolic_derivatives(p):
    """The closed-form exact solution and forcing equal sympy's, to 1e-12 of
    each one's largest magnitude on the grid, with and without the
    nonlinear term."""
    sp = pytest.importorskip("sympy")
    params = PhysicalParams(a=1.0, b=0.7, L=math.pi, p=p)
    amplitude = 0.8
    x, t = sp.symbols("x t")
    L = sp.Float(params.L, 30)
    u = amplitude * sp.exp(-t) * x ** 2 * (L - x) ** 2 * sp.sin(sp.pi * x / L)
    f_lin = (sp.diff(u, t) + params.a * sp.diff(u, x)
             + params.b * sp.diff(u, x, 3) - sp.diff(u, x, 5))
    f = f_lin + u ** sp.Float(params.p) * sp.diff(u, x)
    want_u = sp.lambdify((x, t), u, "numpy")
    xs = np.linspace(0.0, params.L, 203)[1:-1]
    for linear_only, f_want in ((False, f), (True, f_lin)):
        want_f = sp.lambdify((x, t), f_want, "numpy")
        exact, forcing = _build_mms(params, amplitude, linear_only)
        for tv in (0.0, 0.37, 1.0):
            for got, want in ((exact(xs, tv), want_u(xs, tv)),
                              (forcing(xs, tv), want_f(xs, tv))):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), \
                    (linear_only, tv)
