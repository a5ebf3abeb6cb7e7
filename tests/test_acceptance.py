"""Acceptance gate: the eleven go/no-go criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL (<detail>)` and then
asserts; capture is set to tee-sys (see pyproject), so a plain `pytest -v`
shows the full scoreboard live.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import REFERENCE_DOC, det_P_closed_form, reference_sim_config
from kawalab import cli, diagnostics
from kawalab.discretization import _D5, Grid, build_operator
from kawalab.model import (FeedbackGains, MemoryKernel, PhysicalParams,
                           assemble_P, check_gain_condition,
                           is_negative_definite, mu_guaranteed, r_max)
from kawalab.rng import Lcg64
from kawalab.solver import SimConfig, run


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared reference trajectories (computed once)


@pytest.fixture(scope="module")
def linear_run():
    cfg = reference_sim_config(linear_only=True)
    return cfg, run(cfg)


@pytest.fixture(scope="module")
def nonlinear_run():
    cfg = reference_sim_config(linear_only=False)
    return cfg, run(cfg)


# ---------------------------------------------------------------------------


def test_criterion_01_certificate_oracle_equivalence():
    """detP == closed form to 1e-12 relative; P < 0 whenever the gain
    condition holds; 1000 seeded random (alpha, beta, kernel)."""
    rng = Lcg64(2024)
    worst = 0.0
    checked = nd_checked = 0
    for k in range(1000):
        alpha = rng.uniform(-0.95, 0.95)
        beta = rng.uniform(-2.0, 2.0)
        if abs(alpha) < 1e-3 or abs(beta) < 1e-3:
            continue
        tau1 = rng.uniform(0.1, 1.5)
        tau2 = tau1 + rng.uniform(0.2, 2.0)
        form = ("constant", "exponential", "tabulated")[k % 3]
        if form == "constant":
            kernel = MemoryKernel(tau1, tau2, "constant", c=rng.uniform(0.05, 2.0))
        elif form == "exponential":
            kernel = MemoryKernel(tau1, tau2, "exponential",
                                  c=rng.uniform(0.05, 2.0),
                                  sigma=rng.uniform(0.0, 2.0))
        else:
            mid = 0.5 * (tau1 + tau2)
            kernel = MemoryKernel(tau1, tau2, "tabulated", samples=(
                (tau1 - 0.01, rng.uniform(0.1, 2.0)),
                (mid, rng.uniform(0.1, 2.0)),
                (tau2 + 0.01, rng.uniform(0.1, 2.0))))
        gains = FeedbackGains(alpha=alpha, beta=beta)
        P = assemble_P(gains, kernel)
        det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
        closed = det_P_closed_form(gains, kernel)
        rel = abs(det - closed) / max(abs(closed), 1e-15)
        worst = max(worst, rel)
        checked += 1
        _, gain_ok = check_gain_condition(gains, kernel)
        if gain_ok:
            nd_checked += 1
            if not is_negative_definite(P):
                _report(1, "certificate_oracle", False,
                        f"P not negative definite at sample {k}")
    _report(1, "certificate_oracle", worst <= 1e-12,
            f"{checked} samples, worst rel detP err {worst:.2e}, "
            f"{nd_checked} negativity checks")


def test_criterion_02_stencil_exactness():
    # (a) discrete d^5/dx^5 of x^5 is exactly 120 at interior nodes, h = 1
    x = np.arange(0.0, 40.0)
    exact = all(float(_D5 @ (x ** 5)[j - 3:j + 4]) == 120.0
                for j in range(3, len(x) - 3))
    # (b) operator consistency order on the sine test
    params = PhysicalParams(1.0, 1.0, math.pi, 1.0)
    L = params.L
    import sympy as sp
    xs = sp.symbols("x")
    expr = xs ** 2 * (L - xs) ** 2 * sp.sin(sp.pi * xs / L)
    d = {k: sp.lambdify(xs, sp.diff(expr, xs, k), "numpy") for k in (0, 1, 3, 5)}
    errs = []
    for N in (64, 128, 256):
        grid = Grid(N, L)
        op = build_operator(params, grid)
        xg = grid.x
        res = op.dense() @ d[0](xg) - (d[1](xg) + d[3](xg) - d[5](xg))
        errs.append(np.abs(res).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = exact and all(1.8 <= o <= 2.2 for o in orders)
    _report(2, "stencil_exactness", ok,
            f"x^5 exact: {exact}, consistency orders {[round(o, 3) for o in orders]}")


def test_criterion_03_mms_convergence():
    params = PhysicalParams(1.0, 1.0, math.pi, 1.0)
    gains = FeedbackGains(0.5, 0.25, 0.01, 0.01)
    kernel = MemoryKernel(1.0, 2.0)
    L = params.L
    errs = []
    for N in (64, 128, 256):
        h = L / (N + 1)
        cfg = SimConfig(params, gains, kernel, N=N, dt=0.5 * h, T_end=1.0,
                        u0=lambda x: x ** 2 * (L - x) ** 2 * np.sin(np.pi * x / L),
                        z0=lambda t: 0.0, record_every=0, mms_amplitude=1.0)
        errs.append(run(cfg).mms_error)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(1.8 <= o <= 2.2 for o in orders)
    _report(3, "mms_convergence", ok,
            f"errors {[f'{e:.3e}' for e in errs]}, orders "
            f"{[round(o, 3) for o in orders]}")


def test_criterion_04_energy_monotonicity(linear_run):
    cfg, result = linear_run
    E = result.records.E
    tol = 1e-10 * E[0]
    worst = float(np.diff(E).max())
    ok = worst <= tol
    _report(4, "energy_monotonicity", ok,
            f"max increment {worst:.2e} vs tol {tol:.2e} over T=30")


def test_criterion_05_guaranteed_decay_rate(nonlinear_run):
    cfg, result = nonlinear_run
    fit = diagnostics.fit_decay(result.records, (5.0, 30.0))
    mu = mu_guaranteed(cfg.params, cfg.gains, cfg.kernel,
                       r=0.5 * r_max(cfg.params))
    ok = fit.rate >= mu and fit.r2 >= 0.98
    _report(5, "guaranteed_decay_rate", ok,
            f"fitted rate {fit.rate:.4f} >= mu_guaranteed {mu:.3e}, "
            f"r2 {fit.r2:.6f}")


def test_criterion_06_sandwich_inequality(linear_run, nonlinear_run):
    worst = 0.0
    n = 0
    for cfg, result in (linear_run, nonlinear_run):
        inv = diagnostics.invariants(result.records, cfg)
        worst = max(worst, inv["sandwich_violation_low"],
                    inv["sandwich_violation_high"])
        n += len(result.records)
    ok = worst <= 0.0
    _report(6, "sandwich_inequality", ok,
            f"{n} records, worst violation {worst:.2e} at slack 1e-12(1+E)")


# frozen from the dt = 0.01 calibration run of this criterion: the measured
# relative residual |dE/dt - (<PV,V> - D)| / scale is 7.04e-6, frozen with a
# ~8% headroom.  The residual is a resolution floor of the reference data
# (u0 with u_x(0) != 0, a zero history joined to a nonzero u_xx(0)) and does
# not fall with dt, so the bound carries no dt factor.
_DISSIPATION_C_FROZEN = 7.6e-6


def _dissipation_error(dt):
    """Energy-flux check of one linear run with step dt.

    Returns (residual, scale, D, margin): the max |dE/dt - (phi_n +
    phi_{n+1})/2| at 20 sampled steps with t >= 2, where phi = <PV,V> - D is
    the exact boundary flux; the flux scale max(|<PV,V>|, |dE/dt|) at those
    steps; the largest Cauchy-Schwarz defect D over the run; and the largest
    dE/dt - (q_n + q_{n+1})/2 over all steps with t >= 2, q = <PV,V>.
    """
    cfg = reference_sim_config(linear_only=True, T_end=12.0, dt=dt,
                               record_every=1)
    result = run(cfg)
    recs = result.records
    t, E, q = recs.t, recs.E, recs.qform
    dEdt = np.diff(E) / np.diff(t)
    qmid = 0.5 * (q[1:] + q[:-1])
    mask = t[1:] >= 2.0
    sel = np.where(mask)[0][np.linspace(0, mask.sum() - 1, 20).astype(int)]
    scale = float(max(np.abs(qmid[sel]).max(), np.abs(dEdt[sel]).max()))
    # Cauchy-Schwarz defect D = |beta| (int lam z1^2 - I^2 / int lam) >= 0:
    # the exact discrete energy flux is <PV,V> minus D
    s = result.series
    I = s.memory
    gap = abs(cfg.gains.beta) * (s.lam_sq - I ** 2 / cfg.kernel.lambda_integral)
    phi = q - gap
    residual = float(np.abs(dEdt[sel] - 0.5 * (phi[1:] + phi[:-1])[sel]).max())
    margin = float((dEdt - qmid)[mask].max())
    return residual, scale, float(gap.max()), margin


def test_criterion_07_dissipation_identity():
    """The discrete energy changes by exactly the boundary flux:
    dE/dt = <PV,V> - D, with D = |beta| (int lam z1^2 - I^2 / int lam) >= 0
    the Cauchy-Schwarz defect of the memory term.  Asserted as
    |dE/dt - (<PV,V> - D)| <= C scale at 20 sampled steps, C frozen at
    dt = 0.01 and re-verified at dt/2, together with the inequality
    dE/dt <= <PV,V> + C scale that the Lyapunov argument uses.  The bound
    must stay three orders of magnitude below D, so that leaving D out of
    the flux fails the check."""
    lines = []
    ok = True
    for label, dt in (("dt", 0.01), ("dt/2", 0.005)):
        residual, scale, D, margin = _dissipation_error(dt)
        bound = _DISSIPATION_C_FROZEN * scale
        ok = ok and residual <= bound and margin <= bound and bound <= 1e-3 * D
        lines.append(f"{label} residual {residual:.3e} (bound {bound:.3e}), "
                     f"D {D:.3e}, max dE/dt - <PV,V> {margin:.3e}")
    _report(7, "dissipation_identity", ok, "; ".join(lines))


def test_criterion_08_apriori_inequalities():
    worst3 = worst4 = 0.0
    base = reference_sim_config(linear_only=True, T_end=5.0, record_every=0,
                                startup_steps=0)
    for seed in range(20):
        u0, z0 = diagnostics.random_compatible_data(seed, base.params.L,
                                                    base.gains, base.kernel)
        cfg = replace(base, u0=u0, z0=z0)
        checks = {c["check_name"]: c
                  for c in diagnostics.apriori_checks(run(cfg), cfg)}
        assert checks["est3"]["pass"] is not None
        worst3 = max(worst3, checks["est3"]["lhs"] / checks["est3"]["rhs"])
        worst4 = max(worst4, checks["est4"]["lhs"] / checks["est4"]["rhs"])
    ok = worst3 <= 1.05 and worst4 <= 1.05
    _report(8, "apriori_inequalities", ok,
            f"20 seeds, worst est3 ratio {worst3:.3f}, est4 ratio {worst4:.3f} "
            f"(<= 1.05)")


def test_criterion_09_observability_evidence():
    cfg = reference_sim_config(linear_only=True, T_end=5.0, record_every=0)
    c1, _ = diagnostics.estimate_observability(cfg, n_samples=20, seed=0)
    c2, _ = diagnostics.estimate_observability(replace(cfg, N=256),
                                               n_samples=20, seed=0)
    drift = abs(c2 - c1) / c1
    ok = c1 > 0.0 and drift <= 0.20
    _report(9, "observability_evidence", ok,
            f"c_obs {c1:.4f} (N=128) vs {c2:.4f} (N=256), drift {drift:.2%} "
            f"(<= 20%); ratios are scale-invariant")


def test_criterion_10_spectral_lemma():
    details = []
    ok = True
    for L in (1.0, 2.0, math.pi):
        spectral = diagnostics.spectral_check(L)[1]
        thr, resid = spectral["threshold"], spectral["min_residual"]
        details.append(f"L={L:.3f}: resid {resid:.3e} > thr {thr:.3e}")
        ok = ok and resid > thr
    _report(10, "spectral_lemma", ok, "; ".join(details))


def test_criterion_11_determinism(tmp_path):
    doc = json.loads(json.dumps(REFERENCE_DOC))
    p = tmp_path / "ref.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "series.csv").read_bytes()
    b = (tmp_path / "b" / "series.csv").read_bytes()
    ok = a == b
    _report(11, "determinism", ok,
            f"two runs, {len(a)} bytes, byte-identical: {ok}")
