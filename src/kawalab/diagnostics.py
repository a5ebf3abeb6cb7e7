"""Energy functionals, decay fits, inequality checks, and the spectral test.

Everything operates on trajectory snapshots or drives fresh runs of the
linear system; nothing mutates solver state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import model
from .discretization import Grid, build_operator, mass_and_weighted_mass
from .memory import TraceWeights, weighted_trace
from .model import PhysicalParams
from .rng import Lcg64


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    E: float
    E1: float
    E2: float
    xi: float
    w0: float
    F: float
    qform: float
    l2: float
    h2seminorm: float

    CSV_HEADER = "t,E,E1,E2,xi,w0,F,qform,l2,h2seminorm"

    def csv_row(self) -> str:
        vals = (self.t, self.E, self.E1, self.E2, self.xi, self.w0, self.F,
                self.qform, self.l2, self.h2seminorm)
        return ",".join(repr(v) for v in vals)


def _trace_weights(config) -> TraceWeights:
    return TraceWeights(config.kernel, config.dt, config.gains.delta)


def compute_record(state, config, op, weights: TraceWeights | None = None
                   ) -> DiagnosticsRecord:
    """Energy record of one state; `weights` (built from config when absent)
    are the history quadrature weights of config's kernel, dt and delta."""
    gains, kernel = config.gains, config.kernel
    grid = op.grid
    l2, E1 = mass_and_weighted_mass(state.u, grid)
    if weights is None:
        weights = _trace_weights(config)
    tv = weighted_trace(state.history, weights)
    absb = abs(gains.beta)
    E = l2 + absb * tv.z_plain
    E2 = absb * tv.z_exp
    xi = E + gains.mu1 * E1 + gains.mu2 * E2
    w0 = op.trace_uxx0(state.u)
    mem = tv.memory
    F = gains.alpha * w0 + gains.beta * mem
    P = model.assemble_P(gains, kernel)
    V = np.array([w0, mem])
    # <PV,V> is an upper bound of dE/dt, not equal to it: dE/dt = <PV,V> - D
    # with the Cauchy-Schwarz defect D = |beta| (int lam z1^2 - mem^2 / int lam)
    qform = float(V @ P @ V)
    # ||u_xx||^2 by centered differences; boundary values from the traces
    h = grid.h
    uext = np.concatenate(([0.0], state.u, [0.0]))
    uxx = (uext[:-2] - 2.0 * uext[1:-1] + uext[2:]) / h ** 2
    uxxL = op.trace_uxxL(state.u)
    with np.errstate(over="ignore"):    # numpy's ** gives inf, Python's raises
        h2 = h * (0.5 * np.float64(w0) ** 2 + (uxx ** 2).sum()
                  + 0.5 * np.float64(uxxL) ** 2)
    return DiagnosticsRecord(t=state.t_now, E=E, E1=E1, E2=E2, xi=xi, w0=w0,
                             F=F, qform=qform, l2=l2, h2seminorm=float(h2))


@dataclass(frozen=True)
class DecayFit:
    t_window: tuple
    rate: float
    r2: float
    kappa_hat: float


def fit_decay(trajectory: Sequence[DiagnosticsRecord], window: tuple) -> DecayFit:
    """Least-squares line on (t, log E); rate = -slope/2 for E ~ C e^{-2 mu t}."""
    t0, t1 = window
    pts = [(r.t, r.E) for r in trajectory
           if t0 <= r.t <= t1 and r.E > 1e-300]
    if len(pts) < 10:
        raise ValueError("nothing to fit: need >= 10 records with E > 0 in window")
    t = np.array([p[0] for p in pts])
    logE = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(t, logE, 1)
    resid = logE - (slope * t + intercept)
    ss_tot = float(((logE - logE.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    E_first = trajectory[0].E
    kappa = math.exp(intercept) / E_first if E_first > 0 else float("nan")
    return DecayFit(t_window=(t0, t1), rate=-0.5 * float(slope),
                    r2=max(0.0, min(1.0, r2)), kappa_hat=float(kappa))


def sandwich_margins(records: Sequence[DiagnosticsRecord], params, gains):
    """Violations of E <= xi <= (1 + max{L mu1, mu2}) E, slack 1e-12 (1 + E)."""
    top = 1.0 + max(params.L * gains.mu1, gains.mu2)
    worst_low = worst_high = 0.0
    for r in records:
        slack = 1e-12 * (1.0 + r.E)
        worst_low = max(worst_low, r.E - r.xi - slack)
        worst_high = max(worst_high, r.xi - top * r.E - slack)
    return worst_low, worst_high


def energy_increments(records: Sequence[DiagnosticsRecord]) -> np.ndarray:
    E = np.array([r.E for r in records])
    return np.diff(E)


def check_apriori_estimates(result, config) -> dict:
    """Discrete evaluation of (est1), (est3), (est4) on a linear trajectory.

    (est3), (est4) carry no free constant and are asserted with 5% slack;
    (est1)'s constant is reported, not asserted.  (est3) is checked in the
    s*lam(s)-weighted form that the transport identity actually yields.
    """
    if not config.linear_only:
        return {"skipped": "nonlinear run"}
    s = result.series
    T = float(s.t[-1])
    int_w2 = float(np.trapezoid(s.w ** 2, s.t))
    int_lam_z1 = float(np.trapezoid(s.lam_z1sq, s.t))
    int_slam_z1 = float(np.trapezoid(s.slam_z1sq, s.t))
    int_l2 = float(np.trapezoid(s.l2, s.t))

    est1_lhs = int_w2 + int_slam_z1
    est1_rhs = result.h_norm0_sq
    C_hat = est1_lhs / est1_rhs if est1_rhs > 0 else float("nan")

    absb = abs(config.gains.beta)
    z0_sq = (result.h_norm0_sq - float(s.l2[0])) / absb
    zT_sq = weighted_trace(result.final.history, _trace_weights(config)).z_plain
    est3_lhs = z0_sq
    est3_rhs = zT_sq + int_lam_z1

    est4_lhs = T * float(s.l2[0])
    est4_rhs = int_l2 + T * int_w2

    def entry(lhs, rhs, asserted):
        ok = lhs <= rhs * 1.05 + 1e-14 if asserted else None
        return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs > 0 else float("inf"),
                "pass": ok}

    return {
        "est1": {"lhs": est1_lhs, "rhs_norm_sq": est1_rhs, "C_hat": C_hat},
        "est3": entry(est3_lhs, est3_rhs, True),
        "est4": entry(est4_lhs, est4_rhs, True),
        "T": T,
    }


def random_initial_data(seed: int, L: float):
    """Seeded smooth random (u0, z0): sine series profile + sinusoid history."""
    rng = Lcg64(seed)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(6)]
    A = rng.uniform(-1.0, 1.0)
    omega = rng.uniform(0.5, 3.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    B = rng.uniform(-0.5, 0.5)

    def u0(x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for m, c in enumerate(coeffs, start=1):
            out += c * np.sin(m * math.pi * np.asarray(x) / L)
        return out

    def z0(t):
        return A * math.sin(omega * t + phi) + B

    return u0, z0


def random_compatible_data(seed: int, L: float, gains, kernel):
    """Seeded random data in the generator's domain (classical solutions).

    The integral identities behind the a priori estimates hold pointwise for
    classical solutions, which requires the compatibility conditions
    z0(0) = u0''(0) and u0''(L) = F(0) = alpha*u0''(0) + beta*int lam z0(-s)ds.
    The profile is an enveloped sine series (so u = u' = 0 at both ends and
    u''(0) = u''(L) = 0 before correction), the history is a sinusoid pinned
    to z0(0) = 0, and a cubic-quartic corrector with unit u''(L) absorbs the
    remaining condition exactly.
    """
    rng = Lcg64(seed)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    A = rng.uniform(-1.0, 1.0)
    omega = rng.uniform(0.5, 3.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)

    def z0(t):
        return A * (math.sin(omega * t + phi) - math.sin(phi))

    s = np.linspace(kernel.tau1, kernel.tau2, 2001)
    Iz = float(np.trapezoid(np.asarray(kernel(s))
                            * np.array([z0(-si) for si in s]), s))
    gamma = gains.beta * Iz          # u0''(L) must equal alpha*0 + beta*Iz
    scale = (0.5 * L) ** 4

    def u0(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for m, c in enumerate(coeffs, start=1):
            out += c * np.sin(m * math.pi * x / L)
        out *= x ** 2 * (L - x) ** 2 / scale
        out += gamma * x ** 3 * (L - x) ** 2 / (2.0 * L ** 3)
        return out

    return u0, z0


def estimate_observability(config, n_samples: int = 20, seed: int = 0):
    """Boundary-output ratios for random data under the linear dynamics.

    ratio = int_0^T (w^2 + int s lam z(t,1,s)^2 ds) dt / ||(u0, z0)||_H^2;
    the minimum over samples is c_obs.  Both sides are quadratic in the data,
    so the ratio is scale-invariant; strictly positive c_obs is numerical
    evidence for the observability inequality with C = 1/c_obs.

    Samples are compatible (classical-solution) data, integrated without the
    backward-Euler startup, so the discrete boundary output faithfully tracks
    the continuum one.
    """
    from . import solver

    if not config.linear_only:
        config = replace(config, linear_only=True)
    if config.T_end < config.kernel.tau2:
        raise ValueError("observability window must satisfy T >= tau2")
    ratios = []
    for k in range(n_samples):
        u0, z0 = random_compatible_data(seed + k, config.params.L,
                                        config.gains, config.kernel)
        res = solver.run(replace(config, u0=u0, z0=z0, record_every=0,
                                 startup_steps=0))
        s = res.series
        out = float(np.trapezoid(s.w ** 2 + s.slam_z1sq, s.t))
        ratios.append(out / res.h_norm0_sq)
    return min(ratios), ratios


def spectral_residuals(L: float, N: int, n_pairs: int = 50,
                       a: float = 1.0, b: float = 1.0):
    """Residual |u''(0)| / ||u|| over the lowest eigenpairs of the 5-BC problem.

    The operator u' + u''' - u''''' is discretized with u = u' = 0 at both
    ends and u''(L) = 0 (five conditions); eigenpairs come from a dense
    solve, and the sixth, overdetermining condition u''(0) = 0 is evaluated
    as a residual.  A minimum bounded away from zero certifies that only the
    trivial function satisfies all six conditions at this L.
    """
    params = PhysicalParams(a=a, b=b, L=L, p=1.0)
    grid = Grid(N, L)
    op = build_operator(params, grid)
    vals, vecs = np.linalg.eig(op.dense())
    order = np.argsort(np.abs(vals))[:n_pairs]
    h = grid.h
    res = []
    for idx in order:
        v = vecs[:, idx]
        norm = math.sqrt(h) * np.linalg.norm(v)
        res.append(abs(complex(op.trace0_vec @ v)) / norm)
    return np.array(res)


def spectral_lemma_test(L_values: Sequence[float], N: int, n_pairs: int = 50,
                        a: float = 1.0, b: float = 1.0) -> dict:
    """Minimal sixth-condition residual per L (Lemma setting: a = b = 1)."""
    return {L: float(spectral_residuals(L, N, n_pairs, a, b).min())
            for L in L_values}


def spectral_threshold(L: float, Ns=(200, 400), n_pairs: int = 50) -> float:
    """Refinement-calibrated threshold: a tenth of the stabilized residual.

    Raises if the residual has not stabilized between the two resolutions
    (relative change above 50%), which would signal a near-critical length.
    """
    r = [spectral_residuals(L, n, n_pairs).min() for n in Ns]
    lo, hi = min(r), max(r)
    if hi > 0 and (hi - lo) / hi > 0.5:
        raise ValueError(f"spectral residual not stabilized at L = {L}: {r}")
    return 0.1 * lo
