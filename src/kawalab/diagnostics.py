"""Decay fits, inequality checks, random data, observability, spectral test.

The functions read finished runs (their `solver.RECORD` records or their
series) or drive fresh runs of the linear system through `solver.run`;
nothing mutates solver state.  `summary` is `kaw run`'s report, and
`check` makes every entry of `kaw verify`'s: the `*_check(s)` functions
return them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .discretization import Grid, build_operator
from .model import PhysicalParams
from .rng import Lcg64
from .solver import run


@dataclass(frozen=True)
class DecayFit:
    t_window: tuple
    rate: float
    r2: float
    kappa_hat: float


def fit_decay(records: np.recarray, window: tuple) -> DecayFit:
    """Least-squares line on (t, log E); rate = -slope/2 for E ~ C e^{-2 mu t}."""
    t0, t1 = window
    t, E = records.t, records.E
    keep = (t0 <= t) & (t <= t1) & (E > 1e-300)
    if keep.sum() < 10:
        raise ValueError("nothing to fit: need >= 10 records with E > 0 in window")
    t = t[keep]
    logE = np.log(E[keep])
    slope, intercept = np.polyfit(t, logE, 1)
    resid = logE - (slope * t + intercept)
    ss_tot = float(((logE - logE.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    E_first = E[0]
    kappa = math.exp(intercept) / E_first if E_first > 0 else float("nan")
    return DecayFit(t_window=(t0, t1), rate=-0.5 * float(slope),
                    r2=max(0.0, min(1.0, r2)), kappa_hat=float(kappa))


def summary(result, config) -> dict:
    """`kaw run`'s report.json without its certificate: the record count,
    ||(u0, z0)||_H^2, the last E, the decay fit over (T_end/6, T_end), which
    leaves out the initial transient (or the fit's error), the invariants,
    and the MMS error of a manufactured run."""
    records = result.records
    report = {"n_records": len(records), "h_norm0_sq": float(result.series.E[0]),
              "E_final": float(records.E[-1]) if len(records) else None,
              "invariants": invariants(records, config)}
    try:
        fit = fit_decay(records, (config.T_end / 6.0, config.T_end))
        report["decay_fit"] = asdict(fit)
    except ValueError as e:
        report["decay_fit"] = {"error": str(e)}
    if result.mms_error is not None:
        report["mms_error"] = result.mms_error
    return report


def invariants(records: np.recarray, config) -> dict:
    """The low and high violations of E <= xi <= (1 + max{L mu1, mu2}) E,
    slack 1e-12 (1 + E), a NaN violation counting as none; the largest
    energy increment between records, its tolerance 1e-10 E(0), and whether
    every increment stays within it.  All None when there are no records,
    for nothing was checked."""
    names = ("sandwich_violation_low", "sandwich_violation_high",
             "max_energy_increment", "energy_monotone_tol", "energy_monotone")
    if not len(records):
        return dict.fromkeys(names)
    params, gains = config.params, config.gains
    top = 1.0 + max(params.L * gains.mu1, gains.mu2)
    E, xi = records.E, records.xi
    with np.errstate(over="ignore", invalid="ignore"):
        slack = 1e-12 * (1.0 + E)
        low, high = E - xi - slack, xi - top * E - slack
    inc = np.diff(E)
    tol = 1e-10 * float(E[0])
    worst = float(inc.max()) if inc.size else 0.0
    return dict(zip(names, (float(np.fmax.reduce(low, initial=0.0)),
                            float(np.fmax.reduce(high, initial=0.0)),
                            worst, tol, not inc.size or worst <= tol)))


def check(name: str, lhs=None, rhs=None, ok=None, note: str = "") -> dict:
    """One entry of `kaw verify`'s checks.  `ok` None: the check was not
    made, or is reported and not asserted; the margin rhs - lhs is given
    only for a made check with both sides."""
    made = ok is not None and lhs is not None and rhs is not None
    entry = {"check_name": name, "lhs": lhs, "rhs": rhs,
             "margin": rhs - lhs if made else None, "pass": ok}
    return dict(entry, note=note) if note else entry


def apriori_checks(result, config) -> list:
    """Discrete evaluation of (est1), (est3), (est4) on a linear trajectory,
    as verify entries; one skipped entry for a nonlinear run.

    (est3), (est4) carry no free constant and are asserted with 5% slack;
    (est1)'s constant C_hat is reported, not asserted: it is lhs / rhs of
    the est1_constant entry, which its note repeats.  (est3) is checked in
    the s*lam(s)-weighted form that the transport identity actually yields.
    """
    if not config.linear_only:
        return [check("apriori", note="skipped (nonlinear run)")]
    s = result.series
    T = float(s.t[-1])
    int_w2 = float(np.trapezoid(s.w ** 2, s.t))
    int_lam_z1 = float(np.trapezoid(s.lam_sq, s.t))
    int_slam_z1 = float(np.trapezoid(s.slam_sq, s.t))
    int_l2 = float(np.trapezoid(s.l2, s.t))

    est1_lhs = int_w2 + int_slam_z1
    est1_rhs = float(s.E[0])
    C_hat = est1_lhs / est1_rhs if est1_rhs > 0 else float("nan")
    checks = [check("est1_constant", est1_lhs, est1_rhs,
                    note=f"C_hat = {C_hat} (reported, not asserted)")]
    for name, lhs, rhs in (
            ("est3", float(s.z_plain[0]), float(s.z_plain[-1]) + int_lam_z1),
            ("est4", T * float(s.l2[0]), int_l2 + T * int_w2)):
        ok = lhs <= rhs * 1.05 + 1e-14
        checks.append(check(name, lhs, rhs, ok))
    return checks


def record_checks(result, config) -> list:
    """verify's sandwich and energy_monotone entries, from `invariants`;
    both skipped for a run without records."""
    inv = invariants(result.records, config)
    if inv["energy_monotone"] is None:
        return [check(name, note="skipped (no records: "
                      "numerics.record_every = 0)")
                for name in ("sandwich", "energy_monotone")]
    lo, hi = inv["sandwich_violation_low"], inv["sandwich_violation_high"]
    kind = "linear" if config.linear_only else "nonlinear"
    return [check("sandwich", max(lo, hi), 0.0, lo <= 0.0 and hi <= 0.0),
            check("energy_monotone", inv["max_energy_increment"],
                  inv["energy_monotone_tol"], inv["energy_monotone"],
                  note=f"{kind} run; E must be nonincreasing")]


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
    if config.T_end < config.kernel.tau2:
        raise ValueError("observability window must satisfy T >= tau2")
    ratios = []
    for k in range(n_samples):
        u0, z0 = random_compatible_data(seed + k, config.params.L,
                                        config.gains, config.kernel)
        res = run(replace(config, u0=u0, z0=z0, record_every=0,
                          startup_steps=0, linear_only=True))
        s = res.series
        out = float(np.trapezoid(s.w ** 2 + s.slam_sq, s.t))
        ratios.append(out / float(s.E[0]))
    return min(ratios), ratios


def observability_check(config, seed: int) -> tuple:
    """verify's observability_c_obs entry, from 20 samples seeded from
    `seed` over T_end of `config`, and the 20 ratios."""
    c_obs, ratios = estimate_observability(config, n_samples=20, seed=seed)
    return check("observability_c_obs", 0.0, c_obs, c_obs > 0.0,
                 note="evidence only, not a proof; C = 1/c_obs"), ratios


def spectral_residuals(L: float, N: int, n_pairs: int = 50):
    """Residual |u''(0)| / ||u|| over the lowest eigenpairs of the 5-BC problem.

    The operator u' + u''' - u''''' is discretized with u = u' = 0 at both
    ends and u''(L) = 0 (five conditions); eigenpairs come from a dense
    solve, and the sixth, overdetermining condition u''(0) = 0 is evaluated
    as a residual.  A minimum bounded away from zero certifies that only the
    trivial function satisfies all six conditions at this L.  `n_pairs`
    must be below N: taking all N eigenpairs of the N x N discretization
    gives residuals near zero at every L.  a = b = 1, as in the Lemma.
    """
    if n_pairs >= N:
        raise ValueError(f"n_pairs = {n_pairs} must be less than N = {N}")
    params = PhysicalParams(a=1.0, b=1.0, L=L, p=1.0)
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


def spectral_check(L: float) -> tuple:
    """verify's spectral_lemma entry and report.json's `spectral`: the
    smallest residual at N = 300 against `spectral_threshold` from N = 200
    and 400.  A threshold that has not stabilised fails the check, and
    `spectral` then holds its error."""
    note = "a = b = 1 as in the lemma; residual of the sixth condition"
    try:
        thresh = spectral_threshold(L, Ns=(200, 400))
        resid = float(spectral_residuals(L, 300).min())
    except ValueError as e:
        return (check("spectral_lemma", ok=False, note=note),
                {"L": L, "error": str(e)})
    return (check("spectral_lemma", thresh, resid, resid > thresh, note=note),
            {"L": L, "min_residual": resid, "threshold": thresh})
