"""Parameters, memory kernels, and the closed-form stability certificates.

Everything here is pure arithmetic on the model data: the gain condition,
the critical domain length, the 2x2 dissipativity matrices and their
negativity certificates, the smallness radius for the nonlinearity, and the
guaranteed exponential decay rate.  2x2 negativity is decided from det/trace
closed forms, never from a sampled eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad


class ConditionError(ValueError):
    """A certificate precondition is violated; the message names it."""


@dataclass(frozen=True)
class PhysicalParams:
    """Drift a, third-order dispersion b, domain length L, nonlinearity p."""

    a: float
    b: float
    L: float
    p: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.L > 0):
            raise ValueError("a, b, L must be positive")
        if not (1.0 <= self.p <= 2.0):
            raise ValueError("p must lie in [1, 2]")


@dataclass(frozen=True)
class MemoryKernel:
    """Kernel lam(s) on (tau1, tau2), positive and essentially bounded.

    Forms: 'constant' lam = c, 'exponential' lam = c*exp(-sigma*s), and
    'tabulated' (piecewise-linear through `samples`).  The first two have
    analytic moments; tabulated moments use quadrature to 1e-10.
    """

    tau1: float
    tau2: float
    form: str = "constant"
    c: float = 1.0
    sigma: float = 0.0
    samples: tuple = ()  # ((s_0, lam_0), ...) for form='tabulated'
    lambda_integral: float = field(init=False, default=0.0)
    s_lambda_integral: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not (0.0 < self.tau1 < self.tau2):
            raise ValueError("need 0 < tau1 < tau2")
        if self.form not in ("constant", "exponential", "tabulated"):
            raise ValueError(f"unknown kernel form {self.form!r}")
        if self.form == "tabulated":
            s = np.array([p[0] for p in self.samples], dtype=float)
            v = np.array([p[1] for p in self.samples], dtype=float)
            if len(s) < 2 or np.any(np.diff(s) <= 0):
                raise ValueError("tabulated kernel needs increasing sample abscissae")
            if np.any(v <= 0):
                raise ValueError("kernel must be positive")
        elif self.c <= 0:
            raise ValueError("kernel must be positive")
        object.__setattr__(self, "lambda_integral", self.moment("one"))
        object.__setattr__(self, "s_lambda_integral", self.moment("s"))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.form == "constant":
            out = np.full_like(s, self.c)
        elif self.form == "exponential":
            out = self.c * np.exp(-self.sigma * s)
        else:
            xs = np.array([p[0] for p in self.samples])
            ys = np.array([p[1] for p in self.samples])
            out = np.interp(s, xs, ys)
        return out if out.ndim else float(out)

    def moment(self, weight: str = "one", theta: float = 0.0) -> float:
        """Integral of w(s)*lam(s) over (tau1, tau2).

        weight: 'one' -> w=1, 's' -> w=s, 's_exp' -> w = s*exp(-theta*s).
        Analytic for constant/exponential forms; adaptive quadrature for
        tabulated kernels (abs/rel tolerance 1e-10).
        """
        t1, t2 = self.tau1, self.tau2
        if self.form == "constant":
            if weight == "one":
                return self.c * (t2 - t1)
            if weight == "s":
                return self.c * 0.5 * (t2 * t2 - t1 * t1)
            if weight == "s_exp":
                return self.c * _int_s_exp(theta, t1, t2)
        elif self.form == "exponential":
            if weight == "one":
                return self.c * _int_exp(self.sigma, t1, t2)
            if weight == "s":
                return self.c * _int_s_exp(self.sigma, t1, t2)
            if weight == "s_exp":
                return self.c * _int_s_exp(self.sigma + theta, t1, t2)
        else:
            if weight == "one":
                w = lambda s: 1.0
            elif weight == "s":
                w = lambda s: s
            elif weight == "s_exp":
                w = lambda s: s * math.exp(-theta * s)
            else:
                raise ValueError(f"unknown weight {weight!r}")
            pts = [p[0] for p in self.samples if t1 < p[0] < t2]
            val, err = quad(lambda s: w(s) * float(self(s)), t1, t2,
                            points=pts, epsabs=1e-10, epsrel=1e-10, limit=200)
            if err > 1e-8 * (1.0 + abs(val)):
                raise ConditionError(
                    f"kernel moment quadrature achieved only {err:.3e}")
            return val
        raise ValueError(f"unknown weight {weight!r}")


def _int_exp(sig: float, t1: float, t2: float) -> float:
    # integral of exp(-sig*s) on (t1, t2); below the threshold the closed form
    # loses all precision to cancellation/underflow and the sig -> 0 limit is
    # already exact to machine precision
    if abs(sig) < 1e-12:
        return t2 - t1
    return (math.exp(-sig * t1) - math.exp(-sig * t2)) / sig


def _int_s_exp(sig: float, t1: float, t2: float) -> float:
    # integral of s*exp(-sig*s) on (t1, t2)
    if abs(sig) < 1e-12:
        return 0.5 * (t2 * t2 - t1 * t1)
    f = lambda t: (sig * t + 1.0) * math.exp(-sig * t) / (sig * sig)
    return f(t1) - f(t2)


@dataclass(frozen=True)
class FeedbackGains:
    """Damping gain alpha, memory gain beta, Lyapunov weights mu1/mu2, delta.

    delta is a free positive constant: larger delta strengthens the delta
    factor in the first decay-rate term but weakens it through exp(-delta*tau2).
    """

    alpha: float
    beta: float
    mu1: float = 0.0
    mu2: float = 0.0
    delta: float = 1.0

    def __post_init__(self):
        if self.alpha == 0.0 or self.beta == 0.0:
            raise ValueError("alpha and beta must be nonzero")
        if self.mu1 < 0 or self.mu2 < 0:
            raise ValueError("mu1, mu2 must be nonnegative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def check_gain_condition(gains: FeedbackGains, kernel: MemoryKernel):
    """|alpha| + |beta| * int(lam) against 1; strict inequality required."""
    value = abs(gains.alpha) + abs(gains.beta) * kernel.lambda_integral
    return value, value < 1.0


def critical_length(params: PhysicalParams) -> float:
    return math.sqrt(3.0 * params.b / params.a) * math.pi


def assemble_P(gains: FeedbackGains, kernel: MemoryKernel) -> np.ndarray:
    """Dissipativity matrix of the boundary quadratic form."""
    lam = kernel.lambda_integral
    if lam == 0.0:
        raise ConditionError("kernel integral vanishes")
    a, b = gains.alpha, gains.beta
    return np.array([
        [a * a - 1.0 + abs(b) * lam, a * b],
        [a * b, b * b - abs(b) / lam],
    ])


def assemble_P_star(gains: FeedbackGains, kernel: MemoryKernel) -> np.ndarray:
    """Adjoint-side matrix; same determinant and trace as P."""
    lam = kernel.lambda_integral
    if lam == 0.0:
        raise ConditionError("kernel integral vanishes")
    a, b = gains.alpha, gains.beta
    return np.array([
        [a * a - 1.0 + abs(b) * lam, a * abs(b)],
        [a * abs(b), b * b - abs(b) / lam],
    ])


def det_P_closed_form(gains: FeedbackGains, kernel: MemoryKernel) -> float:
    """det P = |b| (int lam)^-1 { [1 - |b| int lam]^2 - a^2 }."""
    lam = kernel.lambda_integral
    b = abs(gains.beta)
    return (b / lam) * ((1.0 - b * lam) ** 2 - gains.alpha ** 2)


def assemble_T(gains: FeedbackGains, kernel: MemoryKernel,
               params: PhysicalParams) -> np.ndarray:
    """T(mu1, mu2) = P + mu1*L*[[a^2,ab],[ab,b^2]] + mu2*[[|b| int lam, 0],[0,0]]."""
    P = assemble_P(gains, kernel)
    a, b, L = gains.alpha, gains.beta, params.L
    if gains.mu1 != 0.0:
        P = P + gains.mu1 * L * np.array([[a * a, a * b], [a * b, b * b]])
    if gains.mu2 != 0.0:
        P = P + gains.mu2 * np.array([[abs(b) * kernel.lambda_integral, 0.0],
                                      [0.0, 0.0]])
    return P


def is_negative_definite(M: np.ndarray) -> bool:
    """2x2 symmetric negativity via det > 0 and trace < 0."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2) or abs(M[0, 1] - M[1, 0]) > 1e-12 * (1.0 + abs(M[0, 1])):
        raise ValueError("expected a symmetric 2x2 matrix")
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return det > 0.0 and M[0, 0] + M[1, 1] < 0.0


def r_max(params: PhysicalParams) -> float:
    """Smallness radius ((p+2)(3 pi^2 b - a L^2) / (2 pi^2 L^(2-p/2)))^(1/p)."""
    pi2 = math.pi * math.pi
    try:
        gap = 3.0 * pi2 * params.b - params.a * params.L ** 2
    except OverflowError:   # L ** 2 beyond the float range
        gap = -math.inf
    if gap <= 0.0:
        raise ConditionError("length condition violated: L >= sqrt(3b/a)*pi")
    p = params.p
    return ((p + 2.0) * gap / (2.0 * pi2 * params.L ** (2.0 - p / 2.0))) ** (1.0 / p)


def mu_guaranteed(params: PhysicalParams, gains: FeedbackGains,
                  kernel: MemoryKernel, r: float) -> float:
    """Supremum of admissible decay exponents mu (E <= kappa E(0) e^{-2 mu t}).

    Returns min of the memory-weight term and the length/nonlinearity term.
    Callers wanting an interior admissible rate subtract their own margin.
    """
    value, ok = check_gain_condition(gains, kernel)
    if not ok:
        raise ConditionError(f"gain_condition violated: {value} >= 1")
    rmax = r_max(params)  # raises on length violation
    if r > rmax:
        raise ConditionError(f"r = {r} exceeds r_max = {rmax}")
    if not is_negative_definite(assemble_T(gains, kernel, params)):
        raise ConditionError("T(mu1, mu2) is not negative definite")
    b = abs(gains.beta)
    term1 = (gains.mu2 * b * math.exp(-gains.delta * kernel.tau2) * gains.delta
             / (2.0 * (1.0 + gains.mu1 * b)))
    p, L = params.p, params.L
    pi2 = math.pi * math.pi
    bracket = ((p + 2.0) * (3.0 * pi2 * params.b - params.a * L * L)
               - 2.0 * pi2 * L ** (2.0 - p / 2.0) * r ** p)
    term2 = gains.mu1 * bracket / (2.0 * L * L * (1.0 + L * gains.mu1) * (p + 2.0))
    return min(term1, term2)


def find_certified_weights(params: PhysicalParams, gains: FeedbackGains,
                           kernel: MemoryKernel, start: float = 1.0,
                           max_halvings: int = 60) -> FeedbackGains:
    """Halve (mu1, mu2) from (start, start) until T(mu1, mu2) is negative definite."""
    mu = start
    for _ in range(max_halvings + 1):
        cand = replace(gains, mu1=mu, mu2=mu)
        if is_negative_definite(assemble_T(cand, kernel, params)):
            return cand
        mu *= 0.5
    raise ConditionError("no certified (mu1, mu2) found by halving search")


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable pre-simulation report of every closed-form condition."""

    gain_condition_value: float
    gain_condition_ok: bool
    critical_length: float
    length_ok: bool
    P: np.ndarray
    P_star: np.ndarray
    T: np.ndarray
    detP: float
    trP: float
    detT: float
    trT: float
    T_negative_definite: bool
    r_max: float
    r: float
    mu_guaranteed: float
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "gain_condition_value": self.gain_condition_value,
            "gain_condition_ok": self.gain_condition_ok,
            "critical_length": self.critical_length,
            "length_ok": self.length_ok,
            "P": self.P.tolist(),
            "P_star": self.P_star.tolist(),
            "T": self.T.tolist(),
            "detP": self.detP,
            "trP": self.trP,
            "detT": self.detT,
            "trT": self.trT,
            "T_negative_definite": self.T_negative_definite,
            "r_max": self.r_max,
            "r": self.r,
            "mu_guaranteed": self.mu_guaranteed,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def build_certificate(params: PhysicalParams, gains: FeedbackGains,
                      kernel: MemoryKernel, r: float | None = None) -> Certificate:
    """Evaluate every condition; collect failures instead of raising.

    `r` is the initial-data norm the decay rate is certified for; defaults to
    half the smallness radius when the length condition holds.
    """
    failures = []
    value, gain_ok = check_gain_condition(gains, kernel)
    if not gain_ok:
        failures.append("gain_condition")
    Lc = critical_length(params)
    length_ok = params.L < Lc
    if not length_ok:
        failures.append("length_condition")
    P = assemble_P(gains, kernel)
    Pstar = assemble_P_star(gains, kernel)
    T = assemble_T(gains, kernel, params)
    detT = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
    trT = T[0, 0] + T[1, 1]
    T_neg = detT > 0.0 and trT < 0.0
    if not T_neg:
        failures.append("T_negative_definite")
    rmax = r_max(params) if length_ok else float("nan")
    if length_ok and not rmax > 0.0:
        failures.append("r_max_positive")
    if r is None:
        r = 0.5 * rmax if length_ok else float("nan")
    mu = float("nan")
    if not failures and r <= rmax:
        mu = mu_guaranteed(params, gains, kernel, r)
        if not mu > 0.0:
            failures.append("mu_guaranteed_positive")
    elif not failures:
        failures.append("r_exceeds_r_max")
    return Certificate(
        gain_condition_value=value, gain_condition_ok=gain_ok,
        critical_length=Lc, length_ok=length_ok,
        P=P, P_star=Pstar, T=T,
        detP=float(np.linalg.det(P)), trP=float(np.trace(P)),
        detT=float(detT), trT=float(trT), T_negative_definite=T_neg,
        r_max=rmax, r=r, mu_guaranteed=mu, failures=tuple(failures))
