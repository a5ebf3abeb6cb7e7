"""Closed-form certificate arithmetic: matrices, kernel integrals, rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det_P_closed_form
from kawalab import model
from kawalab.model import (ConditionError, FeedbackGains, MemoryKernel,
                           PhysicalParams, assemble_P, assemble_T, build_certificate, check_gain_condition,
                           critical_length, is_negative_definite,
                           mu_guaranteed, r_max)


# ---------------------------------------------------------------------------
# reference-configuration oracles


def test_reference_gain_condition(ref_gains, ref_kernel):
    value, ok = check_gain_condition(ref_gains, ref_kernel)
    assert ok
    assert value == pytest.approx(0.75, abs=1e-15)


def test_gain_condition_fails_at_exactly_one():
    """|alpha| + |beta| int lam = 0.5 + 0.5 * 1 is exactly 1.0: the strict
    inequality fails."""
    kernel = MemoryKernel(tau1=1.0, tau2=2.0, form="constant", c=1.0)
    value, ok = check_gain_condition(FeedbackGains(alpha=0.5, beta=0.5), kernel)
    assert value == 1.0
    assert not ok


def test_reference_critical_length(ref_params):
    assert critical_length(ref_params) == pytest.approx(math.sqrt(3.0) * math.pi,
                                                        rel=1e-15)
    assert ref_params.L < critical_length(ref_params)


def test_reference_P_matrix(ref_gains, ref_kernel):
    P = assemble_P(ref_gains, ref_kernel)
    expected = np.array([[-0.5, 0.125], [0.125, -0.1875]])
    assert np.allclose(P, expected, atol=1e-15)
    det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    assert det == pytest.approx(0.078125, rel=1e-13)
    assert det == pytest.approx(det_P_closed_form(ref_gains, ref_kernel),
                                rel=1e-13)
    assert is_negative_definite(P)


def test_reference_r_max_and_rate(ref_params, ref_gains, ref_kernel):
    rm = r_max(ref_params)
    assert rm == pytest.approx(0.53876, abs=5e-5)
    mu = mu_guaranteed(ref_params, ref_gains, ref_kernel, r=0.5 * rm)
    assert mu == pytest.approx(1.6875e-4, rel=1e-3)
    assert mu > 0.0


def test_reference_certificate(ref_params, ref_gains, ref_kernel):
    cert = build_certificate(ref_params, ref_gains, ref_kernel)
    assert cert.ok
    assert cert.failures == ()
    d = cert.to_dict()
    assert d["ok"] and d["gain_condition_ok"] and d["length_ok"]
    assert d["T_negative_definite"]


# ---------------------------------------------------------------------------
# properties


admissible_gains = st.builds(
    FeedbackGains,
    alpha=st.floats(-0.95, 0.95).filter(lambda a: abs(a) > 1e-3),
    beta=st.floats(-2.0, 2.0).filter(lambda b: abs(b) > 1e-3),
)

kernels = st.one_of(
    st.builds(MemoryKernel,
              tau1=st.floats(0.1, 1.5), tau2=st.floats(1.6, 4.0),
              form=st.just("constant"), c=st.floats(0.05, 3.0)),
    st.builds(MemoryKernel,
              tau1=st.floats(0.1, 1.5), tau2=st.floats(1.6, 4.0),
              form=st.just("exponential"), c=st.floats(0.05, 3.0),
              sigma=st.floats(0.0, 2.0)),
)


@settings(max_examples=200, deadline=None)
@given(gains=admissible_gains, kernel=kernels)
def test_detP_matches_closed_form(gains, kernel):
    P = assemble_P(gains, kernel)
    det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    closed = det_P_closed_form(gains, kernel)
    assert det == pytest.approx(closed, rel=1e-12, abs=1e-14)


def test_certificate_determinants_are_the_2x2_closed_form(ref_params):
    """detP and detT are P00 P11 - P01 P10, the determinant the negativity
    test reads, bit for bit; detP also matches det_P_closed_form."""
    rng = np.random.default_rng(26)
    for alpha, beta, mu1, mu2, c in rng.uniform(
            (-0.95, -2.0, 0.0, 0.0, 0.05), (0.95, 2.0, 0.1, 0.1, 2.0),
            size=(2000, 5)):
        gains = FeedbackGains(alpha, beta, mu1, mu2)
        kernel = MemoryKernel(tau1=1.0, tau2=2.0, c=c)
        cert = build_certificate(ref_params, gains, kernel)
        (p00, p01), (p10, p11) = cert.P
        (t00, t01), (t10, t11) = cert.T
        assert cert.detP == p00 * p11 - p01 * p10
        assert cert.detT == t00 * t11 - t01 * t10
        assert cert.detP == pytest.approx(det_P_closed_form(gains, kernel),
                                          rel=1e-12, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(gains=admissible_gains, kernel=kernels)
def test_P_negative_definite_iff_gain_condition(gains, kernel):
    _, ok = check_gain_condition(gains, kernel)
    if ok:
        assert is_negative_definite(assemble_P(gains, kernel))


@settings(max_examples=100, deadline=None)
@given(gains=admissible_gains, kernel=kernels)
def test_P_star_shares_det_and_trace(gains, kernel):
    cert = build_certificate(PhysicalParams(a=1.0, b=1.0, L=math.pi, p=1.0),
                             gains, kernel)
    P, Ps = cert.P, cert.P_star
    assert (P == assemble_P(gains, kernel)).all()
    assert Ps[0, 1] == Ps[1, 0] == gains.alpha * abs(gains.beta)
    assert np.trace(P) == pytest.approx(np.trace(Ps), rel=1e-14)
    assert np.linalg.det(P) == pytest.approx(np.linalg.det(Ps), rel=1e-10,
                                             abs=1e-14)


def test_T_at_zero_weights_is_P(ref_gains, ref_kernel, ref_params):
    bare = FeedbackGains(alpha=ref_gains.alpha, beta=ref_gains.beta,
                         mu1=0.0, mu2=0.0, delta=1.0)
    T = assemble_T(bare, ref_kernel, ref_params)
    P = assemble_P(bare, ref_kernel)
    assert (T == P).all()   # bitwise: no perturbation added


def test_mu_guaranteed_monotone_in_r(ref_params, ref_gains, ref_kernel):
    rm = r_max(ref_params)
    rs = np.linspace(0.0, rm, 12)
    mus = [mu_guaranteed(ref_params, ref_gains, ref_kernel, r) for r in rs]
    assert all(m1 >= m2 - 1e-15 for m1, m2 in zip(mus, mus[1:]))
    assert mus[-1] >= 0.0   # vanishing margin exactly at r = r_max


# ---------------------------------------------------------------------------
# precondition failures name the condition


def test_gain_violation_named(ref_kernel, ref_params):
    bad = FeedbackGains(alpha=0.9, beta=0.2)
    with pytest.raises(ConditionError, match="gain_condition"):
        mu_guaranteed(ref_params, bad, ref_kernel, r=0.1)


def test_length_violation_named(ref_gains, ref_kernel):
    long_domain = PhysicalParams(a=1.0, b=1.0, L=10.0, p=1.0)
    with pytest.raises(ConditionError, match="length"):
        r_max(long_domain)


def test_r_exceeds_r_max_named(ref_params, ref_gains, ref_kernel):
    with pytest.raises(ConditionError, match="exceeds r_max"):
        mu_guaranteed(ref_params, ref_gains, ref_kernel,
                      r=2.0 * r_max(ref_params))


def test_certificate_collects_failures(ref_kernel):
    params = PhysicalParams(a=1.0, b=1.0, L=10.0, p=1.0)
    gains = FeedbackGains(alpha=0.9, beta=0.2, mu1=0.01, mu2=0.01)
    cert = build_certificate(params, gains, ref_kernel)
    assert not cert.ok
    assert "gain_condition" in cert.failures
    assert "length_condition" in cert.failures


# the edge of the length condition: (a, b, L) with L < sqrt(3b/a)*pi but
# 3 pi^2 b - a L^2 <= 0, where the two forms of the test disagree
EDGE = dict(a=2.988560104211836, b=0.2200043197174797, L=1.476369643582072)


def test_certificate_at_the_length_edge_collects_the_failure(ref_gains,
                                                             ref_kernel):
    params = PhysicalParams(p=1.0, **EDGE)
    assert params.L < critical_length(params)
    cert = build_certificate(params, ref_gains, ref_kernel)
    assert not cert.length_ok
    assert "length_condition" in cert.failures
    assert math.isnan(cert.r_max) and math.isnan(cert.mu_guaranteed)
    with pytest.raises(ConditionError, match="length"):
        r_max(params)


def test_length_ok_exactly_when_r_max_returns(ref_gains, ref_kernel):
    """Seeded (a, b) in [0.1, 5]^2, with L one float below, at and one above
    sqrt(3b/a)*pi: the certificate never raises, and it passes the length
    test exactly when r_max returns a radius."""
    rng = np.random.default_rng(26)
    disagree = 0    # cases where the sqrt(3b/a)*pi form decides otherwise
    for a, b in rng.uniform(0.1, 5.0, size=(700, 2)):
        Lc = math.sqrt(3.0 * b / a) * math.pi
        for L in (np.nextafter(Lc, 0.0), Lc, np.nextafter(Lc, np.inf)):
            params = PhysicalParams(a=float(a), b=float(b), L=float(L), p=1.0)
            cert = build_certificate(params, ref_gains, ref_kernel)
            try:
                r_max(params)
                returned = True
            except ConditionError:
                returned = False
            assert cert.length_ok == returned, (a, b, L)
            assert ("length_condition" in cert.failures) == (not returned)
            disagree += cert.length_ok != (params.L < Lc)
    assert disagree > 0     # the sample reaches the edge


# ---------------------------------------------------------------------------
# kernel integrals


def test_constant_kernel_moments():
    k = MemoryKernel(tau1=1.0, tau2=2.0, form="constant", c=1.0)
    assert k.lambda_integral == pytest.approx(1.0, rel=1e-14)


def test_exponential_kernel_moments():
    k = MemoryKernel(tau1=1.0, tau2=2.0, form="exponential", c=1.0, sigma=1.0)
    exact = math.exp(-1.0) - math.exp(-2.0)
    assert k.lambda_integral == pytest.approx(exact, rel=1e-14)


def test_tabulated_kernel_matches_constant():
    k = MemoryKernel(tau1=1.0, tau2=2.0, form="tabulated",
                     samples=((0.5, 1.0), (1.5, 1.0), (2.5, 1.0)))
    assert k.lambda_integral == pytest.approx(1.0, rel=1e-9)
    assert float(k(1.7)) == pytest.approx(1.0)


def test_tabulated_kernel_integrals_are_exact():
    """The interpolant's integral in closed form: a ramp lam(s) = s + 0.5 and
    a tent through (1.5, 2), both held at their end values beyond (1, 2)."""
    ramp = MemoryKernel(tau1=1.0, tau2=2.0, form="tabulated",
                        samples=((0.5, 1.0), (2.5, 3.0)))
    assert ramp.lambda_integral == 2.0
    tent = MemoryKernel(tau1=1.0, tau2=2.0, form="tabulated",
                        samples=((0.5, 1.0), (1.5, 2.0), (2.5, 1.0)))
    assert tent.lambda_integral == 1.75


def test_tabulated_kernel_integral_matches_quadrature_oracle():
    """Seeded tabulated kernels against scipy's adaptive `quad` with a break
    point at each sample inside (tau1, tau2): their tables start past tau1
    or exactly on it, end past tau2 or exactly on it, and hold up to five
    samples inside."""
    from scipy.integrate import quad

    rng = np.random.default_rng(27)
    worst = 0.0
    for i in range(1200):
        t1 = rng.uniform(0.1, 1.5)
        t2 = t1 + rng.uniform(0.2, 2.0)
        inner = np.sort(rng.uniform(t1, t2, size=rng.integers(0, 6)))
        left = [t1] if i % 2 else t1 - np.sort(rng.uniform(0.01, 0.5, 2))[::-1]
        right = [t2] if i // 2 % 2 else t2 + np.sort(rng.uniform(0.01, 0.5, 2))
        s = np.concatenate([left, inner, right])
        k = MemoryKernel(tau1=t1, tau2=t2, form="tabulated", samples=tuple(
            zip(s.tolist(), rng.uniform(0.05, 3.0, len(s)).tolist())))
        exact, _ = quad(lambda x: float(k(x)), t1, t2, points=inner.tolist(),
                        epsabs=1e-10, epsrel=1e-10, limit=200)
        worst = max(worst, abs(k.lambda_integral - exact) / exact)
    assert worst <= 1e-14


def test_vanishing_kernel_integral_is_a_condition_error():
    """exp(-1000 s) on (1, 2) integrates to 0.0 in floating point: the kernel
    is rejected where its integral is computed, before any P is formed."""
    with pytest.raises(ConditionError, match="kernel integral vanishes"):
        MemoryKernel(tau1=1.0, tau2=2.0, form="exponential", c=1.0,
                     sigma=1000.0)


def test_kernel_validation():
    with pytest.raises(ValueError):
        MemoryKernel(tau1=2.0, tau2=1.0)
    with pytest.raises(ValueError):
        MemoryKernel(tau1=1.0, tau2=2.0, c=-1.0)
    with pytest.raises(ValueError):
        MemoryKernel(tau1=1.0, tau2=2.0, form="tabulated",
                     samples=((1.0, 1.0), (0.5, 2.0)))


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(a=-1.0, b=1.0, L=1.0, p=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(a=1.0, b=1.0, L=1.0, p=3.0)
    with pytest.raises(ValueError):
        FeedbackGains(alpha=0.0, beta=0.25)
