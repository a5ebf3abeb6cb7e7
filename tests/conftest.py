"""Shared fixtures: the reference configuration in object and JSON form, and
the dense operator assembly that the band assembly must reproduce."""

import json
import math

import numpy as np
import pytest

from kawalab.discretization import (_GL1, _GL2, _D1, _D3, _D5, _GR1_F, _GR1_W,
                                    _GR2_F, _GR2_W)
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


def dense_operator_oracle(params, grid):
    """(A, g_F) assembled as dense N x N rows, one extended row per stencil
    entry: the assembly that `build_operator` replaced, kept as its oracle.

    Every extended value u_{-2}..u_{N+3} is a row of weights over the
    interior values plus a coefficient of F; row j of A sums scale * c times
    the rows its stencil reads.
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
    for idx, coeffs in ((-1, _GL1), (-2, _GL2)):
        row = np.zeros(N)
        row[0:5] = coeffs
        ext_w[idx], ext_f[idx] = row, 0.0
    for idx, (w, fc) in ((N + 2, (_GR1_W, _GR1_F)), (N + 3, (_GR2_W, _GR2_F))):
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
