"""Spatial operator: stencil exactness, consistency order, traces, structure."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_d1, dense_operator_oracle, reference_sim_config
from kawalab.discretization import (_D5, BANDWIDTH, Grid, build_operator,
                                    mass_and_weighted_mass)
from kawalab.model import PhysicalParams
from kawalab.solver import Stepper


def _exact_operator(params, v, v1, v3, v5, x):
    return params.a * v1(x) + params.b * v3(x) - v5(x)


def test_d5_stencil_exact_on_x5():
    """Centered 7-point fifth derivative of x^5 is 120, exactly, at h = 1."""
    x = np.arange(0.0, 40.0)
    u = x ** 5
    for j in range(3, len(x) - 3):
        val = float(_D5 @ u[j - 3:j + 4])   # h = 1
        assert val == 120.0


def test_interior_rows_exact_on_x5():
    """Operator rows with full interior stencils reproduce 120 on x^5, h = 1."""
    N = 40
    params = PhysicalParams(a=1.0, b=1.0, L=float(N + 1), p=1.0)
    grid = Grid(N, float(N + 1))
    assert grid.h == 1.0
    op = build_operator(params, grid)
    x = grid.x
    u = x ** 5
    # a u' + b u''' - u''''' with centered stencils at h = 1: the d5 part is
    # exact (120); d1 and d3 carry their usual truncation error, so compare
    # the d5 content alone by cancelling the lower-order parts of two builds.
    params0 = PhysicalParams(a=1e-30, b=1e-30, L=float(N + 1), p=1.0)
    op0 = build_operator(params0, grid)
    vals = -(op0.dense() @ u)   # pure +d5 content
    for j in range(6, N - 6):
        assert vals[j] == pytest.approx(120.0, abs=1e-9)


def test_operator_consistency_order():
    """Infinity-norm consistency on a BC-compatible smooth function is O(h^2)."""
    params = PhysicalParams(a=1.0, b=1.0, L=math.pi, p=1.0)
    L = params.L

    def v(x):
        return x ** 2 * (L - x) ** 2 * np.sin(np.pi * x / L)

    import sympy as sp
    xs = sp.symbols("x")
    expr = xs ** 2 * (L - xs) ** 2 * sp.sin(sp.pi * xs / L)
    d = {k: sp.lambdify(xs, sp.diff(expr, xs, k), "numpy") for k in (1, 3, 5)}
    errs = []
    for N in (64, 128, 256):
        grid = Grid(N, L)
        op = build_operator(params, grid)
        x = grid.x
        approx = op.dense() @ v(x)   # v''(L) = 0 for this profile
        exact = params.a * d[1](x) + params.b * d[3](x) - d[5](x)
        errs.append(np.abs(approx - exact).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for o in orders:
        assert 1.8 <= o <= 2.2, (errs, orders)


def test_trace_exact_on_double_root_quartic():
    """u = c x^2 (x - L)^2 has u_xx(0) = 2 c L^2; the 5-point trace is exact."""
    params = PhysicalParams(a=1.0, b=1.0, L=3.0, p=1.0)
    grid = Grid(50, 3.0)
    op = build_operator(params, grid)
    c = 0.7
    u = c * grid.x ** 2 * (grid.x - 3.0) ** 2
    assert op.trace_uxx0(u) == pytest.approx(2.0 * c * 9.0, rel=1e-10)
    assert op.trace_uxxL(u) == pytest.approx(2.0 * c * 9.0, rel=1e-10)


def test_trace_order_on_smooth_function():
    params = PhysicalParams(a=1.0, b=1.0, L=math.pi, p=1.0)
    L = params.L
    v = lambda x: x ** 2 * (L - x) ** 2 * np.sin(0.5 + x)
    exact0 = 2.0 * L * L * math.sin(0.5)
    errs = []
    for N in (64, 128, 256):
        grid = Grid(N, L)
        op = build_operator(params, grid)
        errs.append(abs(op.trace_uxx0(v(grid.x)) - exact0))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert o >= 1.8, (errs, orders)


def test_bandwidth_and_structure():
    params = PhysicalParams(a=1.0, b=1.0, L=2.0, p=1.0)
    op = build_operator(params, Grid(40, 2.0))
    N = 40
    assert op.bands.shape == (2 * BANDWIDTH + 1, N)
    A = op.dense()
    for i in range(N):
        for j in range(N):
            if abs(i - j) > 4:
                assert A[i, j] == 0.0
            else:
                assert A[i, j] == op.bands[BANDWIDTH + i - j, j]
    # forcing acts only near x = L, traces only near their boundary
    assert np.all(op.g_F[:N - 5] == 0.0)
    assert np.all(op.trace0_vec[5:] == 0.0)
    assert np.all(op.traceL_vec[:N - 5] == 0.0)


@pytest.mark.parametrize("N", [12, 13, 40, 128, 512, 2048])
@pytest.mark.parametrize("a, b, L", [(1.0, 1.0, math.pi), (0.7, 1.3, 2.0),
                                     (1.0, 1.0, 3.7)])
def test_band_assembly_matches_dense_oracle_bitwise(a, b, L, N):
    """A and g_F equal the dense-row assembly bit for bit, signed zeros too."""
    params = PhysicalParams(a=a, b=b, L=L, p=1.0)
    grid = Grid(N, L)
    op = build_operator(params, grid)
    A, g_F = dense_operator_oracle(params, grid)
    assert (op.dense().view(np.int64) == A.view(np.int64)).all()
    assert (op.g_F.view(np.int64) == g_F.view(np.int64)).all()


def test_build_operator_allocates_no_dense_matrix():
    N = 2048
    params = PhysicalParams(a=1.0, b=1.0, L=math.pi, p=1.0)
    tracemalloc.start()
    try:
        build_operator(params, Grid(N, math.pi))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N * N * 8 / 100


def test_d1_antisymmetric():
    """The solver's centered difference, applied to the unit vectors."""
    st = Stepper(reference_sim_config(N=30, T_end=0.0))
    D1 = np.column_stack([st._apply_d1(e) for e in np.eye(30)])
    assert (D1 == -D1.T).all()
    assert (D1 == dense_d1(30, st.grid.h)).all()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), F=st.floats(-5.0, 5.0))
def test_apply_is_affine_in_u_and_F(seed, F):
    params = PhysicalParams(a=1.0, b=1.0, L=2.0, p=1.0)
    op = build_operator(params, Grid(24, 2.0))
    rng = np.random.default_rng(seed)
    u1, u2 = rng.standard_normal(24), rng.standard_normal(24)
    A = op.dense()
    lhs = A @ (u1 + u2) + op.g_F * F
    rhs = A @ u1 + op.g_F * F + A @ u2
    scale = np.abs(lhs).max() + 1.0
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_mass_oracles():
    grid = Grid(200, math.pi)
    u = np.sin(grid.x)
    l2, xw = mass_and_weighted_mass(u, grid)
    # trapezoid on sin^2 over a full half-period grid is exact
    assert l2 == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert xw == pytest.approx(math.pi ** 2 / 4.0, rel=1e-3)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(8, 1.0)
    g = Grid(12, 1.3)
    assert g.h == pytest.approx(0.1)
    assert len(g.x) == 12
