"""Finite-difference representation of a*d_x + b*d_x^3 - d_x^5 on (0, L).

Uniform grid with N interior nodes, homogeneous conditions u = u_x = 0 at
both ends and the actuated condition u_xx(L) = F(t).  Interior rows use
second-order centered stencils (3-point d_x, 5-point d_x^3, 7-point d_x^5).
Near-boundary rows are closed by ghost elimination: ghost values come from
constrained polynomial fits (degree 6, double root at the boundary from
u = u_x = 0, plus the u_xx(L) = F datum on the right), which keeps the
closure error O(h^2) even in the d_x^5 rows.  The F-dependence of the right
ghosts produces the forcing vector g_F, so the semi-discrete operator is
u -> A u + g_F * F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams

BANDWIDTH = 4   # A[i, j] = 0 for |i - j| > BANDWIDTH

# centered interior stencils, second order
_D1 = np.array([-0.5, 0.0, 0.5])                                   # / h
_D3 = np.array([-0.5, 1.0, 0.0, -1.0, 0.5])                        # / h^3
_D5 = np.array([-0.5, 2.0, -2.5, 0.0, 2.5, -2.0, 0.5])             # / h^5


@dataclass(frozen=True)
class Grid:
    """N interior nodes x_j = j*h, j = 1..N, with h = L/(N+1)."""

    N: int
    L: float

    def __post_init__(self):
        if self.N < 12:
            raise ValueError("need N >= 12 for the stencil closure")

    @property
    def h(self) -> float:
        return self.L / (self.N + 1)

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(1, self.N + 1)


def _fit_matrix(powers, nodes) -> np.ndarray:
    """Inverse of the Vandermonde-like system sum_k d_k node^k = value."""
    V = np.array([[float(n) ** k for k in powers] for n in nodes])
    return np.linalg.inv(V)


# Left closure: fit p(x) = sum_{k=2..6} c_k x^k through u_1..u_5 (exact for
# degree-6 polynomials with p(0) = p'(0) = 0); ghosts at xi = -1, -2 in units
# of h.  Coefficients are h-independent.
_VL_INV = _fit_matrix(range(2, 7), range(1, 6))
_GL1 = np.array([(-1.0) ** k for k in range(2, 7)]) @ _VL_INV
_GL2 = np.array([(-2.0) ** k for k in range(2, 7)]) @ _VL_INV
# u_xx(0) = 2 c_2 / h^2 from the same fit
_TRACE0 = 2.0 * _VL_INV[0]

# Right closure about x = L (local coordinate y = x - L): q(y) = F y^2 / 2 +
# sum_{k=3..6} d_k y^k matched at y = -h..-4h, i.e. at u_N..u_{N-3}.
_VR_INV = _fit_matrix(range(3, 7), [-1.0, -2.0, -3.0, -4.0])
_I2_HALF = 0.5 * np.array([1.0, 4.0, 9.0, 16.0])  # i^2/2 at the match nodes


def _right_ghost(xi: float):
    """Ghost at y = xi*h: (weights on u_N..u_{N-3}, coefficient of F*h^2)."""
    e = np.array([xi ** k for k in range(3, 7)])
    w = e @ _VR_INV
    fcoef = 0.5 * xi * xi - w @ _I2_HALF
    return w, fcoef


_GR1_W, _GR1_F = _right_ghost(1.0)   # u_{N+2}
_GR2_W, _GR2_F = _right_ghost(2.0)   # u_{N+3}

# u_xx(L) from u = u_x = 0 at L only (no use of the F datum): same fit family
# as the left trace, applied to u_N, u_{N-1}, ... with even symmetry.
_TRACEL = _TRACE0


@dataclass(frozen=True)
class SpatialOperator:
    """Discrete a*d_x + b*d_x^3 - d_x^5 with its boundary machinery.

    A u + g_F * F approximates the operator applied to the grid function that
    interpolates u with the stated boundary conditions.  A is stored as its
    diagonals in scipy's solve_banded layout, bands[BANDWIDTH + i - j, j].
    """

    grid: Grid
    bands: np.ndarray          # (2*BANDWIDTH+1, N) diagonals of A
    g_F: np.ndarray            # boundary forcing vector (support near x = L)
    trace0_vec: np.ndarray     # row functional for u_xx(0)
    traceL_vec: np.ndarray     # row functional for u_xx(L) (diagnostic)

    def dense(self) -> np.ndarray:
        """A as an N x N array."""
        N = self.bands.shape[1]
        return self.block(0, N, 0, N)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """A[r0:r1, c0:c1] as a dense array, the same entries as `dense()`."""
        B = np.zeros((r1 - r0, c1 - c0))
        for d in range(-BANDWIDTH, BANDWIDTH + 1):      # d = i - j
            j = np.arange(max(c0, r0 - d), min(c1, r1 - d))
            B[j + d - r0, j - c0] = self.bands[BANDWIDTH + d, j]
        return B

    def trace_uxx0(self, u: np.ndarray) -> float:
        return float(self.trace0_vec @ u)

    def trace_uxxL(self, u: np.ndarray) -> float:
        return float(self.traceL_vec @ u)


def build_operator(params: PhysicalParams, grid: Grid) -> SpatialOperator:
    N, h = grid.N, grid.h
    bands = np.zeros((2 * BANDWIDTH + 1, N))
    g_F = np.zeros(N)
    # ghost index -> (interior columns, weights, coefficient of F)
    left, right = np.arange(5), N - 1 - np.arange(4)    # u_N, u_{N-1}, ...
    ghosts = {-1: (left, _GL1, 0.0), -2: (left, _GL2, 0.0),
              N + 2: (right, _GR1_W, _GR1_F * h * h),
              N + 3: (right, _GR2_W, _GR2_F * h * h)}

    # Row i of stencil offset o reads u_{i+1+o}: an interior value adds
    # scale*c on diagonal -o, a ghost adds its weights and F-coefficient.
    # Every entry sums its terms in stencil -> offset order.
    for stencil, scale in ((_D1, params.a / h), (_D3, params.b / h ** 3),
                           (-_D5, 1.0 / h ** 5)):
        half = len(stencil) // 2
        for o, c in zip(range(-half, half + 1), stencil):
            if c == 0.0:
                continue
            sc = scale * c
            bands[BANDWIDTH - o, max(0, o):min(N, N + o)] += sc
            for k, (cols, w, f) in ghosts.items():
                i = k - 1 - o                       # the row that reads u_k
                if 0 <= i < N:
                    bands[BANDWIDTH + i - cols, cols] += sc * w
                    g_F[i] += sc * f
    # the operator is a*d_x + b*d_x^3 - d_x^5, hence the -_D5 above

    trace0 = np.zeros(N)
    trace0[0:5] = _TRACE0 / h ** 2
    traceL = np.zeros(N)
    traceL[N - 1:N - 6:-1] = _TRACEL / h ** 2

    return SpatialOperator(grid=grid, bands=bands, g_F=g_F, trace0_vec=trace0,
                           traceL_vec=traceL)


def weighted_mass(u: np.ndarray, grid: Grid) -> float:
    """Composite-trapezoid int x u^2 dx with zero boundary values."""
    return float(grid.h * (grid.x * np.asarray(u) ** 2).sum())
