"""Common Perron-Frobenius data of the coordinate matrices.

The coordinate matrices of a strongly connected finite rank-k graph
commute and share a unique positive l1-normalized eigenvector; the
per-color spectral radii form the vector rho.  Power iteration runs on
I + product of the coordinate matrices, which is primitive whenever the
graph is strongly connected, so periodic skeletons converge too.

The matrices are a few vertices wide, so the iteration runs on plain
floats.  Every float dot product and total is summed left to right from
0.0 in an explicit loop: the built-in ``sum`` compensates float sums
since Python 3.12, which would tie the reported bits to the version.

The iteration only proposes integer radii.  A proposal that passes the
Collatz-Wielandt bound of the iterate is certified by the exact integer
kernel of the stacked A_i - rho_i I, and a certified graph reports that
kernel's positive vector as x, exactly rounded.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NoConvergence, NotStronglyConnected
from .intlattice import kernel_basis, prime_exponents
from .kgraph import KGraph

RESIDUAL_TOL = 1e-12
TOL = 1e-9
MAX_ITER = 100_000


class PerronData(NamedTuple):
    """Spectral data: per-color radii, the common eigenvector, the power
    iteration's residuals and iteration count, and the integer radii
    when certified, in which case rho and x are the exact data."""

    rho: tuple[float, ...]
    x: tuple[float, ...]
    residuals: tuple[float, ...]
    iterations: int
    rho_int: tuple[int, ...] | None

    def rho_power(self, degree) -> float:
        out = 1.0
        for base, exp in zip(self.rho, degree):
            out *= base ** exp
        return out


def _total(values) -> float:
    out = 0.0
    for value in values:
        out += value
    return out


def _mat_vec(mat, x) -> list[float]:
    return [_total(a * b for a, b in zip(row, x)) for row in mat]


def spectral_data(graph: KGraph) -> PerronData:
    """Power iteration for the common eigenvector and the radii vector."""
    if not graph.strongly_connected():
        raise NotStronglyConnected("spectral data needs a strongly connected graph")
    n = graph.num_vertices
    mats = [graph.coordinate_matrix(color) for color in range(graph.k)]
    product = [[int(i == j) for j in range(n)] for i in range(n)]
    for mat in mats:
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mat)]
                   for row in product]
    shifted = [[a + (i == j) for j, a in enumerate(row)]
               for i, row in enumerate(product)]
    x = [1.0 / n] * n
    iterations = 0
    residuals = None
    for iterations in range(1, MAX_ITER + 1):
        x = _mat_vec(shifted, x)
        total = _total(x)
        x = [v / total for v in x]
        images = [_mat_vec(mat, x) for mat in mats]
        rho = tuple(_total(image) for image in images)
        residuals = tuple(_total(abs(a - r * b) for a, b in zip(image, x))
                          for image, r in zip(images, rho))
        if max(residuals) < RESIDUAL_TOL:
            break
    else:
        raise NoConvergence(
            f"residual {max(residuals):.3e} after {MAX_ITER} iterations")
    ints, v = _integer_certificate(mats, rho, x)
    if ints is not None:
        total = sum(v)
        rho, x = tuple(map(float, ints)), [a / total for a in v]
    return PerronData(rho, tuple(x), residuals, iterations, ints)


def _integer_certificate(mats, rho, x):
    """Round rho to integers and take the integer kernel of the stacked
    A_i - rho_i I.  A nonnegative matrix's only eigenvalue with a
    positive eigenvector is its spectral radius, so a kernel spanned by
    a positive v certifies the rounded radii.  Returns (radii, v), or
    (None, None) when the kernel is not such a line.

    The kernel is taken only for radii within the Collatz-Wielandt
    bounds min (Ax)_j / x_j <= rho(A) <= max (Ax)_j / x_j of the
    positive iterate x, compared exactly in integers over the floats'
    common power-of-two denominator."""
    ints = tuple(round(r) for r in rho)
    ratios = [v.as_integer_ratio() for v in x]
    scale = max(den for _, den in ratios)
    exact = [num * (scale // den) for num, den in ratios]
    for mat, r in zip(mats, ints):
        gaps = [r * v - sum(a * b for a, b in zip(row, exact))
                for row, v in zip(mat, exact)]
        if min(gaps) > 0 or max(gaps) < 0:
            return None, None
    stacked = [[a - r * (i == j) for j, a in enumerate(row)]
               for mat, r in zip(mats, ints) for i, row in enumerate(mat)]
    basis = kernel_basis(stacked, len(mats[0]))
    return (ints, basis[0]) if len(basis) == 1 and min(basis[0]) > 0 \
        else (None, None)


def pf_state_value(data: PerronData, mu) -> float:
    """The diagonal state value rho**(-d(mu)) * x(s(mu))."""
    return data.x[mu.source] / data.rho_power(mu.degree)


def check_g_invariance(data: PerronData, system) -> bool:
    """Whether the eigenvector is constant on generator vertex orbits;
    equilibrium states exist exactly when it is."""
    for gen in system.generators:
        g = system.generator_element(gen.name)
        for v in range(system.graph.num_vertices):
            if abs(data.x[system.act_vertex(g, v)] - data.x[v]) >= TOL:
                return False
    return True


def rho_kernel_lattice(data: PerronData):
    """Hermite basis of the kernel K = {z : rho ** z == 1}: the kernel
    of the matrix of the certified radii's prime exponents, exactly.
    Raises ValueError when the radii have no integer certificate."""
    if data.rho_int is None:
        raise ValueError("the kernel of rho needs integer-certified radii")
    factors = [prime_exponents(r) for r in data.rho_int]
    primes = sorted({p for f in factors for p in f})
    return kernel_basis([[f.get(p, 0) for f in factors] for p in primes],
                        len(data.rho_int))


def rho_power_is_one(data: PerronData, z) -> bool:
    if data.rho_int is not None:
        pairs = tuple(zip(data.rho_int, z))
        return math.prod(b ** e for b, e in pairs if e > 0) \
            == math.prod(b ** -e for b, e in pairs if e < 0)
    log_sum = _total(exp * math.log(base) for base, exp in zip(data.rho, z))
    return abs(log_sum) < TOL
