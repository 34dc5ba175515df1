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
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import NoConvergence, NotStronglyConnected
from .intlattice import kernel_basis, prime_exponents
from .kgraph import KGraph

INTEGER_TOL = 1e-9
RESIDUAL_TOL = 1e-12
MAX_ITER = 100_000


class PerronData(NamedTuple):
    """Spectral data: per-color radii, the common eigenvector, the
    residuals achieved, and an exact integer certificate when available."""

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
    return PerronData(rho, tuple(x), residuals, iterations,
                      _integer_certificate(mats, rho, x))


def _integer_certificate(mats, rho, x):
    """Round rho to integers and certify by an exact rational
    eigenvector check; None unless every color certifies."""
    ints = tuple(round(r) for r in rho)
    if any(abs(r - r_int) >= INTEGER_TOL for r, r_int in zip(rho, ints)):
        return None
    rational = [Fraction(v / max(x)).limit_denominator(10 ** 9) for v in x]
    for mat, r_int in zip(mats, ints):
        for row, value in zip(mat, rational):
            if sum(a * b for a, b in zip(row, rational)) != r_int * value:
                return None
    return ints


def pf_state_value(data: PerronData, mu) -> float:
    """The diagonal state value rho**(-d(mu)) * x(s(mu))."""
    return data.x[mu.source] / data.rho_power(mu.degree)


def check_g_invariance(data: PerronData, system, tol: float = 1e-9) -> bool:
    """Whether the eigenvector is constant on generator vertex orbits;
    equilibrium states exist exactly when it is."""
    for gen in system.generators:
        g = system.generator_element(gen.name)
        for v in range(system.graph.num_vertices):
            if abs(data.x[system.act_vertex(g, v)] - data.x[v]) >= tol:
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


def rho_power_is_one(data: PerronData, z, tol: float = 1e-9) -> bool:
    if data.rho_int is not None:
        value = Fraction(1)
        for base, exp in zip(data.rho_int, z):
            value *= Fraction(base) ** exp
        return value == 1
    log_sum = _total(exp * math.log(base) for base, exp in zip(data.rho, z))
    return abs(log_sum) < tol
