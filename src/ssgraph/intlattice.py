"""Exact integer lattice arithmetic: Hermite bases and membership.

Lattices live in Z^k and are stored as rows of a Hermite normal form
matrix: row echelon, positive pivots, entries above each pivot reduced
into [0, pivot).  The form is unique per lattice, so equality of
lattices is equality of bases.
"""
from __future__ import annotations

Vector = tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Returns (g, x, y) with g = gcd(a, b) > 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _pivot(row) -> int | None:
    return next((i for i, x in enumerate(row) if x), None)


def hnf_basis(vectors, k: int) -> tuple[Vector, ...]:
    """Hermite basis of the subgroup of Z^k generated by ``vectors``.

    The rows are reduced above their pivots after every vector, not
    only at the end: unreduced, the entries of an n-by-n kernel's
    transform grow exponentially in n while the vectors go in."""
    rows: list[list[int]] = []  # echelon form, pivots strictly increasing
    for vec in vectors:
        row = list(vec)
        idx = 0
        while True:
            col = _pivot(row)
            if col is None:
                break
            if idx == len(rows) or col < _pivot(rows[idx]):
                if row[col] < 0:
                    row = [-x for x in row]
                rows.insert(idx, row)
                break
            stored_col = _pivot(rows[idx])
            if col == stored_col:
                a, b = rows[idx][col], row[col]
                g, x, y = _xgcd(a, b)
                combined = [x * s + y * r for s, r in zip(rows[idx], row)]
                row = [(a // g) * r - (b // g) * s
                       for s, r in zip(rows[idx], row)]
                rows[idx] = combined
            idx += 1
        for i in range(len(rows)):
            col = _pivot(rows[i])
            for above in range(i):
                q = rows[above][col] // rows[i][col]
                if q:
                    for j in range(k):
                        rows[above][j] -= q * rows[i][j]
    return tuple(tuple(row) for row in rows)


def kernel_basis(matrix, k: int) -> tuple[Vector, ...]:
    """Hermite basis of {z in Z^k : matrix z = 0}, exactly.

    The rows (A e_j | e_j) span {(A z | z)}.  In Hermite form, a vector
    of that lattice with zero A part combines only rows whose pivot
    lies in the identity part, and those are the rows whose A part
    vanishes; their identity parts are a basis of the kernel.
    """
    width = len(matrix)
    rows = [tuple(row[j] for row in matrix)
            + tuple(int(i == j) for i in range(k)) for j in range(k)]
    return hnf_basis((row[width:] for row in hnf_basis(rows, width + k)
                      if not any(row[:width])), k)


def prime_exponents(m: int) -> dict[int, int]:
    """The prime factorisation of a positive integer, prime -> exponent."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def lattice_coordinates(basis, z: Vector):
    """Integer coefficients expressing ``z`` over a Hermite basis, or
    None when ``z`` is outside the lattice."""
    rest = list(z)
    coords = []
    for row in basis:
        col = _pivot(row)
        if col is None:
            continue
        q, r = divmod(rest[col], row[col])
        if r:
            return None
        coords.append(q)
        for i in range(len(rest)):
            rest[i] -= q * row[i]
    if any(rest):
        return None
    return tuple(coords)


def lattice_contains(basis, z: Vector) -> bool:
    return lattice_coordinates(basis, z) is not None


def lattice_residue(basis, z: Vector) -> Vector:
    """The canonical representative of ``z`` modulo a Hermite basis:
    each row, in pivot order, reduces its pivot coordinate into
    [0, pivot).  Two vectors differ by a lattice vector exactly when
    their residues are equal, and the lattice's residue is 0."""
    rest = list(z)
    for row in basis:
        col = _pivot(row)
        q = rest[col] // row[col]
        if q:
            rest = [r - q * x for r, x in zip(rest, row)]
    return tuple(rest)
