"""Workload pairs generated from matrix units, with exact rationals.

Each generated Lie algebra is spanned by explicit matrices.  Its
structure constants are the coordinates of the matrix commutators in
that spanning set, found by exact elimination over `Fraction`, so the
JSON written for a pair is a pure function of its definition.
"""

from fractions import Fraction
import json


def unit(n, i, j):
    """The n x n matrix unit E_ij."""
    return tuple(tuple(Fraction(int(a == i and b == j)) for b in range(n))
                 for a in range(n))


def mat_add(*terms):
    """Sum of (coefficient, matrix) terms."""
    n = len(terms[0][1])
    return tuple(tuple(sum((c * m[a][b] for c, m in terms), Fraction(0))
                       for b in range(n)) for a in range(n))


def commutator(x, y):
    n = len(x)
    return tuple(tuple(sum((x[a][k] * y[k][b] - y[a][k] * x[k][b]
                            for k in range(n)), Fraction(0))
                       for b in range(n)) for a in range(n))


def flat(m):
    return [v for row in m for v in row]


def coordinates(basis, target):
    """Coefficients c with sum_k c_k basis[k] == target, exactly; raises
    ValueError when target is not in the span."""
    cols = [flat(b) for b in basis]
    t = flat(target)
    nrows, ncols = len(t), len(cols)
    rows = [[cols[k][i] for k in range(ncols)] + [t[i]]
            for i in range(nrows)]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if rows[i][col] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    if len(pivots) != ncols:
        raise ValueError("spanning matrices are linearly dependent")
    if any(rows[i][-1] != 0 for i in range(rank, nrows)):
        raise ValueError("commutator leaves the span")
    out = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        out[col] = rows[i][-1]
    return out


def structure_constants(basis):
    """{(i, j): {k: Fraction}} for i < j, nonzero entries only."""
    out = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = coordinates(basis, commutator(basis[i], basis[j]))
            entry = {k: v for k, v in enumerate(c) if v != 0}
            if entry:
                out[(i, j)] = entry
    return out


def heis5_matrices():
    """The 5-dimensional Heisenberg algebra inside 4 x 4 matrices:
    x_i = E_{0,i}, y_i = E_{i,3}, z = E_{0,3}, so [x_i, y_i] = z."""
    return (["x1", "x2", "y1", "y2", "z"],
            [unit(4, 0, 1), unit(4, 0, 2), unit(4, 1, 3), unit(4, 2, 3),
             unit(4, 0, 3)])


def sl3_matrices():
    """sl3 in its defining representation: the Borel part (Cartan and
    raising units) first, then the lowering units."""
    e = lambda i, j: unit(3, i, j)
    h1 = mat_add((Fraction(1), e(0, 0)), (Fraction(-1), e(1, 1)))
    h2 = mat_add((Fraction(1), e(1, 1)), (Fraction(-1), e(2, 2)))
    return (["h1", "h2", "e12", "e23", "e13", "f21", "f32", "f31"],
            [h1, h2, e(0, 1), e(1, 2), e(0, 2), e(1, 0), e(2, 1),
             e(2, 0)])


def pair_spec(name, labels, matrices, a_indices):
    brackets = [{"i": i, "j": j,
                 "coeffs": {str(k): str(v) for k, v in sorted(c.items())}}
                for (i, j), c in sorted(structure_constants(matrices)
                                        .items())]
    return {"name": name, "dimL": len(labels), "basis": labels,
            "aIndices": list(a_indices), "brackets": brackets}


def heis5_lag():
    """Heisenberg h5 with the Lagrangian subalgebra A = <x1, x2>."""
    labels, mats = heis5_matrices()
    return pair_spec("heis5_lag", labels, mats, [0, 1])


def sl3_borel():
    """sl3 with A its Borel subalgebra: dim 8, m = 5, r = 3."""
    labels, mats = sl3_matrices()
    return pair_spec("sl3_borel", labels, mats, [0, 1, 2, 3, 4])


GENERATED = {"heis5_lag": heis5_lag, "sl3_borel": sl3_borel}


def spec_bytes(spec):
    return (json.dumps(spec, indent=2) + "\n").encode()
