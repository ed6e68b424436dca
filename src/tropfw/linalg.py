"""Tiny exact linear algebra over Fraction: row reduction and rank.

The library itself needs no linear algebra: cell dimensions come from the
covector graph.  The tests use this module as an independent oracle.
"""

from fractions import Fraction


def _eliminate(matrix):
    """Row-reduce in place; returns list of pivot column indices."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(matrix)) if matrix[i][c] != 0), None)
        if pr is None:
            continue
        matrix[r], matrix[pr] = matrix[pr], matrix[r]
        inv = 1 / matrix[r][c]
        matrix[r] = [v * inv for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == len(matrix):
            break
    return pivots


def rank(rows) -> int:
    """Rank of a list of coefficient rows."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    return len(_eliminate(matrix))
