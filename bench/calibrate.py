"""A fixed reference computation that measures how fast the machine runs now."""

from fractions import Fraction


def _matrix(n, a, b, m):
    return [[((i * a + j * b + i * j) % m) - m // 2 for j in range(n)] for i in range(n)]


INT_M = _matrix(9, 7, 3, 11)
FRAC_M = _matrix(5, 5, 2, 7)


def bareiss_det(rows):
    a = [r[:] for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def frac_rank(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    n, m = len(a), len(a[0])
    rank = 0
    for c in range(m):
        p = next((i for i in range(rank, n) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        piv = a[rank][c]
        a[rank] = [x / piv for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


POLY = {e: (e * 5) % 7 - 3 for e in range(-6, 7) if (e * 5) % 7 != 3}


def unit():
    """One unit of reference work (about a millisecond)."""
    d = bareiss_det(INT_M)
    r = frac_rank(FRAC_M)
    p = poly_mul(POLY, POLY)
    p = poly_mul(p, POLY)
    return d, r, len(p)
