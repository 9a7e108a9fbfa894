"""The naive three-term enumerator, kept with the tests as an independent
reference for the oracle: it shares no code with the package.
"""

from math import gcd as _math_gcd


def enumerate_three_term_naive(a: int, n: int, distinct_only: bool = True) -> list[tuple[int, int, int]]:
    """Independent cross-check: double loop over x and y with exact residual
    checks.  Quadratic, only meant for small n.

    All intermediates stay far below the working width for the n this is
    used on, so plain integer arithmetic is safe here.
    """
    if a < 1 or n < 1:
        raise ValueError(f"a and n must be positive, got ({a}, {n})")
    out = []
    for x in range(n // a + 1, 3 * n // a + 1):
        rnum = a * x - n
        rden = n * x
        g = _math_gcd(rnum, rden)
        p, q = rnum // g, rden // g
        ystart = max(x + (1 if distinct_only else 0), q // p + 1)
        for y in range(ystart, 2 * q // p + 1):
            znum = p * y - q
            zden = q * y
            if zden % znum:
                continue
            z = zden // znum
            if distinct_only and z == y:
                continue
            out.append((x, y, z))
    return out
