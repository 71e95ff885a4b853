"""Modified Bessel functions by their power series, the tests' independent
oracle for the closed forms on the unit disk (H_0 = I0(r)/I0(1))."""


def bessel_i0(x: float) -> float:
    """Modified Bessel I0 by its power series: sum ((x/2)^2k) / (k!)^2."""
    term, total, k = 1.0, 1.0, 0
    z = 0.25 * x * x
    while term > 1e-18:
        k += 1
        term *= z / (k * k)
        total += term
    return total
