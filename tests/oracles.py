"""Test-only oracles: closed forms and constructors that no library route uses.

Each one computes its value another way than the library does, in
``Fraction`` arithmetic where that is the plainer route, so a test that
compares the two checks the library's int arithmetic.
"""

import math
from fractions import Fraction as F

from mahlerq import Series, alpha, pf_operator


def monomial(value, degree: int, order: int) -> Series:
    """value * z^degree as a series of ``order``."""
    if not 0 <= degree <= order:
        raise ValueError("monomial degree beyond order")
    return Series([0] * degree + [value], order)


def multinomial_diag(kv, m: int) -> int:
    """Coefficient of (x_1...x_{n-1})^m in (x_1^{k_1}+..+x_{n-1}^{k_{n-1}}+1)^m.

    Equals m!/prod_i (m/k_i)! when lcm(k_i) divides m, else 0.
    """
    if m < 1:
        raise ValueError("index must be positive")
    parts = tuple(kv)
    if m % math.lcm(*parts):
        return 0
    return math.factorial(m) // math.prod(math.factorial(m // ki) for ki in parts)


def gamma(model, m: int) -> F:
    """Coefficient of z^m in the logarithmic tail h(z), summed in Fractions:
    alpha_m * sum_(j=1..m) [sum_a 1/(j - 1 + a) - sum_b 1/(j - b)] over the
    reduced operator's parameters, alpha_m in its closed factorial form."""
    if m < 1:
        raise ValueError("index must be positive")
    op = pf_operator(model, "reduced")
    bracket = sum(
        (sum(1 / (j - 1 + a) for a in op.a) - sum(1 / (j - b) for b in op.b)
         for j in range(1, m + 1)),
        F(0),
    )
    return alpha(model, m) * bracket
