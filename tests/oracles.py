"""Test-only oracles: closed forms and constructors that no library route uses.

Each one computes its value another way than the library does, in
``Fraction`` arithmetic where that is the plainer route, so a test that
compares the two checks the library's int arithmetic.  Three helpers,
:func:`corrupt_reversion`, :func:`corrupt_g0_column` and
:func:`corrupt_exponents`, instead break a value inside the report so a
test can see the report's own cross-check catch it, and
:func:`recorded_reversions` lists the series a call reverts.
"""

import math
from fractions import Fraction as F

import mahlerq.inversion as inversion
from mahlerq import MahlerMeasure, MirrorData, Series, alpha, pf_operator
from mahlerq.inversion import u_series, v_series
from mahlerq.mirror import _growth, _parameters, f_series


def monomial(value, degree: int, order: int) -> Series:
    """value * z^degree as a series of ``order``."""
    if not 0 <= degree <= order:
        raise ValueError("monomial degree beyond order")
    return Series([0] * degree + [value], order)


def recorded_reversions(monkeypatch) -> list:
    """Wrap ``Series.revert`` so that it appends each series it reverts to
    the list returned."""
    exact, reverted = Series.revert, []

    def recording(series):
        reverted.append(series)
        return exact(series)

    monkeypatch.setattr(Series, "revert", recording)
    return reverted


def corrupt_reversion(monkeypatch, model, order: int, key: str, degree: int) -> None:
    """Make ``integrality_report(model, order)`` add z^degree to the
    reversion of the map ``key`` (q or Q) that its side computes; every
    other reversion stays exact."""
    target = MirrorData.build(model, order + 1).series(key)
    exact = Series.revert

    def corrupted(series):
        result = exact(series)
        return result + monomial(1, degree, result.order) if series == target else result

    monkeypatch.setattr(Series, "revert", corrupted)


def corrupt_g0_column(monkeypatch, model, order: int, side: str, degree: int) -> None:
    """Make ``integrality_report(model, order)`` add z^degree to the g0
    column of ``side``: g0(z(q)), which the q side composes, or g0(z(Q)) =
    s/(theta(s) + s) with s = z(Q)/z, which the Q side divides."""
    md = MirrorData.build(model, order + 1)
    if side == "q":
        zq = md.q.revert()
        name, hit = "compose", lambda outer, inner: outer == md.g0 and inner == zq
    else:
        unit = md.Q.revert().shift_down(1)
        kernel = unit.theta() + unit
        name, hit = "__truediv__", lambda num, den: num == unit and den == kernel
    exact = getattr(Series, name)

    def corrupted(a, b):
        result = exact(a, b)
        return result + monomial(1, degree, result.order) if hit(a, b) else result

    monkeypatch.setattr(Series, name, corrupted)


def corrupt_exponents(monkeypatch, model, order: int, side: str, alternating: bool,
                      degree: int) -> None:
    """Make ``integrality_report(model, order)`` add 1 to entry ``degree`` of
    the plain or alternating Moebius inversion of the column of ``side``:
    b or bhat from u on the q side, c or chat from v on the Q side.  Every
    other inversion stays exact."""
    md = MirrorData.build(model, order + 1)
    target = (u_series if side == "u" else v_series)(md, order), alternating
    exact = inversion.lambert_invert

    def corrupted(column, alt=False):
        result = exact(column, alt)
        return result + monomial(1, degree, result.order) if (column, alt) == target else result

    monkeypatch.setattr(inversion, "lambert_invert", corrupted)


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


def pf_apply(op, regular: Series, logpart: Series, model=None) -> tuple[Series, Series]:
    """Residual prod_j (theta - b_j) phi - C z prod_j (theta + a_j) phi of
    phi = regular + logpart * log z, as its (regular, logpart) pair.

    ``op`` is a :class:`PFOperator`.  Both parts are truncated to the
    smaller of the two orders; a plain series is passed with
    ``Series.zero(order)`` as its log part.  A residual of zero in both
    parts certifies that phi solves the operator modulo z^(order+1).  When
    ``model`` is given, the operator's constant must be the model's.
    """
    if model is not None and op.constant != pf_operator(model, op.form).constant:
        raise ValueError("operator constant does not match the model")
    n = min(regular.order, logpart.order)

    def factors(shifts):
        # (theta + s)(R + L log z) = theta(R) + L + s R + (theta(L) + s L) log z
        R, L = regular.truncate(n), logpart.truncate(n)
        for s in shifts:
            R, L = R.theta() + L + s * R, L.theta() + s * L
        return R, L

    lhs, rhs = factors(-bj for bj in op.b), factors(op.a)
    return tuple(x - (op.constant * y).zshift(1).truncate(n) for x, y in zip(lhs, rhs))


def binary_splitting_sum(coeffs, p: int, s: int) -> int:
    """Exact sum_m coeffs[m] * p^m * s^(N-m) with N = len(coeffs) - 1.

    This is s^N times the value at z = p/s of the polynomial with the
    given coefficients.  Binary splitting (Haible & Papanikolaou 1998):
    a block [lo, hi) is the triple T = sum_(lo<=m<hi) coeffs[m] p^(m-lo)
    s^(hi-1-m), P = p^(hi-lo), Q = s^(hi-lo), and adjacent blocks combine
    as T = T_L Q_R + P_L T_R.
    """
    if not coeffs:
        raise ValueError("need at least one coefficient")

    def split(lo: int, hi: int) -> tuple[int, int, int]:
        if hi - lo == 1:
            return coeffs[lo], p, s
        mid = (lo + hi) // 2
        t_left, p_left, q_left = split(lo, mid)
        t_right, p_right, q_right = split(mid, hi)
        return t_left * q_right + p_left * t_right, p_left * p_right, q_left * q_right

    return split(0, len(coeffs))[0]


def measure_by_f_series(model, psi: F, order: int) -> MahlerMeasure:
    """mahler_measure by the route it took before summing on the term ratio:
    f's numerators over one common denominator from :func:`f_series`,
    summed by :func:`binary_splitting_sum` at z = p/s and divided once by
    s^N times that denominator; the tail bound reads f's last coefficient.
    psi must lie inside the disk of convergence."""
    k, N = model.k, order
    num, den = psi.numerator, psi.denominator
    z = 1 / (k * psi) ** k
    p, s = z.numerator, z.denominator
    f = f_series(model, N)
    fz = binary_splitting_sum(f.numerators, p, s) / (s**N * f.denominator)
    log_m = math.log(num) - math.log(den) - fz / k
    cn, cd = _growth(model)
    L, a, b = _parameters(model, "reduced")
    rn, rd = cn * p, cd * s
    for aj, bj in zip(a, b):
        x, y = N * L + aj, (N + 1) * L - bj
        if x > y:
            rn, rd = rn * x, rd * y
    if rn >= rd:
        tail = math.inf
    else:
        t_num, t_den = f.numerators[N] * p**N, f.denominator * s**N
        tail = (t_num * rn) / (t_den * (rd - rn)) / k
    return MahlerMeasure(model.name, (num, den), (p, s), N, log_m, math.exp(log_m), tail)


def jensen_measure_4444(psi: float, grid: int) -> float:
    """m(F_psi) for the model (4,4,4,4) by Jensen's formula, as a float.

    Up to the monomial 4 x1 x2 x3, F_psi is x3^4 - 4 psi x1 x2 x3 + (x1^4 +
    x2^4 + 1) with a monic x3 side, so m(F_psi) is the torus mean over
    (x1, x2) of the sum of log+|root| over its roots in x3, minus log 4.
    The roots are the eigenvalues of one companion matrix per point of a
    grid x grid midpoint rule.  x1 -> i x1 (or x2 -> i x2) maps the roots
    to i times themselves, so the integrand has period pi/2 in each angle
    and the first quarter of the grid in each direction has the same mean.
    """
    import numpy as np

    if grid % 4:
        raise ValueError("grid must be a multiple of 4")
    x = np.exp(2j * np.pi * (np.arange(grid // 4) + 0.5) / grid)
    x1, x2 = (u.ravel() for u in np.meshgrid(x, x))
    companion = np.zeros((x1.size, 4, 4), dtype=complex)
    companion[:, 1, 0] = companion[:, 2, 1] = companion[:, 3, 2] = 1
    companion[:, 0, 2] = 4 * psi * x1 * x2
    companion[:, 0, 3] = -(x1**4 + x2**4 + 1)
    roots = np.linalg.eigvals(companion)
    return float(np.log(np.maximum(np.abs(roots), 1)).sum(axis=1).mean()) - math.log(4)


def jensen_measure_quadratic(kv, psi: float, grid: int) -> float:
    """m(F_psi) for a k-vector (2, k_2, .., k_n) by Jensen's formula, as a float.

    With y = x_2...x_(n-1) and c = x_2^k_2 + .. + x_(n-1)^k_(n-1) + 1,
    -k x_1 y F_psi = x_1^2 - k psi y x_1 + c is monic of degree 2 in x_1,
    so m(F_psi) is the torus mean over (x_2, .., x_(n-1)) of the sum of
    log+|root| over its two roots, minus log k.  The roots are solved in
    closed form: the larger one as (b + sqrt(b^2 - 4c))/2 with the branch of
    the square root that avoids cancellation, the other as c over it.  The
    mean is the midpoint rule on grid points per angle.
    """
    import numpy as np

    if kv[0] != 2 or len(kv) < 3:
        raise ValueError("needs a k-vector (2, k_2, .., k_n) with n >= 3")
    k = math.lcm(*kv)
    angles = np.exp(2j * np.pi * (np.arange(grid) + 0.5) / grid)
    xs = [x.ravel() for x in np.meshgrid(*[angles] * (len(kv) - 2), indexing="ij")]
    c = sum(x**ki for x, ki in zip(xs, kv[1:-1])) + 1
    b = k * psi * np.prod(xs, axis=0)
    root = np.sqrt(b * b - 4 * c)
    root = np.where((b.conj() * root).real >= 0, root, -root)
    large = (b + root) / 2
    logs = np.log(np.maximum(np.abs(large), 1)) + np.log(np.maximum(np.abs(c / large), 1))
    return float(logs.mean()) - math.log(k)


def jensen_measure_5221(psi: float, grid: int) -> float:
    """m(F_psi) for the weights model (5; 2, 2, 1) by Jensen's formula, as a float.

    Its Laurent polynomial is L = y1 + y2 + y1^-2 y2^-2, whose constant
    terms [y^0] L^(5m) are the period coefficients alpha_m, and F_psi =
    psi - L/5.  Times -y1^2 y2^2, 5 F_psi is y2^2 times the monic cubic
    y1^3 - (5 psi - y2) y1^2 + y2^-2 in y1, and |y2^2| = 1 on the torus, so
    m(F_psi) is the circle mean over y2 of the sum of log+|root| over the
    cubic's roots, minus log 5.  The roots are the eigenvalues of one
    companion matrix per point of a midpoint rule on grid points.
    """
    import numpy as np

    y2 = np.exp(2j * np.pi * (np.arange(grid) + 0.5) / grid)
    companion = np.zeros((grid, 3, 3), dtype=complex)
    companion[:, 1, 0] = companion[:, 2, 1] = 1
    companion[:, 0, 0] = 5 * psi - y2
    companion[:, 0, 2] = -(y2**-2)
    roots = np.linalg.eigvals(companion)
    return float(np.log(np.maximum(np.abs(roots), 1)).sum(axis=1).mean()) - math.log(5)
