"""Test-only oracles: closed forms and constructors that no library route uses.

Each one computes its value another way than the library does, in
``Fraction`` arithmetic where that is the plainer route, so a test that
compares the two checks the library's int arithmetic.  The ``corrupt_``
helpers instead break a value inside the mirror data or the report so a
test can see the library's own cross-check catch it;
:func:`recorded_reversions` lists the exponents whose maps a call reverts,
and :func:`recorded_calls` the operands of each call of a ``Series`` method.
"""

import math
from fractions import Fraction as F

import mahlerq.inversion as inversion
import mahlerq.mirror as mirror
from mahlerq import MahlerMeasure, MirrorData, Series, pf_operator
from mahlerq.inversion import u_series, v_series
from mahlerq.mirror import _growth, _parameters, f_series


def monomial(value, degree: int, order: int) -> Series:
    """value * z^degree as a series of ``order``."""
    if not 0 <= degree <= order:
        raise ValueError("monomial degree beyond order")
    return Series([0] * degree + [value], order)


def recorded_reversions(monkeypatch) -> list:
    """Wrap ``mirror.lagrange_coeffs``, by which the library reverts each map
    X = z exp(e_X), so that it appends each exponent e_X to the list returned."""
    exact, reverted = mirror.lagrange_coeffs, []

    def recording(exponent, count):
        reverted.append(exponent)
        return exact(exponent, count)

    monkeypatch.setattr(mirror, "lagrange_coeffs", recording)
    return reverted


def recorded_calls(monkeypatch, name: str) -> list:
    """Wrap the ``Series`` method ``name`` (``"compose"``, ``"__truediv__"``,
    ...) so that it appends the operands of each call, self first, as one
    tuple to the list returned."""
    exact, calls = getattr(Series, name), []

    def recording(*operands):
        calls.append(operands)
        return exact(*operands)

    monkeypatch.setattr(Series, name, recording)
    return calls


def corrupt_reversion(monkeypatch, model, order: int, key: str, degree: int) -> None:
    """Make ``integrality_report(model, order)`` add z^degree to the
    reversion of the map ``key`` (q or Q) that its side computes by Lagrange
    inversion of the map's exponent (phi or f); every other reversion stays
    exact."""
    md = MirrorData.build(model, order + 1)
    target = md.phi if key == "q" else md.f
    exact = mirror.lagrange_coeffs

    def corrupted(exponent, count):
        result = exact(exponent, count)
        return result + monomial(1, degree, result.order) if exponent == target else result

    monkeypatch.setattr(mirror, "lagrange_coeffs", corrupted)


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


def corrupt_log_tail(monkeypatch, degree: int) -> None:
    """Make every log tail h that ``MirrorData.build`` computes 1 larger at
    z^degree, and so phi, q and every q-side column with it."""
    exact = mirror._log_tail

    def corrupted(model, alphas):
        result = exact(model, alphas)
        return result + monomial(1, degree, result.order)

    monkeypatch.setattr(mirror, "_log_tail", corrupted)


def corrupt_last_period(monkeypatch) -> None:
    """Make every period list that ``MirrorData.build`` computes 1 larger in
    its last entry, as a wrong running ratio would."""
    exact = mirror.period_coefficients

    def off_by_one(model, order):
        return [a + (m == order) for m, a in enumerate(exact(model, order))]

    monkeypatch.setattr(mirror, "period_coefficients", off_by_one)


def corrupt_phi(monkeypatch, model, order: int, degree: int) -> None:
    """Make ``MirrorData.build(model, order)`` add z^degree to phi = h/g0,
    its quotient by g0; every other division stays exact."""
    g0 = mirror.g0_series(model, order)
    exact = Series.__truediv__

    def corrupted(num, den):
        result = exact(num, den)
        return result + monomial(1, degree, result.order) if den == g0 else result

    monkeypatch.setattr(Series, "__truediv__", corrupted)


def corrupt_mirror_map(monkeypatch, model, order: int, value, degree: int) -> None:
    """Make ``MirrorData.build(model, order)`` add value * z^degree to q;
    Q stays exact."""
    phi = mirror.h_series(model, order) / mirror.g0_series(model, order)
    exact = mirror._map

    def corrupted(exponent):
        result = exact(exponent)
        if exponent == phi.truncate(order - 1):
            return result + monomial(value, degree, result.order)
        return result

    monkeypatch.setattr(mirror, "_map", corrupted)


def _product(a: list, b: list) -> list:
    """Cauchy product of two int coefficient lists, to the shorter length."""
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(min(len(a), len(b)))]


def _quotient(a: list, b: list) -> list:
    """a / b for int coefficient lists with b[0] = 1, to the shorter length."""
    out = []
    for m in range(min(len(a), len(b))):
        out.append(a[m] - sum(b[i] * out[m - i] for i in range(1, m + 1)))
    return out


def _euler_power(step: int, exponent: int, order: int) -> list:
    """prod_{n>=1} (1 - q^(step*n))^exponent to ``order``, on ints: each
    factor multiplies (or divides) in place."""
    c = [1] + [0] * order
    for n in range(step, order + 1, step):
        for _ in range(abs(exponent)):
            if exponent > 0:
                for i in range(order, n - 1, -1):
                    c[i] -= c[i - n]
            else:
                for i in range(n, order + 1):
                    c[i] += c[i - n]
    return c


def _divisor_sums(order: int, weight) -> list:
    """sum_{d|n} weight(d) for n = 0..order, 0 at n = 0."""
    out = [0] * (order + 1)
    for d in range(1, order + 1):
        w = weight(d)
        for n in range(d, order + 1, d):
            out[n] += w
    return out


def cubic_theta(order: int) -> list:
    """The Borweins' cubic theta function a(q) = 1 + 6 sum (d_1,3(n) -
    d_2,3(n)) q^n to ``order``, d_r,3(n) counting the divisors of n that
    are r mod 3: g0(z(q)) of the model (3,3,3) (Stienstra, "Mahler measure
    variations, Eisenstein series and instanton expansions")."""
    counts = _divisor_sums(order, lambda d: (0, 1, -1)[d % 3])
    return [1] + [6 * c for c in counts[1:]]


def eisenstein_e4(order: int) -> list:
    """E_4(q) = 1 + 240 sum sigma_3(n) q^n to ``order``: the fourth power of
    g0(z(q)) of the model (2,3,6)."""
    sigma3 = _divisor_sums(order, lambda d: d**3)
    return [1] + [240 * c for c in sigma3[1:]]


def elliptic_333(order: int) -> tuple[list, list]:
    """z(q) and u for the model (3,3,3) to ``order``, as int lists, from
    a(q) = :func:`cubic_theta` and eta products alone:

        z(q) = q prod (1 - q^(3n))^9 (1 - q^n)^(-3) / a(q)^3,

    and u = (theta_q log z) a - 1 = a (1 - 27 sum sigma(n) q^(3n) + 3 sum
    sigma(n) q^n) - 3 theta(a) - 1, as theta_q log prod (1 - q^n) =
    -sum sigma(n) q^n.  O(order^2) int operations."""
    a = cubic_theta(order)
    eta = _product(_euler_power(3, 9, order - 1), _euler_power(1, -3, order - 1))
    z = [0] + _quotient(eta, _product(_product(a, a), a))
    sigma = _divisor_sums(order, lambda d: d)
    log_derivative = [1] + [3 * sigma[m] - (0 if m % 3 else 27 * sigma[m // 3])
                            for m in range(1, order + 1)]
    u = [x - 3 * m * a[m] for m, x in enumerate(_product(a, log_derivative))]
    u[0] -= 1
    return z, u


def _square_root(a: list) -> list:
    """The int list r with r[0] = 1 and r * r = a, for a[0] = 1; a
    ValueError if r is not integral."""
    r = [1]
    for m in range(1, len(a)):
        twice = a[m] - sum(r[i] * r[m - i] for i in range(1, m))
        if twice % 2:
            raise ValueError(f"the square root has a half at q^{m}")
        r.append(twice // 2)
    return r


def _theta_log(z: list) -> list:
    """theta_q log z = q z'/z for z = q + O(q^2), to one order below z's."""
    s = z[1:]
    out = _quotient([m * x for m, x in enumerate(s)], s)
    out[0] += 1
    return out


def eisenstein_odd(order: int) -> list:
    """E(q) = 1 + 24 sum sigma_odd(n) q^n to ``order``, sigma_odd(n) the sum
    of the odd divisors of n: the weight-2 Eisenstein series of level 2,
    -E_2(q) + 2 E_2(q^2)."""
    sums = _divisor_sums(order, lambda d: d % 2 * d)
    return [1] + [24 * c for c in sums[1:]]


def level2_columns(power: int, order: int) -> tuple[list, list]:
    """z(q) and u for the model (2,4,4) (``power`` 1) or (4,4,4,4)
    (``power`` 2) to ``order``, as int lists, from the level-2 Hauptmodul
    t = eta(2 tau)^24 / eta(tau)^24 = q prod (1 - q^(2n))^24 (1 - q^n)^(-24)
    and E = :func:`eisenstein_odd` alone:

        z(q) = t / (1 + 64 t)^power,   g0(z(q)) = E^(power/2),

    and u = (theta_q log z) g0(z(q)) - 1.  The n = 3 model is Ramanujan's
    signature-4 theory (Berndt, Bhargava & Garvan 1995), and Clausen's
    formula makes the quartic K3 its square (Lian & Yau 1995)."""
    n = order + 1  # theta_q log z loses one order
    s = _product(_euler_power(2, 24, n - 1), _euler_power(1, -24, n - 1))  # t/q
    one_plus = [1] + [64 * c for c in s[:-1]]  # 1 + 64 t
    for _ in range(power):
        s = _quotient(s, one_plus)
    z = [0] + s  # to q^n
    e = eisenstein_odd(order)
    u = _product(_theta_log(z), _square_root(e) if power == 1 else e)
    u[0] -= 1
    return z[:order + 1], u


def inverse_j(order: int) -> list:
    """1/j(q) = q prod (1 - q^n)^24 / E_4(q)^3 to ``order``: z - 432 z^2 for
    z = z(q) of the model (2,3,6)."""
    e4 = eisenstein_e4(order - 1)
    return [0] + _quotient(_euler_power(1, 24, order - 1), _product(_product(e4, e4), e4))


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


def alpha_factorial(model, m: int) -> int:
    """Period coefficient alpha_m as the factorial quotient (km)! / prod_i (w_i m)!,
    the definition that ``mirror.alpha``'s product of binomials computes another way."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    return math.factorial(model.k * m) // math.prod(math.factorial(wi * m) for wi in model.w)


def gamma(model, m: int) -> F:
    """Coefficient of z^m in the logarithmic tail h(z), summed in Fractions:
    alpha_m * sum_(j=1..m) [sum_a 1/(j - 1 + a) - sum_b 1/(j - b)] over the
    reduced operator's parameters, alpha_m by :func:`alpha_factorial`."""
    if m < 1:
        raise ValueError("index must be positive")
    op = pf_operator(model, "reduced")
    bracket = sum(
        (sum(1 / (j - 1 + a) for a in op.a) - sum(1 / (j - b) for b in op.b)
         for j in range(1, m + 1)),
        F(0),
    )
    return alpha_factorial(model, m) * bracket


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
