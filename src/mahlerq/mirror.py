"""Per-model series pipeline.

For a model with degree k and weights (w_1..w_n) this module builds, at
a caller-chosen truncation order:

* the holomorphic period  g0(z) = sum_m (km)!/prod_i (w_i m)! z^m,
* the exponent series     f(z)  = sum_{m>=1} alpha_m z^m / m,
* the local mirror map    Q(z)  = z * exp(f(z)),
* the log-solution tail   h(z)  = sum_{m>=1} gamma_m z^m  with
  g1 = g0*log z + h annihilated by the hypergeometric operator,
* the mirror map          q(z)  = z * exp(h(z)/g0(z)),

plus the operator itself in reduced, local and unreduced normal forms,
and a numeric evaluation of the logarithmic Mahler measure of
psi - P(x)/(k*x_1...x_{n-1}) through the same series data.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .series import LogSeries, Series, as_rational
from .weights import Model


class ConvergenceError(ValueError):
    """The evaluation point lies outside the series' disk of convergence."""


# ---------------------------------------------------------------------------
# coefficient-level data
# ---------------------------------------------------------------------------

def alpha(model: Model, m: int) -> Fraction:
    """Period coefficient (km)! / prod_i (w_i m)!, a positive integer."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    num = math.factorial(model.k * m)
    den = math.prod(math.factorial(wi * m) for wi in model.w)
    return Fraction(num, den)


def multinomial_diag(kv, m: int) -> Fraction:
    """Coefficient of (x_1...x_{n-1})^m in (x_1^{k_1}+..+x_{n-1}^{k_{n-1}}+1)^m.

    Equals m!/prod_i (m/k_i)! when lcm(k_i) divides m, else 0.
    """
    if m < 1:
        raise ValueError("index must be positive")
    parts = tuple(kv)
    k = math.lcm(*parts)
    if m % k:
        return Fraction(0)
    den = math.prod(math.factorial(m // ki) for ki in parts)
    return Fraction(math.factorial(m), den)


def _harmonic_bracket(model: Model, j: int) -> Fraction:
    # sum_{a<k} 1/(j - a/k) - sum_i sum_{a<w_i} 1/(j - a/w_i)
    k, w = model.k, model.w
    total = sum(Fraction(k, j * k - a) for a in range(k))
    for wi in w:
        total -= sum(Fraction(wi, j * wi - a) for a in range(wi))
    return total


def gamma(model: Model, m: int) -> Fraction:
    """Coefficient of z^m in the logarithmic tail h(z).

    Closed form: gamma_m = alpha_m * sum_{j=1..m} [harmonic bracket at j].
    """
    if m < 1:
        raise ValueError("index must be positive")
    acc = sum(_harmonic_bracket(model, j) for j in range(1, m + 1))
    return alpha(model, m) * acc


# ---------------------------------------------------------------------------
# series-level data
# ---------------------------------------------------------------------------

def g0_series(model: Model, order: int) -> Series:
    return Series([alpha(model, m) for m in range(order + 1)])


def f_series(model: Model, order: int) -> Series:
    return Series(
        [Fraction(0)] + [alpha(model, m) / m for m in range(1, order + 1)]
    )


def h_series(model: Model, order: int) -> Series:
    coeffs = [Fraction(0)]
    acc = Fraction(0)
    for m in range(1, order + 1):
        acc += _harmonic_bracket(model, m)
        coeffs.append(alpha(model, m) * acc)
    return Series(coeffs)


def local_mirror_map(model: Model, order: int) -> Series:
    """Q(z) = z * exp(f(z)); the top coefficient only needs f below order."""
    if order < 1:
        raise ValueError("maps need order >= 1")
    return f_series(model, order - 1).exp().zshift(1)


def mirror_map(model: Model, order: int) -> Series:
    """q(z) = z * exp(h(z)/g0(z))."""
    if order < 1:
        raise ValueError("maps need order >= 1")
    phi = h_series(model, order - 1) / g0_series(model, order - 1)
    return phi.exp().zshift(1)


# ---------------------------------------------------------------------------
# hypergeometric differential operators
# ---------------------------------------------------------------------------

FORMS = ("reduced", "local", "unreduced")


@dataclass(frozen=True)
class PFOperator:
    """Operator prod_j (theta - b_j) - C * z * prod_j (theta + a_j).

    The constant is C = k^k / prod_i w_i^{w_i}; in the reduced form the
    parameter multisets {1 - a_j} and {b_j} are disjoint.
    """

    constant: Fraction
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    form: str

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown operator form {self.form!r}")
        if self.form == "reduced":
            if len(self.a) != len(self.b):
                raise ValueError("reduced form needs equally many a and b")
            if any(not (0 < aj <= 1) for aj in self.a):
                raise ValueError("reduced a parameters must lie in (0, 1]")
            if any(not (0 <= bj < 1) for bj in self.b):
                raise ValueError("reduced b parameters must lie in [0, 1)")
            if set(1 - aj for aj in self.a) & set(self.b):
                raise ValueError("reduced parameter multisets must be disjoint")


def pf_operator(model: Model, form: str = "reduced") -> PFOperator:
    """Derive the operator parameters from the weights.

    Numerator multiset N = {j/k : 0 <= j < k} and denominator multiset
    D = union_i {j/w_i : 0 <= j < w_i} come from the factorial ratio
    alpha_m / alpha_{m-1}; the reduced form cancels N against D and maps
    leftover numerator roots r to a = 1 - r and leftover denominator
    roots to b = r.
    """
    k, w = model.k, model.w
    constant = Fraction(k**k, math.prod(wi**wi for wi in w))
    num = Counter(Fraction(j, k) for j in range(k))
    den: Counter = Counter()
    for wi in w:
        den.update(Fraction(j, wi) for j in range(wi))
    if form == "reduced":
        common = num & den
        a = sorted(1 - r for r in (num - common).elements())
        b = sorted((den - common).elements())
    elif form == "local":
        a = sorted(num.elements())
        b = sorted(den.elements())
    elif form == "unreduced":
        a = sorted(1 - r for r in num.elements())
        b = sorted(den.elements())
    else:
        raise ValueError(f"unknown operator form {form!r}")
    return PFOperator(constant, tuple(a), tuple(b), form)


def pf2_applicable(model: Model) -> bool:
    """True when the weights are pairwise coprime; then b = (0,..,0) of length n-1."""
    w = model.w
    return all(
        math.gcd(w[i], w[j]) == 1 for i in range(len(w)) for j in range(i + 1, len(w))
    )


def pf_apply(op: PFOperator, phi: LogSeries | Series, model: Model | None = None):
    """Residual prod_j (theta - b_j) phi - C z prod_j (theta + a_j) phi.

    A residual of zero in both components certifies that phi solves the
    operator modulo z^(order+1).
    """
    if isinstance(phi, Series):
        phi = LogSeries.plain(phi)
    if model is not None:
        expected = Fraction(model.k**model.k, math.prod(wi**wi for wi in model.w))
        if op.constant != expected:
            raise ValueError("operator constant does not match the model")
    lhs = phi
    for bj in op.b:
        lhs = lhs.theta() - bj * lhs
    rhs = phi
    for aj in op.a:
        rhs = rhs.theta() + aj * rhs
    return lhs - (op.constant * rhs).zmul()


# ---------------------------------------------------------------------------
# bundled per-model data
# ---------------------------------------------------------------------------

_SERIES_KEYS = ("g0", "h", "f", "Q", "q", "zq", "zQ")


@dataclass(frozen=True)
class MirrorData:
    """All per-model series at one truncation order.

    zq and zQ are the reversions of q and Q: z as a series in the mirror
    coordinate and in the local coordinate respectively.
    """

    model: Model
    order: int
    g0: Series
    h: Series
    f: Series
    Q: Series
    q: Series
    zq: Series
    zQ: Series

    @classmethod
    def build(cls, model: Model, order: int) -> "MirrorData":
        if order < 1:
            raise ValueError("order must be at least 1")
        g0 = g0_series(model, order)
        h = h_series(model, order)
        f = f_series(model, order)
        Q = local_mirror_map(model, order)
        q = mirror_map(model, order)
        return cls(model, order, g0, h, f, Q, q, q.revert(), Q.revert())

    def series(self, key: str) -> Series:
        if key not in _SERIES_KEYS:
            raise KeyError(f"unknown series {key!r}; choose from {_SERIES_KEYS}")
        return getattr(self, key)

    def to_json_dict(self) -> dict:
        def dump(s: Series) -> list[str]:
            return [str(c) for c in s.coeffs]

        payload = {"model": self.model.to_json_dict(), "order": self.order}
        payload.update({key: dump(getattr(self, key)) for key in _SERIES_KEYS})
        return payload


# ---------------------------------------------------------------------------
# numeric Mahler measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MahlerMeasure:
    """Numeric value of the logarithmic Mahler measure at a real parameter."""

    model_name: str
    psi: Fraction
    z: Fraction
    order: int
    log_measure: float   # m(F_psi)
    measure: float       # M(F_psi) = exp(m)
    tail_bound: float    # upper estimate of the truncation error on m


def mahler_measure(model: Model, psi, order: int) -> MahlerMeasure:
    """Evaluate m(F_psi) = log(psi) - f(z)/k at z = (k*psi)^(-k).

    The series is summed exactly in rational arithmetic and converted to
    floating point at the very end.  Valid strictly inside the disk
    |z| * C < 1, where C = k^k/prod w_i^{w_i} is the growth rate of the
    period coefficients; psi must be a positive real (exact) number.
    """
    psi = as_rational(psi)
    if psi <= 0:
        raise ValueError("psi must be positive")
    if order < 1:
        raise ValueError("order must be at least 1")
    k = model.k
    z = Fraction(1) / (k * psi) ** k
    op = pf_operator(model, "reduced")
    C = op.constant
    if z * C >= 1:
        raise ConvergenceError(
            f"z = {z} lies outside the disk of convergence (need |z| < 1/{C})"
        )
    # Horner on f's integer numerators with z = p/s:
    # acc = sum_m f_m * p^m * s^(order-m), so f(z) = acc / (s^order * den).
    f = f_series(model, order)
    p, s = z.numerator, z.denominator
    acc, s_power = 0, 1
    for c in reversed(f.numerators):
        acc = acc * p + c * s_power
        s_power *= s
    fz = acc / (s**order * f.denominator)  # int true division rounds correctly
    log_m = math.log(psi.numerator) - math.log(psi.denominator) - fz / k
    # Tail: for m > N the term ratio alpha_{m+1} z / alpha_m is bounded by
    # rho = C*|z| * prod_j max(1, (N+a_j)/(N+1-b_j)), each factor being
    # monotone in m toward 1.
    N = order
    rho = C * z
    for aj, bj in zip(op.a, op.b):
        rho *= max(Fraction(1), Fraction(N + aj) / (N + 1 - bj))
    if rho >= 1:
        tail = math.inf
    else:
        t_last = alpha(model, N) * z**N / N
        tail = float(t_last * rho / (1 - rho)) / k
    return MahlerMeasure(
        model_name=model.name,
        psi=psi,
        z=z,
        order=order,
        log_measure=log_m,
        measure=math.exp(log_m),
        tail_bound=tail,
    )
