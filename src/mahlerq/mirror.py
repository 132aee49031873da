"""Per-model series pipeline.

For a model with degree k and weights (w_1..w_n) this module builds, at
a caller-chosen truncation order:

* the holomorphic period  g0(z) = sum_m (km)!/prod_i (w_i m)! z^m,
* the exponent series     f(z)  = sum_{m>=1} alpha_m z^m / m,
* the local mirror map    Q(z)  = z * exp(f(z)),
* the log-solution tail   h(z)  = sum_{m>=1} gamma_m z^m  with
  g1 = g0*log z + h annihilated by the hypergeometric operator,
* the mirror map          q(z)  = z * exp(phi(z)),  phi = h/g0,

plus the operator itself in reduced and local normal forms,
and a numeric evaluation of the logarithmic Mahler measure of
psi - P(x)/(k*x_1...x_{n-1}) through the same series data.

The period coefficients alpha_m = (km)!/prod_i (w_i m)! that every series
here is built from come from one ratio over the reduced operator's
parameters, alpha_j / alpha_(j-1) = C prod(L(j-1) + a) / prod(Lj - b), an
exact int division per coefficient (:func:`period_coefficients`);
:func:`alpha` keeps a closed multinomial form, which checks the last.
The log tail h runs its recurrence on the same ratio and sums its harmonic
bracket on ints, so one period pass serves a whole :class:`MirrorData`:
h reads the coefficients of g0, f = theta^(-1)(g0 - 1), and no step loads
``fractions``; :func:`pf_operator` builds its ``Fraction`` parameters from
the same ints.  The Mahler measure sums f(z) exactly by binary splitting
on that same ratio, with no period list, and rounds once; it computes on
int pairs throughout, so it never loads ``fractions`` either.

Every check on that data runs here: a :class:`MirrorData` from ``build``
has passed :func:`_check_periods`, then phi * g0 = h, as every route
through q reads phi, and, where the floor gaps of the model all hold
(:func:`~mahlerq.weights.floor_gap_check`, the criterion of Krattenthaler
and Rivoal), integrality of q and Q.  ``MirrorData.series`` reverts q or
Q for zq or zQ by :func:`_reversion`, Lagrange inversion checked by
X(z) = t, as each side of the integrality report does on its own map.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Sequence

from .series import Series, _exact, _ratio_text, _reduced, _theta_inverse, lagrange_coeffs
from .weights import Model, floor_gap_check


class ConvergenceError(ValueError):
    """The evaluation point lies outside the series' disk of convergence."""


class ConsistencyError(RuntimeError):
    """Two independent computation routes disagreed; results are not trusted."""


# ---------------------------------------------------------------------------
# coefficient-level data
# ---------------------------------------------------------------------------

def alpha(model: Model, m: int) -> int:
    """Period coefficient (km)! / prod_i (w_i m)!, a positive integer.

    The weights sum to k, so it is the multinomial coefficient
    prod_j C(m(w_1 + ... + w_j), m w_j), a product of binomials.
    """
    if m < 0:
        raise ValueError("index must be nonnegative")
    value, total = 1, 0
    for wi in model.w:
        total += wi * m
        value *= math.comb(total, wi * m)
    return value


def period_coefficients(model: Model, order: int) -> list[int]:
    """alpha_0..alpha_order by alpha_j = alpha_(j-1) * C * prod(up) / prod(down), one ratio
    over the reduced parameters (:func:`_ratio_factors`); alpha_j is an int, so each division
    is exact."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    cn, cd = _growth(model)
    value = 1
    out = [value]
    for up, down in _ratio_factors(model, order):
        value = value * cn * math.prod(up) // (cd * math.prod(down))
        out.append(value)
    return out


def _ratio_factors(model: Model, order: int):
    """For j = 1..order, the factors of alpha_j / alpha_(j-1) = C * prod(up) / prod(down):
    up = L(j-1) + a and down = Lj - b over the reduced parameters (:func:`_parameters`),
    equally many a side, so the powers of L cancel."""
    L, a, b = _parameters(model, "reduced")
    for j in range(1, order + 1):
        yield [L * (j - 1) + x for x in a], [L * j - x for x in b]


def _check_periods(model: Model, g0: Series, h: Series, where: str) -> None:
    """Halt unless g0 and h pass their second routes; ``where`` names the
    model and order in an error.

    The periods come from a running ratio of int floor divisions, which a
    wrong ratio would corrupt silently, so the last is checked against the
    closed multinomial form of :func:`alpha`.  h comes from its own
    recurrence, which every later route reads through phi, so it is checked
    at every m = 1..N against the Frobenius identity L(g0 log z + h) = 0 of
    the reduced operator.  With C = cn/cd, h = H/D, g0 = alpha (over 1), and
    P(Lm) = prod(down) and R(L(m-1)) = prod(up) over the factors of
    :func:`_ratio_factors` at j = m, that identity reads, on ints,

        cd P(Lm) H_m - cn R(L(m-1)) H_(m-1)
            = -L D (cd P'(Lm) alpha_m - cn R'(L(m-1)) alpha_(m-1)).
    """
    N, A = g0.order, g0.numerators
    if A[N] != alpha(model, N) * g0.denominator:
        raise ConsistencyError(
            f"running-ratio and closed-form periods disagree for {where}, m={N}"
        )
    L = _parameters(model, "reduced")[0]
    cn, cd = _growth(model)
    H, D = h.numerators, h.denominator

    def with_slope(factors: list[int]) -> tuple[int, int]:
        # The product of the factors t - r and its t-derivative, by the product rule.
        value, slope = 1, 0
        for x in factors:
            value, slope = value * x, slope * x + value
        return value, slope

    for m, (up, down) in enumerate(_ratio_factors(model, N), start=1):
        P, dP = with_slope(down)
        R, dR = with_slope(up)
        lhs = cd * P * H[m] - cn * R * H[m - 1]
        if lhs != -L * D * (cd * dP * A[m] - cn * dR * A[m - 1]):
            raise ConsistencyError(
                f"log tail h fails the Frobenius identity for {where}, m={m}"
            )


# ---------------------------------------------------------------------------
# series-level data
# ---------------------------------------------------------------------------

# The periods and maps come from MirrorData.build; the five builders below are
# not exported, and stay here as test and benchmark oracles that
# bench/layers.py wraps by module attribute.  ROADMAP item 10 moves them into
# the tests once item 3's stage hook replaces that monkeypatching.

def g0_series(model: Model, order: int) -> Series:
    return Series._from_ints(period_coefficients(model, order))


def f_series(model: Model, order: int) -> Series:
    """f = theta^(-1)(g0 - 1), coefficient m being alpha_m / m."""
    return _theta_inverse(g0_series(model, order))


def _sum_ratios(terms: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """sum p/q over (p, q) int pairs with q > 0, as one (numerator,
    denominator) pair, by binary splitting: the halves are summed apart and
    combined as p1*q2 + p2*q1 over q1*q2, so the products stay balanced."""
    if len(terms) <= 1:
        return terms[0] if terms else (0, 1)
    mid = len(terms) // 2
    p1, q1 = _sum_ratios(terms[:mid])
    p2, q2 = _sum_ratios(terms[mid:])
    return p1 * q2 + p2 * q1, q1 * q2


def h_series(model: Model, order: int) -> Series:
    """gamma_m = alpha_m * sum_(j=1..m) [harmonic bracket at j].

    The bracket sum_(r in N) 1/(j - r) - sum_(r in D) 1/(j - r) runs over
    the roots of alpha_j / alpha_(j-1) (see :func:`pf_operator`); the
    common roots cancel, so it is sum_a 1/(j - 1 + a) - sum_b 1/(j - b)
    over the parameters of the reduced operator.  With a and b as int
    numerators over L, each term is L/up or -L/down with the factors of
    :func:`_ratio_factors`, and the bracket at j is summed into one int
    fraction.

    The sum of the brackets has a denominator of thousands of digits for a
    large k, which alpha_m cancels, so gamma runs on its own recurrence,
    whose terms have small denominators:
    gamma_j = r_j * gamma_(j-1) + alpha_j * [bracket at j], with the same
    ratio r_j = C * prod(up) / prod(down) as the periods.  :func:`_log_tail` runs it
    on periods already built, so a caller that holds g0 needs no second pass.
    """
    return _log_tail(model, g0_series(model, order).numerators)


def _log_tail(model: Model, alphas: Sequence[int]) -> Series:
    """:func:`h_series` on the periods alpha_0..alpha_N it is given."""
    L = _parameters(model, "reduced")[0]
    cn, cd = _growth(model)
    pairs = [(0, 1)]
    num, den = 0, 1
    for j, (up, down) in enumerate(_ratio_factors(model, len(alphas) - 1), start=1):
        tn, td = _sum_ratios([(L, q) for q in up] + [(-L, q) for q in down])
        tn, td = _reduced(alphas[j] * tn, td)
        rn, rd = num * cn * math.prod(up), den * cd * math.prod(down)
        num, den = _reduced(rn * td + tn * rd, rd * td)
        pairs.append((num, den))
    return Series._from_pairs(pairs)


def _map(exponent: Series) -> Series:
    # z * exp(exponent), one order above the exponent it is given.
    return exponent.exp().zshift(1)


def _first_difference(a: Series, b: Series, count: int) -> int | None:
    """The least m <= count where the z^m coefficients of a and b differ."""
    an, ad, bn, bd = a.numerators, a.denominator, b.numerators, b.denominator
    return next((m for m in range(count + 1) if an[m] * bd != bn[m] * ad), None)


def _reversion(e_X: Series, X: Series, label: str, where: str) -> Series:
    """z in X to X's order by Lagrange inversion of X = z exp(e_X), which must
    satisfy X(z) = t, the definition of the reversion, to that order."""
    z = lagrange_coeffs(e_X, X.order)
    m = _first_difference(X.compose(z), Series.identity(X.order), X.order)
    if m is not None:
        raise ConsistencyError(
            f"z({label}) is not the reversion of {label} for {where}, m={m}")
    return z


def local_mirror_map(model: Model, order: int) -> Series:
    """Q(z) = z * exp(f(z)); the top coefficient only needs f below order."""
    if order < 1:
        raise ValueError("maps need order >= 1")
    return _map(f_series(model, order - 1))


def mirror_map(model: Model, order: int) -> Series:
    """q(z) = z * exp(h(z)/g0(z))."""
    if order < 1:
        raise ValueError("maps need order >= 1")
    g0 = g0_series(model, order - 1)
    return _map(_log_tail(model, g0.numerators) / g0)


# ---------------------------------------------------------------------------
# hypergeometric differential operators
# ---------------------------------------------------------------------------

FORMS = ("reduced", "local")


class PFOperator(namedtuple("PFOperator", "constant a b form")):
    """Operator prod_j (theta - b_j) - C * z * prod_j (theta + a_j).

    The constant is C = k^k / prod_i w_i^{w_i}; in the reduced form the
    parameter multisets {1 - a_j} and {b_j} are disjoint.
    """

    __slots__ = ()

    def __new__(cls, constant: Fraction, a: tuple[Fraction, ...],
                b: tuple[Fraction, ...], form: str):
        if form not in FORMS:
            raise ValueError(f"unknown operator form {form!r}")
        if form == "reduced":
            if len(a) != len(b):
                raise ValueError("reduced form needs equally many a and b")
            if any(not (0 < aj <= 1) for aj in a):
                raise ValueError("reduced a parameters must lie in (0, 1]")
            if any(not (0 <= bj < 1) for bj in b):
                raise ValueError("reduced b parameters must lie in [0, 1)")
            if set(1 - aj for aj in a) & set(b):
                raise ValueError("reduced parameter multisets must be disjoint")
        return super().__new__(cls, constant, a, b, form)

    # As for KVector: every pickle protocol rebuilds through __new__.
    def __reduce__(self):
        return PFOperator, tuple(self)


def _growth(model: Model) -> tuple[int, int]:
    """C = k^k / prod_i w_i^(w_i) as a reduced int pair."""
    return _reduced(model.k**model.k, math.prod(wi**wi for wi in model.w))


def _parameters(model: Model, form: str) -> tuple[int, list[int], list[int]]:
    """L = lcm(k, w_1..w_n) and the sorted a and b parameters of
    :func:`pf_operator` in ``form``, as int numerators over L."""
    k, w = model.k, model.w
    L = math.lcm(k, *w)
    num = Counter(j * (L // k) for j in range(k))
    den: Counter = Counter()
    for wi in w:
        den.update(j * (L // wi) for j in range(wi))
    if form == "reduced":
        common = num & den
        num, den = num - common, den - common
    elif form not in FORMS:
        raise ValueError(f"unknown operator form {form!r}")
    a = num.elements() if form == "local" else (L - r for r in num.elements())
    return L, sorted(a), sorted(den.elements())


def pf_operator(model: Model, form: str = "reduced") -> PFOperator:
    """Derive the operator parameters from the weights.

    Numerator multiset N = {j/k : 0 <= j < k} and denominator multiset
    D = union_i {j/w_i : 0 <= j < w_i} come from the factorial ratio
    alpha_m / alpha_{m-1}; the reduced form cancels N against D and maps
    leftover numerator roots r to a = 1 - r and leftover denominator
    roots to b = r.
    """
    from fractions import Fraction

    L, a, b = _parameters(model, form)
    return PFOperator(
        Fraction(*_growth(model)),
        tuple(Fraction(x, L) for x in a),
        tuple(Fraction(x, L) for x in b),
        form,
    )


def pf2_applicable(model: Model) -> bool:
    """True when the weights are pairwise coprime; then b = (0,..,0) of length n-1."""
    w = model.w
    return all(
        math.gcd(w[i], w[j]) == 1 for i in range(len(w)) for j in range(i + 1, len(w))
    )


# ---------------------------------------------------------------------------
# bundled per-model data
# ---------------------------------------------------------------------------

_SERIES_KEYS = ("g0", "h", "f", "Q", "q", "zq", "zQ")


class MirrorData(namedtuple("MirrorData", "model order g0 h f phi Q q")):
    """The periods and both maps of one model at one truncation order.

    phi = h/g0 is the exponent of q = z * exp(phi); a record from
    :meth:`build` has passed its checks.  The reversions zq and zQ (z as a
    series in q and in Q) are derived, not stored: ``series`` reverts and
    checks q or Q when asked for them (:func:`_reversion`), and each side
    of the integrality report reverts its own map.
    """

    __slots__ = ()

    @classmethod
    def build(cls, model: Model, order: int) -> "MirrorData":
        """One period pass builds g0 at ``order``; h reads its coefficients,
        f = theta^(-1)(g0 - 1), and phi = h/g0 is divided once.  The maps read
        their truncation to order - 1, which in reduced form equals the series
        built at that order."""
        if order < 1:
            raise ValueError("order must be at least 1")
        where = f"model {model.name} at order {order}"
        g0 = g0_series(model, order)
        h = _log_tail(model, g0.numerators)
        _check_periods(model, g0, h, where)
        f = _theta_inverse(g0)
        phi = h / g0
        m = _first_difference(phi * g0, h, order)
        if m is not None:
            raise ConsistencyError(f"phi * g0 and h disagree for {where}, m={m}")
        Q = _map(f.truncate(order - 1))
        q = _map(phi.truncate(order - 1))
        for label, X in (("q", q), ("Q", Q)):
            if X.denominator != 1 and floor_gap_check(model):
                raise ConsistencyError(
                    f"{label} is not integral for {where}, whose floor gaps all hold")
        return cls(model, order, g0, h, f, phi, Q, q)

    def series(self, key: str) -> Series:
        """The series ``key`` of :data:`_SERIES_KEYS`; zq and zQ revert q and Q."""
        if key not in _SERIES_KEYS:
            raise KeyError(f"unknown series {key!r}; choose from {_SERIES_KEYS}")
        if key in ("zq", "zQ"):
            exponent = self.phi if key == "zq" else self.f
            where = f"model {self.model.name} at order {self.order}"
            return _reversion(exponent, getattr(self, key[1]), key[1], where)
        return getattr(self, key)


# ---------------------------------------------------------------------------
# numeric Mahler measure
# ---------------------------------------------------------------------------

def _f_split(model: Model, p: int, s: int, order: int) -> tuple[int, int, int, int]:
    """f_N(z) = sum_(j=1..N) alpha_j z^j / j at z = p/s as ints (P, Q, B, T)
    with alpha_N z^N = P/Q and f_N(z) = T/(B*Q).

    Hypergeometric binary splitting (Haible & Papanikolaou 1998) on the term
    ratio alpha_j z / alpha_(j-1) of :func:`_ratio_factors`: leaf j is
    P_j/Q_j = cn p prod(up) / (cd s prod(down)) in lowest terms, B_j = j
    and T_j = P_j, with C = cn/cd, and adjacent blocks combine as
    P = P_L P_R, Q = Q_L Q_R, B = B_L B_R and T = B_R Q_R T_L + B_L P_L T_R,
    so the products stay balanced and no common denominator is formed.
    """
    cn, cd = _growth(model)
    leaves = [_reduced(cn * p * math.prod(up), cd * s * math.prod(down))
              for up, down in _ratio_factors(model, order)]

    def split(lo: int, hi: int) -> tuple[int, int, int, int]:
        if hi - lo == 1:
            P, Q = leaves[lo]
            return P, Q, hi, P
        mid = (lo + hi) // 2
        P_L, Q_L, B_L, T_L = split(lo, mid)
        P_R, Q_R, B_R, T_R = split(mid, hi)
        return P_L * P_R, Q_L * Q_R, B_L * B_R, B_R * Q_R * T_L + B_L * P_L * T_R

    return split(0, order)


class MahlerMeasure(namedtuple(
    "MahlerMeasure", "model_name psi_pair z_pair order log_measure measure tail_bound"
)):
    """Numeric value of the logarithmic Mahler measure at a real parameter.

    ``log_measure`` is m(F_psi), ``measure`` is M(F_psi) = exp(m) and
    ``tail_bound`` is an upper estimate of the truncation error on m.
    ``psi_pair`` and ``z_pair`` hold psi and z = (k*psi)^(-k) as reduced
    (numerator, denominator) int pairs; :attr:`psi` and :attr:`z` read
    them as Fractions.
    """

    __slots__ = ()

    @property
    def psi(self) -> Fraction:
        from fractions import Fraction

        return Fraction(*self.psi_pair)

    @property
    def z(self) -> Fraction:
        from fractions import Fraction

        return Fraction(*self.z_pair)


def mahler_measure(model: Model, psi, order: int) -> MahlerMeasure:
    """Evaluate m(F_psi) = log(psi) - f(z)/k at z = (k*psi)^(-k).

    f_N(z) = sum_(j<=N) alpha_j z^j / j is summed exactly as one int ratio
    T/(B*Q) by binary splitting on the reduced operator's term ratio
    (:func:`_f_split`), with no period list; that int true division is the
    only rounding, so the float is f_N(z) correctly rounded.  The sum
    converges for |z| * C < 1, C = k^k/prod w_i^{w_i} being the growth rate
    of the period coefficients, but for a k-vector and a weights model alike
    it is m(F_psi) only for real psi >= n/k (n weights; ``measure`` notes a
    smaller psi on stderr), where F_psi has no zeros on the torus off a null
    set: n/k is the disk edge for a diagonal model, inside the disk otherwise.
    psi must be a positive real (exact) number: an int, a Fraction or a
    (numerator, denominator) pair of ints.  The tail bound is a geometric
    series on the last summed term alpha_N z^N / N.  A measure
    M(F_psi) = exp(m) beyond the float range raises ValueError.
    """
    if isinstance(psi, tuple):
        num, den = psi
        if not (isinstance(num, int) and isinstance(den, int)):
            raise TypeError("a psi pair needs an int numerator and denominator")
        if den == 0:
            raise ZeroDivisionError(f"psi = {num}/0")
        num, den = _reduced(num, den)
    else:
        num, den = _exact(psi)
    if num <= 0:
        raise ValueError("psi must be positive")
    if order < 1:
        raise ValueError("order must be at least 1")
    k = model.k
    p, s = _reduced(den**k, (k * num) ** k)  # z = p/s
    cn, cd = _growth(model)
    if p * cn >= s * cd:
        raise ConvergenceError(
            f"z = {_ratio_text(p, s)} (psi = {_ratio_text(num, den)}) lies outside "
            f"the disk of convergence of model {model.name} "
            f"(need |z| < 1/{_ratio_text(cn, cd)})"
        )
    P, Q, B, T = _f_split(model, p, s, order)
    fz = T / (B * Q)  # int true division rounds correctly
    log_m = math.log(num) - math.log(den) - fz / k
    try:
        measure = math.exp(log_m)
    except OverflowError:
        raise ValueError(
            f"M(F_psi) = exp({log_m!r}) overflows a float at psi = {_ratio_text(num, den)}"
        ) from None
    # Tail: for m > N the term ratio alpha_{m+1} z / alpha_m is bounded by
    # rho = C*|z| * prod_j max(1, (N+a_j)/(N+1-b_j)), each factor being
    # monotone in m toward 1.  With a_j and b_j over L, rho = rn/rd.
    N = order
    L, a, b = _parameters(model, "reduced")
    rn, rd = cn * p, cd * s
    for aj, bj in zip(a, b):
        x, y = N * L + aj, (N + 1) * L - bj
        if x > y:
            rn, rd = rn * x, rd * y
    if rn >= rd:
        tail = math.inf
    else:
        # The last summed term alpha_N z^N / N = P/(N*Q), times rho/(1 - rho),
        # is one int true division: the float of that Fraction, bit for bit.
        tail = (P * rn) / (N * Q * (rd - rn)) / k
    return MahlerMeasure(
        model_name=model.name,
        psi_pair=(num, den),
        z_pair=(p, s),
        order=order,
        log_measure=log_m,
        measure=measure,
        tail_bound=tail,
    )
