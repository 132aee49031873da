"""Change of variables between z, q and Q, and the integer tables behind it.

The logarithmic derivative q d/dq log Q expands as 1 + sum u_m q^m; its
Moebius inversion

    b_m     = -(1/m^2) sum_{d|m} mu(m/d) u_d
    bhat_m  = -(1/m^2) sum_{d|m} mu(m/d) (-1)^d u_d

turns the expansion into the product forms

    Q = q prod_{m>=1} (1 - q^m)^{m b_m}
      = q prod_{m>=1} (1 - (-q)^m)^{m bhat_m},

and symmetrically Q d/dQ log q = 1 + sum v_m Q^m yields c_m, chat_m with
q = Q prod (1 - Q^m)^{m c_m}.

The report runs one side per map, the same steps with the maps swapped.
The side of X (q or Q, with X = z exp(e_X), e_X = phi or f) has the other
map Y and K_Y = theta_z log Y (K_Q = g0, K_q = 1 + theta(phi)).  It reverts
X to z_X by Lagrange inversion of e_X (the mirror data stores no reversion),
checks X(z_X) = t, composes Y(z_X) and K_Y(z_X) once each, takes its column
X d/dX log Y(z_X) - 1 (u or v), and Moebius-inverts that by a divisor
sieve; both product forms must then reproduce Y(z_X).  The log L of a
product satisfies 1 + theta(L) = 1 - sum m^2 b_m t^m/(1 - t^m), its
Lambert series, so the plain form is checked once as Y(z_X) = t exp(L);
that implies the Lambert identity for the logarithmic derivative, not
rechecked.  t exp(L) determines the Lambert series, so the alternating
form holds exactly when its Lambert series is the plain form's, and is
checked so, with no second exponential.  The mirror data the sides read
was checked where it was built (:meth:`MirrorData.build`), and each side
reverts and checks its map by the step of :mod:`mahlerq.mirror` that
``series`` runs for zq and zQ; after the sides, the k-th roots of q/z and
Q/z are checked by their k-th powers.

The column's second route is the chain rule
t d/dt log Y(z(t)) = (theta_z log Y)(z(t)) * t d/dt log z(t):

    X d/dX log Y(z_X) = K_Y(z_X) / K_X(z_X),   K_X(z_X) = 1/(X d/dX log z_X),

so K_X(z_X) = s/(theta(s) + s) with s = z_X/z needs no composition; each
side checks its direct route times K_X(z_X) against K_Y(z_X).  The g0
columns are K_Y(z_q) on the q side and K_X(z_Q) on the Q side, each on its
side's checked route; :func:`g0_expansions` is an independent oracle for
them that the report does not call.  Everything is exact, and any
disagreement between two routes, a failed product form among them, halts
with :class:`ConsistencyError`: a report that is returned passed them all.

Every column of the report (u, v, b, bhat, c, chat, g0 in q and in Q, z in
q and in Q) is a field of :class:`IntegralityReport` holding a
:class:`Series` with constant term 0 whose z^m coefficient is entry m:
int numerators over one denominator, so the sieve, the product checks and
the integrality verdicts run on ints, and a column is integral exactly
when its denominator is 1.  :meth:`IntegralityReport.rows` and
:meth:`IntegralityReport.to_json_dict` render from reduced int pairs, so
computing and printing a report never loads ``fractions``.
"""

from __future__ import annotations

from collections import namedtuple

from .series import (Series, _coefficient_pairs, _coefficient_texts, _ratio_text, _reduced,
                     _theta_inverse)
from .mirror import ConsistencyError, MirrorData, _first_difference, _reversion
from .weights import Model


def _column(values: Series) -> Series:
    """``values`` checked as a column: a series with constant term 0 whose
    z^m coefficient is entry m."""
    if not isinstance(values, Series):
        raise TypeError(f"a column is a Series, got {type(values).__name__}")
    if values.numerators[0]:
        raise ValueError("a column series needs constant term 0")
    return values


# ---------------------------------------------------------------------------
# u and v expansions (dual-route)
# ---------------------------------------------------------------------------

def _side(e_X: Series, X: Series, Y: Series, K_Y: Series, count: int,
          label: str, where: str) -> tuple:
    """The side of the map X = z exp(e_X) of the report (see the module
    docstring); Y is the other map, K_Y = theta_z log Y.  X must exceed
    ``count`` in order, as a logarithmic derivative loses one.  ``label``
    and ``where`` name the column, model and order in an error.

    It reverts X to z_X by :func:`_reversion` at order count + 1, which it
    reads.  The direct route (theta(w) + w)/w, Y(z_X) = t*w, must satisfy
    the chain rule direct * K_X(z_X) = K_Y(z_X) to order ``count``; as
    K_X(z_X) has constant term 1, the two first differ where direct and
    K_Y(z_X)/K_X(z_X) do.  Returns, as columns to ``count``: z in X,
    K_Y(z_X) - 1, K_X(z_X) - 1, the checked column X d/dX log Y(z_X) - 1
    and its plain and alternating Moebius inversions, each checked as a
    product form of Y(z_X) (see the module docstring).
    """
    if X.order <= count:
        raise ValueError("mirror data order must exceed the coefficient count")
    z_X = _reversion(e_X, X.truncate(count + 1), "q" if label == "u" else "Q", where)
    Y_of_z = Y.compose(z_X)
    K_Y_of_z = K_Y.compose(z_X).truncate(count)
    s = z_X.shift_down(1).truncate(count)
    K_X_of_z = s / (s.theta() + s)
    if Y_of_z.truncate(1) != Series.identity(1):
        start, linear = _coefficient_texts(Y_of_z.truncate(1))
        raise ConsistencyError(
            f"{label}-series composition for {where} is not t + O(t^2): "
            f"it starts {start} + {linear}*t"
        )
    w = Y_of_z.shift_down(1)
    direct = ((w.theta() + w) / w).truncate(count)
    m = _first_difference(direct * K_X_of_z, K_Y_of_z, count)
    if m is not None:
        raise ConsistencyError(
            f"{label}-series routes disagree for {where}, m={m}: "
            f"composition gives {_coefficient_texts(direct)[m]}, "
            f"chain rule gives {_coefficient_texts(K_Y_of_z / K_X_of_z)[m]}"
        )
    column = direct - 1
    plain, alt = (lambert_invert(column, a) for a in (False, True))
    if not product_check(Y_of_z, plain):
        raise ConsistencyError(f"{label}-series product form fails for {where}")
    if lambert_series(alt, count - 1, True) != lambert_series(plain, count - 1):
        raise ConsistencyError(f"{label}-series alternating product form fails for {where}")
    return z_X.truncate(count), K_Y_of_z - 1, K_X_of_z - 1, column, plain, alt


# The columns come from integrality_report; the three functions below are not
# exported, and stay here as test and benchmark oracles that bench/layers.py
# wraps by module attribute.  ROADMAP item 10 moves them into the tests once
# item 3's stage hook replaces that monkeypatching.

def g0_expansions(md: MirrorData, count: int) -> tuple[Series, Series]:
    """g0 rewritten in q and in Q, as columns (g0 - 1, to order count);
    md.order must exceed count, as g0(z(Q)) = 1/(Q d/dQ log z(Q)) =
    u/(theta(u) + u), with u = z(Q)/z, is one order below the reversion
    z(Q).  An oracle for the report's g0 columns, which its sides form on
    their own routes; it reverts q and Q itself."""
    if md.order <= count:
        raise ValueError("mirror data order must exceed the coefficient count")
    in_q = md.g0.compose(md.q.revert())
    u = md.Q.revert().shift_down(1)
    in_Q = u / (u.theta() + u)
    return in_q.truncate(count) - 1, in_Q.truncate(count) - 1


def u_series(md: MirrorData, count: int) -> Series:
    """The column u_1..u_count of q d/dq log Q(q) - 1; md.order must exceed count."""
    where = f"model {md.model.name} at order {count}"
    return _side(md.phi, md.q, md.Q, md.g0, count, "u", where)[3]


def v_series(md: MirrorData, count: int) -> Series:
    """The column v_1..v_count of Q d/dQ log q(Q) - 1; md.order must exceed count."""
    where = f"model {md.model.name} at order {count}"
    return _side(md.f, md.Q, md.q, md.phi.theta() + 1, count, "v", where)[3]


# ---------------------------------------------------------------------------
# Moebius / Lambert inversion
# ---------------------------------------------------------------------------

def lambert_invert(u: Series, alternating: bool = False) -> Series:
    """Invert 1 + sum u_m t^m into Lambert-series coefficients.

    Plain:        b_m = -(1/m^2) sum_{d|m} mu(m/d) u_d
    Alternating:  bhat_m = -(1/m^2) sum_{d|m} mu(m/d) (-1)^d u_d

    ``u`` is a column (a series with constant term 0 whose z^m coefficient
    is u_m), and so is the result.  Since u_m = -sum_{d|m} d^2 b_d, a
    sieve over the divisor lattice inverts it: once slot d holds its
    finished sum, subtracting it from every proper multiple of d leaves
    sum_{d|m} mu(m/d) u_d in slot m.  The sieve runs on the numerators.
    """
    u = _column(u)
    den = u.denominator
    acc = [-x if alternating and d % 2 else x
           for d, x in enumerate(u.numerators[1:], start=1)]
    for d in range(1, len(acc) + 1):
        for multiple in range(2 * d, len(acc) + 1, d):
            acc[multiple - 1] -= acc[d - 1]
    return Series._from_pairs(
        [(0, 1)] + [(-x, m * m * den) for m, x in enumerate(acc, start=1)]
    )


def lambert_series(b: Series, order: int, alternating: bool = False) -> Series:
    """Expand 1 - sum_m b_m m^2 t^m/(1-t^m) (or its (-t)^m variant) to ``order``.

    ``b`` is a column, as :func:`lambert_invert` returns it.  Brute-force
    summation of each geometric block, independent of the Moebius route:
    product_check takes the product's logarithm from it, and it doubles as
    the round-trip oracle.
    """
    b = _column(b)
    if order < 0:
        raise ValueError("order must be nonnegative")
    num, den = b.numerators, b.denominator
    coeffs = [den] + [0] * order
    for m in range(1, min(b.order, order) + 1):
        weight = num[m] * m * m
        for i in range(m, order + 1, m):
            coeffs[i] += weight if alternating and i % 2 else -weight
    return Series._from_ints(coeffs, den)


def product_check(target: Series, b: Series, alternating: bool = False) -> bool:
    """Verify target = t * prod_{m<=M} (1 - (+-t)^m)^(m*b_m) mod t^(M+1).

    ``b`` is the column of b_1..b_M.  The log L of the product obeys
    1 + theta(L) = lam = lambert_series(b), so L_i = lam_i / i and the
    product is exp(L): one exponential, no factor-by-factor product.  The
    Lambert identity u + theta(u) = lam * u for u = target/t follows from
    this equality, so it is not replayed.  The factor m = M starts at
    t^(M+1), so b_M is unchecked.
    """
    b = _column(b)
    M = b.order
    if not M:
        raise ValueError("product_check needs at least one exponent b_1")
    if target.order < M:
        raise ValueError("target order too small for the product test")
    log_product = _theta_inverse(lambert_series(b, M - 1, alternating))
    return target.truncate(M) == log_product.exp().zshift(1)


# ---------------------------------------------------------------------------
# integrality report
# ---------------------------------------------------------------------------

# The report's checks, in the order it lists them; the cache reader
# validates an entry against CHECK_NAMES.
CHECK_NAMES = (
    "product_plain", "product_alt", "lagrange_integral", "g0_in_q_integral",
    "g0_in_Q_integral", "proposition_qQ_integral", "conjecture1_root_integral",
)


class IntegralityReport(namedtuple(
    "IntegralityReport",
    "model order u v b bhat c chat g0_in_q g0_in_Q z_in_q z_in_Q "
    "proposition_qQ_integral conjecture1_root_integral",
)):
    """Computed columns and integrality verdicts for one model at one order.

    u and v are the expansions of q d/dq log Q - 1 and Q d/dQ log q - 1;
    b, bhat, c and chat are their Moebius inversions (see
    :func:`lambert_invert`); g0_in_q, g0_in_Q, z_in_q and z_in_Q are g0 - 1
    and z rewritten in q and in Q.  Each of these fields is a column: a
    :class:`Series` of order ``order`` with constant term 0 whose z^m
    coefficient is entry m.  The two verdict fields read what the record
    does not keep (q and Q to order ``order`` + 1, their k-th roots); every
    other verdict, per row or in :attr:`checks`, is derived when read.
    """

    __slots__ = ()

    @property
    def checks(self) -> dict:
        """The checks by :data:`CHECK_NAMES`; both product forms hold, as a
        report is only returned when they do."""
        return dict(zip(CHECK_NAMES, (
            True, True, self.z_in_q.denominator == 1 and self.z_in_Q.denominator == 1,
            self.g0_in_q.denominator == 1, self.g0_in_Q.denominator == 1,
            self.proposition_qQ_integral, self.conjecture1_root_integral)))

    def rows(self) -> list[dict]:
        keys = ("b", "bhat", "c", "chat")
        columns = [_coefficient_pairs(getattr(self, key)) for key in keys]
        out = []
        diagonal = self.model.is_diagonal()
        n = self.model.n
        for m in range(1, self.order + 1):
            vals = {key: column[m] for key, column in zip(keys, columns)}
            row: dict = {"m": m}
            row.update({key: _ratio_text(*x) for key, x in vals.items()})
            for key, (num, den) in vals.items():
                row[f"{key}_over_m"] = _ratio_text(*_reduced(num, den * m))
            for key, (_, den) in vals.items():
                row[f"{key}_integer"] = den == 1
            for key, (num, den) in vals.items():
                row[f"{key}_div_m"] = den == 1 and num % m == 0
            if diagonal:
                row["div_n"] = all(
                    den == 1 and num % n == 0 for num, den in vals.values()
                )
            out.append(row)
        return out

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.to_json_dict(),
            "order": self.order,
            "rows": self.rows(),
            "u": _coefficient_texts(self.u)[1:],
            "v": _coefficient_texts(self.v)[1:],
            "g0_in_q": _coefficient_texts(self.g0_in_q)[1:],
            "g0_in_Q": _coefficient_texts(self.g0_in_Q)[1:],
            "z_in_q": _coefficient_texts(self.z_in_q)[1:],
            "z_in_Q": _coefficient_texts(self.z_in_Q)[1:],
            "checks": self.checks,
        }


def _kth_root(series: Series, exponent: Series, k: int, label: str,
              where: str) -> Series:
    """(series/z)^(1/k) for series = z*exp(exponent), as exp(exponent/k),
    checked exactly against series/z by its k-th power; ``where`` names the
    model and order in an error."""
    unit = series.shift_down(1)
    root = (exponent.truncate(unit.order) / k).exp()
    if root ** k != unit:
        raise ConsistencyError(
            f"k-th root of {label}/z fails its power check for {where}"
        )
    return root


def integrality_report(model: Model, order: int) -> IntegralityReport:
    """Full pipeline: mirror data, one side per map (reversion and its
    check X(z) = t, u or v on two routes, Moebius tables, product checks),
    k-th roots and the integrality checks.  Deterministic for a given
    (model, order).

    The mirror data is built one order deeper than requested so that both
    routes of each side cover every reported coefficient.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    md = MirrorData.build(model, order + 1)
    where = f"model {model.name} at order {order}"
    z_in_q, g0_in_q, _, u, b, bhat = _side(md.phi, md.q, md.Q, md.g0, order, "u", where)
    z_in_Q, _, g0_in_Q, v, c, chat = _side(
        md.f, md.Q, md.q, md.phi.theta() + 1, order, "v", where)
    root_q = _kth_root(md.q, md.phi, model.k, "q", where)
    root_Q = _kth_root(md.Q, md.f, model.k, "Q", where)
    return IntegralityReport(
        model, order, u, v, b, bhat, c, chat, g0_in_q, g0_in_Q, z_in_q, z_in_Q,
        proposition_qQ_integral=md.q.denominator == 1 and md.Q.denominator == 1,
        conjecture1_root_integral=root_q.denominator == 1 and root_Q.denominator == 1,
    )
