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

The report runs one side per map, the same steps with the maps swapped
(:func:`_side`, which reads its inputs from the mirror data by column).
The side of X (q or Q, with X = z exp(e_X), e_X = phi or f) has the other
map Y and K_Y = theta_z log Y (K_Q = g0, K_q = 1 + theta(phi)).  It reverts
X to z_X by Lagrange inversion of e_X (the mirror data stores no reversion),
composes X, Y and K_Y with z_X from one table of the powers of z_X, checks
X(z_X) = t on the first, takes its column X d/dX log Y(z_X) - 1 (u or v),
and Moebius-inverts that by a divisor sieve; both product forms must then
reproduce Y(z_X).  The log L of a product satisfies
1 + theta(L) = 1 - sum m^2 b_m t^m/(1 - t^m), its Lambert series, so the
plain form is checked once as Y(z_X) = t exp(L) to t^(count+1), its last
exponent included; that implies the Lambert identity for the logarithmic
derivative, not rechecked.  Then 1 + theta(L) is one plus the column, so
the alternating form holds exactly when its Lambert series is too, checked
to the last entry, with no second exponential.  The mirror data the sides
read was checked where it was built (:meth:`MirrorData.build`), and each
side reverts and checks its map by the step of :mod:`mahlerq.mirror` that
``series`` runs for zq and zQ; last, each side checks the k-th root
(X/z)^(1/k) = exp(e_X/k) of Conjecture 1 by its k-th power.

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
when its denominator is 1.  :meth:`IntegralityReport.rows` and the
report's JSON text (:meth:`IntegralityReport._render`) read each row from
one pass over reduced int pairs, so computing and printing a report never
loads ``fractions``.
"""

from collections import namedtuple

from .series import (Series, _coefficient_pairs, _coefficient_texts, _ratio_text, _reduced,
                     _series_from_texts, _theta_inverse)
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

def _side(md: MirrorData, column: str, count: int) -> tuple:
    """The side of the report (see the module docstring) whose column is
    ``column``: "u", the side of the map X = q = z exp(phi), with Y = Q and
    K_Q = g0, or "v", the side of X = Q = z exp(f), with Y = q and
    K_q = 1 + theta(phi).  md.order must exceed ``count``, as a logarithmic
    derivative loses one.

    It reverts X to z_X by :func:`_reversion` at order count + 1, which
    checks X(z_X) = t and composes Y(z_X) and K_Y(z_X) from the same table
    of the powers of z_X.  The direct route (theta(w) + w)/w, Y(z_X) = t*w,
    must satisfy the chain rule direct * K_X(z_X) = K_Y(z_X) to order
    ``count``; as K_X(z_X) has constant term 1, the two first differ where
    direct and K_Y(z_X)/K_X(z_X) do.  Last, the k-th root
    (X/z)^(1/k) = exp(e_X/k) must give X/z back as its k-th power.

    Returns the map's whole share of the report, as columns to ``count``:
    z in X, the g0 column g0(z_X) - 1 (K_Y(z_q) on the u side, K_X(z_Q) on
    the v side), the checked column X d/dX log Y(z_X) - 1 and its plain and
    alternating Moebius inversions, each checked as a product form of
    Y(z_X) (see the module docstring); then the Conjecture 1 verdict,
    whether that k-th root is integral.
    """
    if column == "u":
        name, e_X, X, Y, K_Y = "q", md.phi, md.q, md.Q, md.g0
    else:
        name, e_X, X, Y, K_Y = "Q", md.f, md.Q, md.q, md.phi.theta() + 1
    if X.order <= count:
        raise ValueError("mirror data order must exceed the coefficient count")
    where = f"model {md.model.name} at order {count}"
    X = X.truncate(count + 1)
    z_X, Y_of_z, K_Y_of_z = _reversion(e_X, X, name, where, (Y, K_Y))
    K_Y_of_z = K_Y_of_z.truncate(count)
    s = z_X.shift_down(1).truncate(count)
    K_X_of_z = s / (s.theta() + s)
    if Y_of_z.truncate(1) != Series.identity(1):
        start, linear = _coefficient_texts(Y_of_z.truncate(1))
        raise ConsistencyError(
            f"{column}-series composition for {where} is not t + O(t^2): "
            f"it starts {start} + {linear}*t"
        )
    w = Y_of_z.shift_down(1)
    direct = ((w.theta() + w) / w).truncate(count)
    m = _first_difference(direct * K_X_of_z, K_Y_of_z, count)
    if m is not None:
        raise ConsistencyError(
            f"{column}-series routes disagree for {where}, m={m}: "
            f"composition gives {_coefficient_texts(direct)[m]}, "
            f"chain rule gives {_coefficient_texts(K_Y_of_z / K_X_of_z)[m]}"
        )
    values = direct - 1
    plain, alt = (lambert_invert(values, a) for a in (False, True))
    if not product_check(Y_of_z, plain):
        raise ConsistencyError(f"{column}-series product form fails for {where}")
    if lambert_series(alt, count, True) != direct:
        raise ConsistencyError(f"{column}-series alternating product form fails for {where}")
    k = md.model.k
    root = (e_X.truncate(count) / k).exp()
    if root ** k != X.shift_down(1):
        raise ConsistencyError(f"k-th root of {name}/z fails its power check for {where}")
    g0 = K_Y_of_z if column == "u" else K_X_of_z
    return z_X.truncate(count), g0 - 1, values, plain, alt, root.denominator == 1


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
    return _side(md, "u", count)[2]


def v_series(md: MirrorData, count: int) -> Series:
    """The column v_1..v_count of Q d/dQ log q(Q) - 1; md.order must exceed count."""
    return _side(md, "v", count)[2]


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
    """Verify target = t * prod_{m<=M} (1 - (+-t)^m)^(m*b_m) mod t^(N+1),
    N = min(target.order, M + 1), for the column ``b`` of b_1..b_M.

    The log L of the product obeys 1 + theta(L) = lam = lambert_series(b),
    so L_i = lam_i / i and the product is exp(L): one exponential, no
    factor-by-factor product.  The Lambert identity u + theta(u) = lam * u
    for u = target/t follows from this equality, so it is not replayed.
    The factor m = M starts at t^(M+1): only a target of order M + 1 checks b_M.
    """
    b = _column(b)
    M = b.order
    if not M:
        raise ValueError("product_check needs at least one exponent b_1")
    if target.order < M:
        raise ValueError("target order too small for the product test")
    N = min(target.order, M + 1)
    log_product = _theta_inverse(lambert_series(b, N - 1, alternating))
    return target.truncate(N) == log_product.exp().zshift(1)


# ---------------------------------------------------------------------------
# integrality report
# ---------------------------------------------------------------------------

# The report's checks, in the order it lists them; the last two are stored.
CHECK_NAMES = (
    "product_plain", "product_alt", "lagrange_integral", "g0_in_q_integral",
    "g0_in_Q_integral", "proposition_qQ_integral", "conjecture1_root_integral",
)
# The columns a report's JSON stores, in its order; the other four are derived.
_STORED_COLUMNS = ("u", "v", "g0_in_q", "g0_in_Q", "z_in_q", "z_in_Q")
# The keys of a row, in its order, for an off-diagonal and for a diagonal
# model: m, then texts, then flags, the last of them "div_n" on a diagonal model.
_ENTRY_KEYS = ("b", "bhat", "c", "chat")
_ROW_TEXT_KEYS = (*_ENTRY_KEYS, *(f"{key}_over_m" for key in _ENTRY_KEYS))
_ROW_KEYS = tuple(("m", *_ROW_TEXT_KEYS, *(f"{key}_integer" for key in _ENTRY_KEYS),
                   *(f"{key}_div_m" for key in _ENTRY_KEYS), *last)
                  for last in ((), ("div_n",)))
_JSON_BOOLS = ("false", "true")


def _json_string(text: str) -> str:
    """``text`` as a JSON string literal, escaped as ``json.dumps`` does.

    No string a command writes needs an escape, so no command imports ``json``.
    """
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # a string that needs escaping

    return json.dumps(text)


def _json_list(items: list[str], pad: str, quote: str = "") -> str:
    """``items``, each between two ``quote``, as ``json.dumps(..., indent=2)``
    lays out a list whose members it indents by ``pad``: JSON texts with
    ``quote`` empty, or strings that need no escape with ``quote`` '"'."""
    if not items:
        return "[]"
    return f"[\n{pad}{quote}" + f"{quote},\n{pad}{quote}".join(items) + f"{quote}\n{pad[2:]}]"


def _row_template(keys: tuple[str, ...]) -> str:
    """A row with ``keys`` in a report's JSON text, as a %-format of its
    values: m, the texts, then each flag as its JSON literal."""
    fields = [f'"{key}": ' + ("%d" if key == "m" else '"%s"' if key in _ROW_TEXT_KEYS else "%s")
              for key in keys]
    return "{\n      " + ",\n      ".join(fields) + "\n    }"


_ROW_TEMPLATES = tuple(map(_row_template, _ROW_KEYS))


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

    def _row_values(self):
        """The values of each row m = 1..order, as (m, texts, flags) in the
        order of its keys: the texts are b, bhat, c and chat at m and each
        over m; the flags say whether each of the four is an integer, then
        whether it is one divisible by m, and, for a diagonal model,
        whether all four are integers divisible by n."""
        columns = [_coefficient_pairs(getattr(self, key))[1:] for key in _ENTRY_KEYS]
        n = self.model.n if self.model.is_diagonal() else 0
        for m, pairs in enumerate(zip(*columns), start=1):
            texts = [_ratio_text(num, den) for num, den in pairs]
            texts += [_ratio_text(*_reduced(num, den * m)) for num, den in pairs]
            flags = [den == 1 for _, den in pairs]
            flags += [den == 1 and num % m == 0 for num, den in pairs]
            if n:
                flags.append(all(den == 1 and num % n == 0 for num, den in pairs))
            yield m, texts, flags

    def rows(self) -> list[dict]:
        """The rows of the report's JSON text, one dict per m = 1..order,
        keyed as the text keys them (see :meth:`_row_values`)."""
        keys = _ROW_KEYS[self.model.is_diagonal()]
        return [dict(zip(keys, (m, *texts, *flags))) for m, texts, flags in self._row_values()]

    def _render(self) -> str:
        """The report as ``json.dumps(payload, indent=2) + "\\n"`` prints the
        payload that :meth:`from_json_dict` reads, byte for byte: its model,
        order, rows, six stored columns and checks.  Each row is one
        %-format of its values, and each column one join of its texts, none
        of which needs an escape."""
        template = _ROW_TEMPLATES[self.model.is_diagonal()]
        rows = [template % (m, *texts, *[_JSON_BOOLS[flag] for flag in flags])
                for m, texts, flags in self._row_values()]
        model = []
        for key, value in self.model.to_json_dict().items():
            if isinstance(value, list):
                value = _json_list(list(map(str, value)), "      ")
            elif isinstance(value, str):
                value = _json_string(value)
            elif value is None:
                value = "null"
            model.append(f'    "{key}": {value}')
        checks = [f'    "{name}": {_JSON_BOOLS[ok]}' for name, ok in self.checks.items()]
        return ",\n".join([
            '{\n  "model": {\n' + ",\n".join(model) + "\n  }",
            f'  "order": {self.order}',
            '  "rows": ' + _json_list(rows, "    "),
            *(f'  "{key}": ' + _json_list(_coefficient_texts(getattr(self, key))[1:], "    ", '"')
              for key in _STORED_COLUMNS),
            '  "checks": {\n' + ",\n".join(checks) + "\n  }\n}\n",
        ])

    @classmethod
    def from_json_dict(cls, model: Model, payload: dict) -> "IntegralityReport":
        """The report of ``model`` rebuilt from ``payload``, the parsed JSON
        text of a report (:meth:`_render`), with b, bhat, c and chat from
        :func:`lambert_invert` and its order from the length of the u
        column; the stored order is not read.  Its six stored columns and
        two verdicts cannot be checked, as recomputing them is what a cache
        saves.  A verdict renders as it was read, so each must be a bool: a
        stored 1 would render as 1 again."""
        order = len(payload["u"])
        u, v, *columns = (_series_from_texts(["0", *payload[key]]).truncate(order)
                          for key in _STORED_COLUMNS)
        verdicts = [payload["checks"][name] for name in CHECK_NAMES[-2:]]
        if not all(isinstance(verdict, bool) for verdict in verdicts):
            raise ValueError("its stored verdicts are not booleans")
        return cls(model, order, u, v, lambert_invert(u), lambert_invert(u, True),
                   lambert_invert(v), lambert_invert(v, True), *columns, *verdicts)


def integrality_report(model: Model, order: int) -> IntegralityReport:
    """Full pipeline: mirror data, then one side per map, which returns
    the map's whole share of the report (reversion and its check X(z) = t,
    u or v on two routes, Moebius tables, product checks, g0 column, k-th
    root), and the record.  Deterministic for a given (model, order).

    The mirror data is built one order deeper than requested so that both
    routes of each side cover every reported coefficient.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    md = MirrorData.build(model, order + 1)
    z_in_q, g0_in_q, u, b, bhat, root_q = _side(md, "u", order)
    z_in_Q, g0_in_Q, v, c, chat, root_Q = _side(md, "v", order)
    return IntegralityReport(
        model, order, u, v, b, bhat, c, chat, g0_in_q, g0_in_Q, z_in_q, z_in_Q,
        proposition_qQ_integral=md.q.denominator == 1 and md.Q.denominator == 1,
        conjecture1_root_integral=root_q and root_Q,
    )
