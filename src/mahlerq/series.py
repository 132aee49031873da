"""Exact truncated formal power series over arbitrary-precision rationals.

A :class:`Series` of order ``N`` is exact modulo ``z^(N+1)``.  It stores
the coefficients of ``z^0 .. z^N`` as one tuple of Python int numerators
over one positive int denominator, the layout of FLINT's ``fmpq_poly``.
The pair is kept in reduced form: the gcd of the denominator and all
numerators is 1, so equal series have equal pairs.  Arithmetic runs on the
ints and normalises once per operation rather than once per coefficient.

The series of the mirror-map pipeline (the period ``g0``, the maps ``Q``
and ``q``, their reversions, ``exp(-m*phi)``) have integer coefficients,
which is the integrality this engine exists to test, so the denominator is
almost always 1 and a product is a plain integer convolution.  Two
recurrences, series division and J.C.P. Miller's power recurrence, give
``invert``/``log`` and ``exp``/``**``; they carry integer numerators over a
running denominator and rescale only when a division is not exact.
Composition substitutes one inner series into several outer ones from one
table of the inner's powers (:func:`_compose_all`), so the report builds
one table per side; :meth:`Series.compose` is the case of one outer.
The integrality report carries its columns (u, v, b, ..., z in q) in this
same form, as a series whose z^m coefficient is entry m, and renders them
from reduced int pairs, so it runs without ``fractions``.
:attr:`Series.coeffs` and :meth:`Series.coeff` still hand out
:class:`fractions.Fraction` values; the module imports ``fractions`` the
first time one is built, since ``fractions`` loads ``re``, ``enum``,
``decimal`` and ``numbers``, which integer-only callers never need.

The kernel never extends precision on its own: binary operations on
mismatched orders truncate to the smaller order, so the working order is
chosen once at pipeline entry.  Every value is immutable after
construction and all operations are pure, which makes sharing across
threads safe by construction.

:class:`Series` is the kernel's only series type.  A logarithmic solution
``R(z) + L(z)*log z`` is the plain pair ``(R, L)``: the Euler operator
``theta = z*d/dz`` sends it to ``(theta(R) + L, theta(L))``, so no
symbolic ``log z`` object is ever needed (see ``pf_apply`` in
``tests/oracles.py``).
"""

import sys
from collections.abc import Iterable, Sequence
from math import gcd, lcm
from operator import mul


def _pair(value) -> tuple[int, int] | None:
    """(numerator, denominator) in lowest terms of an int or a Fraction,
    None for any other value.

    A Fraction can only exist once ``fractions`` is loaded, so the test
    looks the module up instead of importing it, and costs no import per
    call.
    """
    if isinstance(value, int):
        return value, 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return value.numerator, value.denominator
    return None


def _exact(value) -> tuple[int, int]:
    """:func:`_pair` of an exact scalar; anything else is a TypeError."""
    pair = _pair(value)
    if pair is None:
        raise TypeError(f"exact scalar required, got {type(value).__name__}")
    return pair


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of the product of two int sequences of length > n."""
    rb = b[n::-1]
    return [sum(map(mul, a[: k + 1], rb[n - k :])) for k in range(n + 1)]


def _append_quotient(values: list[int], divisor: int, value: int, den: int) -> int:
    """Append ``value / divisor`` to int numerators over ``den``.

    ``divisor`` is positive.  When the division is not exact, every stored
    numerator and the denominator are multiplied by the missing factor
    first.  Returns the new denominator.
    """
    q, r = divmod(value, divisor)
    if r:
        g = gcd(value, divisor)
        s = divisor // g
        values[:] = [x * s for x in values]
        den *= s
        q = value // g
    values.append(q)
    return den


def _divide(g: "Series", f: "Series") -> "Series":
    """g/f by one pass of F_0*P_m = G_m - sum_(j>=1) F_j*P_(m-j).

    With g = G/dg and f = F/df, the running denominator starts at dg, so
    G_m enters as df*G_m*(den/dg).
    """
    F, df, G, dg = f._num, f._den, g._num, g._den
    if F[0] == 0:
        raise ValueError("series with zero constant term is not invertible")
    sign, size = (1, F[0]) if F[0] > 0 else (-1, -F[0])
    out, den = [], dg
    for m in range(min(g.order, f.order) + 1):
        acc = sum(map(mul, F[1 : m + 1], out[m - 1 :: -1]))
        den = _append_quotient(out, size, sign * (df * G[m] * (den // dg) - acc), den)
    return Series._from_ints(out, den)


def _miller(f: "Series", k: "Series", order: int) -> "Series":
    """P with P_0 = 1 and theta(F*P) = K*P, by J.C.P. Miller's recurrence
    m*F_0*P_m = sum_(j=1..m) (K_j - m*F_j)*P_(m-j) (Knuth, TAOCP vol. 2, 4.7).

    K = (e+1)*theta(F) gives P = (F/F_0)^e, and F = 1 gives P = exp(a) for
    K = theta(a).  On f = F/df and k = K/dk it runs multiplied by df*dk.
    """
    F, df, K, dk = f._num, f._den, k._num, k._den
    sign, size = (1, F[0]) if F[0] > 0 else (-1, -F[0])
    out, den = [1], 1
    for m in range(1, order + 1):
        rev = out[m - 1 :: -1]
        acc = df * sum(map(mul, K[1 : m + 1], rev))
        acc -= m * dk * sum(map(mul, F[1 : m + 1], rev))
        den = _append_quotient(out, m * dk * size, sign * acc, den)
    return Series._from_ints(out, den)


def _compose_all(outers: "Sequence[Series]", inner: "Series") -> "list[Series]":
    """Each of ``outers`` composed with ``inner`` (constant term 0), as
    ``outer.compose(inner)`` gives it, from one table of the powers of
    ``inner``: compositions grouped by inner series (Brent & Kung 1978).

    With inner = G/d and N the highest order a result needs, the table
    holds g^k = G^k*d^(N-k)/d^N for k = 1..N, stored by coefficient: row m
    lists [z^m] G^k*d^(N-k) for k = 1..m, as g^k has valuation >= k.  An
    outer F/df then gives coefficient m as one dot product of F_1..F_m with
    row m, over df*d^N.  G^k = z^k*(G/z)^k, and (G/z)^k is only needed mod
    z^(N-k+1), so the table takes about N^3/6 coefficient products and
    each outer about N^2/2 more.
    """
    if inner._num[0] != 0:
        raise ValueError("composition needs inner constant term 0")
    N = max((min(f.order, inner.order) for f in outers), default=0)
    g, d = inner._num[1 : N + 1], inner._den
    rows: list[list[int]] = [[] for _ in range(N + 1)]
    power = g  # (G/z)^k mod z^(N-k+1)
    for k in range(1, N + 1):
        scale = d ** (N - k)
        for m, x in enumerate(power, start=k):
            rows[m].append(x * scale if scale != 1 else x)
        if k < N:
            power = _convolve(power, g, N - k - 1)
    top = d**N
    out = []
    for f in outers:
        F = f._num
        nums = [F[0] * top]
        nums += [sum(map(mul, F[1 : m + 1], rows[m]))
                 for m in range(1, min(f.order, inner.order) + 1)]
        out.append(Series._from_ints(nums, f._den * top))
    return out


class Series:
    """Truncated power series ``c_0 + c_1 z + ... + c_N z^N`` (exact mod z^(N+1))."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: "Iterable[int | Fraction]", order: int | None = None):
        cs = [_exact(c) for c in coeffs]
        pad = 0
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            del cs[order + 1 :]
            pad = order + 1 - len(cs)
        if not cs and not pad:
            raise ValueError("a series needs at least its constant coefficient")
        # The lcm of reduced denominators leaves the pair in reduced form,
        # and the zeros padded up to the order do not change it.
        den = lcm(*(d for _, d in cs))
        self._num = tuple(n * (den // d) for n, d in cs) + (0,) * pad
        self._den = den

    @classmethod
    def _from_ints(cls, nums: Sequence[int], den: int = 1) -> "Series":
        """Wrap int numerators over a positive denominator, reducing the pair."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        s = object.__new__(cls)
        s._num = tuple(nums)
        s._den = den
        return s

    @classmethod
    def _from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "Series":
        """Coefficients given as (numerator, denominator) int pairs, each
        denominator positive, over the lcm of the denominators."""
        den = lcm(*(d for _, d in pairs))
        return cls._from_ints([n * (den // d) for n, d in pairs], den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order)

    @classmethod
    def constant(cls, value: "int | Fraction", order: int) -> "Series":
        return cls([value], order)

    @classmethod
    def identity(cls, order: int) -> "Series":
        """The series ``z``."""
        if order < 1:
            raise ValueError("identity needs order >= 1")
        return cls([0, 1], order)

    # -- basic accessors ----------------------------------------------

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def numerators(self) -> tuple[int, ...]:
        """Integer numerators over :attr:`denominator`, in reduced form."""
        return self._num

    @property
    def denominator(self) -> int:
        """Common positive denominator; 1 exactly when all coefficients are integers."""
        return self._den

    @property
    def coeffs(self) -> "tuple[Fraction, ...]":
        from fractions import Fraction

        d = self._den
        return tuple(Fraction(x, d) for x in self._num)

    def coeff(self, m: int) -> "Fraction":
        """Coefficient of ``z^m``; asking beyond the truncation order is an error."""
        if not 0 <= m <= self.order:
            raise IndexError(
                f"coefficient z^{m} beyond truncation order {self.order}"
            )
        from fractions import Fraction

        return Fraction(self._num[m], self._den)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for m, c in enumerate(self._num):
            if c:
                return m
        return None

    def is_zero(self) -> bool:
        return not any(self._num)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Series)
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __reduce__(self):
        # Slots pickle by default only from protocol 2; this covers them all.
        return Series._from_ints, (self._num, self._den)

    def __repr__(self) -> str:
        return f"Series({_coefficient_texts(self)})"

    def __str__(self) -> str:
        terms = []
        for m, c in enumerate(_coefficient_texts(self)):
            if c == "0":
                continue
            if m == 0:
                terms.append(c)
            elif m == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{m}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(z^{self.order + 1})"

    # -- order management ---------------------------------------------

    def truncate(self, order: int) -> "Series":
        """Drop coefficients above ``order`` (never extends)."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order > self.order:
            raise ValueError("truncate cannot extend a series")
        if order == self.order:
            return self
        return Series._from_ints(self._num[: order + 1], self._den)

    def zshift(self, n: int = 1) -> "Series":
        """Multiply by ``z^n``, raising the order by ``n`` (no information lost)."""
        if n < 0:
            raise ValueError("zshift amount must be nonnegative")
        return Series._from_ints((0,) * n + self._num, self._den)

    def shift_down(self, n: int) -> "Series":
        """Divide by ``z^n``; the first ``n`` coefficients must vanish."""
        if n < 0 or n > self.order:
            raise ValueError("shift_down amount out of range")
        if any(self._num[:n]):
            raise ValueError("shift_down needs a zero of that order")
        return Series._from_ints(self._num[n:], self._den)

    # -- ring operations ----------------------------------------------

    def _scale(self, num: int, den: int) -> "Series":
        # self * num/den for den != 0
        if den < 0:
            num, den = -num, -den
        return Series._from_ints([num * x for x in self._num], den * self._den)

    def _linear(self, other, sign: int) -> "Series":
        # self + sign*other on a common denominator
        if not isinstance(other, Series):
            if _pair(other) is None:
                return NotImplemented
            other = Series.constant(other, self.order)
        n = min(self.order, other.order)
        a, da, b, db = self._num, self._den, other._num, other._den
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        return Series._from_ints(
            [x * sa + y * sb for x, y in zip(a[: n + 1], b[: n + 1])], den
        )

    def __add__(self, other):
        return self._linear(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Series._from_ints([-x for x in self._num], self._den)

    def __sub__(self, other):
        return self._linear(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            pair = _pair(other)
            return NotImplemented if pair is None else self._scale(*pair)
        n = min(self.order, other.order)
        return Series._from_ints(
            _convolve(self._num, other._num, n), self._den * other._den
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return _divide(self, other)
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        num, den = pair
        if num == 0:
            raise ZeroDivisionError("division of a series by zero")
        return self._scale(den, num)

    def invert(self) -> "Series":
        """Multiplicative inverse; needs a nonzero constant term."""
        return Series.one(self.order) / self

    # -- transcendental operations ------------------------------------

    def exp(self) -> "Series":
        """Exponential of a constant-term-free series: sum a^k / k!.

        theta(E) = theta(a)*E is Miller's recurrence with F = 1 and
        K = theta(a).
        """
        if self._num[0] != 0:
            raise ValueError("exp needs a zero constant term")
        return _miller(Series.one(0), self.theta(), self.order)

    def log(self) -> "Series":
        """Logarithm of a series with constant term 1: theta(log a) = theta(a)/a."""
        if self._num[0] != self._den:
            raise ValueError("log needs constant term 1")
        return _theta_inverse(self.theta() / self)

    def __pow__(self, exponent):
        """``self ** e`` for any rational ``e``, by Miller's recurrence.

        The base needs a nonzero constant term, and constant term 1 when
        ``e`` is fractional (the branch fixed by value 1 at z=0).
        """
        en, ed = _exact(exponent)
        a0, d = self._num[0], self._den
        if ed != 1 and a0 != d:
            raise ValueError("fractional power needs constant term 1")
        if a0 == 0:
            raise ValueError("power needs a nonzero constant term")
        # The recurrence gives (F/F_0)^e; F_0^e = (a0/d)^en is 1 when e is
        # fractional.
        power = _miller(self, self.theta()._scale(en + ed, ed), self.order)
        g = gcd(a0, d)
        a0, d = (a0 // g, d // g) if en >= 0 else (d // g, a0 // g)
        return power._scale(a0 ** abs(en), d ** abs(en))

    # -- calculus ------------------------------------------------------

    def theta(self) -> "Series":
        """Euler operator z*d/dz: multiplies coefficient m by m."""
        return Series._from_ints([m * c for m, c in enumerate(self._num)], self._den)

    # -- composition and reversion -------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (constant term 0) into self; the result has
        order min(self.order, inner.order).  One outer of
        :func:`_compose_all`, whose table of the powers of ``inner`` the
        mirror pipeline shares among the series it composes on one inner."""
        return _compose_all((self,), inner)[0]

    def revert(self) -> "Series":
        """Compositional inverse of a series with f(0)=0, f'(0)!=0; the mirror
        pipeline reverts by :func:`lagrange_coeffs`, and this is its test oracle.

        Newton iteration with order doubling: with g correct mod
        z^(p+1), one step of g -= (f(g) - z)/f'(g) is correct mod
        z^(2p+2).  Each step composes once: f'(g) = f(g)'/g' by the chain
        rule, exactly, since g'(0) != 0, and a derivative h' is
        theta(h)/z for h(0) = 0.  The quotient is formed after
        stripping the valuation of the numerator, so f'(g) is only ever
        needed below full order.
        """
        N = self.order
        a = self._num
        if N < 1 or a[0] != 0:
            raise ValueError("reversion needs f(0) = 0 and order >= 1")
        if a[1] == 0:
            raise ValueError("reversion needs f'(0) != 0")
        g = Series.identity(1)._scale(self._den, a[1])  # z / f'(0)
        if N == 1:
            return g
        prec = 1
        while prec < N:
            prec = min(2 * prec, N)
            # zero-extend; the step repairs the tail
            gt = Series._from_ints(g._num + (0,) * (prec - g.order), g._den)
            composed = self.truncate(prec).compose(gt)
            err = composed - Series.identity(prec)
            val = err.valuation()
            if val is None:
                g = gt
                continue
            d = composed.theta().shift_down(1).truncate(prec - val) / gt.theta().shift_down(1)
            quot = err.shift_down(val) / d
            g = gt - quot.zshift(val).truncate(prec)
        return g


def _theta_inverse(s: Series) -> Series:
    """The series L with L(0) = 0 and theta(L) = s - s(0): coefficient m of
    ``s`` divided by m, over one common denominator."""
    scale = lcm(*range(1, s.order + 1))
    nums = [0] + [x * (scale // m) for m, x in enumerate(s._num[1:], start=1)]
    return Series._from_ints(nums, s._den * scale)


def _coefficient_pairs(s: Series) -> list[tuple[int, int]]:
    """Each coefficient of ``s`` as a reduced (numerator, denominator) pair."""
    d = s._den
    if d == 1:
        return [(x, 1) for x in s._num]
    return [_reduced(x, d) for x in s._num]


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den (den != 0) in lowest terms with a positive denominator."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _ratio_text(num: int, den: int) -> str:
    """A reduced pair as ``str`` prints the Fraction: "p" or "p/q"."""
    return str(num) if den == 1 else f"{num}/{den}"


def _coefficient_texts(s: Series) -> list[str]:
    """Each coefficient of ``s`` as ``str`` prints its Fraction."""
    return [_ratio_text(*p) for p in _coefficient_pairs(s)]


def _series_from_texts(texts: Sequence[str]) -> Series:
    """The inverse of :func:`_coefficient_texts`: each text a "p" or "p/q"
    read with ``int()``; a zero denominator raises ZeroDivisionError."""
    return Series._from_pairs([(int(num), int(den) if slash else 1)
                               for num, slash, den in (t.partition("/") for t in texts)])


def lagrange_coeffs(phi: Series, count: int) -> Series:
    """Reversion of w = z*exp(phi(z)) via Lagrange inversion.

    Returns z = sum a_m w^m as the series 0 + a_1 w + ... + a_count w^count.
    Since z = w*exp(-phi(z)), the Lagrange inversion formula gives
    a_m = [z^(m-1)] exp(-m*phi) / m, one coefficient of one exponential.
    theta(phi) = T/D is formed once, and row m runs Miller's recurrence
    i*D*E_i = -m * sum_(j=1..i) T_j*E_(i-j) for E = exp(-m*phi) mod z^m
    on a list of int numerators over a running denominator, as
    :func:`_miller` does.  Where the map w is integral, so are theta(phi)
    and E, and every division is exact.
    Needs phi(0) = 0 and phi.order >= count - 1.  The mirror pipeline
    reverts by it, and :meth:`Series.revert` is its independent test oracle.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if phi.numerators[0] != 0:
        raise ValueError("lagrange_coeffs needs phi(0) = 0")
    if phi.order < count - 1:
        raise ValueError(
            f"phi order {phi.order} too small for {count} coefficients"
        )
    theta = phi.truncate(count - 1).theta()
    T, D = theta.numerators, theta.denominator
    out = [(0, 1)]
    for m in range(1, count + 1):
        # Only z^(m-1) of the exponential is read, so its row stops there.
        row, den = [1], 1
        for i in range(1, m):
            acc = -m * sum(map(mul, T[1 : i + 1], row[::-1]))
            den = _append_quotient(row, i * D, acc, den)
        out.append(_reduced(row[m - 1], m * den))
    return Series._from_pairs(out)
