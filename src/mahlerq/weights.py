"""Weight systems: tuples (k_1 <= ... <= k_n) with sum 1/k_i = 1.

Every such tuple determines a degree k = lcm(k_i) and weights
w_i = k/k_i with sum w_i = k.  Enumeration runs a bounded depth-first
search with exact rational residuals, kept as reduced int pairs; a model can also be built from a
direct (k; w_1..w_n) pair with sum w_i = k, which covers weighted
hypersurfaces whose exponent vector is supplied by hand.
"""

from __future__ import annotations

import math
import operator
from collections import Counter, namedtuple
from collections.abc import Iterable


class KVector(tuple):
    """Non-decreasing tuple of integers >= 2 whose reciprocals sum to 1.

    A tuple validated on construction, so iteration and read-only
    attributes come from ``tuple``; unpickling, under every protocol,
    passes the items back through ``__new__``, which validates them again.
    A KVector equals only another KVector, never a plain tuple with the
    same parts.  Parts pass ``operator.index``: floats and strings raise.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]):
        p = tuple(map(operator.index, parts))
        if len(p) < 2:
            raise ValueError("a weight system needs at least two parts")
        if p[0] < 2:
            raise ValueError("parts must be at least 2")
        if any(a > b for a, b in zip(p, p[1:])):
            raise ValueError("parts must be non-decreasing")
        lcm = math.lcm(*p)
        if sum(lcm // k for k in p) != lcm:
            raise ValueError(f"reciprocals of {p} do not sum to 1")
        return super().__new__(cls, p)

    # Not NotImplemented: tuple's own __eq__ would then equate a plain tuple.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is KVector and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    # Without it, pickle protocols 0 and 1 rebuild a tuple subclass through
    # copyreg._reconstructor, which calls tuple.__new__ and skips validation.
    def __reduce__(self):
        return KVector, (tuple(self),)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"KVector(parts={self.parts!r})"

    def __str__(self) -> str:
        return ",".join(map(str, self))


class Model(namedtuple("Model", "k w kvec name")):
    """A degree k with n >= 2 weights (w_1..w_n), sum w_i = k; optionally from a KVector.

    An empty name is replaced by the k-vector, or by "k:w_1,..,w_n".  k and
    w pass ``operator.index``: floats and strings raise, never truncate.
    """

    __slots__ = ()

    def __new__(cls, k: int, w: Iterable[int], kvec: KVector | None = None,
                name: str = ""):
        k, w = operator.index(k), tuple(map(operator.index, w))
        if len(w) < 2:
            raise ValueError("a weight system needs at least two weights")
        if k < 1 or any(wi < 1 for wi in w):
            raise ValueError("degree and weights must be positive")
        if sum(w) != k:
            raise ValueError(f"weights {w} do not sum to degree {k}")
        if not name:
            if kvec is not None:
                name = str(kvec)
            else:
                name = f"{k}:" + ",".join(str(wi) for wi in w)
        return super().__new__(cls, k, w, kvec, name)

    # As for KVector: every pickle protocol rebuilds through __new__.
    def __reduce__(self):
        return Model, tuple(self)

    @classmethod
    def from_kvector(cls, kv: KVector | Iterable[int], name: str = "") -> "Model":
        if not isinstance(kv, KVector):
            kv = KVector(kv)
        k = math.lcm(*kv.parts)
        w = tuple(k // ki for ki in kv.parts)
        return cls(k=k, w=w, kvec=kv, name=name)

    @classmethod
    def from_weights(cls, k: int, w: Iterable[int], name: str = "") -> "Model":
        return cls(k=k, w=w, kvec=None, name=name)

    @property
    def n(self) -> int:
        return len(self.w)

    def is_diagonal(self) -> bool:
        """True for the family x_1^n + ... + x_n^n (all k_i equal)."""
        kv = self.kvec
        return kv is not None and len(set(kv.parts)) == 1

    def to_json_dict(self) -> dict:
        return {
            "k": list(self.kvec.parts) if self.kvec is not None else None,
            "lcm": self.k,
            "w": list(self.w),
            "name": self.name,
        }


def enumerate_solutions(n: int) -> list[KVector]:
    """All solutions of 1/k_1 + ... + 1/k_n = 1 with k_1 <= ... <= k_n.

    Bounded depth-first search on exact rational residuals, each a
    reduced pair num/den of ints: with residual r and s slots left, the
    next part ranges over [max(prev, ceil(1/r)), floor(s/r)]; the last
    slot closes only when the residual is a unit fraction.  Output is in
    ascending lexicographic order.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    out: list[KVector] = []

    def search(prefix: tuple[int, ...], num: int, den: int, slots: int) -> None:
        if slots == 1:
            if num == 1 and den >= prefix[-1]:
                out.append(KVector(prefix + (den,)))
            return
        low = max(prefix[-1] if prefix else 2, -(-den // num))
        high = slots * den // num
        for k in range(low, high + 1):
            # num/den - 1/k, reduced
            rest = num * k - den
            if rest > 0:
                g = math.gcd(rest, den * k)
                search(prefix + (k,), rest // g, den * k // g, slots - 1)

    search((), 1, 1, n)
    return out


def aut_order(kv: KVector) -> int:
    """Order of the symmetry group: product of multiplicity factorials."""
    return math.prod(math.factorial(c) for c in Counter(kv).values())


def counts(sols: list[KVector]) -> tuple[int, Fraction]:
    """(simple, weighted) counts of the solutions ``sols``, as listed by
    :func:`enumerate_solutions`; weighted counts each as 1/|Aut|."""
    from fractions import Fraction

    weighted = sum((Fraction(1, aut_order(kv)) for kv in sols), Fraction(0))
    return len(sols), weighted


def floor_gap_check(model: Model) -> bool:
    """Whether [k*x] - sum_i [w_i*x] >= 1 holds on [1/k, 1): by the
    criterion of Krattenthaler and Rivoal, whether the mirror map q(z) has
    integral Taylor coefficients.

    The difference is right continuous and jumps only where k*x or some
    w_i*x is an integer, all multiples of 1/L with L = lcm(k, w_1..w_n),
    so it suffices to check it at x = j/L (:func:`floor_gaps`).
    """
    return all(gap >= 1 for gap in floor_gaps(model))


def floor_gaps(model: Model) -> list[int]:
    """The values [k*j/L] - sum_i [w_i*j/L] at the jump points x = j/L in
    [1/k, 1), L = lcm(k, w_1..w_n).  Each w_i of a k-vector model divides
    k, so there L = k and the values are j - sum_i [w_i*j/k], j = 1..k-1."""
    k, w = model.k, model.w
    L = math.lcm(k, *w)
    return [k * j // L - sum(wi * j // L for wi in w) for j in range(L // k, L)]
