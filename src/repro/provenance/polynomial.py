"""Canonical ``N[Ann]`` polynomials (Green et al.'s provenance semiring).

The AST of :mod:`repro.provenance.expressions` represents provenance
*syntactically*; two expressions that are equal in ``N[Ann]`` (e.g.
``a·(b + c)`` and ``a·b + a·c``) compare unequal as trees.  This module
provides the *canonical form*: a mapping from monomials (multisets of
annotations) to natural coefficients, on which semiring equality is
structural equality.

The polynomial semiring is the free commutative semiring over ``Ann``:
any annotation valuation into any commutative semiring extends
uniquely through :meth:`Polynomial.evaluate_in` -- that universal
property is what makes ``N[Ann]`` "the most informative" provenance
and is exercised directly by the property-based tests.

Summarization mappings ``h : Ann → Ann'`` act on polynomials through
:meth:`Polynomial.rename`, and :func:`from_expression` converts any
pure (tensor-free) AST into canonical form.

Representation: a :class:`Polynomial` owns one canonical terms dict.
Each monomial is a tuple of ``(name, exponent)`` pairs sorted by name
with each name once, and each coefficient is positive, so equality in
``N[Ann]`` is dict equality.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, TypeVar

from ..observability import tracing as _tracing
from .expressions import ONE, ZERO, Comparison, Product, ProvExpr, Sum, Var
from .semirings import Semiring

T = TypeVar("T")

#: A monomial: annotation name → exponent.
Monomial = Tuple[Tuple[str, int], ...]

_EMPTY: Monomial = ()


def _canonical(pairs: Iterable[Tuple[str, int]]) -> Monomial:
    """Sort ``(name, exponent)`` pairs by name, summing repeated names."""
    exponents: Dict[str, int] = {}
    for name, exponent in pairs:
        exponents[name] = exponents.get(name, 0) + exponent
    return tuple(sorted(exponents.items()))


def _accumulate(
    terms: Dict[Monomial, int], monomial: Monomial, coefficient: int
) -> None:
    terms[monomial] = terms.get(monomial, 0) + coefficient


class Polynomial:
    """A polynomial with natural coefficients over annotation names.

    Immutable; arithmetic returns new polynomials.  Construct with
    :meth:`variable`, :meth:`constant`, or :func:`from_expression`.
    """

    __slots__ = ("_terms", "_names", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] = ()):
        canonical: Dict[Monomial, int] = {}
        for monomial, coefficient in dict(terms).items():
            if coefficient < 0:
                raise ValueError("N[Ann] has natural coefficients only")
            if coefficient:
                _accumulate(canonical, _canonical(monomial), coefficient)
        self._terms = canonical
        self._names: Optional[FrozenSet[str]] = None
        self._hash: Optional[int] = None

    @classmethod
    def _from_terms(cls, terms: Dict[Monomial, int]) -> "Polynomial":
        """Wrap an already-canonical terms dict without revalidation."""
        poly = cls.__new__(cls)
        poly._terms = terms
        poly._names = None
        poly._hash = None
        return poly

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({_EMPTY: 1})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({((name, 1),): 1})

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        if value < 0:
            raise ValueError("N[Ann] has natural coefficients only")
        return cls({_EMPTY: value}) if value else cls()

    # -- structure -----------------------------------------------------------

    def terms(self) -> Dict[Monomial, int]:
        """Monomial → coefficient (copy)."""
        return dict(self._terms)

    def coefficient(self, names: Iterable[str]) -> int:
        return self._terms.get(_canonical((name, 1) for name in names), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def annotation_names(self) -> FrozenSet[str]:
        if self._names is None:
            self._names = frozenset(
                name for monomial in self._terms for name, _ in monomial
            )
        return self._names

    def degree(self) -> int:
        """Largest total degree of a monomial (0 for constants)."""
        return max(
            (sum(exponent for _, exponent in monomial) for monomial in self._terms),
            default=0,
        )

    def size(self) -> int:
        """Annotation occurrences with repetition, counting coefficients.

        Matches the §3.2 size measure on the expanded sum-of-monomials
        form: ``2·a·b²`` contributes 2 × (1 + 2) = 6.
        """
        return sum(
            coefficient * sum(exponent for _, exponent in monomial)
            for monomial, coefficient in self._terms.items()
        )

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            _accumulate(terms, monomial, coefficient)
        return Polynomial._from_terms(terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        terms: Dict[Monomial, int] = {}
        for left, left_coefficient in self._terms.items():
            for right, right_coefficient in other._terms.items():
                _accumulate(
                    terms,
                    _canonical(left + right),
                    left_coefficient * right_coefficient,
                )
        return Polynomial._from_terms(terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Cached: the instance is immutable.
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- homomorphisms ------------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Apply a summarization mapping ``h`` (a semiring hom on N[Ann])."""
        with _tracing.span("rename") as opened:
            if _tracing.is_enabled():
                opened.set("n_terms", len(self._terms))
            terms: Dict[Monomial, int] = {}
            for monomial, coefficient in self._terms.items():
                renamed = _canonical(
                    (mapping.get(name, name), exponent) for name, exponent in monomial
                )
                _accumulate(terms, renamed, coefficient)
            return Polynomial._from_terms(terms)

    def evaluate_in(
        self, semiring: Semiring[T], valuation: Mapping[str, T]
    ) -> T:
        """The unique semiring-hom extension of ``valuation``.

        Every annotation must be mapped; coefficients and exponents are
        interpreted by repeated semiring addition/multiplication (so
        the result is correct in *any* commutative semiring, including
        the boolean and tropical ones).  Terms are folded in monomial
        order, so equal polynomials evaluate identically.
        """
        total = semiring.zero
        for monomial, coefficient in sorted(self._terms.items()):
            value = semiring.one
            for name, exponent in monomial:
                try:
                    base = valuation[name]
                except KeyError:
                    raise KeyError(f"valuation missing annotation {name!r}") from None
                for _ in range(exponent):
                    value = semiring.times(value, base)
            for _ in range(coefficient):
                total = semiring.plus(total, value)
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for monomial, coefficient in sorted(self._terms.items()):
            factors = [
                name if exponent == 1 else f"{name}^{exponent}"
                for name, exponent in monomial
            ]
            body = "·".join(factors) if factors else "1"
            if coefficient == 1 and factors:
                parts.append(body)
            elif factors:
                parts.append(f"{coefficient}·{body}")
            else:
                parts.append(str(coefficient))
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polynomial({self})"


def from_expression(expression: ProvExpr) -> Polynomial:
    """Canonicalize a pure (tensor- and comparison-free) AST.

    Comparison tokens have no polynomial normal form (they are abstract
    guards, §2.2), so they are rejected here; flatten guarded
    expressions through the tensor-sum form instead.
    """
    if expression == ZERO:
        return Polynomial.zero()
    if expression == ONE:
        return Polynomial.one()
    if isinstance(expression, Var):
        return Polynomial.variable(expression.name)
    if isinstance(expression, Sum):
        total = Polynomial.zero()
        for child in expression.children:
            total = total + from_expression(child)
        return total
    if isinstance(expression, Product):
        total = Polynomial.one()
        for child in expression.children:
            total = total * from_expression(child)
        return total
    if isinstance(expression, Comparison):
        raise TypeError(
            "comparison tokens are abstract guards without a polynomial "
            "normal form (§2.2); canonicalize the guard-free part only"
        )
    raise TypeError(f"cannot canonicalize {type(expression).__name__}")
