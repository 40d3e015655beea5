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

Representation: :class:`Polynomial` is a façade over the interned IR
(:mod:`repro.provenance.ir`): a polynomial is two parallel integer
arrays over the process-wide term store ``GLOBAL_STORE``, which every
instance shares -- the string-keyed terms dict is materialized lazily
only when asked for.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, TypeVar

from ..observability import tracing as _tracing
from . import ir as _ir
from .expressions import ONE, ZERO, Comparison, Product, ProvExpr, Sum, Var
from .semirings import Semiring

T = TypeVar("T")

#: A monomial: annotation name → exponent.
Monomial = Tuple[Tuple[str, int], ...]

_EMPTY: Monomial = ()

_STORE = _ir.GLOBAL_STORE


def _monomial(names: Iterable[str]) -> Monomial:
    counts = Counter(names)
    return tuple(sorted(counts.items()))


class Polynomial:
    """A polynomial with natural coefficients over annotation names.

    Immutable; arithmetic returns new polynomials.  Construct with
    :meth:`variable`, :meth:`constant`, or :func:`from_expression`.
    """

    __slots__ = ("_terms", "_data", "_names", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] = ()):
        cleaned: Dict[Monomial, int] = {}
        for monomial, coefficient in dict(terms).items():
            if coefficient < 0:
                raise ValueError("N[Ann] has natural coefficients only")
            if coefficient:
                cleaned[monomial] = coefficient
        self._names: Optional[FrozenSet[str]] = None
        self._hash: Optional[int] = None
        counts: Dict[int, int] = {}
        for monomial, coefficient in cleaned.items():
            mono = _STORE.mono_from_name_pairs(monomial)
            counts[mono] = counts.get(mono, 0) + coefficient
        self._data: _ir.PolyData = _STORE.poly_from_counts(counts)
        self._terms: Optional[Dict[Monomial, int]] = None

    @classmethod
    def _from_data(cls, data: "_ir.PolyData") -> "Polynomial":
        """Wrap already-canonical IR columns without revalidation."""
        poly = cls.__new__(cls)
        poly._data = data
        poly._terms = None
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

    def _term_dict(self) -> Dict[Monomial, int]:
        """The name-space terms, materialized lazily."""
        if self._terms is None:
            data = self._data
            self._terms = {
                _STORE.mono_name_pairs(mono): coefficient
                for mono, coefficient in zip(data.mono_ids, data.coeffs)
            }
        return self._terms

    def terms(self) -> Dict[Monomial, int]:
        """Monomial → coefficient (copy)."""
        return dict(self._term_dict())

    def coefficient(self, names: Iterable[str]) -> int:
        interner = _STORE.interner
        flat = []
        pairs = []
        for name, exponent in _monomial(names):
            ann_id = interner.lookup(name)
            if ann_id is None:
                return 0
            pairs.append((ann_id, exponent))
        for ann_id, exponent in sorted(pairs):
            flat.append(ann_id)
            flat.append(exponent)
        return _STORE.poly_coefficient(self._data, tuple(flat))

    def is_zero(self) -> bool:
        return len(self._data) == 0

    def annotation_names(self) -> FrozenSet[str]:
        if self._names is None:
            self._names = frozenset(
                _STORE.interner.names_of(
                    _STORE.poly_annotation_ids(self._data)
                )
            )
        return self._names

    def degree(self) -> int:
        """Largest total degree of a monomial (0 for constants)."""
        return _STORE.poly_degree(self._data)

    def size(self) -> int:
        """Annotation occurrences with repetition, counting coefficients.

        Matches the §3.2 size measure on the expanded sum-of-monomials
        form: ``2·a·b²`` contributes 2 × (1 + 2) = 6.
        """
        return _STORE.poly_size(self._data)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._from_data(_STORE.poly_add(self._data, other._data))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._from_data(_STORE.poly_mul(self._data, other._data))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self._data.mono_ids == other._data.mono_ids
            and self._data.coeffs == other._data.coeffs
        )

    def __hash__(self) -> int:
        # Cached: the instance is immutable.
        if self._hash is None:
            self._hash = hash(
                (self._data.mono_ids.tobytes(), self._data.coeffs.tobytes())
            )
        return self._hash

    # -- homomorphisms ------------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Apply a summarization mapping ``h`` (a semiring hom on N[Ann])."""
        with _tracing.span("rename") as opened:
            if _tracing.is_enabled():
                opened.set("n_terms", len(self._data))
            table = _STORE.rename_table(mapping)
            return Polynomial._from_data(_STORE.poly_rename(self._data, table))

    def evaluate_in(
        self, semiring: Semiring[T], valuation: Mapping[str, T]
    ) -> T:
        """The unique semiring-hom extension of ``valuation``.

        Every annotation must be mapped; coefficients and exponents are
        interpreted by repeated semiring addition/multiplication (so
        the result is correct in *any* commutative semiring, including
        the boolean and tropical ones).
        """
        return _STORE.poly_evaluate_in(self._data, semiring, valuation)

    def __str__(self) -> str:
        terms = self._term_dict()
        if not terms:
            return "0"
        parts = []
        for monomial, coefficient in sorted(terms.items()):
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
