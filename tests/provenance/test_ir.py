"""Proof obligations for ``Polynomial``.

Over an explicit RNG grid of random polynomial programs, every
``Polynomial`` operation (add, mul, rename, size, degree, coefficient,
evaluate_in) must agree with a small test-local model of ``N[Ann]`` --
a dict of sorted ``(name, exponent)`` monomials -- and ``evaluate_in``
must equal the program evaluated directly in the target semiring (the
universal property).  Exact semirings only, so agreement is equality.

Also covered: equality of polynomials built apart, and the
annotation-names cache regression (rename must never mutate the
receiver's cached name set).
"""

import random
from collections import Counter

import pytest

from repro.provenance.polynomial import Polynomial
from repro.provenance.semirings import BOOLEAN, NATURALS

NAMES = ["a", "b", "c", "d", "e"]
#: Every name a random program can mention (renames introduce m0/m1).
ALL_NAMES = NAMES + ["m0", "m1"]


# -- the oracles -------------------------------------------------------------------


def _canonical(pairs):
    counts = Counter()
    for name, exponent in pairs:
        counts[name] += exponent
    return tuple(sorted(counts.items()))


class Model:
    """Test oracle: ``N[Ann]`` as a dict of sorted ``(name, exponent)``
    monomials with positive coefficients."""

    def __init__(self, terms=()):
        self.terms = {}
        for monomial, coefficient in dict(terms).items():
            if coefficient:
                key = _canonical(monomial)
                self.terms[key] = self.terms.get(key, 0) + coefficient

    @classmethod
    def variable(cls, name):
        return cls({((name, 1),): 1})

    @classmethod
    def constant(cls, value):
        return cls({(): value})

    def __add__(self, other):
        terms = dict(self.terms)
        for monomial, coefficient in other.terms.items():
            terms[monomial] = terms.get(monomial, 0) + coefficient
        return Model(terms)

    def __mul__(self, other):
        terms = {}
        for left, left_coefficient in self.terms.items():
            for right, right_coefficient in other.terms.items():
                product = _canonical(left + right)
                terms[product] = (
                    terms.get(product, 0) + left_coefficient * right_coefficient
                )
        return Model(terms)

    def rename(self, mapping):
        terms = {}
        for monomial, coefficient in self.terms.items():
            renamed = _canonical(
                (mapping.get(name, name), exponent) for name, exponent in monomial
            )
            terms[renamed] = terms.get(renamed, 0) + coefficient
        return Model(terms)

    def size(self):
        return sum(
            coefficient * sum(exponent for _, exponent in monomial)
            for monomial, coefficient in self.terms.items()
        )

    def degree(self):
        return max(
            (sum(exponent for _, exponent in monomial) for monomial in self.terms),
            default=0,
        )

    def names(self):
        return frozenset(name for monomial in self.terms for name, _ in monomial)


class Direct:
    """Test oracle: a program evaluated straight into a semiring, as a
    function of the valuation (``rename(h)`` precomposes it with ``h``)."""

    semiring = None

    def __init__(self, at):
        self.at = at

    @classmethod
    def variable(cls, name):
        return cls(lambda valuation: valuation[name])

    @classmethod
    def constant(cls, value):
        return cls(lambda valuation: _times_n(cls.semiring, cls.semiring.one, value))

    @classmethod
    def from_terms(cls, terms):
        def at(valuation):
            total = cls.semiring.zero
            for monomial, coefficient in terms.items():
                value = cls.semiring.one
                for name, exponent in monomial:
                    for _ in range(exponent):
                        value = cls.semiring.times(value, valuation[name])
                total = cls.semiring.plus(
                    total, _times_n(cls.semiring, value, coefficient)
                )
            return total

        return cls(at)

    def __add__(self, other):
        return type(self)(
            lambda valuation: self.semiring.plus(self.at(valuation), other.at(valuation))
        )

    def __mul__(self, other):
        return type(self)(
            lambda valuation: self.semiring.times(
                self.at(valuation), other.at(valuation)
            )
        )

    def rename(self, mapping):
        return type(self)(
            lambda valuation: self.at(
                {name: valuation[mapping.get(name, name)] for name in ALL_NAMES}
            )
        )


def _times_n(semiring, value, count):
    total = semiring.zero
    for _ in range(count):
        total = semiring.plus(total, value)
    return total


def direct_in(semiring):
    """The :class:`Direct` algebra over ``semiring``."""
    return type("Direct", (Direct,), {"semiring": semiring})


# -- random polynomial programs ----------------------------------------------------


def random_program(rng, algebra, depth=4):
    """A random ``N[Ann]`` value built by a deterministic op sequence.

    Replaying the same ``rng`` seed over another algebra (the model, a
    direct semiring evaluation) performs the *same* constructions, so
    the results must agree.
    """
    choice = rng.random()
    if depth == 0 or choice < 0.35:
        kind = rng.random()
        if kind < 0.6:
            return algebra.variable(rng.choice(NAMES))
        if kind < 0.8:
            return algebra.constant(rng.randint(0, 3))
        terms = {
            tuple(
                sorted(
                    (name, rng.randint(1, 2))
                    for name in rng.sample(NAMES, rng.randint(1, 3))
                )
            ): rng.randint(1, 4)
        }
        if algebra is Polynomial or algebra is Model:
            return algebra(terms)
        return algebra.from_terms(terms)
    left = random_program(rng, algebra, depth - 1)
    right = random_program(rng, algebra, depth - 1)
    if choice < 0.65:
        return left + right
    if choice < 0.9:
        return left * right
    mapping = {name: rng.choice(ALL_NAMES) for name in rng.sample(NAMES, 2)}
    return (left + right).rename(mapping)


def random_polynomial(rng):
    return random_program(rng, Polynomial)


def build_both(seed):
    """The seed's program as a :class:`Polynomial` and as a :class:`Model`."""
    return (
        random_program(random.Random(seed), Polynomial),
        random_program(random.Random(seed), Model),
    )


@pytest.mark.parametrize("seed", range(12))
def test_ir_vs_legacy_same_terms(seed):
    """``Polynomial`` agrees with the dict-of-monomials model (the
    ``legacy`` of these test names) on every seed."""
    built, model = build_both(seed)
    assert built.terms() == model.terms
    rebuilt = Polynomial(model.terms)
    assert built == rebuilt
    assert hash(built) == hash(rebuilt)
    assert built.size() == model.size()
    assert built.degree() == model.degree()
    assert built.annotation_names() == model.names()
    assert built.is_zero() == (not model.terms)
    assert str(built) == str(rebuilt)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "semiring,values",
    [
        (BOOLEAN, (True, False)),
        (NATURALS, (0, 1, 2, 3)),
    ],
    ids=("boolean", "naturals"),
)
def test_ir_vs_legacy_evaluate_in(seed, semiring, values):
    """The universal property: ``evaluate_in`` equals the program run
    directly in the semiring, and the model's evaluation."""
    built, model = build_both(seed)
    direct = random_program(random.Random(seed), direct_in(semiring))
    as_model = Polynomial(model.terms)
    rng = random.Random(seed * 31 + 7)
    for _ in range(5):
        valuation = {name: rng.choice(values) for name in ALL_NAMES}
        expected = direct.at(valuation)
        assert built.evaluate_in(semiring, valuation) == expected
        assert as_model.evaluate_in(semiring, valuation) == expected


@pytest.mark.parametrize("seed", range(8))
def test_ir_vs_legacy_coefficient_lookup(seed):
    built, model = build_both(seed)
    for monomial, coefficient in model.terms.items():
        names = [name for name, exponent in monomial for _ in range(exponent)]
        assert built.coefficient(names) == coefficient
    assert built.coefficient(["never-interned-name"]) == 0


@pytest.mark.parametrize("seed", range(10))
def test_rename_composition_matches_sequential(seed):
    """h2 ∘ h1 as one mapping ≡ rename(h1) then rename(h2), in
    ``Polynomial`` and in the model."""
    rng = random.Random(seed)
    h1 = {name: rng.choice(["m0", "m1", name]) for name in NAMES}
    h2 = {"m0": "s", "m1": "s", "a": "s2"}

    def composed(name):
        step = h1.get(name, name)
        return h2.get(step, step)

    one_shot_map = {name: composed(name) for name in ALL_NAMES}
    model = random_program(random.Random(seed), Model).rename(one_shot_map)
    poly = random_polynomial(random.Random(seed))
    sequential = poly.rename(h1).rename(h2)
    one_shot = poly.rename(one_shot_map)
    assert sequential == one_shot
    assert sequential.terms() == one_shot.terms() == model.terms


def test_rename_merges_colliding_monomials():
    poly = Polynomial.variable("a") + Polynomial.variable("b")
    merged = poly.rename({"a": "s", "b": "s"})
    assert merged.terms() == {(("s", 1),): 2}
    assert merged.size() == 2


# -- the annotation-names cache (PR regression) ------------------------------------


def test_rename_does_not_mutate_cached_annotation_names():
    """``annotation_names`` is cached per instance; renaming must hand
    back a *new* polynomial with its own (correct) name set and leave
    the receiver's cache untouched."""
    poly = Polynomial.variable("a") * Polynomial.variable("b")
    before = poly.annotation_names()
    assert before == frozenset({"a", "b"})
    renamed = poly.rename({"a": "s", "b": "s"})
    assert renamed.annotation_names() == frozenset({"s"})
    # The receiver's cached set is the same object, unchanged.
    assert poly.annotation_names() is before
    assert poly.annotation_names() == frozenset({"a", "b"})
    # And the cache is per instance, never shared with the result.
    assert renamed.annotation_names() is not before


def test_annotation_names_cache_is_consistent_after_arithmetic():
    left = Polynomial.variable("a")
    right = Polynomial.variable("b")
    assert left.annotation_names() == frozenset({"a"})
    total = left + right
    assert total.annotation_names() == frozenset({"a", "b"})
    assert left.annotation_names() == frozenset({"a"})
    assert right.annotation_names() == frozenset({"b"})


# -- equality across constructions -------------------------------------------------


def test_instances_capture_their_construction_mode():
    """Equal polynomials built by different routes share equality,
    hash and terms."""
    first = Polynomial.variable("a")
    second = Polynomial.variable("b").rename({"b": "a"})
    assert first == second
    assert hash(first) == hash(second)
    assert first.terms() == second.terms() == {(("a", 1),): 1}
    product = Polynomial.variable("b") * Polynomial.variable("a")
    rebuilt = Polynomial({(("b", 1), ("a", 1)): 1})
    assert product == rebuilt
    assert hash(product) == hash(rebuilt)
    assert product.terms() == rebuilt.terms() == {(("a", 1), ("b", 1)): 1}


# -- tracing -----------------------------------------------------------------------


@pytest.fixture
def enabled_tracing():
    from repro.observability import tracing

    original = tracing.is_enabled()
    tracing.set_enabled(True)
    tracing.take_trace()
    yield tracing
    tracing.set_enabled(original)
    tracing.take_trace()


def test_polynomial_rename_records_a_span(enabled_tracing):
    tracing = enabled_tracing
    poly = Polynomial.variable("a") + Polynomial.variable("b")
    with tracing.span("root"):
        poly.rename({"a": "s"})
    root = tracing.take_trace()
    rename = root.find("rename")
    assert rename is not None
    assert rename.attributes["n_terms"] == 2


def test_rename_span_is_null_when_tracing_disabled():
    from repro.observability import tracing

    assert not tracing.is_enabled()
    renamed = Polynomial.variable("a").rename({"a": "s"})
    assert renamed.terms() == {(("s", 1),): 1}
    assert tracing.take_trace() is None
