"""Integer coefficients through the rewriting engine.

Every relation of the algebra has coefficients +-1, so a normal form of an
integer combination of words is an integer combination: `exactla.scalar`
keeps such a coefficient an int and makes a Fraction only of a non-integral
one.  The walk itself is compared with the Fraction walk it replaced in
`test_dot_walk.py`; these tests pin the coefficient rule, the monomials the
walk builds unvalidated, and the bounds on the engine's caches.
"""

import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import periplectic
from periplectic import affine, brauer, documents, tensoraction
from periplectic.affine import (DahaElement, DotDiagram, PdElement,
                                enumerate_regular, multiply, normalize,
                                to_daha)
from periplectic.brauer import ADElement, enumerate_diagrams
from periplectic.exactla import scalar
from periplectic.tensoraction import E, S, Y
from periplectic.wordparse import parse_expression

ALPHABET_D3 = (S(1), S(2), E(1), E(2), Y(1), Y(2), Y(3))

KEYS = {
    ADElement: list(enumerate_diagrams(3)),
    PdElement: enumerate_regular(3, 1),
    DahaElement: [((1, 2, 3), (0, 0, 0)), ((2, 1, 3), (1, 0, 0)),
                  ((3, 2, 1), (0, 2, 1))],
}

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.integers(-6, 6).map(Fraction))


def _only_ints(x):
    return all(type(c) is int for c in x.terms.values())


def _stored_by_the_rule(x):
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in x.terms.values())


@given(st.sampled_from(sorted(KEYS, key=lambda t: t.__name__)),
       st.lists(st.tuples(st.integers(0, 2), coefficients), max_size=5),
       coefficients, coefficients)
@settings(max_examples=200, deadline=None)
def test_a_coefficient_is_an_int_exactly_when_integral(kind, picks, a, b):
    keys = KEYS[kind]
    terms = {}
    for i, c in picks:
        terms[keys[i]] = terms.get(keys[i], 0) + c
    x = kind(3, terms)
    assert _stored_by_the_rule(x)
    assert x == kind(3, {k: Fraction(c) for k, c in terms.items()})
    for y in (x.scaled(a), x.add(x.scaled(b), a),
              x.scaled(Fraction(1, 2)).add(x, Fraction(1, 2))):
        assert _stored_by_the_rule(y)
    assert x.scaled(Fraction(1, 2)).add(x, Fraction(1, 2)) == x


@given(st.sampled_from(sorted(KEYS, key=lambda t: t.__name__)),
       st.integers(0, 2), st.integers(-6, 6))
def test_int_and_integral_fraction_build_one_element(kind, i, c):
    key = KEYS[kind][i]
    x, y = kind(3, {key: c}), kind(3, {key: Fraction(c)})
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert documents.dumps(documents.to_document(x)) == documents.dumps(
        documents.to_document(y))


def test_scalar_keeps_the_value_and_narrows_integral_values():
    for c in (0, 7, -3, True, Fraction(6, 3), Fraction(-4), "5", "-10/2"):
        v = scalar(c)
        assert type(v) is int and v == Fraction(c)
    for c in (Fraction(1, 2), Fraction(-7, 3), "3/4", 2.5):
        v = scalar(c)
        assert type(v) is Fraction and v == Fraction(c)


def _random_word(rng, longest):
    return [rng.choice(ALPHABET_D3) for _ in range(rng.randint(0, longest))]


def test_normal_forms_and_products_of_integer_inputs_hold_ints():
    rng = random.Random(1010)
    seen = 0
    for _ in range(120):
        x = normalize(_random_word(rng, 8), 3)
        assert _only_ints(x), x
        seen += len(x.terms)
    for _ in range(20):
        x = normalize(_random_word(rng, 4), 3)
        y = normalize(_random_word(rng, 4), 3)
        assert _only_ints(multiply(x, y))
    assert seen > 200
    assert _only_ints(to_daha(normalize([S(1), Y(1), S(1), Y(2)], 2)))
    assert _only_ints(brauer.multiply(brauer.jm_element(2, 3),
                                      brauer.jm_element(3, 3)))


def test_a_half_stays_a_fraction():
    (coeff, word), = parse_expression("1/2*s1", 2)
    x = normalize(list(word), 2).scaled(coeff)
    assert list(x.terms.values()) == [Fraction(1, 2)]
    assert type(next(iter(x.terms.values()))) is Fraction
    back = documents.from_document(documents.to_document(x))
    assert back == x and type(next(iter(back.terms.values()))) is Fraction
    twice = x.add(x)
    assert list(twice.terms.values()) == [1]
    assert _only_ints(twice)
    assert multiply(x, x) == normalize([S(1), S(1)], 2).scaled(Fraction(1, 4))


def test_walk_monomials_equal_validated_ones():
    rng = random.Random(1011)
    for _ in range(60):
        x = normalize(_random_word(rng, 9), 3)
        for u in x.terms:
            v = DotDiagram(u.d, u.diagram, u.top_dots, u.bottom_dots)
            assert u == v and hash(u) == hash(v)
            assert all(type(t) is int for t in u.top_dots + u.bottom_dots)


def _package_caches():
    """Every object with a `cache_info` in the package: module functions
    and the methods (plain, class or static) of the classes defined there."""
    found = set()
    for info in pkgutil.iter_modules(periplectic.__path__):
        module = importlib.import_module(f"periplectic.{info.name}")
        for obj in vars(module).values():
            if not inspect.isclass(obj):
                members = [obj]
            elif obj.__module__ == module.__name__:
                members = [getattr(a, "__func__", a)
                           for a in vars(obj).values()]
            else:
                continue
            found.update(f for f in members if not inspect.isclass(f)
                         and hasattr(f, "cache_info"))
    return found


def test_every_engine_cache_has_its_stated_bound():
    bounds = {affine._normalize_cached: 8192, affine._compose: 2048,
              affine._walk: 65536, affine._letter: 32768,
              affine.PdElement.one.__func__: 8,
              brauer.diagram_record: 2048, brauer.enumerate_diagrams: 8,
              brauer._witnesses: 4,
              tensoraction._op_columns_cached: 256,
              tensoraction._v_action_tables: 16,
              tensoraction._evaluate_raw: 512}
    # a cache missing from the table fails here
    assert _package_caches() == set(bounds)
    for fn, bound in bounds.items():
        assert fn.cache_info().maxsize == bound, fn.__name__
