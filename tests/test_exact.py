"""Field arithmetic over Q(sqrt2, sqrt3)."""

import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qutrit_teleport.exact import (
    INV_SQRT2,
    INV_SQRT3,
    INV_SQRT6,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    ExtScalar,
    _reduced,
    rational,
)
from qutrit_teleport.serialize import scalar_from_obj, scalar_to_obj


def random_scalar(rng, bound=30):
    return ExtScalar(
        *(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(4))
    )


def test_additive_inverse():
    assert rational(1) + rational(-1) == ZERO


def test_sum_of_reciprocal_sqrt6():
    # 1/sqrt6 + 1/sqrt6 = 2/sqrt6 = sqrt6/3, i.e. component q6 = 1/3
    total = INV_SQRT6 + INV_SQRT6
    assert total == ExtScalar(q6=Fraction(1, 3))
    # cross-check by squaring: (2/sqrt6)^2 == 2/3
    assert total * total == rational(2, 3)


def test_rational_addition():
    assert rational(1, 3) + rational(1, 6) == rational(1, 2)


def test_defining_products():
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == ExtScalar(q3=Fraction(2))
    assert SQRT3 * SQRT6 == ExtScalar(q2=Fraction(3))
    assert SQRT6 * SQRT6 == rational(6)


def test_reciprocal_sqrt3_squared():
    assert INV_SQRT3 * INV_SQRT3 == rational(1, 3)


def test_product_of_reciprocal_surds():
    # (1/sqrt2)(1/sqrt6) = 1/sqrt12 = sqrt3/6
    product = INV_SQRT2 * INV_SQRT6
    assert product == ExtScalar(q3=Fraction(1, 6))
    assert float(product) == pytest.approx(0.7071067811 * 0.4082482904, abs=1e-9)


def test_inverse_examples():
    assert SQRT6.inverse() == ExtScalar(q6=Fraction(1, 6))
    assert rational(1, 3).inverse() == rational(3)
    assert (ONE + SQRT2).inverse() == ExtScalar(Fraction(-1), Fraction(1))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_inverse_rejects_an_irrational_norm(monkeypatch):
    # Adding sqrt2 to every product leaves a surd in the norm that
    # inverse() computes, so its rationality check has to fire.
    exact_mul = ExtScalar.__mul__
    monkeypatch.setattr(ExtScalar, "__mul__", lambda a, b: exact_mul(a, b) + SQRT2)
    with pytest.raises(ArithmeticError, match="not rational"):
        SQRT3.inverse()


def test_rational_elements_equal_ints_and_fractions():
    assert ExtScalar(1) == 1
    assert 1 == ONE
    assert rational(-2, 3) == Fraction(-2, 3)
    assert ZERO == 0
    assert SQRT2 != 0 and SQRT2 != 1
    assert ONE != 1.0  # no float embedding: floats are not field elements
    assert len({ONE, 1, Fraction(1)}) == 1


def test_float_evaluation():
    assert float(ZERO) == 0.0
    assert float(INV_SQRT6) == pytest.approx(0.408248290, abs=1e-9)
    # 1/(2 sqrt3) = sqrt3/6
    assert float(ExtScalar(q3=Fraction(1, 6))) == pytest.approx(0.288675134, abs=1e-9)


def test_float_matches_componentwise_sum_to_4ulp():
    rng = random.Random(11)
    for _ in range(200):
        x = random_scalar(rng)
        terms = (
            float(x.q1),
            float(x.q2) * math.sqrt(2),
            float(x.q3) * math.sqrt(3),
            float(x.q6) * math.sqrt(6),
        )
        direct = math.fsum(terms)
        # 4 ulp at the working scale of the evaluation (terms may cancel)
        scale = max(1.0, *(abs(t) for t in terms))
        assert abs(float(x) - direct) <= 4 * math.ulp(scale)


def test_field_axioms_on_random_triples():
    rng = random.Random(20240917)
    for _ in range(1000):
        a, b, c = (random_scalar(rng, 20) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_inverse_roundtrip_exact():
    rng = random.Random(5)
    checked = 0
    while checked < 300:
        a = random_scalar(rng, 12)
        if a.is_zero():
            continue
        assert a * a.inverse() == ONE
        checked += 1


def test_float_is_ring_homomorphism_to_relative_1e12():
    rng = random.Random(99)
    for _ in range(300):
        a = random_scalar(rng, 10)
        b = random_scalar(rng, 10)
        s = a + b
        p = a * b
        assert abs(float(s) - (float(a) + float(b))) <= 1e-12 * max(1.0, abs(float(s)))
        assert abs(float(p) - float(a) * float(b)) <= 1e-12 * max(1.0, abs(float(p)))


def test_equality_is_componentwise():
    assert ExtScalar(q6=Fraction(1, 6)) != ExtScalar(q3=Fraction(1, 6))
    assert SQRT2 * SQRT3 == SQRT6  # same representation after multiply


def test_json_roundtrip_and_canonical_form():
    obj = scalar_to_obj(INV_SQRT6)
    assert obj == {"q1": "0/1", "q2": "0/1", "q3": "0/1", "q6": "1/6"}
    assert scalar_from_obj(obj) == INV_SQRT6
    negative = scalar_to_obj(rational(-2, 3))
    assert negative["q1"] == "-2/3"
    assert scalar_from_obj(negative) == rational(-2, 3)


def test_json_rejects_malformed_literals():
    # the schema's pattern is ASCII digits only and anchored at the very end
    for literal in ("1.5", "1/0", "-3/00", "\u0663/4", "1/1\u0662", "1/2\n"):
        with pytest.raises(ValueError, match="malformed rational literal"):
            scalar_from_obj({"q1": literal, "q2": "0/1", "q3": "0/1", "q6": "0/1"})
    leading_zero = {"q1": "3/04", "q2": "0/1", "q3": "0/1", "q6": "0/1"}
    assert scalar_from_obj(leading_zero) == rational(3, 4)


_small = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=8
)
_scalars = st.builds(ExtScalar, _small, _small, _small, _small)


@given(_scalars, _small)
def test_eq_and_hash_agree_with_the_rational_embedding(a, y):
    embedded = ExtScalar(y)
    assert (a == y) == (y == a) == (a == embedded)
    assert (a != y) == (a != embedded)
    assert hash(embedded) == hash(y)
    if y.denominator == 1:
        assert embedded == int(y) and hash(embedded) == hash(int(y))
    if a == y:
        assert hash(a) == hash(y)


@given(_scalars, _scalars)
def test_subtraction_inverts_addition(a, b):
    assert (a + b) - b == a


@given(_scalars, _scalars, _scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


_numerators = st.one_of(st.just(0), st.integers(-36, 36), st.integers(-(2**80), 2**80))
_denominators = st.one_of(st.integers(1, 36), st.integers(1, 2**80))


@given(st.tuples(*[_numerators] * 4), _denominators)
def test_pairs_are_the_reduced_fractions_of_the_components(numerators, d):
    # the one integer reading of the components, against Fraction's reduction
    x = _reduced(*numerators, d)
    fractions = [Fraction(n, d) for n in numerators]
    assert x._pairs() == tuple((f.numerator, f.denominator) for f in fractions)


class _FractionScalar:
    """The four-Fraction arithmetic the integer form replaced, kept as a test oracle."""

    def __init__(self, *q):
        self.q = tuple(Fraction(x) for x in q)

    def __add__(self, other):
        return _FractionScalar(*(a + b for a, b in zip(self.q, other.q)))

    def __neg__(self):
        return _FractionScalar(*(-a for a in self.q))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _FractionScalar(*(a * other for a in self.q))
        (a1, a2, a3, a6), (b1, b2, b3, b6) = self.q, other.q
        return _FractionScalar(
            a1 * b1 + 2 * a2 * b2 + 3 * a3 * b3 + 6 * a6 * b6,
            a1 * b2 + a2 * b1 + 3 * (a3 * b6 + a6 * b3),
            a1 * b3 + a3 * b1 + 2 * (a2 * b6 + a6 * b2),
            a1 * b6 + a6 * b1 + a2 * b3 + a3 * b2,
        )

    def inverse(self):
        q1, q2, q3, q6 = self.q
        numer = (
            _FractionScalar(q1, -q2, q3, -q6)
            * _FractionScalar(q1, q2, -q3, -q6)
            * _FractionScalar(q1, -q2, -q3, q6)
        )
        return numer * (1 / (self * numer).q[0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.inverse()

    def __float__(self):
        q1, q2, q3, q6 = map(float, self.q)
        return q1 + q2 * 1.4142135623730951 + q3 * 1.7320508075688772 + q6 * 2.449489742783178

    def __hash__(self):
        return hash(self.q[0]) if not any(self.q[1:]) else hash(self.q)

    def __str__(self):
        parts = []
        for coeff, surd in zip(self.q, ("", "√2", "√3", "√6")):
            if coeff != 0:
                mag = abs(coeff)
                body = surd if surd and mag == 1 else (f"{mag}·{surd}" if surd else f"{mag}")
                parts.append(("-" if coeff < 0 else "+", body))
        if not parts:
            return "0"
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return out + "".join(f" {sign} {body}" for sign, body in parts[1:])

    def to_json_obj(self):
        keys = ("q1", "q2", "q3", "q6")
        return {k: f"{q.numerator}/{q.denominator}" for k, q in zip(keys, self.q)}


def _assert_matches(x, ref):
    n1, n2, n3, n6, d = x._n
    assert d > 0 and math.gcd(n1, n2, n3, n6, d) == 1  # canonical form
    assert (x.q1, x.q2, x.q3, x.q6) == ref.q
    assert all(type(q) is Fraction for q in (x.q1, x.q2, x.q3, x.q6))
    assert str(x) == str(ref)
    assert scalar_to_obj(x) == ref.to_json_obj()
    assert float(x) == float(ref)  # bit for bit
    assert hash(x) == hash(ref)


_HUGE = 2**80
_rationals = st.one_of(
    st.just(Fraction(0)),
    _small,
    st.builds(Fraction, st.integers(-_HUGE, _HUGE), st.integers(1, _HUGE)),
)
_operands = st.one_of(st.integers(-_HUGE, _HUGE), _rationals)
_zero4 = (Fraction(0),) * 4
_components = st.one_of(
    st.just(_zero4),
    st.builds(lambda r: (r, *_zero4[1:]), _rationals),
    st.builds(
        lambda r, i: tuple(r if j == i else Fraction(0) for j in range(4)),
        _rationals,
        st.integers(0, 3),
    ),
    st.tuples(_rationals, _rationals, _rationals, _rationals),
)


@given(_components, _components, _operands)
def test_integer_form_matches_the_fraction_reference(qa, qb, r):
    a, b = ExtScalar(*qa), ExtScalar(*qb)
    ra, rb = _FractionScalar(*qa), _FractionScalar(*qb)
    pairs = [
        (a, ra),
        (a + b, ra + rb),
        (a - b, ra - rb),
        (a * b, ra * rb),
        (-a, -ra),
        (a * r, ra * r),
        (r * a, ra * r),
    ]
    if r != 0:
        pairs.append((a / r, ra / r))
    else:
        with pytest.raises(ZeroDivisionError):
            a / r
    if any(qb):
        pairs += [(b.inverse(), rb.inverse()), (a / b, ra / rb)]
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    for x, ref in pairs:
        _assert_matches(x, ref)
    assert (a == b) == (b == a) == (ra.q == rb.q)
    assert (a == r) == (r == a) == (ra.q == (r, 0, 0, 0))
    assert (a != r) == (r != a) == (ra.q != (r, 0, 0, 0))


def test_constructor_accepts_only_ints_and_fractions():
    for bad in (1.0, "1", None, 1j):
        with pytest.raises(TypeError):
            ExtScalar(bad)
        with pytest.raises(TypeError):
            ExtScalar(q6=bad)
    assert ExtScalar(2, Fraction(1, 2)) == ExtScalar(Fraction(2), Fraction(2, 4))


def test_rational_takes_what_the_constructor_takes():
    # a numpy integer would be stored as a numerator and wrap on overflow
    for bad in (np.int64(2), 2.0, "2"):
        with pytest.raises(TypeError):
            rational(bad, 3)
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)
    assert rational(-4, -6) == rational(Fraction(2, 3)) == Fraction(2, 3)


def test_instances_are_immutable():
    x = ExtScalar(1, 2, 3, 6)
    for name in ("q1", "q6", "_n", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, Fraction(5))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == ExtScalar(1, 2, 3, 6)
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
