"""Edge cases of the text and LaTeX writers that no golden output reaches."""

from fractions import Fraction

import pytest

from qutrit_teleport.exact import ONE, SQRT2, ZERO, ExtScalar, rational
from qutrit_teleport.linalg import Operator3
from qutrit_teleport.render import (
    entangled_state_text,
    premeasure_latex,
    premeasure_text,
    scalar_latex,
)


def test_every_empty_sum_prints_zero():
    assert premeasure_latex(Operator3.zero()) == "0"
    assert premeasure_text(Operator3.zero()) == "0"
    assert scalar_latex(ZERO) == "0"
    assert entangled_state_text((ZERO,) * 9) == "0"


@pytest.mark.parametrize(
    "x, latex",
    [
        (ONE, "1"),
        (-ONE, "-1"),
        (-SQRT2, "-\\sqrt{2}"),
        (rational(1, 2), "\\tfrac{1}{2}"),
        (ExtScalar(q6=Fraction(-3, 2)), "-\\tfrac{3}{2}\\sqrt{6}"),
        (ExtScalar(1, q3=-1), "1-\\sqrt{3}"),
        (ExtScalar(Fraction(-1, 6), 1), "-\\tfrac{1}{6}+\\sqrt{2}"),
        (ExtScalar(-2, q3=Fraction(1, 3), q6=1), "-2+\\tfrac{1}{3}\\sqrt{3}+\\sqrt{6}"),
    ],
    ids=str,
)
def test_scalar_latex(x, latex):
    assert scalar_latex(x) == latex
