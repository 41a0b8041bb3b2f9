from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamctrl.zeta import ZetaWitness, zeta_ledger


def test_unit_zeta_admissible_with_exact_coefficients():
    w = zeta_ledger(1)
    assert w.admissible
    assert w.coefficients == (Fraction(-2), Fraction(-102), Fraction(-6),
                              Fraction(-9))
    assert w.alpha1 is not None and w.alpha2 is not None
    assert all(q < 1 for q in w.quotients)


def test_zero_zeta_inadmissible_by_exact_comparison():
    # the alpha1 window closes because 8/33 >= 3/16 exactly
    assert Fraction(8, 33) > Fraction(3, 16)
    w = zeta_ledger(0)
    assert not w.admissible
    assert "alpha1 window empty" in w.violation
    assert "8/33" in w.violation and "3/16" in w.violation


def test_boundary_values_inadmissible():
    for z, coeff in ((Fraction(4, 3), "E1"), (Fraction(-1, 2), "E4")):
        w = zeta_ledger(z)
        assert not w.admissible
        assert coeff in w.violation


def test_bit_reproducible():
    assert zeta_ledger(1) == zeta_ledger(1)
    assert zeta_ledger(Fraction(7, 9)) == zeta_ledger(Fraction(7, 9))


def test_rows_render_exact_rationals():
    rows = dict(zeta_ledger(1).rows())
    assert rows["zeta"] == "1"
    assert rows["E2_coefficient"] == "-102"
    assert "/" in rows["alpha1"]


@given(num=st.integers(-30, 50), den=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_admissibility_matches_definition(num, den):
    z = Fraction(num, den)
    w = zeta_ledger(z)
    coeffs_negative = max(w.coefficients) < 0
    if w.admissible:
        assert coeffs_negative
        assert all(q < 1 for q in w.quotients)
        # quotient re-evaluation from scratch, exact
        c32 = 32 + 12 * z
        q1 = c32 / (2 * w.alpha1 * (66 + 36 * z))
        q2 = c32 * w.alpha1 / (2 * (3 + 6 * z))
        q3 = Fraction(12) * w.alpha2 / 14
        q4 = Fraction(12) / (2 * w.alpha2 * (12 - 6 * z))
        assert (q1, q2, q3, q4) == w.quotients
    else:
        window_ok = (coeffs_negative
                     and (8 + 3 * z) / (33 + 18 * z) < (3 + 6 * z) / (16 + 6 * z)
                     and Fraction(1) / (2 - z) < Fraction(7, 6))
        assert not window_ok
