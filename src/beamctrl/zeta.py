"""Exact-rational certification of the absorption parameter zeta.

The sign bookkeeping of the weighted-estimate proof leaves one free parameter
zeta.  Its principal coefficients

    E1 = -8 + 6 zeta,   E2 = -66 - 36 zeta,
    E3 = -12 + 6 zeta,  E4 = -3 - 6 zeta

must all be negative, and the two cross terms must be absorbable by Young
splittings with weights alpha1, alpha2 satisfying four strict quotient
inequalities.  Everything here is Fraction arithmetic: admissibility
decisions are exact and bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ZetaWitness:
    """Certificate that zeta admits absorption weights (or why it does not).

    For an admissible zeta the four quotients evaluated at the stored alpha1,
    alpha2 are all strictly below 1; `violation` names the first failed
    condition otherwise.
    """

    zeta: Fraction
    coefficients: tuple[Fraction, Fraction, Fraction, Fraction]
    alpha1: Fraction | None
    alpha2: Fraction | None
    quotients: tuple[Fraction, Fraction, Fraction, Fraction] | None
    admissible: bool
    violation: str | None

    def rows(self):
        yield ("zeta", str(self.zeta))
        for i, c in enumerate(self.coefficients, start=1):
            yield (f"E{i}_coefficient", str(c))
        yield ("admissible", str(self.admissible).lower())
        if self.violation:
            yield ("violation", self.violation)
        if self.alpha1 is not None:
            yield ("alpha1", str(self.alpha1))
            yield ("alpha2", str(self.alpha2))
            for i, q in enumerate(self.quotients, start=1):
                yield (f"quotient{i}", str(q))


def _coefficients(z: Fraction):
    return (-8 + 6 * z, -66 - 36 * z, -12 + 6 * z, -3 - 6 * z)


def _quotients(z: Fraction, a1: Fraction, a2: Fraction):
    """The four absorption quotients; denominators use |.| of the negative
    coefficients, which are positive inside the admissible range."""
    c32 = 32 + 12 * z
    _, e2, e3, e4 = map(abs, _coefficients(z))
    return (c32 / (2 * a1 * e2), c32 * a1 / (2 * e4),
            Fraction(12) * a2 / 14, Fraction(12) / (2 * a2 * e3))


def zeta_ledger(zeta) -> ZetaWitness:
    """Certify zeta exactly, searching rational alpha1, alpha2 witnesses.

    The quotient conditions reduce to window constraints:
        (8 + 3z)/(33 + 18z) < alpha1 < (3 + 6z)/(16 + 6z)
        1/(2 - z)           < alpha2 < 7/6
    Witnesses are taken as the exact midpoints of these windows and then
    re-verified against the four quotients.
    """
    z = Fraction(zeta)
    coeffs = _coefficients(z)

    def reject(reason: str) -> ZetaWitness:
        return ZetaWitness(zeta=z, coefficients=coeffs, alpha1=None,
                           alpha2=None, quotients=None, admissible=False,
                           violation=reason)

    if max(coeffs) >= 0:
        idx = max(range(4), key=lambda i: coeffs[i])
        return reject(
            f"E{idx + 1} coefficient {coeffs[idx]} is not negative "
            f"(zeta must lie in (-1/2, 4/3))"
        )

    a1_lo = (8 + 3 * z) / (33 + 18 * z)
    a1_hi = (3 + 6 * z) / (16 + 6 * z)
    if not a1_lo < a1_hi:
        return reject(
            f"alpha1 window empty: (8+3z)/(33+18z) = {a1_lo} >= "
            f"(3+6z)/(16+6z) = {a1_hi}"
        )
    a2_lo = Fraction(1) / (2 - z)
    a2_hi = Fraction(7, 6)
    if not a2_lo < a2_hi:
        return reject(f"alpha2 window empty: 1/(2-z) = {a2_lo} >= 7/6")

    a1 = (a1_lo + a1_hi) / 2
    a2 = (a2_lo + a2_hi) / 2
    quots = _quotients(z, a1, a2)
    if not all(q < 1 for q in quots):
        # cannot happen for midpoints of nonempty windows; guard anyway
        return reject("witness verification failed")
    return ZetaWitness(zeta=z, coefficients=coeffs, alpha1=a1, alpha2=a2,
                       quotients=quots, admissible=True, violation=None)
