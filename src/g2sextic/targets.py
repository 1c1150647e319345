"""Exact target expressions the verification pipelines must reproduce.

These are the structure equations of the su(2,1) frame, the unit
three-form and metric on the orthonormal coframe, and the sigma-level
quantities of the (2,3) family.  The engines never read from here while
computing; the comparisons happen in the report layer.
"""

from __future__ import annotations

from fractions import Fraction

from .binform import BinaryForm
from .exterior import ExteriorForm
from .orbit import SigmaLinear, SymTensor, sigma
from .scalar import SQRT10

_f = Fraction


def _combo(degree, *pairs) -> ExteriorForm:
    return ExteriorForm(degree, {idx: coef for coef, idx in pairs})


def structure_equations() -> dict:
    """The eight d theta^l two-forms of the su(2,1) coframe."""
    r10 = SQRT10
    return {
        1: _combo(2, (r10, (2, 3)), (r10 * _f(1, 7), (4, 5)), (_f(-9), (5, 8)), (r10, (6, 7))),
        2: _combo(2, (r10 * _f(-1, 4), (1, 3)), (r10 * _f(4, 7), (4, 6)), (r10 * _f(-1, 4), (5, 7)), (_f(6), (6, 8))),
        3: _combo(2, (r10 * _f(-1, 5), (1, 2)), (r10 * _f(5, 7), (4, 7)), (r10 * _f(1, 5), (5, 6)), (_f(-3), (7, 8))),
        4: _combo(2, (r10 * _f(1, 20), (1, 5)), (r10 * _f(4, 5), (2, 6)), (r10 * _f(-5, 4), (3, 7))),
        5: _combo(2, (r10 * _f(1, 7), (1, 4)), (_f(9), (1, 8)), (r10, (2, 7)), (r10, (3, 6))),
        6: _combo(2, (r10 * _f(-1, 4), (1, 7)), (r10 * _f(4, 7), (2, 4)), (_f(-6), (2, 8)), (r10 * _f(-1, 4), (3, 5))),
        7: _combo(2, (r10 * _f(-1, 5), (1, 6)), (r10 * _f(1, 5), (2, 5)), (r10 * _f(5, 7), (3, 4)), (_f(3), (3, 8))),
        8: _combo(2, (_f(3, 14), (1, 5)), (_f(-4, 7), (2, 6)), (_f(-5, 14), (3, 7))),
    }


def unit_three_form() -> ExteriorForm:
    """th123 + th145 + th167 + th246 - th257 - th347 - th356."""
    return _combo(
        3,
        (1, (1, 2, 3)),
        (1, (1, 4, 5)),
        (1, (1, 6, 7)),
        (1, (2, 4, 6)),
        (-1, (2, 5, 7)),
        (-1, (3, 4, 7)),
        (-1, (3, 5, 6)),
    )


def family_23_sextic() -> BinaryForm:
    """2 s23 s^6 - 3 s13 t s^5 + 2 s21 t^2 s^4 + (s33 + 2 s22 - 3 s11) t^3 s^3
    - 3 s12 t^4 s^2 + s31 t^5 s + s32 t^6."""
    zero = SigmaLinear()
    mono = [zero] * 7
    mono[0] = sigma(3, 2)
    mono[1] = sigma(3, 1)
    mono[2] = sigma(1, 2) * (-3)
    mono[3] = sigma(3, 3) + sigma(2, 2) * 2 - sigma(1, 1) * 3
    mono[4] = sigma(2, 1) * 2
    mono[5] = sigma(1, 3) * (-3)
    mono[6] = sigma(2, 3) * 2
    return BinaryForm.from_monomial_coeffs(6, mono)


def family_23_metric() -> SymTensor:
    """2 s32.s23 + 1/2 s31.s13 - 2/5 s12.s21 - 1/40 (4 s11 - s22)^2."""
    out = SymTensor()
    out.add_product(2, sigma(3, 2), sigma(2, 3))
    out.add_product(_f(1, 2), sigma(3, 1), sigma(1, 3))
    out.add_product(_f(-2, 5), sigma(1, 2), sigma(2, 1))
    w = sigma(1, 1) * 4 - sigma(2, 2)
    out.add_product(_f(-1, 40), w, w)
    return out


# printed signatures of the three real slices, in the order (plus, minus)
PRINTED_SIGNATURES = {"split": (3, 4), "su3": (4, 3), "su21": (7, 0)}

KAPPA_CUSPIDAL = _f(3 ** 9 * 7 ** 3, 2 ** 4 * 5 ** 2)
KAPPA_LOG = _f(3 ** 9, 4)
