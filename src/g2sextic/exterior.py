"""Exterior algebra over the anholonomic coframe theta^1..theta^8.

Forms carry AlgebraicScalar coefficients on strictly increasing index
tuples.  The exterior derivative is the antiderivation fixed by the eight
two-forms d theta^l = -sum_{j<k} c_{jk}^l theta^j ^ theta^k, and the Hodge
star is the Euclidean one on the 7-dimensional span of theta^1..theta^7
with volume form theta^{1...7}.
"""

from __future__ import annotations

from itertools import combinations

from .scalar import AlgebraicScalar, ZERO

NUM_INDICES = 8
BASIC_INDICES = (1, 2, 3, 4, 5, 6, 7)


class NotBasicError(ValueError):
    """Raised when an operation needs a theta^8-free form but got one with it."""


def _merge_sign(left: tuple, right: tuple):
    """Sort the concatenation of two increasing tuples; None if a repeat."""
    sign = 1
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None, 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining entries of left
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


class ExteriorForm:
    """Homogeneous exterior form; immutable value semantics."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        self.degree = degree
        pruned = {}
        for idx, coef in (terms or {}).items():
            coef = AlgebraicScalar.coerce(coef)
            if not coef:
                continue
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            if idx and not (1 <= idx[0] and idx[-1] <= NUM_INDICES):
                raise ValueError(f"index out of range in {idx}")
            pruned[idx] = coef
        self.terms = pruned

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(degree: int) -> "ExteriorForm":
        return ExteriorForm(degree, {})


def theta(*indices) -> ExteriorForm:
    """Basis monomial theta^{j k l ...} (indices strictly increasing)."""
    return ExteriorForm(len(indices), {tuple(indices): 1})


def add(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    if a.degree != b.degree:
        raise ValueError("degree mismatch in form addition")
    out = dict(a.terms)
    for idx, coef in b.terms.items():
        out[idx] = out.get(idx, ZERO) + coef
    return ExteriorForm(a.degree, out)


def sub(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    return add(a, scale(b, -1))


def scale(a: ExteriorForm, c) -> ExteriorForm:
    c = AlgebraicScalar.coerce(c)
    return ExteriorForm(a.degree, {idx: coef * c for idx, coef in a.terms.items()})


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    degree = a.degree + b.degree
    if degree > NUM_INDICES:
        return ExteriorForm.zero(degree)
    out = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged, sign = _merge_sign(ia, ib)
            if merged is None:
                continue
            coef = ca * cb
            if sign < 0:
                coef = -coef
            out[merged] = out.get(merged, ZERO) + coef
    return ExteriorForm(degree, out)


def forms_equal(a: ExteriorForm, b: ExteriorForm) -> bool:
    return a.degree == b.degree and a.terms == b.terms


def is_zero(a: ExteriorForm) -> bool:
    return not a.terms


def is_basic(a: ExteriorForm) -> bool:
    """True when no term involves theta^8."""
    return all(NUM_INDICES not in idx for idx in a.terms)


def d(alpha: ExteriorForm, dtheta) -> ExteriorForm:
    """Exterior derivative: the antiderivation with d theta^l = dtheta[l],
    d alpha = sum_l dtheta[l] ^ (e_l -| alpha).

    e_l -| theta^I = (-1)^pos theta^(I minus l) for l at position pos of I,
    and a two-form commutes with every form.
    """
    out = ExteriorForm.zero(alpha.degree + 1)
    for l in range(1, NUM_INDICES + 1):
        unit = [int(k == l) for k in range(1, NUM_INDICES + 1)]
        out = add(out, wedge(dtheta[l], interior(unit, alpha)))
    return out


def hodge_star(alpha: ExteriorForm) -> ExteriorForm:
    """Euclidean Hodge star on the basic 7-dimensional coframe.

    Orientation: vol = theta^1 ^ ... ^ theta^7.  Satisfies ** = id.
    """
    if not is_basic(alpha):
        raise NotBasicError("hodge star needs a theta^8-free form")
    degree = 7 - alpha.degree
    out = {}
    for idx, coef in alpha.terms.items():
        comp = tuple(i for i in BASIC_INDICES if i not in idx)
        merged, sign = _merge_sign(idx, comp)
        assert merged == BASIC_INDICES
        out[comp] = coef if sign > 0 else -coef
    return ExteriorForm(degree, out)


def inner_product(a: ExteriorForm, b: ExteriorForm) -> AlgebraicScalar:
    """<a, b> for the orthonormal basic coframe; <a,b> vol = a ^ *b."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch in inner product")
    if not (is_basic(a) and is_basic(b)):
        raise NotBasicError("inner product defined for basic forms")
    total = ZERO
    for idx, coef in a.terms.items():
        other = b.terms.get(idx)
        if other is not None:
            total = total + coef * other
    return total


def interior(vector, alpha: ExteriorForm) -> ExteriorForm:
    """Contraction V -| alpha for V given by components in the dual frame."""
    comps = {i + 1: AlgebraicScalar.coerce(v) for i, v in enumerate(vector)}
    out = {}
    for idx, coef in alpha.terms.items():
        for pos, i in enumerate(idx):
            v = comps.get(i)
            if not v:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            c = coef * v if pos % 2 == 0 else -(coef * v)
            out[rest] = out.get(rest, ZERO) + c
    return ExteriorForm(alpha.degree - 1, out)


def volume_form() -> ExteriorForm:
    return theta(*BASIC_INDICES)


def all_basis_monomials():
    """Every increasing index tuple over {1..8}, all degrees (256 of them)."""
    for k in range(NUM_INDICES + 1):
        yield from combinations(range(1, NUM_INDICES + 1), k)


def format_form(alpha: ExteriorForm) -> str:
    """Pretty-printer matching the theta^{jkl} shorthand."""
    if not alpha.terms:
        return "0"
    parts = []
    for idx in sorted(alpha.terms):
        coef = alpha.terms[idx]
        sym = "th{" + "".join(str(i) for i in idx) + "}" if idx else "1"
        parts.append(f"({coef})*{sym}")
    return " + ".join(parts)

