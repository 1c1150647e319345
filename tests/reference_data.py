"""Frozen reference expressions used across the test suite.

The eight structure equations, the unit-coefficient three-form and its
dual are transcribed here once; tests compare engine output against these
exactly.  The three real slices of sl(3, C) are derived here from their
reality conditions, independently of the hand-written slice tables in
``orbit``.  The jets of a parametrized curve are computed here by the
symbolic chain y_(j+1) = y_j'/x' on rational functions of t, independently
of the power-series route of ``wilczynski.jets_along_curve``.  Values of
polynomials and rational functions are computed here term by term on
Fractions, independently of the common-denominator integer sum of
``Poly.evaluate``.  The G2 compatibility identity is checked here by
contracting phi with every sampled vector, independently of the Gram
matrix B_phi that ``g2verify.g2_identities`` values them through, and
B_phi itself is derived here by polarization of the direct contraction.
The gcd of two polynomials is computed here by a primitive PRS on dense
univariate dicts, independently of ``diffpoly.poly_gcd``, and a rational
function is reduced by one gcd against its expanded denominator,
independently of the per-factor route of ``JetFunction.normalize_pair``.
"""

import random
from fractions import Fraction

from g2sextic.diffpoly import JetContext, JetFunction, PoleError, Poly, _poly, poly_gcd
from g2sextic.exterior import (
    ExteriorForm,
    add,
    forms_equal,
    hodge_star,
    scale,
    theta,
    volume_form,
    wedge,
)
from g2sextic.g2verify import contraction_value, metric_of_vector
from g2sextic.liealg import Matrix3, diag, rational_kernel
from g2sextic.orbit import (
    SYMBOLS,
    family_sextic,
    metric_from_sextic,
    rational_signature,
    realize_threeform,
    threeform_from_sextic,
)
from g2sextic.scalar import AlgebraicScalar, I, ONE, SQRT10, ZERO
from g2sextic.wilczynski import DegenerateCurveError

R10 = SQRT10
T_CTX = JetContext.plain(("t",))


def _combo(degree, *pairs):
    out = ExteriorForm.zero(degree)
    for coef, idx in pairs:
        out = add(out, scale(theta(*idx), coef))
    return out


def expected_dtheta():
    f = Fraction
    return {
        1: _combo(
            2,
            (R10, (2, 3)),
            (R10 * f(1, 7), (4, 5)),
            (f(-9), (5, 8)),
            (R10, (6, 7)),
        ),
        2: _combo(
            2,
            (R10 * f(-1, 4), (1, 3)),
            (R10 * f(4, 7), (4, 6)),
            (R10 * f(-1, 4), (5, 7)),
            (f(6), (6, 8)),
        ),
        3: _combo(
            2,
            (R10 * f(-1, 5), (1, 2)),
            (R10 * f(5, 7), (4, 7)),
            (R10 * f(1, 5), (5, 6)),
            (f(-3), (7, 8)),
        ),
        4: _combo(
            2,
            (R10 * f(1, 20), (1, 5)),
            (R10 * f(4, 5), (2, 6)),
            (R10 * f(-5, 4), (3, 7)),
        ),
        5: _combo(
            2,
            (R10 * f(1, 7), (1, 4)),
            (f(9), (1, 8)),
            (R10, (2, 7)),
            (R10, (3, 6)),
        ),
        6: _combo(
            2,
            (R10 * f(-1, 4), (1, 7)),
            (R10 * f(4, 7), (2, 4)),
            (f(-6), (2, 8)),
            (R10 * f(-1, 4), (3, 5)),
        ),
        7: _combo(
            2,
            (R10 * f(-1, 5), (1, 6)),
            (R10 * f(1, 5), (2, 5)),
            (R10 * f(5, 7), (3, 4)),
            (f(3), (3, 8)),
        ),
        8: _combo(
            2,
            (f(3, 14), (1, 5)),
            (f(-4, 7), (2, 6)),
            (f(-5, 14), (3, 7)),
        ),
    }


def expected_phi():
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


def expected_star_phi():
    return _combo(
        4,
        (1, (4, 5, 6, 7)),
        (1, (2, 3, 6, 7)),
        (1, (2, 3, 4, 5)),
        (1, (1, 3, 5, 7)),
        (-1, (1, 3, 4, 6)),
        (-1, (1, 2, 5, 6)),
        (-1, (1, 2, 4, 7)),
    )


# -- the real slices of sl(3, C), derived from their reality conditions --------
#
# A slice vector is the tuple of values of the eight independent entries
# sigma^a_b (orbit.SYMBOLS order; sigma^3_3 = -sigma^1_1 - sigma^2_2).
# Nothing here reads orbit._real_slice_covectors or orbit.signature.


def real_rank(vectors):
    """Dimension of the real span of slice vectors."""
    coords = [[c for value in v for c in value.coords] for v in vectors]
    return len(vectors) - len(rational_kernel(zip(*coords), len(vectors)))


def _sigma_matrix(v):
    entry = dict(zip(SYMBOLS, v))
    entry[(3, 3)] = -(entry[(1, 1)] + entry[(2, 2)])
    return Matrix3([[entry[(a, b)] for b in (1, 2, 3)] for a in (1, 2, 3)])


def _reality_residual(tag):
    """X -> a matrix that vanishes exactly when X lies on the real slice."""
    if tag == "split":  # conj(X) = X
        return lambda x: Matrix3([[e.conj() - e for e in row] for row in x.rows])
    eta = {"su3": diag(1, 1, 1), "su21": diag(1, 1, -1)}[tag]
    return lambda x: x.conj_transpose() * eta + eta * x


def real_slice(tag):
    """A basis of the real slice: the real solutions of its reality condition.

    The unknowns are the 16 real and imaginary parts of the eight sigma
    values; the condition is real-linear in them, so the slice is the
    rational kernel of one linear system.
    """
    residual = _reality_residual(tag)
    units = [
        tuple(unit if k == s else ZERO for k in range(8))
        for s in range(8)
        for unit in (ONE, I)
    ]
    images = [residual(_sigma_matrix(u)) for u in units]
    rows = [
        [img.rows[a][b].coords[c] for img in images]
        for a in range(3)
        for b in range(3)
        for c in range(8)
    ]
    return [
        tuple(u[2 * s] + I * u[2 * s + 1] for s in range(8))
        for u in rational_kernel(rows, 16)
    ]


def stabiliser(tag):
    """diag(-1, -4, 5), times i on the unitary slices: it fixes the (2,3) cusp."""
    unit = ONE if tag == "split" else I
    values = {(1, 1): -unit, (2, 2): unit * -4}
    return tuple(values.get(sym, ZERO) for sym in SYMBOLS)


def slice_frame(tag):
    """Seven solved basis vectors of the slice, then its stabiliser vector."""
    solved, stab = real_slice(tag), stabiliser(tag)
    drop = next(
        i
        for i in range(len(solved))
        if real_rank(solved[:i] + solved[i + 1 :] + [stab]) == len(solved)
    )
    return solved[:drop] + solved[drop + 1 :] + [stab]


def metric_gram(vectors):
    """Gram matrix of the C04 family metric on slice vectors (rational entries)."""
    tensor = metric_from_sextic(family_sextic(2, 3))
    half = Fraction(1, 2)

    def pair(x, y):
        value = sum(
            (c * (x[s] * y[t] + x[t] * y[s]) * half for (s, t), c in tensor.terms.items()),
            ZERO,
        )
        return value.rational_value()

    return [[pair(x, y) for y in vectors] for x in vectors]


def slice_inertia(tag):
    """(n+, n-) of the family metric on the slice, modulo the stabiliser line."""
    gram = metric_gram(slice_frame(tag)[:7])
    return rational_signature(gram)


def realized_threeform(tag):
    """The (2,3) family three-form realized on the slice frame of tag; the
    stabiliser is the eighth frame vector, so the form is theta^8-free."""
    frame = slice_frame(tag)
    dictionary = {sym: tuple(v[s] for v in frame) for s, sym in enumerate(SYMBOLS)}
    return realize_threeform(threeform_from_sextic(family_sextic(2, 3)), dictionary)


# -- the G2 compatibility identity, one contraction per vector -----------------


def polarized_bryant_form(phi):
    """B(x, y) in (x -| phi) ^ (y -| phi) ^ phi = B(x, y) vol, by polarization."""
    units = [[ONE if k == j else ZERO for k in range(7)] for j in range(7)]
    diagonal = [contraction_value(phi, e) for e in units]

    def entry(i, j):
        if i == j:
            return diagonal[i]
        both = [x + y for x, y in zip(units[i], units[j])]
        return (contraction_value(phi, both) - diagonal[i] - diagonal[j]) * Fraction(1, 2)

    return [[entry(i, j) for j in range(7)] for i in range(7)]


def sampled_g2_identities(phi, samples, seed):
    """g2_identities' dict, with (V -| phi) ^ (V -| phi) ^ phi built by
    two wedges at every sampled vector and at the null direction."""
    seven = AlgebraicScalar.rational(7)
    out = {
        "phi_wedge_star_phi_is_seven_vol": forms_equal(
            wedge(phi, hodge_star(phi)), scale(volume_form(), seven)
        )
    }
    rng = random.Random(seed)
    constant = None
    consistent = True
    for _ in range(samples):
        vector = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
        gvv = metric_of_vector(vector)
        cval = contraction_value(phi, vector)
        if not gvv:
            consistent = consistent and not cval
            continue
        ratio = cval * gvv.inv()
        if constant is None:
            constant = ratio
        consistent = consistent and ratio == constant
    out["contraction_proportional"] = consistent and constant is not None
    out["contraction_constant"] = constant
    out["contraction_constant_positive"] = bool(
        constant and constant.is_rational() and constant.rational_value() > 0
    )
    null_vector = [ONE, I, ZERO, ZERO, ZERO, ZERO, ZERO]
    out["null_direction_vanishes"] = (not metric_of_vector(null_vector)) and (
        not contraction_value(phi, null_vector)
    )
    return out


def t_polynomial(coeffs):
    """The polynomial sum_i coeffs[i] t^i."""
    t = T_CTX.var("t")
    return sum((t ** i * c for i, c in enumerate(coeffs)), T_CTX.const(0))


def _t_function(pair):
    """The rational function num(t) / den(t) of a pair of coefficient lists."""
    num, den = (JetFunction(T_CTX, t_polynomial(p)) for p in pair)
    return num / den


def symbolic_jets_along_curve(x, y, k, t0):
    """Jets y1..y_k of (x(t), y(t)) at t0, for x and y given as
    jets_along_curve takes them: each y_(j+1) = (d y_j / dt) / x' is built
    as a rational function of t and then evaluated.  Raises what
    jets_along_curve raises, in the same order, when each numerator is
    coprime to its denominator."""
    t0 = Fraction(t0)
    xparam, yparam = _t_function(x), _t_function(y)
    dx = xparam.partial("t")
    point = {"t": t0}
    dx_val = term_by_term_function_value(dx, point)
    if not dx_val:
        raise DegenerateCurveError("x'(t0) = 0")
    jets = {"x": term_by_term_function_value(xparam, point),
            "y": term_by_term_function_value(yparam, point)}
    cur = yparam
    for j in range(1, k + 1):
        cur = cur.partial("t") / dx
        jets[f"y{j}"] = term_by_term_function_value(cur, point)
    return jets


def term_by_term_value(poly, point):
    """The value of a Poly at point, each term raising its bases afresh and
    multiplying Fractions.  Raises what Poly.evaluate raises, as the terms
    meet them."""
    names = poly.ctx.names
    total = Fraction(0)
    for powers, c in poly.monomials():
        term = Fraction(c)
        for v, k in powers:
            if names[v] not in point:
                raise ValueError(f"no value for {names[v]}")
            base = Fraction(point[names[v]])
            if not base and k < 0:
                raise PoleError(f"negative power of zero at {names[v]}")
            term *= base ** k
        total += term
    return total


def term_by_term_function_value(f, point):
    """The value of a JetFunction num * prod factor^e at point, every
    polynomial valued by term_by_term_value; a PoleError when a
    denominator factor vanishes there."""
    value = term_by_term_value(f.num, point)
    for factor, e in f.factors.items():
        base = term_by_term_value(factor, point)
        if not base and e < 0:
            raise PoleError("denominator factor vanishes at the point")
        value *= base ** e
    return value


def _from_univar(ctx: JetContext, v: int, coeffs: dict) -> Poly:
    shift = ctx._shifts[v]
    out = {}
    for k, poly in coeffs.items():
        for e, c in poly.terms.items():
            out[e + (k << shift)] = c
    return _poly(ctx, out)


def _pseudo_rem(f: dict, g: dict, ctx: JetContext):
    """Pseudo-remainder of dense univariate polys with Poly coefficients."""
    df, dg = max(f), max(g)
    lc_g = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lc_r = r.pop(dr)
        # r = lc_g * r - lc_r * g * x^(dr-dg)
        new = {}
        for k, c in r.items():
            new[k] = c * lc_g
        for k, c in g.items():
            if k == dg:
                continue
            kk = k + dr - dg
            cur = new.get(kk, ctx.const(0))
            new[kk] = cur - lc_r * c
        r = {k: c for k, c in new.items() if not c.is_zero()}
    return r


def prs_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd by the primitive PRS on dense univariate dicts of
    Poly coefficients, in the variable of least degree; the result is a
    primitive integer polynomial (constant 1 when the inputs are coprime).
    The coefficients of each remainder lose their gcd, but a remainder
    keeps its integer content, so the integers grow from step to step."""
    ctx = a.ctx
    if a.is_zero():
        return b.primitive()[1] if not b.is_zero() else ctx.const(0)
    if b.is_zero():
        return a.primitive()[1]
    used = a.variables() | b.variables()
    if not used:
        return ctx.const(1)
    v = min(used, key=lambda w: max(a.degree(ctx.names[w]), b.degree(ctx.names[w])))
    fa, fb = a.coefficients(ctx.names[v]), b.coefficients(ctx.names[v])
    cont_a = _coeff_gcd(list(fa.values()))
    cont_b = _coeff_gcd(list(fb.values()))
    cont = prs_gcd(cont_a, cont_b)
    prim_a = {k: c.exact_div(cont_a) for k, c in fa.items()}
    prim_b = {k: c.exact_div(cont_b) for k, c in fb.items()}
    f, g = (prim_a, prim_b) if max(fa) >= max(fb) else (prim_b, prim_a)
    while True:
        if not g:
            result = _from_univar(ctx, v, f)
            break
        if max(g) == 0:
            result = ctx.const(1)
            break
        r = _pseudo_rem(f, g, ctx)
        if not r:
            result = _from_univar(ctx, v, g)
            break
        rc = _coeff_gcd(list(r.values()))
        f, g = g, {k: c.exact_div(rc) for k, c in r.items()}
    result = (result * cont)
    return result.primitive()[1]


def _coeff_gcd(polys):
    out = polys[0]
    for p in polys[1:]:
        out = prs_gcd(out, p)
        if out.is_constant():
            break
    return out.primitive()[1] if not out.is_zero() else out


def expanded_normalize_pair(f):
    """(num, den) of a JetFunction reduced by one poly_gcd of its expanded
    numerator against its expanded denominator; den primitive > 0.  The
    PRS oracle is too slow here: it ran for more than 20 s on -5*a^2*c^3
    + b^3 over (a*b*c + 2*a + b^2*c + 2*b)^3 (a^2 + a*b - a*c + a - b*c + b)."""
    num = f.numerator_polynomial()
    den = f.denominator_polynomial()
    if num.is_zero():
        return num, num.ctx.const(1)
    g = poly_gcd(num, den)
    if not g.is_constant():
        num = num.exact_div(g)
        den = den.exact_div(g)
    unit, prim = den.primitive()
    return num.scale(1 / unit), prim
