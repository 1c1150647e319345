"""Frozen reference expressions used across the test suite.

The eight structure equations, the unit-coefficient three-form and its
dual are transcribed here once; tests compare engine output against these
exactly.  The three real slices of sl(3, C) are derived here from their
reality conditions as the kernel of one linear system, independently of
the slice coordinates that ``orbit`` writes down from them, and an
inertia is counted here by symmetric congruence elimination, with a
pivot swap or a hyperbolic fold at a zero pivot, independently of the
characteristic polynomial and Descartes' rule of
``orbit.rational_signature``.  The family
metric and three-form are pushed forward to a coframe here from their
sigma-level tensors, bilinearly and trilinearly term by term, the route
``orbit`` took before it realized the family form's coefficients once.
The jets of a parametrized curve are computed here by the symbolic chain
y_(j+1) = y_j'/x' on rational functions of t, independently
of the power-series route of ``wilczynski.jets_along_curve``.  Values of
polynomials and rational functions are computed here term by term on
Fractions, independently of the common-denominator integer sum of
``Poly.evaluate``, and over one n/d power table per variable, the route
``Poly.evaluate`` took before it cleared the point over one
denominator.  The G2 compatibility identity is checked here by
contracting phi with every sampled vector, independently of the Gram
matrix B_phi that ``g2verify.g2_identities`` values them through, and
B_phi itself is derived here by polarization of the direct contraction.
The gcd of two polynomials is computed here by a primitive PRS on dense
univariate dicts, independently of ``diffpoly.poly_gcd``, and a rational
function is reduced by one gcd against its expanded denominator,
independently of the per-factor route of ``JetFunction.normalize_pair``.
An exact quotient is computed here by long division with no leading-key
test and a scan of the remainder for its leading term, the route
``Poly.exact_div`` took before it rejected a quotient whose leading term
has a negative exponent and took leading terms from a heap.  A ring
derivation sum_v dp/dv * image(v) is taken here by one Poly.diff pass,
one product and one copy of the running sum per variable, the route
``wilczynski._poly_derive`` took before ``Poly.derive`` wrote every piece
into one dict, and a derivation of the jet layer by one JetFunction
product and sum per variable, the route ``diffpoly._derive_poly`` took
before it made one Poly.derive call.  A logarithmic derivative D(f)/f
is taken here term by term over f's factor table, the route
``ExtendedJetFunction.derivative`` took to rho = D(base) / (3 base)
before it derived the base once and divided.  The eight
projective vector fields of the plane are listed here with their
prolongation to jets, which reads only D_x and partial derivatives, not
the Wilczynski assembly.  The classical invariants Theta_r are assembled
here the rational way, with the change-of-variable derivation E itself
and its Fraction coefficients, and the generic p-forms come from
substituting the generic equation's rational semi-invariants and their
p-ring derivatives into them, independently of the integer arithmetic of
``wilczynski.classical_theta`` and ``wilczynski._Equation.theta``.
Operators are composed here as coefficient lists, and the rational
assembly can also climb its ladder from 1 and compose the whole operator
with M_(v^(1-n)) afterwards, the two-stage route
``wilczynski.classical_theta`` took before it climbed one ladder from
v^(1-n).  The
Theta_r of a concrete equation are computed here by substituting its
rational semi-invariants P_i^(k) into the P-forms, the route
``wilczynski._Equation`` took before it cleared the contents of the
semi-invariants over one denominator per Theta_r.  The mixed partial
derivatives of a binary form's monomial list are taken here one d/dt or
d/ds at a time, independently of the falling-factorial closed form in
``binform``.  The GL(2) substitution is taken here as the sum of
m_k (a t + b s)^(n-k) (c t + d s)^k, each power by the binomial theorem
(checked against repeated convolution) and each product by convolution:
the route ``binform.gl2_act`` took before Horner's rule.  A form's
monomial coefficients m_k = C(n,k) v_k are read here, a form is valued
through them, and forms are combined linearly coefficient by
coefficient.
kappa -> k is done here by substituting k for kappa, and every other
variable by itself, term by term in each numerator, and an extension
element is rebuilt as c0 + c1 u + c2 u^2: the route
``wilczynski.specialize_kappa`` took before it evaluated each numerator's
coefficients in kappa.  An extension element is valued here at a point,
given a cube root of its base there.  The scalar and Ricci curvature of the homogeneous
metric on SU(2,1)/U(1) are computed here from the structure constants
alone, independently of ``d``, the Hodge star and the torsion of the
co-calibration certificate.  A polynomial is substituted into here
monomial by monomial (substitute), the sum that
``wilczynski._Equation.theta`` takes over a P-form, and a jet function's
expanded denominator and a scalar's real part are taken here for the
tests that compare against them.
"""

import random
from fractions import Fraction
from math import comb

from g2sextic import diffpoly
from g2sextic.binform import BinaryForm
from g2sextic.diffpoly import (
    ExtendedJetFunction,
    JetContext,
    JetFunction,
    MissingJetError,
    PoleError,
    Poly,
    _poly,
    free_total_derivative_map,
    poly_gcd,
)
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
from g2sextic.g2verify import contraction_pairing, metric_of_vector
from g2sextic.liealg import Matrix3, diag, rational_kernel
from g2sextic.orbit import (
    SYMBOLS,
    RealityError,
    family_sextic,
    metric_from_sextic,
    threeform_from_sextic,
)
from g2sextic.scalar import AlgebraicScalar, I, ONE, SQRT10, ZERO, cleared, exact
from g2sextic.wilczynski import (
    DegenerateCurveError,
    EtaResidueError,
    _GenericEquation,
    _p_ring,
    _poly_derive,
    _w_ring,
    classical_theta,
    wil_coefficient,
)

R10 = SQRT10
T_CTX = JetContext.plain(("t",))


def real_part(a: AlgebraicScalar) -> AlgebraicScalar:
    """a with its i-bearing coordinates (the odd ones, as in
    AlgebraicScalar.is_real) set to 0."""
    return AlgebraicScalar(tuple(0 if idx % 2 else c for idx, c in enumerate(a.coords)))


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


def frame_covectors(vectors):
    """Each sigma symbol's values on the vectors: its covector in their frame."""
    return {sym: tuple(v[s] for v in vectors) for s, sym in enumerate(SYMBOLS)}


def metric_gram(vectors):
    """Gram matrix of the C04 family metric on slice vectors (rational entries)."""
    gram = pushforward_metric(metric_from_sextic(family_sextic(2, 3)), frame_covectors(vectors))
    return [[entry.rational_value() for entry in row] for row in gram]


def slice_inertia(tag):
    """(n+, n-) of the family metric on the slice, modulo the stabiliser line."""
    gram = metric_gram(slice_frame(tag)[:7])
    return congruence_inertia(gram)


def congruence_inertia(gram) -> tuple[int, int]:
    """Sylvester counts via exact congruence (Lagrange) elimination: a zero
    pivot is swapped with a later nonzero diagonal entry, or, with none,
    folded with a hyperbolic partner; a ValueError for a singular matrix."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]  # an int pivot would divide to a float
    pos = neg = 0
    for k in range(n):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][i]), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    continue  # residual block row is zero; handled below
                for col in range(n):
                    a[k][col] += a[j][col]
                for row in a:
                    row[k] += row[j]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                for col in range(n):
                    a[i][col] -= f * a[k][col]
                for row in a:
                    row[i] -= f * row[k]
    if pos + neg < n:
        raise ValueError("degenerate Gram matrix")
    return pos, neg


def realized_threeform(tag):
    """The (2,3) family three-form realized on the slice frame of tag; the
    stabiliser is the eighth frame vector, so the form is theta^8-free."""
    covectors = frame_covectors(slice_frame(tag))
    return pushforward_threeform(threeform_from_sextic(family_sextic(2, 3)), covectors)


# -- the family metric and phi pushed forward from their sigma-level tensors ----


def pushforward_metric(tensor, covectors):
    """Gram matrix of a symmetric sigma-tensor (orbit.SymTensor) in a coframe,
    bilinearly, term by term; RealityError if an entry is not real."""
    vectors = [covectors[sym] for sym in SYMBOLS]
    dim = len(vectors[0])
    gram = [[ZERO] * dim for _ in range(dim)]
    half = Fraction(1, 2)
    for (s, t), coef in tensor.terms.items():
        vx, vy = vectors[s], vectors[t]
        for j in range(dim):
            for k in range(dim):
                contrib = coef * (vx[j] * vy[k] + vy[j] * vx[k]) * half
                if contrib:
                    gram[j][k] = gram[j][k] + contrib
    for j, row in enumerate(gram):
        for k, entry in enumerate(row):
            if not entry.is_real():
                raise RealityError(f"Gram entry ({j+1},{k+1}) not real: {entry}")
    return gram


def pushforward_threeform(tf, covectors):
    """A 3-form over the sigma symbols (orbit.threeform_from_sextic) in a
    coframe, trilinearly: each term's three covectors wedged; RealityError
    if a term is not real."""
    forms = [
        ExteriorForm(1, {(k + 1,): c for k, c in enumerate(covectors[sym]) if c})
        for sym in SYMBOLS
    ]
    out = ExteriorForm.zero(3)
    for (s, t, u), coef in tf.terms.items():
        out = add(out, scale(wedge(wedge(forms[s - 1], forms[t - 1]), forms[u - 1]), coef))
    for idx, coef in out.terms.items():
        if not coef.is_real():
            raise RealityError(f"three-form term {idx} not real: {coef}")
    return out


# -- curvature of the homogeneous metric, from the structure constants alone ----
#
# G/H with m = span(e1..e7) orthonormal, h = span(e8) and G unimodular:
# Besse, Einstein Manifolds, 7.38-7.39.  Nothing here reads d, * or phi.


def structure_table(dtheta):
    """c[j][k][l] with [e_j, e_k] = sum_l c_jk^l e_l (0-based), read from
    d theta^l = -sum_{j<k} c_jk^l theta^j ^ theta^k."""
    n = len(dtheta)
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for l, form in dtheta.items():
        for (j, k), coef in form.terms.items():
            c[j - 1][k - 1][l - 1] = -coef
            c[k - 1][j - 1][l - 1] = coef
    return c


def killing_form(c, x, y):
    """B(e_x, e_y) = tr(ad e_x ad e_y), with (ad e_x)^l_k = c_xk^l."""
    n = len(c)
    return sum((c[x][k][l] * c[y][l][k] for k in range(n) for l in range(n)), ZERO)


def homogeneous_scalar_curvature(dtheta):
    """scal = -1/4 sum_ij |[Xi, Xj]_m|^2 - 1/2 sum_i B(Xi, Xi)."""
    c = structure_table(dtheta)
    m = range(len(c) - 1)
    brackets = sum((c[i][j][p] * c[i][j][p] for i in m for j in m for p in m), ZERO)
    killing = sum((killing_form(c, i, i) for i in m), ZERO)
    return brackets * Fraction(-1, 4) - killing * Fraction(1, 2)


def homogeneous_ricci(dtheta):
    """Ric(X, Y) = -1/2 sum_i <[X,Xi]_m, [Y,Xi]_m> - 1/2 B(X, Y)
    + 1/4 sum_ij <[Xi,Xj]_m, X> <[Xi,Xj]_m, Y>, on X1..X7."""
    c = structure_table(dtheta)
    m = range(len(c) - 1)

    def entry(x, y):
        first = sum((c[x][i][p] * c[y][i][p] for i in m for p in m), ZERO)
        last = sum((c[i][j][x] * c[i][j][y] for i in m for j in m), ZERO)
        return (first + killing_form(c, x, y)) * Fraction(-1, 2) + last * Fraction(1, 4)

    return [[entry(x, y) for y in m] for x in m]


# -- the G2 compatibility identity, one contraction per vector -----------------


def polarized_bryant_form(phi):
    """B(x, y) in (x -| phi) ^ (y -| phi) ^ phi = B(x, y) vol, by polarization."""
    units = [[ONE if k == j else ZERO for k in range(7)] for j in range(7)]
    diagonal = [contraction_pairing(phi, e, e) for e in units]

    def entry(i, j):
        if i == j:
            return diagonal[i]
        both = [x + y for x, y in zip(units[i], units[j])]
        return (contraction_pairing(phi, both, both) - diagonal[i] - diagonal[j]) * Fraction(1, 2)

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
        cval = contraction_pairing(phi, vector, vector)
        if not gvv:
            consistent = consistent and not cval
            continue
        ratio = cval * (1 / gvv)
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
        not contraction_pairing(phi, null_vector, null_vector)
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


def per_variable_table_value(poly, point):
    """The value of a Poly at point over per-variable tables, the route
    Poly.evaluate took before it cleared the point over one denominator:
    for each used variable v = n/d let lo = min(0, least exponent) and
    hi = max(0, largest), and let C be the lcm of the coefficient
    denominators; then the term c prod v^k is the int
    c C prod n^(k-lo) d^(hi-k) over C prod n^(-lo) d^hi, each factor read
    from a table of n^i d^(hi-lo-i).  Raises what Poly.evaluate raises,
    before any arithmetic."""
    names = poly.ctx.names
    exponents = [dict(powers) for powers, _ in poly.monomials()]
    values = []
    for v in poly.variables():
        ks = [e.get(v, 0) for e in exponents]
        lo, hi = min(min(ks), 0), max(max(ks), 0)
        if names[v] not in point:
            raise ValueError(f"no value for {names[v]}")
        value = Fraction(point[names[v]])
        if lo < 0 and not value:
            raise PoleError(f"negative power of zero at {names[v]}")
        values.append((value, ks, lo, hi))
    column, den = cleared(list(poly.terms.values()))
    for value, ks, lo, hi in values:
        n, d = value.numerator, value.denominator
        table = [n ** i * d ** (hi - lo - i) for i in range(hi - lo + 1)]
        column = [c * table[k - lo] for c, k in zip(column, ks)]
        den *= n ** -lo * d ** hi
    return Fraction(sum(column), den)


def term_by_term_function_value(f, point):
    """The value of a JetFunction unit * prim * prod factor^e at point, every
    polynomial valued by term_by_term_value; a PoleError when a
    denominator factor vanishes there."""
    value = term_by_term_value(f.prim.scale(f.unit), point)
    for factor, e in f.factors.items():
        base = term_by_term_value(factor, point)
        if not base and e < 0:
            raise PoleError("denominator factor vanishes at the point")
        value *= base ** e
    return value


def extended_value(f: ExtendedJetFunction, point: dict, root):
    """The value of c0 + c1 u + c2 u^2 at point with u = root; a ValueError
    unless root^3 is the base's value there."""
    if root ** 3 != f.base.evaluate(point):
        raise ValueError(f"{root} is not a cube root of the base at the point")
    return f.c0.evaluate(point) + f.c1.evaluate(point) * root + f.c2.evaluate(point) * root ** 2


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
    used = sorted({*a.variables(), *b.variables()})
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


def denominator_polynomial(f) -> Poly:
    """The expanded denominator of a JetFunction: the product of its table
    factors with a negative exponent, each to its power."""
    out = f.ctx.const(1)
    for g, e in f.factors.items():
        if e < 0:
            out = out * g ** (-e)
    return out


def expanded_normalize_pair(f):
    """(num, den) of a JetFunction reduced by one poly_gcd of its expanded
    numerator against its expanded denominator; den primitive > 0.  The
    PRS oracle is too slow here: it ran for more than 20 s on -5*a^2*c^3
    + b^3 over (a*b*c + 2*a + b^2*c + 2*b)^3 (a^2 + a*b - a*c + a - b*c + b)."""
    num = f.numerator_polynomial()
    den = denominator_polynomial(f)
    if num.is_zero():
        return num, num.ctx.const(1)
    g = poly_gcd(num, den)
    if not g.is_constant():
        num = num.exact_div(g)
        den = den.exact_div(g)
    unit, prim = den.primitive()
    return num.scale(1 / unit), prim


def long_division(dividend: Poly, divisor: Poly):
    """dividend / divisor when it is exact, else None, with the outcomes of
    Poly.exact_div: a monomial divisor shifts exponents; any other divisor
    meets the per-variable degree test and then long division in lex order
    on the cleared integer numerators by the divisor's primitive part.  A
    negative quotient exponent is None and one past the bound raises
    ExponentRangeError, in the order the terms meet them."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if dividend.is_zero():
        return dividend
    ctx = dividend.ctx
    one, top, bias, mask = ctx._one, ctx._top, ctx._div_bias, ctx._div_mask
    if len(divisor.terms) == 1:
        (de, dc), = divisor.terms.items()
        out = {}
        over = None
        for e, c in dividend.terms.items():
            qe = e + one - de
            if (qe + bias) & mask != top:
                if (qe + bias) & top != top:
                    return None
                over = qe
            out[qe] = exact(Fraction(c) / dc)
        if over is not None:
            raise ctx._range_error(over, 3)
        return _poly(ctx, out)
    for v in divisor.variables():
        name = ctx.names[v]
        if dividend.degree(name) < divisor.degree(name):
            return None
    unit, prim = divisor.primitive()
    nums, scale = cleared(dividend.terms.values())
    rem = dict(zip(dividend.terms, nums))
    de = max(prim.terms)
    dc = prim.terms[de]
    out = {}
    while rem:
        re = max(rem)
        qe = re + one - de
        if (qe + bias) & mask != top and not ctx._quotient_in_range(qe):
            return None
        qc, r = divmod(rem[re], dc)
        if r:
            return None
        out[qe] = qc
        for e2, c2 in prim.terms.items():
            e = qe + e2 - one
            nc = rem.get(e, 0) - qc * c2
            if nc:
                rem[e] = nc
            else:
                rem.pop(e, None)
    return _poly(ctx, {e: exact(Fraction(c) / (scale * unit)) for e, c in out.items()})


def derive_by_partials(p: Poly, dmap: dict) -> Poly:
    """sum_v dp/dv * dmap[v] over p.variables() with dmap keyed by variable
    index, as a running sum of Poly.diff(v) * dmap[v]; a used variable with
    no image is a constant, and one marked Ellipsis raises wilczynski's
    EtaResidueError."""
    total = p.ctx.const(0)
    for v in p.variables():
        img = dmap.get(v)
        if img is None:
            continue
        if img is Ellipsis:
            raise EtaResidueError(
                f"derivative of {p.ctx.names[v]} exceeds the declared order budget"
            )
        total = total + p.diff(p.ctx.names[v]) * img
    return total


def derive_by_jet_sum(p: Poly, derivation: tuple):
    """D(p) for a derivation (images, rhs) of diffpoly, as a running sum of
    JetFunction(dp/dv) * image(v), one per used variable, over the
    name-keyed map of JetFunction images (Ellipsis where undefined) that
    the table and rhs = (v, F) stand for: the route diffpoly._derive_poly
    took before it made one Poly.derive call."""
    ctx = p.ctx
    images, rhs = derivation
    dmap = {
        ctx.names[v]: img if img is Ellipsis else JetFunction(ctx, img)
        for v, img in images.items()
    }
    if rhs is not None:
        dmap[ctx.names[rhs[0]]] = rhs[1]
    total = ctx.fn(0)
    for v in p.variables():
        name = ctx.names[v]
        image = dmap.get(name)
        if image is None:
            continue
        dp = p.diff(name)
        if image is Ellipsis:
            raise MissingJetError(
                f"derivative of {name} undefined: supply the equation right-hand side"
            )
        total = JetFunction(ctx, dp, {}) * image + total
    return total


def log_derivative(f: JetFunction, derivation: tuple):
    """D(f)/f computed term by term, so it stays in the localization:
    D(prim)/prim plus e D(g)/g for each table factor g^e.  Each D is one
    diffpoly._derive_poly call, looked up when called, and may carry u."""
    ctx = f.ctx
    total = diffpoly._derive_poly(f.prim, derivation) * JetFunction(ctx, f.prim, {}).inverse()
    for g, e in f.factors.items():
        dg = diffpoly._derive_poly(g, derivation)
        total = total + dg * diffpoly._jet(ctx, e, ctx.const(1), {g: -1})
    return total


# -- binary forms, one derivative or one product at a time ----------------------


def mixed_derivative_by_steps(mono, dt_count, ds_count):
    """d^a/dt^a d^b/ds^b of sum m[k] t^(n-k) s^k for a = dt_count and
    b = ds_count, one derivative at a time."""
    for _ in range(dt_count):
        n = len(mono) - 1
        mono = [mono[k] * (n - k) for k in range(n)]
    for _ in range(ds_count):
        mono = [mono[k + 1] * (k + 1) for k in range(len(mono) - 1)]
    return mono


def _convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def binomial_powers_by_convolution(linear, n):
    """Powers (x t + y s)^k for k = 0..n as monomial lists, each the
    convolution of the one before with [x, y]."""
    pows = [[1]]
    for _ in range(n):
        pows.append(_convolution(pows[-1], linear))
    return pows


def binomial_powers(linear, n):
    """Powers (x t + y s)^k for k = 0..n as monomial lists, by the binomial
    theorem: the coefficient of t^(k-j) s^j is C(k, j) x^(k-j) y^j."""
    x, y = linear
    return [[comb(k, j) * x ** (k - j) * y ** j for j in range(k + 1)] for k in range(n + 1)]


def gl2_act_by_power_lists(form: BinaryForm, matrix) -> BinaryForm:
    """(t, s) -> (a t + b s, c t + d s) for matrix [[a, b], [c, d]]: the sum
    of m_k (a t + b s)^(n-k) (c t + d s)^k on cleared integers, each power
    from binomial_powers and each product a convolution, divided once per
    coefficient."""
    (a, b, c, d), den_m = cleared([*matrix[0], *matrix[1]])
    n = form.degree
    mono, den_v = cleared(monomial_coeffs(form))
    t_pows, s_pows = binomial_powers((a, b), n), binomial_powers((c, d), n)
    out = [0] * (n + 1)
    for k, m in enumerate(mono):
        for j, p in enumerate(_convolution(t_pows[n - k], s_pows[k])):
            out[j] += m * p
    den = den_v * den_m ** n
    return BinaryForm(n, [exact(Fraction(x, den * comb(n, j))) for j, x in enumerate(out)])


def monomial_coeffs(form: BinaryForm):
    """The coefficient m_k = C(n,k) v_k of t^(n-k) s^k for k = 0..n."""
    return tuple(c * comb(form.degree, k) for k, c in enumerate(form.coeffs))


def form_value(form: BinaryForm, s, t):
    """sum m_k t^(n-k) s^k over the monomial coefficients m_k = C(n,k) v_k."""
    n = form.degree
    return sum(m * t ** (n - k) * s ** k for k, m in enumerate(monomial_coeffs(form)))


def form_combination(*pairs) -> BinaryForm:
    """sum c F over the (c, F) pairs, forms of one degree."""
    (degree,) = {form.degree for _, form in pairs}
    return BinaryForm(degree, [sum(c * form.coeffs[k] for c, form in pairs)
                               for k in range(degree + 1)])


# -- projective vector fields and their prolongation ----------------------------

# the eight fields xi d/dx + eta d/dy of sl(3) acting on the affine chart
# of P^2, as the texts of (xi, eta)
PROJECTIVE_FIELDS = {
    "d/dx": ("1", "0"),
    "d/dy": ("0", "1"),
    "x d/dx": ("x", "0"),
    "y d/dx": ("y", "0"),
    "x d/dy": ("0", "x"),
    "y d/dy": ("0", "y"),
    "x^2 d/dx + xy d/dy": ("x^2", "x*y"),
    "xy d/dx + y^2 d/dy": ("x*y", "y^2"),
}


def prolongation(xi: JetFunction, eta: JetFunction, order: int):
    """f -> pr X f for X = xi d/dx + eta d/dy, on functions of the jets up
    to y_order: pr X = xi D_x + sum_(k=0..order) D_x^k(Q) d/dy_k with the
    characteristic Q = eta - y1 xi (Olver, Applications of Lie Groups to
    Differential Equations, 2.3).  The context must hold y_(order+1)."""
    ctx = xi.ctx
    dmap = free_total_derivative_map(ctx)
    q = [eta - ctx.fn("y1") * xi]
    for _ in range(order):
        q.append(q[-1].derivative(dmap))

    def apply(f: JetFunction) -> JetFunction:
        total = xi * f.derivative(dmap)
        for k, qk in enumerate(q):
            total = total + qk * f.partial(ctx.jet_name(k))
        return total

    return apply


# -- operators as coefficient lists ---------------------------------------------


def compose(a: list, b: list, derive) -> list:
    """a o b for operators sum_j M_(c_j) G^j given as coefficient lists
    [c_0, c_1, ...], with G M_f = M_f G + M_(derive f)."""
    out: list = []
    cur = b
    for i, c in enumerate(a):
        if i:
            # cur = G o cur
            shifted = [cur[0].ctx.const(0)] + cur
            for j, f in enumerate(cur):
                df = derive(f)
                if not df.is_zero():
                    shifted[j] = shifted[j] + df
            cur = shifted
        if not c.is_zero():
            out = add_ops(out, [c * f for f in cur])
    return out


def add_ops(a: list, b: list) -> list:
    size = min(len(a), len(b))
    return [f + g for f, g in zip(a, b)] + a[size:] + b[size:]


def operator(base: list, n: int, coeffs, derive, seed: list) -> list:
    """(base^n + sum_i C(n,i) M_(c_i) base^(n-i)) o seed for (i, c_i) in
    coeffs.

    The powers come from one ladder base^k o seed = base o (base^(k-1) o
    seed), each rung by compose."""
    powers = [seed]
    for _ in range(n):
        powers.append(compose(base, powers[-1], derive))
    op = powers[n]
    for i, c in coeffs:
        c = c.scale(comb(n, i))
        op = add_ops(op, [c * f for f in powers[n - i]])
    return op


def semi_invariants_by_conjugation(n: int) -> dict:
    """P_2..P_n as differential polynomials in the p_i.

    Conjugating the operator by lambda with lambda'/lambda = -p1 replaces
    D by D - p1; the Y^(n-1) coefficient of the result vanishes
    identically (asserted).
    """
    ctx, images = _p_ring(n)
    one = ctx.const(1)
    op = operator(
        [-ctx.var("p1_0"), one],  # D - p1
        n,
        [(i, ctx.var(f"p{i}_0")) for i in range(1, n + 1)],
        lambda f: _poly_derive(f, images),
        [one],
    )
    if not op[n - 1].is_zero():
        raise EtaResidueError("semi-canonical reduction left a Y^(n-1) term")
    assert op[n] == one
    return {i: op[n - i].scale(Fraction(1, comb(n, i))) for i in range(2, n + 1)}


def rational_P_forms(n: int, two_stage: bool = False, chains: bool = False) -> dict:
    """{r: P-form of Theta_r} for Theta_3..Theta_n of order n by the
    rational route.

    The operator D_x = v^2 E with E = v^(-2) d, d the derivation
    v' = v eta / 2, eta' = eta^2 / 2 + 6/(n+1) P2, P_i^(k)' = P_i^(k+1)
    with its Fraction images, acts on Y = v^(1-n) W; q_i and Theta_r are
    scaled term by term.  The ladder of D_x climbs from M_(v^(1-n)), or,
    with two_stage, from 1, and the whole operator is then composed with
    M_(v^(1-n)): the route classical_theta took before it seeded its one
    ladder with v^(1-n).  Each Theta_r = sum_s w(r, s) E^s(q_(r-s)) is
    summed by Horner's rule in E, or, with chains, from the chains
    E^s(q_i), each derived once and shared by every Theta_(i+s): the sum
    classical_theta took before it used Horner's rule.
    """
    ctx, _, keys = _w_ring(n)
    v, eta = ctx.var("v"), ctx.var("eta")
    half = Fraction(1, 2)
    dmap = {
        ctx.index["v"]: (v * eta).scale(half),
        ctx.index["eta"]: (eta * eta).scale(half) + ctx.var("P2_0").scale(Fraction(6, n + 1)),
    }
    depth = n + 3
    for w, (i, k) in enumerate(keys[2:], start=2):
        dmap[w] = ctx.var(f"P{i}_{k + 1}") if k < depth else Ellipsis

    def v_power(e: int) -> Poly:
        return ctx.monomial(((ctx.index["v"], e),))

    def e_derive(g: Poly) -> Poly:
        return _poly_derive(g, dmap) * v_power(-2)

    twist = [v_power(1 - n)]
    op = operator(
        [ctx.const(0), v_power(2)],
        n,
        [(i, ctx.var(f"P{i}_0")) for i in range(2, n + 1)],
        e_derive,
        [ctx.const(1)] if two_stage else twist,
    )
    if two_stage:
        op = compose(op, twist, e_derive)
    coeffs = [c * v_power(-(n + 1)) for c in op]
    q = {i: coeffs[n - i].scale(Fraction(1, comb(n, i))) for i in range(3, n + 1)}
    theta = {r: ctx.const(0) for r in range(3, n + 1)}
    if chains:
        for i in range(n, 2, -1):
            g = q[i]
            for s in range(n - i + 1):
                if s:
                    g = e_derive(g)
                theta[i + s] = theta[i + s] + g.scale(wil_coefficient(i + s, s))
    else:
        for r in theta:
            h = q[3].scale(wil_coefficient(r, r - 3))
            for s in range(r - 4, -1, -1):
                h = e_derive(h) + q[r - s].scale(wil_coefficient(r, s))
            theta[r] = h
    return {r: theta[r].coefficients("v")[-2 * r] for r in sorted(theta)}


def substitute(poly: Poly, image, one):
    """poly with each variable v replaced by image(v), a Poly, JetFunction
    or ExtendedJetFunction; one is the unit of the target ring.  The
    monomials are summed in Poly.monomials() order, with the powers
    image(v)^k cached, as wilczynski._Equation.theta sums a P-form."""
    powers: dict = {}
    total = None
    for monomial, coef in poly.monomials():
        term = None
        for v, k in monomial:
            if (v, k) not in powers:
                powers[v, k] = image(v) ** k
            term = powers[v, k] if term is None else term * powers[v, k]
        piece = (one if term is None else term) * coef
        total = piece if total is None else total + piece
    return one * 0 if total is None else total


def generic_theta_by_substitution(n: int) -> dict:
    """{r: {"P", "p"}} for Theta_3..Theta_n of order n by the rational route.

    The P-forms are rational_P_forms(n).  The p-forms substitute the
    generic equation's P_i^(k), _GenericEquation(n).P(i) derived k times
    in the p-ring, into them.
    """
    keys = _w_ring(n)[2]
    p_ctx, p_dmap = _p_ring(n)
    generic = _GenericEquation(n)
    chains = {i: [generic.P(i)] for i in range(2, n + 1)}

    def generic_P(i, k):
        chain = chains[i]
        while len(chain) <= k:
            chain.append(_poly_derive(chain[-1], p_dmap))
        return chain[k]

    return {
        r: {"P": form, "p": substitute(form, lambda w: generic_P(*keys[w]), p_ctx.const(1))}
        for r, form in rational_P_forms(n).items()
    }


def thetas_by_rational_substitution(n: int, p_of, derive, one) -> dict:
    """{r: Theta_r} of a concrete order-n equation by the substitution
    route: each P-form of classical_theta(n) with every P_i^(k) replaced
    by derive^k(P_i(p)), P_i(p) the generic _GenericEquation(n).P(i) with
    p_i^(k) = derive^k(p_of(i)) substituted for its variables.  p_of,
    derive and one are those of wilczynski._Equation, which sums P_i in
    the equation's own ring instead."""
    p_ctx, w_keys = _p_ring(n)[0], _w_ring(n)[2]
    generic = _GenericEquation(n)
    # the variable p{i}_{k} of the p-ring stands for p_i^(k)
    p_keys = [tuple(int(k) for k in name[1:].split("_")) for name in p_ctx.names]
    jets = {}

    def jet(kind, i, k):
        if (kind, i, k) not in jets:
            if k:
                value = derive(jet(kind, i, k - 1))
            elif kind == "p":
                value = p_of(i)
            else:
                value = substitute(generic.P(i), lambda v: jet("p", *p_keys[v]), one)
            jets[kind, i, k] = value
        return jets[kind, i, k]

    return {
        r: substitute(forms["P"], lambda v: jet("P", *w_keys[v]), one)
        for r, forms in sorted(classical_theta(n).items())
    }


# -- kappa -> k by substitution ---------------------------------------------------


def specialize_kappa_by_substitution(thetas, k) -> dict:
    """wilczynski.specialize_kappa by substitution: kappa -> k and every other
    variable to itself in each numerator, over the unchanged factor table."""
    ctx = next(iter(thetas.values())).ctx
    kappa_idx, value, one = ctx.index["kappa"], ctx.const(Fraction(k)), ctx.const(1)

    def image(v):
        return value if v == kappa_idx else ctx.monomial(((v, 1),))

    def specialize(f):
        return JetFunction(ctx, substitute(f.prim.scale(f.unit), image, one), f.factors)

    def specialize_value(t):
        if isinstance(t, JetFunction):
            return specialize(t)
        u = ExtendedJetFunction(ctx.fn(0), ctx.fn(1), ctx.fn(0), specialize(t.base))
        return specialize(t.c0) + specialize(t.c1) * u + specialize(t.c2) * u * u

    return {r: specialize_value(t) for r, t in thetas.items()}
