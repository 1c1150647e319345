"""Wilczynski invariants: classical, on curves, and generalized.

Every equation - a linear ODE in x, a graph y = y(x), y^(n) = F, or the
generic equation, whose p_i^(k) are variables - builds its semi-invariants
P_i in its own ring (_Equation).  Conjugating the operator by lambda with
lambda'/lambda = -p1 replaces D by D - p1, and Leibniz's rule gives the
result in closed form: with B_0 = 1, B_(j+1) = D B_j - p1 B_j and p_0 = 1,

    P_i = sum_(k=0..i) C(i,k) p_k B_(i-k),

an integer combination whose p_i term has coefficient 1.  The generic
equation's P_i are _GenericEquation(n).P(i).

The classical pipeline works in a ring carrying v = sqrt(xi'),
eta = xi''/xi' and the P_i, whose derivation implements the substitutions
xi'' = xi' eta  and  eta' = (1/2) eta^2 + 6/(n+1) P2.  The ring stores the
images of m E = v^(-2) m d, m = 2(n+1), with d that derivation; they are
integral, so the assembly multiplies and derives integer polynomials only
and divides out the powers of m once per Theta_r (Gauss's lemma; Knuth,
TAOCP vol. 2, 4.6.1).

A differential operator sum_j M_(c_j) E^j is the plain list [c_0, c_1, ...]
of its Poly coefficients, with E = v^(-2) d for the change of variable and
D_x = v^2 E.  The equation's operator sum_i C(n,i) P_i D_x^(n-i) acts on
Y = v^(1-n) W, so it is sum_i C(n,i) P_i L_(n-i) with L_k = D_x^k o M_f,
f = v^(1-n): one ladder L_k = D_x o L_(k-1) from L_0 = [f] gives every
power it needs, and no composition follows.  D_x o L prepends a zero,
adds E of each entry at its own index (E M_g = M_g E + M_(E g)) and
multiplies every entry by v^2.  The invariants Theta_r are assembled from
the canonical-form coefficients by

    Theta_r = 1/2 sum_s (-1)^s (r-2)! r! (2r-s-2)!
              / ((r-s-1)! (r-s)! (2r-3)! s!) q_(r-s)^(s),

summed by Horner's rule in E (Knuth, TAOCP vol. 2, 4.6.4): with w_s the
weight of q_(r-s)^(s), h = w_(r-3) q_3 and h = E(h) + w_s q_(r-s) for
s = r-4, ..., 0.  Every eta must cancel in the whole sum - a residual eta
is a hard failure.

Each equation gets its Theta_r from the P-form by one fraction-free
substitution of its P_i^(k) = D^k(P_i) (_Equation.theta); the generic
Theta_r is the p-form.  For y^(n) = F, p_r is -binom(n,r)^(-1) dF/dy^(n-r)
and D is D_x, the on-equation total derivative.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from types import MappingProxyType

from .diffpoly import (
    DiffAlgebraError,
    ExtendedJetFunction,
    JetContext,
    JetFunction,
    Poly,
    PoleError,
    free_total_derivative_map,
    on_equation_derivative_map,
)
from .scalar import cleared


class EtaResidueError(DiffAlgebraError):
    """The eta-cancellation postcondition failed (implementation fault)."""


class DegenerateCurveError(DiffAlgebraError):
    """The curve is a line/conic where the construction degenerates."""


class CurvatureUndefinedError(DiffAlgebraError):
    """Theta_3 vanishes identically, so kappa is undefined."""


DEGENERATE_GAMMAS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
)

# x-only coefficient functions (linear ODEs, curves given as graphs)
X_CTX = JetContext.plain(("x",))


def x_fn(value) -> JetFunction:
    return X_CTX.fn(value)


def x_derivative(f: JetFunction) -> JetFunction:
    return f.partial("x")


# -- abstract differential polynomial rings -----------------------------------


def _poly_derive(p: Poly, images: dict) -> Poly:
    """The ring derivation of p, Poly.derive over the table of _p_ring or
    _w_ring.  The top order k = n + 3 is marked Ellipsis there: deriving
    it is an EtaResidueError."""
    try:
        return p.derive(images)
    except KeyError as missing:
        name = p.ctx.names[missing.args[0]]
        raise EtaResidueError(
            f"derivative of {name} exceeds the declared order budget"
        ) from None


@lru_cache(maxsize=None)
def _p_ring(n: int):
    """Ring of p_i and their formal x-derivatives, i = 1..n.

    Returns (ctx, images), the table of _poly_derive: p_i^(k) -> p_i^(k+1)
    for k < n + 3, and Ellipsis for k = n + 3.
    """
    depth = n + 3
    ctx = JetContext.plain(
        tuple(f"p{i}_{k}" for i in range(1, n + 1) for k in range(depth + 1))
    )
    images = {
        ctx.index[f"p{i}_{k}"]: ctx.var(f"p{i}_{k + 1}") if k < depth else Ellipsis
        for i in range(1, n + 1)
        for k in range(depth + 1)
    }
    return ctx, images


@lru_cache(maxsize=None)
def _w_ring(n: int):
    """Ring carrying v = sqrt(xi'), eta, and the semi-invariants P_i.

    Returns (ctx, images, keys) with keys[v] = (i, k) for the variable
    P_i^(k) and None for v and eta.  images, the table of _poly_derive,
    holds the image of each variable index under m E = v^(-2) m d,
    m = 2(n+1), with d the derivation v' = v eta / 2,
    eta' = eta^2 / 2 + 6/(n+1) P2, P_i^(k)' = P_i^(k+1) (Ellipsis for
    k = n + 3): v -> (n+1) v^(-1) eta, eta -> ((n+1) eta^2 + 12 P2) v^(-2),
    P_i^(k) -> m v^(-2) P_i^(k+1), the variable after P_i^(k).  Every
    image is an integer polynomial, and every one but eta's is one term.
    """
    depth = n + 3
    keys = (None, None) + tuple(
        (i, k) for i in range(2, n + 1) for k in range(depth + 1)
    )
    names = ["v", "eta"] + [f"P{i}_{k}" for i, k in keys[2:]]
    ctx = JetContext.plain(tuple(names))
    v_idx, eta_idx = ctx.index["v"], ctx.index["eta"]
    m = 2 * (n + 1)
    images = {
        v_idx: ctx.monomial(((v_idx, -1), (eta_idx, 1)), n + 1),
        eta_idx: ctx.monomial(((v_idx, -2), (eta_idx, 2)), n + 1)
        + ctx.monomial(((v_idx, -2), (ctx.index["P2_0"], 1)), 12),
    }
    for w, (_, k) in enumerate(keys[2:], start=2):
        images[w] = ctx.monomial(((v_idx, -2), (w + 1, 1)), m) if k < depth else Ellipsis
    return ctx, images, keys


# -- semi-invariants ------------------------------------------------------------


def wil_coefficient(r: int, s: int) -> Fraction:
    num = factorial(r - 2) * factorial(r) * factorial(2 * r - s - 2)
    den = (
        factorial(r - s - 1)
        * factorial(r - s)
        * factorial(2 * r - 3)
        * factorial(s)
    )
    return Fraction((-1) ** s * num, 2 * den)


@lru_cache(maxsize=None)
def classical_theta(n: int) -> dict:
    """Theta_3..Theta_n for order n, in both P- and p-variables.

    Returns {r: forms}, where forms is a read-only mapping with the keys
    "P" and "p" (_ThetaForms): the P-form is built here, and the generic
    p-form is expanded from it on its first read and then kept, so a
    caller that reads only "P" pays for no p-form.  Raises
    EtaResidueError if any eta monomial survives the assembly.  The
    canonical-form coefficients come from one ladder L_k = B o L_(k-1),
    B = m D_x, climbed once from L_0 = [v^(1-n)] and summed as
    L_n + sum_i C(n,i) m^i P_i L_(n-i): no operator composition follows
    it.  Every polynomial product and derivation runs on integer
    coefficients: the P-forms are assembled with m E, m = 2(n+1), in place
    of E and scaled by one rational per Theta_r, and each p-form is summed
    over one common denominator (_Equation.theta).  Fractions appear only
    in those scalars and in the returned forms.  Each Theta_r is summed by
    Horner's rule in m E, so each derivation acts on a partial sum in
    which eta has partly cancelled, and the eta and weight checks read
    the whole sum.  Each m E is one Poly.derive pass (_poly_derive) over
    the images of _w_ring: every image but eta's is one term, so its
    pieces are written straight into one dict, with no product and no
    copy of a running sum.
    """
    if n < 3:
        raise ValueError("need order n >= 3")
    ctx, images, _ = _w_ring(n)
    v_idx = ctx.index["v"]

    def v_power(e: int) -> Poly:
        """v^e; e may be negative."""
        return ctx.monomial(((v_idx, e),))

    m = 2 * (n + 1)

    def e_derive(g: Poly) -> Poly:
        """m E(g): integral on integer polynomials."""
        return _poly_derive(g, images)

    # The ladder runs on B = M_(v^2) (m E) = m D_x, so that every operator
    # coefficient is an integer polynomial: the equation's operator on
    # Y = v^(1-n) W is m^(-n) times sum_i C(n,i) m^i P_i L_(n-i)
    # (P_0 = 1), whose coefficient of (m E)^j is m^(n-j) times that of E^j.
    v2 = v_power(2)
    ladder = [[v_power(1 - n)]]
    for _ in range(n):
        rung = [ctx.const(0)] + ladder[-1]
        for j, f in enumerate(ladder[-1]):
            rung[j] = rung[j] + e_derive(f)
        ladder.append([f * v2 for f in rung])
    op = ladder[n]
    for i in range(2, n + 1):
        c = ctx.var(f"P{i}_0").scale(comb(n, i) * m ** i)
        op = [f + c * g for f, g in zip(op, ladder[n - i])] + op[n - i + 1:]
    if op[n] != v_power(n + 1):
        raise EtaResidueError("unexpected leading coefficient in canonical form")
    coeffs = [c * v_power(-(n + 1)) for c in op]
    if not coeffs[n - 1].is_zero():
        raise EtaResidueError("q_1 failed to vanish")

    # Theta_r = sum_s wil_coefficient(r, s) E^s(q_(r-s)), where
    # q_i = coeffs[n-i] / (m^i C(n,i)) and E^s = (m E)^s / m^s: every term
    # of Theta_r carries 1/m^r, and the scalars wil_coefficient(r, s) /
    # C(n, r-s) are cleared to ints w_s over one denominator per r.  m E is
    # linear, so the sum is taken by Horner's rule in m E (Knuth, TAOCP
    # vol. 2, 4.6.4): h = w_(r-3) coeffs[n-3], then h = m E(h) + w_s
    # coeffs[n-r+s] for s = r-4, ..., 0.  Each derivation acts on a partial
    # sum in which eta has partly cancelled; no term is dropped, and the
    # checks below read the whole Theta_r.
    theta_P = {}
    for r in range(3, n + 1):
        w, den = cleared([wil_coefficient(r, s) / comb(n, r - s) for s in range(r - 2)])
        h = coeffs[n - 3].scale(w[r - 3])
        for s in range(r - 4, -1, -1):
            h = e_derive(h) + coeffs[n - r + s].scale(w[s])
        if set(h.coefficients("eta")) - {0}:
            raise EtaResidueError(
                f"Theta_{r} kept an eta monomial for order n = {n}"
            )
        by_weight = h.coefficients("v")
        if set(by_weight) - {-2 * r}:
            raise EtaResidueError(
                f"Theta_{r} is not homogeneous of weight {r} in xi'"
            )
        theta_P[r] = by_weight.get(-2 * r, ctx.const(0)).scale(Fraction(1, den * m ** r))

    generic = _GenericEquation(n)
    return {r: _ThetaForms(poly, generic) for r, poly in theta_P.items()}


class _ThetaForms(Mapping):
    """One Theta_r of classical_theta(n), read-only, with the keys "P" and
    "p": the P-form, built with classical_theta(n), and the generic
    equation's theta of it, expanded on its first read and then kept."""

    __slots__ = ("_P", "_p", "_generic")

    def __init__(self, P: Poly, generic: _GenericEquation):
        self._P, self._p, self._generic = P, None, generic

    def __getitem__(self, key):
        if key == "P":
            return self._P
        if key == "p":
            if self._p is None:
                self._p = self._generic.theta(self._P)
            return self._p
        raise KeyError(key)

    def __contains__(self, key):
        # Mapping's default reads the value, which would expand the p-form
        return key in ("P", "p")

    def __iter__(self):
        return iter(("P", "p"))

    def __len__(self):
        return 2


class _Equation:
    """An order-n equation seen through its semi-invariants.

    p_of(i) is the coefficient p_i, derive the x-derivation of the ring it
    lives in and one that ring's unit.  P(i, k) is P_i^(k): the first read
    reads each p_i once and builds P_2..P_n by Leibniz's rule,
    P_i = sum_(k=0..i) C(i,k) p_k B_(i-k) with p_0 = 1, B_0 = 1 and
    B_(j+1) = derive(B_j) - p1 B_j, dropping the B_j once they are summed;
    P_i^(k+1) = derive(P_i^(k)).
    """

    def __init__(self, n: int, p_of, derive, one):
        self.n, self.p_of, self.derive, self.one = n, p_of, derive, one
        self._jets: dict = {}

    def _semi_invariants(self) -> None:
        n = self.n
        p = {i: self.p_of(i) for i in range(1, n + 1)}
        b = [self.one, -p[1]]
        for _ in range(2, n + 1):
            b.append(self.derive(b[-1]) - p[1] * b[-1])
        for i in range(2, n + 1):
            # the terms k = 0 and k = i carry p_0 = 1 and B_0 = 1
            total = b[i] + p[i]
            for k in range(1, i):
                total = total + p[k] * b[i - k] * comb(i, k)
            self._jets[i, 0] = total

    def P(self, i: int, k: int = 0):
        if (i, k) not in self._jets:
            if k:
                self._jets[i, k] = self.derive(self.P(i, k - 1))
            else:
                self._semi_invariants()
        return self._jets[i, k]

    def theta(self, form: Poly):
        """The Theta_r whose P-form is form: its coefficients are cleared to
        ints over one denominator, the integer products of the P_i^(k) are
        summed as they are made, with the powers cached per call, and the
        sum is scaled by 1/den once (Gauss's lemma; Knuth, TAOCP vol. 2,
        4.6.1).  The monomials are summed in Poly.monomials() order."""
        w_keys = _w_ring(self.n)[2]
        monomials = form.monomials()
        ints, den = cleared([coef for _, coef in monomials])
        powers: dict = {}
        total = None
        for (monomial, _), coef in zip(monomials, ints):
            term = None
            for v, k in monomial:
                if (v, k) not in powers:
                    powers[v, k] = self.P(*w_keys[v]) ** k
                term = powers[v, k] if term is None else term * powers[v, k]
            piece = (self.one if term is None else term) * coef
            total = piece if total is None else total + piece
        return (self.one * 0 if total is None else total) * Fraction(1, den)

    def thetas(self) -> dict:
        """Theta_r of the equation from the P-forms of classical_theta."""
        thetas = sorted(classical_theta(self.n).items())
        return {r: self.theta(forms["P"]) for r, forms in thetas}


class _GenericEquation(_Equation):
    """The generic order-n equation, whose p_i^(k) is the variable p{i}_{k}
    of _p_ring(n): its P_i are integer polynomials in them, each with its
    p_i term at coefficient 1, and theta gives the p-form."""

    def __init__(self, n: int):
        ctx, images = _p_ring(n)
        super().__init__(
            n, lambda i: ctx.var(f"p{i}_0"), lambda f: _poly_derive(f, images), ctx.const(1)
        )


# -- linear ODEs ----------------------------------------------------------------


class LinearODE:
    """Y^(n) + C(n,1) p1 Y^(n-1) + ... + p_n Y = 0 with rational-in-x p_i."""

    __slots__ = ("order", "p")

    def __init__(self, order: int, p: tuple):
        if len(p) != order:
            raise ValueError("need exactly n coefficient functions")
        self.order, self.p = order, p


def _linear_equation(ode: LinearODE) -> _Equation:
    return _Equation(ode.order, lambda i: ode.p[i - 1], x_derivative, x_fn(1))


def classical_theta_of_ode(ode: LinearODE) -> dict:
    """Theta_3..Theta_n of a concrete linear ODE as functions of x."""
    return _linear_equation(ode).thetas()


def _graph_coefficients(d2: JetFunction, d3: JetFunction) -> tuple:
    """(p1, p2, p3) of the graph y = f(x) as a third-order equation, for
    any d2, d3 with d3/d2 = f'''/f'': p1 = -f'''/(3 f''), p2 = p3 = 0."""
    zero = d2.ctx.fn(0)
    return -(d3 / (d2 * 3)), zero, zero


def _slope_ode(d1: JetFunction) -> LinearODE:
    """The graph ODE of a curve with slope d1 = f'."""
    d2 = x_derivative(d1)
    if d2.is_zero():
        raise DegenerateCurveError("the curve is a line: f'' = 0")
    return LinearODE(3, _graph_coefficients(d2, x_derivative(d2)))


def power_curve_ode(gamma: Fraction) -> LinearODE:
    """The graph ODE of y = x^gamma, whose f'''/f'' is (gamma - 2)/x."""
    gamma = Fraction(gamma)
    if gamma in (Fraction(0), Fraction(1)):
        raise DegenerateCurveError("y = x^gamma degenerates for gamma in {0, 1}")
    return LinearODE(3, _graph_coefficients(x_fn("x"), x_fn(gamma - 2)))


def log_curve_ode() -> LinearODE:
    """The graph ODE of the basis [1, x, ln x].

    ln x is not rational but its slope 1/x is, so p1 is computed from the
    slope rather than hard-coded.
    """
    return _slope_ode(x_fn(1) / x_fn("x"))


# -- curve invariants in jet variables ------------------------------------------


def halphen_numerator(y2, y3, y4, y5):
    """H = 9 y2^2 y5 - 45 y2 y3 y4 + 40 y3^3 over any ring (Fraction, Poly, jets)."""
    return y2 * y2 * y5 * 9 - y2 * y3 * y4 * 45 + y3 ** 3 * 40


def _graph_equation(ctx: JetContext) -> _Equation:
    """The graph y = y(x) as a third-order equation in the jet variables."""
    derivation = free_total_derivative_map(ctx)
    p = _graph_coefficients(ctx.fn("y2"), ctx.fn("y3"))
    return _Equation(3, lambda i: p[i - 1], lambda f: f.derivative(derivation), ctx.fn(1))


def theta8(theta3: JetFunction, p2: JetFunction, derive) -> JetFunction:
    """Theta_8 = 6 T T'' - 7 (T')^2 - 27 P2 T^2 for T = Theta_3."""
    t1 = derive(theta3)
    t2 = derive(t1)
    return theta3 * t2 * 6 - t1 * t1 * 7 - p2 * theta3 * theta3 * 27


def _theta3_theta8(equation: _Equation) -> tuple:
    """(Theta_3, Theta_8) of a third-order equation."""
    theta3 = equation.thetas()[3]
    return theta3, theta8(theta3, equation.P(2), equation.derive)


def curve_thetas(ctx: JetContext) -> tuple[JetFunction, JetFunction]:
    """(Theta_3, Theta_8) on graphs, from one graph equation: Theta_3 =
    P3 - (3/2) P2' equals -H / (54 y2^3), H = halphen_numerator(y2..y5)."""
    return _theta3_theta8(_graph_equation(ctx))


# -- projective curvature --------------------------------------------------------


def kappa_closed_form(gamma: Fraction) -> Fraction:
    gamma = Fraction(gamma)
    num = 3 ** 9 * (1 + gamma * gamma - gamma) ** 3
    den = (gamma - 2) ** 2 * (2 * gamma - 1) ** 2 * (gamma + 1) ** 2
    return num / den


def curvature_kappa_of_ode(ode: LinearODE) -> Fraction:
    """kappa = Theta_8^3 / Theta_3^8 for a third-order linear ODE."""
    if ode.order != 3:
        raise ValueError("curvature needs the third-order curve ODE")
    theta3, t8 = _theta3_theta8(_linear_equation(ode))
    if theta3.is_zero():
        raise CurvatureUndefinedError("Theta_3 vanishes: conic or degenerate curve")
    kappa = t8 ** 3 / theta3 ** 8
    if not kappa.partial("x").is_zero():
        raise DiffAlgebraError("curvature came out x-dependent")
    return _constant_value(kappa)


def _constant_value(f: JetFunction) -> Fraction:
    num, den = f.normalize_pair()
    return Fraction(num.constant_value(), den.constant_value())


def curvature_kappa(gamma: Fraction) -> Fraction:
    """Exact kappa of y = x^gamma; must match the closed form."""
    gamma = Fraction(gamma)
    if gamma in DEGENERATE_GAMMAS:
        raise CurvatureUndefinedError(
            f"gamma = {gamma} excluded (gamma != 0, 1, -1, 2, 1/2)"
        )
    return curvature_kappa_of_ode(power_curve_ode(gamma))


# -- the 7th-order curvature ODE --------------------------------------------------


class NonlinearODE:
    """y^(n) = F(x, y, y1, .., y_(n-1)), F free of y_n.

    F is a JetFunction when rational.  Only the curvature equation
    (curvature_ode) has an F with a formal cube root, an
    ExtendedJetFunction over u^3 = kappa Theta_3^8.
    """

    __slots__ = ("order", "rhs")

    def __init__(self, order: int, rhs: JetFunction | ExtendedJetFunction):
        top = rhs.ctx.jet_name(order)
        if top in rhs.ctx.index and not rhs.partial(top).is_zero():
            raise ValueError(f"right-hand side must not contain {top}")
        self.order, self.rhs = order, rhs

    @property
    def ctx(self) -> JetContext:
        return self.rhs.ctx


def curvature_context(symbolic: bool) -> JetContext:
    return JetContext(7, extra=("kappa",) if symbolic else ())


def curvature_ode(kappa=None) -> NonlinearODE:
    """Resolve Theta_8^3 = kappa Theta_3^8 for y^(7).

    Theta_8 = A y7 + B is linear in y7; the equation becomes u = A y7 + B
    for the cube-root generator u with u^3 = kappa Theta_3^8, so
    F = (u - B)/A.  kappa None means the symbolic constant.
    """
    symbolic = kappa is None
    if not symbolic and not Fraction(kappa):
        raise ValueError("kappa must be nonzero")
    ctx = curvature_context(symbolic)
    theta3, t8 = curve_thetas(ctx)
    a_coef = t8.partial("y7")
    if a_coef.is_zero():
        raise DiffAlgebraError("Theta_8 lost its y7 term")
    b_part = t8 - a_coef * ctx.fn("y7")
    if not b_part.partial("y7").is_zero():
        raise DiffAlgebraError("Theta_8 is not linear in y7")
    kappa_fn = ctx.fn("kappa") if symbolic else ctx.fn(Fraction(kappa))
    base = kappa_fn * theta3.as_factored() ** 8
    u = ExtendedJetFunction(ctx.fn(0), ctx.fn(1), ctx.fn(0), base)
    rhs = (u - b_part) / a_coef
    return NonlinearODE(7, rhs)


# -- generalized invariants --------------------------------------------------------


def generalized_theta(ode: NonlinearODE) -> dict:
    """Theta_3..Theta_n of the nonlinear equation via the substitution
    p_r^(k) -> -binom(n,r)^(-1) D_x^k(dF/dy^(n-r))."""
    n = ode.order
    ctx = ode.ctx
    derivation = on_equation_derivative_map(ctx, n, ode.rhs)
    equation = _Equation(
        n,
        lambda i: ode.rhs.partial(ctx.jet_name(n - i)) * Fraction(-1, comb(n, i)),
        lambda f: f.derivative(derivation),
        ctx.fn(1),
    )
    return equation.thetas()


@lru_cache(maxsize=None)
def curvature_thetas() -> MappingProxyType:
    """generalized_theta of the symbolic-kappa curvature equation, derived
    once per process and shared: the mapping is read-only, and jet
    functions never change after construction."""
    # both calls go through the module's names, which perfbench's tracer
    # rebinds to count them
    return MappingProxyType(generalized_theta(curvature_ode()))


def specialize_kappa(thetas, k) -> dict:
    """The invariants of curvature_ode(k) from the symbolic ones, by
    kappa -> k in every numerator of a JetFunction, or of an element's c0,
    c1, c2 and cube base: each numerator's coefficients in kappa, scaled
    by k^e and summed.

    Sound when kappa occurs in no factor table: then kappa -> k is a ring
    homomorphism that commutes with D_x (D_x kappa = 0) and sends
    u^3 = kappa Theta_3^8 to u^3 = k Theta_3^8.  A kappa in a factor raises
    DiffAlgebraError.
    """
    ctx = next(iter(thetas.values())).ctx
    kappa_idx, k = ctx.index["kappa"], Fraction(k)

    def specialize(f: JetFunction) -> JetFunction:
        if any(kappa_idx in g.variables() for g in f.factors):
            raise DiffAlgebraError("kappa occurs in a factor table; cannot specialize")
        num = ctx.const(0)
        for e, c in f.prim.coefficients("kappa").items():
            num = num + c.scale(f.unit * k ** e)
        return JetFunction(ctx, num, f.factors)

    def specialize_value(t):
        if isinstance(t, JetFunction):
            return specialize(t)
        return ExtendedJetFunction.of(*(specialize(c) for c in (t.c0, t.c1, t.c2, t.base)))

    return {r: specialize_value(t) for r, t in thetas.items()}


# -- rational jets along parametrized curves -----------------------------------------


# A power series in s = t - t0, truncated after its n-th coefficient, is a
# pair (coeffs, den): the coefficient of s^i is coeffs[i] / den, with int
# coeffs and a positive int den.  For x = a/b and y = c/d the derivatives
# are quotients of integer polynomials in t, x' = W(a, b) / b^2 and
# y' = W(c, d) / d^2, with the Wronskian numerator W(p, q) = p'q - pq'.
# So y1 = y'/x' and the step factor 1/x' share the one denominator
# Q = W(a, b) d^2 (W(a, b) when d = b), and a jet takes one series inverse
# (Knuth, TAOCP vol. 2, 4.7).  The two products with 1/Q divide out their
# gcd once; the derivation ladder after them takes no gcd, and each jet is
# reduced once, by Fraction.


def _reduced(coeffs: list, den: int) -> tuple:
    g = gcd(den, *coeffs)
    return [c // g for c in coeffs], den // g


def _times(p: list, q: list, n: int) -> list:
    """The first n coefficients of p q for coefficient lists p and q."""
    out = [0] * n
    for i, u in enumerate(p[:n]):
        for j, v in enumerate(q[:n - i], i):
            out[j] += u * v
    return out


def _series_inv(series: tuple) -> tuple:
    """1 / series for a nonzero constant coefficient b0: the coefficient of
    s^i of 1 / b is r_i / b0^(i+1) with r_0 = 1 and
    r_i = -sum_(j=1..i) b_j r_(i-j) b0^(j-1), all integers."""
    b, den = series
    n = len(b)
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * b[0])
    r = [1]
    for i in range(1, n):
        r.append(-sum(b[j] * r[i - j] * powers[j - 1] for j in range(1, i + 1)))
    sign = 1 if powers[n] > 0 else -1
    return _reduced([sign * den * r[i] * powers[n - 1 - i] for i in range(n)], sign * powers[n])


def _wronskian(p: list, q: list) -> list:
    """p'q - pq' for int coefficient lists: p_i q_j t^(i+j) contributes
    (i - j) p_i q_j t^(i+j-1)."""
    out = [0] * max(len(p) + len(q) - 2, 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            if i != j:
                out[i + j - 1] += (i - j) * u * v
    return out


def _taylor_shift(p: list, t0: Fraction, n: int) -> tuple:
    """The first n coefficients of p(t0 + s) for p = sum_e p[e] t^e, with
    int p[e].

    With t0 = a/b and d = len(p) - 1, b^d p(t0 + s) =
    sum_j (p_j b^(d-j)) (a + b s)^j: one integer Taylor shift by a
    (Horner's rule; Knuth, TAOCP vol. 2, 4.6.4), after which s^i takes the
    factor b^i.
    """
    a, b = t0.numerator, t0.denominator
    d = len(p) - 1
    c = [v * b ** (d - e) for e, v in enumerate(p)]
    for i in range(min(n, d)):
        for j in range(d - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return [c[i] * b ** i if i <= d else 0 for i in range(n)], b ** d


def jets_along_curve(x: tuple, y: tuple, k: int, t0: Fraction) -> dict:
    """Exact jets y1..y_k of the curve (x(t), y(t)) at t = t0.

    x and y are (numerator, denominator) pairs of nonempty int coefficient
    lists, index i holding the coefficient of t^i; the denominators are not
    the zero polynomial.  A given denominator that vanishes at t0 is a
    pole, even when its numerator shares that root: the pair is taken as
    given, not reduced.

    y1 = y'/x', then y_(j+1) = (d y_j / dt) / x', done on power series in
    s = t - t0 truncated after s^(k-1), the fewest terms that still fix
    y_k.  For x = a/b and y = c/d, with W(p, q) = p'q - pq' and
    Q = W(a, b) d^2, y1 = W(c, d) b^2 / Q and 1/x' = b^2 d^2 / Q; when
    d = b, as on every curve (z0/z2, z1/z2) of the sampler, Q = W(a, b),
    y1 = W(c, d) / Q and 1/x' = b^2 / Q.  The numerators and Q become
    series by Taylor shifts, Q takes the one series inverse, and each step
    derives the series and multiplies it by 1/x', which drops its last
    coefficient.  The constant coefficient of the j-th series is y_j.

    Rejects, in this order: a pole of x at t0 (PoleError), x'(t0) = 0
    (DegenerateCurveError), a pole of y at t0 (PoleError); for every k,
    k = 0 included.
    """
    t0 = Fraction(t0)
    (a, b), (c, d) = x, y

    def at(p: list) -> tuple:  # (v, e) with p(t0) = v / e
        (value,), den = _taylor_shift(p, t0, 1)
        return value, den

    def quotient(num: tuple, den: tuple) -> Fraction:
        return Fraction(num[0] * den[1], num[1] * den[0])

    xb = at(b)
    if not xb[0]:
        raise PoleError(f"the denominator vanishes at t = {t0}")
    wx = _wronskian(a, b)
    qs = _taylor_shift(wx, t0, max(k, 1))
    if not qs[0][0]:
        raise DegenerateCurveError("x'(t0) = 0: not a graph over x near the point")
    shared = d == b
    yd = xb if shared else at(d)
    if not yd[0]:
        raise PoleError(f"the denominator vanishes at t = {t0}")
    jets = {"x": quotient(at(a), xb), "y": quotient(at(c), yd)}
    if not k:
        return jets

    def mul(p: list, q: list) -> list:
        return _times(p, q, len(p) + len(q) - 1)

    wy, b2 = _wronskian(c, d), mul(b, b)
    if shared:
        py, pw = wy, b2
    else:
        d2 = mul(d, d)
        qs = _taylor_shift(mul(wx, d2), t0, k)
        py, pw = mul(wy, b2), mul(b2, d2)
    inverse, inverse_den = _series_inv(qs)
    (ys, y_den), (ws, w_den) = _taylor_shift(py, t0, k), _taylor_shift(pw, t0, k - 1)
    cur, den = _reduced(_times(ys, inverse, k), y_den * inverse_den)
    w, w_den = _reduced(_times(ws, inverse, k - 1), w_den * inverse_den)
    jets["y1"] = Fraction(cur[0], den)
    for j in range(2, k + 1):
        cur, den = _times([i * v for i, v in enumerate(cur) if i], w, k + 1 - j), den * w_den
        jets[f"y{j}"] = Fraction(cur[0], den)
    return jets
