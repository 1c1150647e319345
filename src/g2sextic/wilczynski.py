"""Wilczynski invariants: classical, on curves, and generalized.

The classical pipeline works in two abstract differential polynomial
rings.  Conjugation by exp(-int p1) produces the semi-invariants P_i; the
formal change of independent variable is done in a ring carrying
v = sqrt(xi'), eta = xi''/xi' and the P_i, whose derivation implements the
substitutions  xi'' = xi' eta  and  eta' = (1/2) eta^2 + 6/(n+1) P2.  The
invariants Theta_r are assembled from the canonical-form coefficients by

    Theta_r = 1/2 sum_s (-1)^s (r-2)! r! (2r-s-2)!
              / ((r-s-1)! (r-s)! (2r-3)! s!) q_(r-s)^(s)

and every eta must cancel - a residual eta is a hard failure.

Every concrete equation - a linear ODE in x, a graph y = y(x), the
generic equation of the p-form, or y^(n) = F - gets its Theta_r the same
way: its semi-invariants P_i^(k) = D^k(P_i(p)) are substituted into the
P-form of Theta_r.  For y^(n) = F, p_r^(k) is
-binom(n,r)^(-1) D_x^k(dF/dy^(n-r)) with D_x the on-equation total
derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
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


def _poly_derive(p: Poly, dmap: dict) -> Poly:
    total = p.ctx.const(0)
    for v in p.variables():
        img = dmap.get(p.ctx.names[v])
        if img is None:
            raise EtaResidueError(
                f"derivative of {p.ctx.names[v]} exceeds the declared order budget"
            )
        dp = p.diff(p.ctx.names[v])
        if not dp.is_zero():
            total = total + dp * img
    return total


@lru_cache(maxsize=None)
def _p_ring(n: int):
    """Ring of p_i and their formal x-derivatives, i = 1..n.

    Returns (ctx, dmap, keys) with keys[v] = (i, k) for the variable p_i^(k).
    """
    depth = n + 3
    keys = tuple((i, k) for i in range(1, n + 1) for k in range(depth + 1))
    ctx = JetContext.plain(tuple(f"p{i}_{k}" for i, k in keys))
    dmap = {
        f"p{i}_{k}": ctx.var(f"p{i}_{k + 1}") if k < depth else None
        for i, k in keys
    }
    return ctx, dmap, keys


@lru_cache(maxsize=None)
def _w_ring(n: int):
    """Ring carrying v = sqrt(xi'), eta, and the semi-invariants P_i.

    Returns (ctx, dmap, keys) with keys[v] = (i, k) for the variable P_i^(k)
    and None for v and eta.
    """
    depth = n + 3
    keys = (None, None) + tuple(
        (i, k) for i in range(2, n + 1) for k in range(depth + 1)
    )
    names = ["v", "eta"] + [f"P{i}_{k}" for i, k in keys[2:]]
    ctx = JetContext.plain(tuple(names))
    v, eta = ctx.var("v"), ctx.var("eta")
    dmap = {
        "v": (v * eta).scale(Fraction(1, 2)),
        "eta": (eta * eta).scale(Fraction(1, 2)) + ctx.var("P2_0").scale(Fraction(6, n + 1)),
    }
    for i, k in keys[2:]:
        dmap[f"P{i}_{k}"] = ctx.var(f"P{i}_{k + 1}") if k < depth else None
    return ctx, dmap, keys


class DiffOp:
    """sum_j M_(c_j) G^j with the composition rule G M_f = M_f G + M_(t d(f))."""

    __slots__ = ("ctx", "dmap", "twist", "coeffs")

    def __init__(self, ctx, dmap, twist, coeffs):
        self.ctx = ctx
        self.dmap = dmap
        self.twist = twist  # Poly or None for the plain derivation
        self.coeffs = list(coeffs)
        while self.coeffs and self.coeffs[-1].is_zero():
            self.coeffs.pop()

    def _delta(self, p: Poly) -> Poly:
        d = _poly_derive(p, self.dmap)
        return d if self.twist is None else d * self.twist

    def _g_compose(self, coeffs):
        """Coefficients of G o (sum M_b G^j)."""
        out = [self.ctx.const(0)] * (len(coeffs) + 1)
        for j, b in enumerate(coeffs):
            out[j + 1] = out[j + 1] + b
            db = self._delta(b)
            if not db.is_zero():
                out[j] = out[j] + db
        return out

    def __add__(self, other):
        size = max(len(self.coeffs), len(other.coeffs))
        zero = self.ctx.const(0)
        out = [
            (self.coeffs[j] if j < len(self.coeffs) else zero)
            + (other.coeffs[j] if j < len(other.coeffs) else zero)
            for j in range(size)
        ]
        return DiffOp(self.ctx, self.dmap, self.twist, out)

    def left_multiply(self, poly: Poly) -> "DiffOp":
        return DiffOp(
            self.ctx, self.dmap, self.twist, [poly * c for c in self.coeffs]
        )

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        zero = self.ctx.const(0)
        total = DiffOp(self.ctx, self.dmap, self.twist, [])
        cur = list(other.coeffs)
        for i, a in enumerate(self.coeffs):
            if i > 0:
                cur = self._g_compose(cur)
            if not a.is_zero():
                total = total + DiffOp(
                    self.ctx, self.dmap, self.twist, [a * c for c in cur]
                )
        return total

    def __pow__(self, n: int) -> "DiffOp":
        out = DiffOp(self.ctx, self.dmap, self.twist, [self.ctx.const(1)])
        for _ in range(n):
            out = out * self
        return out

    def coefficient(self, j: int) -> Poly:
        return self.coeffs[j] if j < len(self.coeffs) else self.ctx.const(0)


# -- semi-invariants ------------------------------------------------------------


@lru_cache(maxsize=None)
def semi_invariants(n: int) -> dict:
    """P_2..P_n as differential polynomials in the p_i.

    Conjugating the operator by lambda with lambda'/lambda = -p1 replaces
    D by D - p1; the Y^(n-1) coefficient of the result vanishes
    identically (asserted).
    """
    ctx, dmap, _ = _p_ring(n)
    one = ctx.const(1)
    ell = -ctx.var("p1_0")
    base = DiffOp(ctx, dmap, None, [ell, one])  # D + ell
    op = base ** n
    for i in range(1, n + 1):
        term = (base ** (n - i)).left_multiply(
            ctx.var(f"p{i}_0").scale(comb(n, i))
        )
        op = op + term
    if not op.coefficient(n - 1).is_zero():
        raise EtaResidueError("semi-canonical reduction left a Y^(n-1) term")
    assert op.coefficient(n) == one
    return {
        i: op.coefficient(n - i).scale(Fraction(1, comb(n, i)))
        for i in range(2, n + 1)
    }


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

    Returns {r: {"P": Poly, "p": Poly}}; raises EtaResidueError if any
    eta monomial survives the assembly.
    """
    if n < 3:
        raise ValueError("need order n >= 3")
    ctx, dmap, _ = _w_ring(n)
    v_idx = ctx.index["v"]

    def v_power(e: int) -> Poly:
        """v^e; e may be negative."""
        return ctx.monomial(((v_idx, e),))

    vm2 = v_power(-2)
    dx_op = DiffOp(ctx, dmap, vm2, [ctx.const(0), v_power(2)])  # D_x = M_(v^2) E
    op = dx_op ** n
    for i in range(2, n + 1):
        term = (dx_op ** (n - i)).left_multiply(
            ctx.var(f"P{i}_0").scale(comb(n, i))
        )
        op = op + term
    # compose with multiplication by v^(1-n):  Y = (xi')^(-(n-1)/2) W
    op = op * DiffOp(ctx, dmap, vm2, [v_power(1 - n)])
    if op.coefficient(n) != v_power(n + 1):
        raise EtaResidueError("unexpected leading coefficient in canonical form")
    coeffs = [op.coefficient(j) * v_power(-(n + 1)) for j in range(n + 1)]
    if not coeffs[n - 1].is_zero():
        raise EtaResidueError("q_1 failed to vanish")
    q = {i: coeffs[n - i].scale(Fraction(1, comb(n, i))) for i in range(2, n + 1)}

    def e_derive(g: Poly) -> Poly:
        return _poly_derive(g, dmap) * vm2

    theta_P = {}
    for r in range(3, n + 1):
        theta = ctx.const(0)
        for s in range(0, r - 2):
            g = q[r - s]
            for _ in range(s):
                g = e_derive(g)
            theta = theta + g.scale(wil_coefficient(r, s))
        if set(theta.coefficients("eta")) - {0}:
            raise EtaResidueError(
                f"Theta_{r} kept an eta monomial for order n = {n}"
            )
        by_weight = theta.coefficients("v")
        if set(by_weight) - {-2 * r}:
            raise EtaResidueError(
                f"Theta_{r} is not homogeneous of weight {r} in xi'"
            )
        theta_P[r] = by_weight.get(-2 * r, ctx.const(0))

    # the generic equation: p_i^(k) is the variable p{i}_{k}
    p_ctx, p_dmap, _ = _p_ring(n)
    generic = _Equation(
        n,
        lambda i: p_ctx.var(f"p{i}_0"),
        lambda f: _poly_derive(f, p_dmap),
        p_ctx.const(1),
    )
    theta_p = generic.thetas(theta_P)
    return {r: {"P": poly, "p": theta_p[r]} for r, poly in theta_P.items()}


def _substitute(poly: Poly, image, one):
    """poly with each variable v replaced by image(v), a Poly, JetFunction
    or ExtendedJetFunction; one is the unit of the target ring."""
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


class _Equation:
    """A concrete order-n equation seen through its semi-invariants.

    p_of(i) is the coefficient p_i, derive the x-derivation of the ring it
    lives in and one that ring's unit.  P_i^(k) is built on first use:
    P_i^(0) is P_i(p) with p_i^(k) = derive^k(p_of(i)), and
    P_i^(k+1) = derive(P_i^(k)).
    """

    def __init__(self, n: int, p_of, derive, one):
        self.n, self.p_of, self.derive, self.one = n, p_of, derive, one
        self._jets: dict = {}

    def _jet(self, kind: str, i: int, k: int):
        key = (kind, i, k)
        if key not in self._jets:
            if k:
                value = self.derive(self._jet(kind, i, k - 1))
            elif kind == "p":
                value = self.p_of(i)
            else:
                p_keys = _p_ring(self.n)[2]
                value = _substitute(
                    semi_invariants(self.n)[i],
                    lambda v: self._jet("p", *p_keys[v]),
                    self.one,
                )
            self._jets[key] = value
        return self._jets[key]

    def P(self, i: int, k: int = 0):
        return self._jet("P", i, k)

    def thetas(self, forms: dict | None = None) -> dict:
        """Theta_r of the equation from the P-forms (default: classical_theta)."""
        if forms is None:
            forms = {r: data["P"] for r, data in classical_theta(self.n).items()}
        w_keys = _w_ring(self.n)[2]
        return {
            r: _substitute(form, lambda v: self.P(*w_keys[v]), self.one)
            for r, form in sorted(forms.items())
        }


# -- linear ODEs ----------------------------------------------------------------


@dataclass(frozen=True)
class LinearODE:
    """Y^(n) + C(n,1) p1 Y^(n-1) + ... + p_n Y = 0 with rational-in-x p_i."""

    order: int
    p: tuple

    def __post_init__(self):
        if len(self.p) != self.order:
            raise ValueError("need exactly n coefficient functions")


def _linear_equation(ode: LinearODE) -> _Equation:
    return _Equation(ode.order, lambda i: ode.p[i - 1], x_derivative, x_fn(1))


def classical_theta_of_ode(ode: LinearODE) -> dict:
    """Theta_3..Theta_n of a concrete linear ODE as functions of x."""
    return _linear_equation(ode).thetas()


def graph_ode(f: JetFunction) -> LinearODE:
    """Third-order ODE annihilating [1, x, f(x)]: p1 = -f'''/(3 f''), p2 = p3 = 0."""
    f2 = x_derivative(x_derivative(f))
    if f2.is_zero():
        raise DegenerateCurveError("the curve is a line: f'' = 0")
    f3 = x_derivative(f2)
    p1 = -(f3 / (f2 * 3))
    zero = x_fn(0)
    return LinearODE(3, (p1, zero, zero))


def power_curve_ode(gamma: Fraction) -> LinearODE:
    """The graph ODE of y = x^gamma, handled through p1 = -(gamma-2)/(3x)."""
    gamma = Fraction(gamma)
    if gamma in (Fraction(0), Fraction(1)):
        raise DegenerateCurveError("y = x^gamma degenerates for gamma in {0, 1}")
    p1 = x_fn(2 - gamma) / (x_fn("x") * 3)
    zero = x_fn(0)
    return LinearODE(3, (p1, zero, zero))


def log_curve_ode() -> LinearODE:
    """The graph ODE of the basis [1, x, ln x].

    ln x is not rational but its derivative is, so p1 = -y'''/(3 y'') is
    computed from the derivative data rather than hard-coded.
    """
    d1 = x_fn(1) / x_fn("x")
    d2 = x_derivative(d1)
    d3 = x_derivative(d2)
    p1 = -(d3 / (d2 * 3))
    zero = x_fn(0)
    return LinearODE(3, (p1, zero, zero))


def ode_from_basis(basis) -> LinearODE:
    """Solve Y''' + 3 p1 Y'' + 3 p2 Y' + p3 Y = 0 for rational-in-x basis."""
    rows = []
    rhs = []
    for f in basis:
        d1 = x_derivative(f)
        d2 = x_derivative(d1)
        d3 = x_derivative(d2)
        rows.append([d2 * 3, d1 * 3, f])
        rhs.append(-d3)
    sol = _solve_jet_system(rows, rhs)
    return LinearODE(3, tuple(sol))


def _solve_jet_system(rows, rhs):
    n = len(rows)
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if not aug[i][col].is_zero()), None)
        if pivot is None:
            raise DegenerateCurveError("degenerate curve basis")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and not aug[i][col].is_zero():
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


# -- curve invariants in jet variables ------------------------------------------


def halphen_theta3(ctx: JetContext) -> JetFunction:
    """(9 y2^2 y5 - 45 y2 y3 y4 + 40 y3^3) / y2^3, verbatim."""
    y2, y3, y4, y5 = (ctx.fn(f"y{k}") for k in (2, 3, 4, 5))
    num = y2 * y2 * y5 * 9 - y2 * y3 * y4 * 45 + y3 ** 3 * 40
    return num / y2 ** 3


HALPHEN_VS_SEMI = Fraction(-54)  # halphen_theta3 == -54 * (P3 - 3/2 P2')


def _graph_equation(ctx: JetContext) -> _Equation:
    """The graph y = y(x) as a third-order equation: p1 = -y3/(3 y2), p2 = p3 = 0."""
    dmap = free_total_derivative_map(ctx)
    p1 = -(ctx.fn("y3") / (ctx.fn("y2") * 3))
    zero = ctx.fn(0)
    return _Equation(
        3, lambda i: p1 if i == 1 else zero, lambda f: f.derivative(dmap), ctx.fn(1)
    )


def curve_theta3(ctx: JetContext) -> JetFunction:
    """Theta_3 = P3 - (3/2) P2' on graphs; equals halphen_theta3 / (-54)."""
    return _graph_equation(ctx).thetas()[3]


def curve_p2(ctx: JetContext) -> JetFunction:
    return _graph_equation(ctx).P(2)


def theta_double(theta_r: JetFunction, p2: JetFunction, derive, r: int = 3):
    """Theta_(2r+2) = 2r T T'' - (2r+1) (T')^2 - 3 r^2 P2 T^2."""
    t1 = derive(theta_r)
    t2 = derive(t1)
    return (
        theta_r * t2 * (2 * r)
        - t1 * t1 * (2 * r + 1)
        - p2 * theta_r * theta_r * (3 * r * r)
    )


def theta8(theta3: JetFunction, p2: JetFunction, derive) -> JetFunction:
    return theta_double(theta3, p2, derive, r=3)


def curve_theta8(ctx: JetContext) -> JetFunction:
    graph = _graph_equation(ctx)
    return theta8(graph.thetas()[3], graph.P(2), graph.derive)


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
    equation = _linear_equation(ode)
    theta3 = equation.thetas()[3]
    if theta3.is_zero():
        raise CurvatureUndefinedError("Theta_3 vanishes: conic or degenerate curve")
    t8 = theta8(theta3, equation.P(2), x_derivative)
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


def curvature_kappa_log_curve() -> Fraction:
    return curvature_kappa_of_ode(log_curve_ode())


# -- the 7th-order curvature ODE --------------------------------------------------


@dataclass(frozen=True)
class NonlinearODE:
    """y^(n) = F(x, y, y1, .., y_(n-1)), F free of y_n."""

    order: int
    rhs: ExtendedJetFunction

    def __post_init__(self):
        top = self.rhs.ctx.jet_name(self.order)
        if top in self.rhs.ctx.index and not self.rhs.partial(top).is_zero():
            raise ValueError(f"right-hand side must not contain {top}")

    @property
    def ctx(self) -> JetContext:
        return self.rhs.ctx


def linear_as_nonlinear(ode: LinearODE, ctx: JetContext) -> NonlinearODE:
    """View the linear equation as y^(n) = F with linear F."""
    n = ode.order
    embed = _embed_x_function
    total = ctx.fn(0)
    for i in range(1, n + 1):
        total = total + embed(ode.p[i - 1], ctx) * ctx.fn(ctx.jet_name(n - i)) * comb(n, i)
    return NonlinearODE(n, ExtendedJetFunction(-total))


def _embed_x_function(f: JetFunction, ctx: JetContext) -> JetFunction:
    x, one = ctx.var("x"), ctx.const(1)

    def embed(poly: Poly) -> Poly:
        return _substitute(poly, lambda v: x, one)

    return JetFunction(ctx, embed(f.num), {embed(p): e for p, e in f.factors.items()})


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
    theta3 = curve_theta3(ctx)
    t8 = curve_theta8(ctx)
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
    dmap = on_equation_derivative_map(ctx, n, ode.rhs)
    equation = _Equation(
        n,
        lambda i: ode.rhs.partial(ctx.jet_name(n - i)) * Fraction(-1, comb(n, i)),
        lambda f: f.derivative(dmap),
        ExtendedJetFunction(ctx.fn(1), base=ode.rhs.base),
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
    kappa -> k in every numerator of c0, c1, c2 and the cube base.

    Sound when kappa occurs in no factor table: then kappa -> k is a ring
    homomorphism that commutes with D_x (D_x kappa = 0) and sends
    u^3 = kappa Theta_3^8 to u^3 = k Theta_3^8.  A kappa in a factor raises
    DiffAlgebraError.
    """
    ctx = next(iter(thetas.values())).ctx
    kappa_idx, value, one = ctx.index["kappa"], ctx.const(Fraction(k)), ctx.const(1)

    def image(v: int) -> Poly:
        return value if v == kappa_idx else ctx.monomial(((v, 1),))

    def specialize(f: JetFunction) -> JetFunction:
        if any(kappa_idx in g.variables() for g in f.factors):
            raise DiffAlgebraError("kappa occurs in a factor table; cannot specialize")
        return JetFunction(ctx, _substitute(f.num, image, one), f.factors)

    return {
        r: ExtendedJetFunction(
            specialize(t.c0), specialize(t.c1), specialize(t.c2),
            None if t.base is None else specialize(t.base),
        )
        for r, t in thetas.items()
    }


def wunschmann_relations(theta3, theta4, ode: NonlinearODE):
    """W1 = -3430 T3;  W2 = -240100 (T4 + 2/5 D T3 - 12/35 dF/dy6 T3)."""
    if ode.order != 7:
        raise ValueError("the printed relations are for order 7")
    ctx = ode.ctx
    dmap = on_equation_derivative_map(ctx, 7, ode.rhs)
    w1 = theta3 * (-3430)
    d_theta3 = (
        theta3.derivative(dmap)
        if isinstance(theta3, (JetFunction, ExtendedJetFunction))
        else theta3
    )
    w2 = (
        theta4
        + d_theta3 * Fraction(2, 5)
        - ode.rhs.partial("y6") * theta3 * Fraction(12, 35)
    ) * (-240100)
    return w1, w2


# -- rational jets along parametrized curves -----------------------------------------


def jets_along_curve(xparam: JetFunction, yparam: JetFunction, k: int, t0: Fraction) -> dict:
    """Exact jets y1..y_k of the curve (x(t), y(t)) at t = t0.

    y1 = y'/x', then y_(j+1) = (d y_j / dt) / x'.  Rejects x'(t0) = 0.
    """
    t0 = Fraction(t0)
    dx = xparam.partial("t")
    point = {"t": t0}
    try:
        dx_val = dx.evaluate(point)
    except PoleError:
        raise PoleError("x'(t) has a pole at the sample point")
    if not dx_val:
        raise DegenerateCurveError("x'(t0) = 0: not a graph over x near the point")
    jets = {"x": xparam.evaluate(point), "y": yparam.evaluate(point)}
    cur = yparam
    for j in range(1, k + 1):
        cur = cur.partial("t") / dx
        jets[f"y{j}"] = cur.evaluate(point)
    return jets
