"""The symbolic route: the closed forms derived from psi, and the identities they rest on, proved exactly.

``closedform``'s module docstring tables each form's coefficients in e+-,
m, r, nu, nu', nu'', mu and mu'.  Here sympy writes that table down,
builds psi = A e^{iS} from its ln A and S rows with nu(t) and mu(t) left
as arbitrary functions, and shows by expansion, for every m, r, nu and
mu, that

* the continuity equation and the Schrodinger equation hold identically;
* -(lap A)/(2 m A) is the V_B row, dS/dt the S_t row and |grad S|^2/(2m)
  the kinetic row;
* -S_t - |grad S|^2/(2m) - V_B is the V row, and the variant row is V plus
  (2m + 1) V_B.

Each row is then lambdified and evaluated in 40-digit mpmath at the
package's own record of a hypothesis-drawn scenario.  Every coefficient
the package computes lies within ``ROW_ULPS`` eps of the sum of the
magnitudes of the row's terms (the terms as the table writes them), plus
``UNDERFLOW``, from that exact value; a typo of the table, V's
e+-^2/(2m) written as e+-^2/m, misses that allowance more than 1e12 times
over.

The factorization behind ``fockalg`` is proved in su(1,1)'s 2x2
representation, and (tanh nu, -ln cosh nu, -tanh nu) is shown to solve
the system that ``fockalg._dp_step`` integrates.  Nothing here shares
code or arithmetic with the package; sympy is a test-only dependency, and
without it this module is skipped.
"""

import functools

import pytest

sp = pytest.importorskip("sympy")

import mpmath  # noqa: E402
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bohm_squeeze import Scenario, TimePolynomial  # noqa: E402
from bohm_squeeze import closedform as cf  # noqa: E402
from bohm_squeeze import fockalg as fa  # noqa: E402
from harness import example1, example2, in_range  # noqa: E402

EPS = 2.0**-52

# each package coefficient lies within ROW_ULPS eps of the sum of its row's
# term magnitudes, plus UNDERFLOW, from the exact row (at most 2.0 eps
# measured over 3000 draws).  An operation that underflows rounds to a
# step of 2^-1074, and the later factors scale that far below UNDERFLOW
ROW_ULPS = 8
UNDERFLOW = 2.0**-1000

m = sp.Symbol("m", positive=True)
r, x, y, t = sp.symbols("r x y t", real=True)
nu, nud, nudd, mu, mud = sp.symbols("nu nud nudd mu mud", real=True)
e_p, e_m = sp.symbols("e_p e_m", positive=True)
ROW_ARGS = (m, r, nu, nud, nudd, mu, mud, e_p, e_m)


def modes(part) -> tuple:
    """``part(w, e)``'s c_u and c_v: the upper sign (w = r + 1, e+) for u, the lower for v."""
    return part(r + 1, e_p), part(r - 1, e_m)


def table(v_bohm_over=2 * m):
    """``closedform``'s coefficient table, each row (c_u, c_v, const); V's Bohm terms are e+-^2 / ``v_bohm_over``."""
    flow = lambda w: -m * w**2 * nud**2 / 2 - m * w * nudd / 2  # noqa: E731
    return {
        "S": (*modes(lambda w, e: m * nud * w / 2), mu),
        "S_t": (*modes(lambda w, e: m * nudd * w / 2), mud),
        "ln A": (*modes(lambda w, e: -e / 2), -r * nu - sp.log(sp.sqrt(sp.pi))),
        "V_B": (*modes(lambda w, e: -(e**2) / (2 * m)), (e_p + e_m) / (2 * m)),
        "kinetic": (*modes(lambda w, e: m * nud**2 * w**2 / 2), sp.Integer(0)),
        "V": (*modes(lambda w, e: flow(w) + e**2 / v_bohm_over), -(e_p + e_m) / (2 * m) - mud),
        "variant": (*modes(lambda w, e: flow(w) - e**2), e_p + e_m - mud),
    }


TABLE = table()
PACKAGE = {
    "S": cf.phase_coeffs,
    "S_t": cf.phase_rate_coeffs,
    "ln A": cf.log_amplitude_coeffs,
    "V_B": cf.bohm_coeffs,
    "kinetic": cf.kinetic_coeffs,
    "V": cf.external_coeffs,
    "variant": cf.external_variant_coeffs,
}

# ---------------------------------------------------------------------------
# Madelung: psi = A e^{iS} from the table's ln A and S, with nu(t) and mu(t)

DECAYS = {e_p: sp.exp(-2 * (r + 1) * nu), e_m: sp.exp(-2 * (r - 1) * nu)}
NU_T, MU_T = sp.Function("nu")(t), sp.Function("mu")(t)
IN_TIME = {nudd: NU_T.diff(t, 2), nud: NU_T.diff(t), mu: MU_T, mud: MU_T.diff(t)}
IN_TIME.update({nu: NU_T, **{e: decay.subs(nu, NU_T) for e, decay in DECAYS.items()}})


def field(row: tuple):
    """A row's form c_u u^2 + c_v v^2 + const in x, y and t."""
    c_u, c_v, const = row
    u, v = (x + y) / sp.sqrt(2), (x - y) / sp.sqrt(2)
    return (c_u * u**2 + c_v * v**2 + const).subs(IN_TIME, simultaneous=True)


def grad_squared(f):
    return f.diff(x) ** 2 + f.diff(y) ** 2


def laplacian(f):
    return f.diff(x, 2) + f.diff(y, 2)


@functools.cache
def psi_parts():
    """S, A and V_B = -(lap A)/(2 m A), from the table's S and ln A rows."""
    S, A = field(TABLE["S"]), sp.exp(field(TABLE["ln A"]))
    return S, A, -laplacian(A) / (2 * m * A)


def vanishes(expr) -> bool:
    """Whether ``expr`` expands to 0: then it is 0 for every value of its symbols and functions."""
    return sp.expand(expr) == 0


def test_phase_rate_and_kinetic_rows_derive_from_the_phase():
    S, _, _ = psi_parts()
    assert vanishes(S - (m * NU_T.diff(t) * (r * (x**2 + y**2) / 2 + x * y) + MU_T))
    assert vanishes(S.diff(t) - field(TABLE["S_t"]))
    assert vanishes(grad_squared(S) / (2 * m) - field(TABLE["kinetic"]))


def test_continuity_holds_identically():
    # d(A^2)/dt + div(A^2 grad S)/m, over A^2
    S, A, _ = psi_parts()
    rho = A**2
    assert vanishes((rho.diff(t) + ((rho * S.diff(x)).diff(x) + (rho * S.diff(y)).diff(y)) / m) / rho)


def test_bohm_row_is_the_bohm_potential_of_the_amplitude():
    _, _, bohm = psi_parts()
    assert vanishes(bohm - field(TABLE["V_B"]))


def test_hamilton_jacobi_closure_gives_the_v_row():
    S, _, bohm = psi_parts()
    assert vanishes(-S.diff(t) - grad_squared(S) / (2 * m) - bohm - field(TABLE["V"]))


def test_schrodinger_equation_holds_identically():
    # (i psi_t + lap psi/(2m) - V psi)/psi: its real part is the
    # Hamilton-Jacobi closure, its imaginary part half the continuity residual
    S, A, _ = psi_parts()
    psi = A * sp.exp(sp.I * S)
    assert vanishes((sp.I * psi.diff(t) + laplacian(psi) / (2 * m) - field(TABLE["V"]) * psi) / psi)


def test_variant_row_is_v_plus_2m_plus_1_bohm_rows():
    for variant, v, bohm in zip(TABLE["variant"], TABLE["V"], TABLE["V_B"]):
        assert vanishes(variant - v - (2 * m + 1) * bohm)


# ---------------------------------------------------------------------------
# the table against the package's coefficients


@functools.cache
def lambdified(name: str, v_bohm_over=2 * m) -> list:
    """For each of the row's coefficients, an mpmath function of ROW_ARGS giving its terms."""
    row = table(v_bohm_over)[name]
    return [sp.lambdify(ROW_ARGS, sp.Add.make_args(c), modules="mpmath") for c in row]


def misfit(name: str, now: cf.Schedules, **typo) -> float:
    """Largest |package - exact| over the row's coefficients, relative to its allowance (1 or less passes)."""
    form = PACKAGE[name](now)
    args = (now.s.m, now.s.r, now.nu, now.nud, now.nudd, now.mu, now.mud, now.e_u, now.e_v)
    worst = 0.0
    with mpmath.workdps(40):
        for terms, got in zip(lambdified(name, **typo), (form.c_u, form.c_v, form.const)):
            parts = terms(*(mpmath.mpf(float(a)) for a in args))
            allowance = ROW_ULPS * EPS * mpmath.fsum(abs(p) for p in parts) + UNDERFLOW
            worst = max(worst, float(abs(mpmath.mpf(float(got)) - mpmath.fsum(parts)) / allowance))
    return worst


DECAY_TERMS = [sp.lambdify((r, nu), decay, modules="mpmath") for decay in DECAYS.values()]


@st.composite
def scenarios_at(draw):
    """A scenario of degree up to 3 and a time where |nu| and |r nu| are within NU_LIMIT."""
    coeffs = st.lists(st.floats(-5.0, 5.0), max_size=3)
    s = Scenario(
        m=draw(st.floats(0.1, 10.0)),
        r=draw(st.floats(-3.0, 3.0)),
        nu=TimePolynomial([0.0, *draw(coeffs)]),
        mu=TimePolynomial(draw(coeffs)),
    )
    t = draw(st.floats(-3.0, 3.0))
    assume(in_range(s, s.nu.value(t)))
    return s.at(t)


@settings(max_examples=60, deadline=None)
@given(scenarios_at())
def test_package_coefficients_are_the_table_rows(now):
    for name in PACKAGE:
        assert misfit(name, now) <= 1, name
    # the record's decays, which the two roundings of their argument move
    # by up to 2 |arg| eps (at most 0.3 of this bound measured)
    with mpmath.workdps(40):
        for decay, got in zip(DECAY_TERMS, (now.e_u, now.e_v)):
            exact = decay(mpmath.mpf(now.s.r), mpmath.mpf(float(now.nu)))
            assert abs(mpmath.mpf(float(got)) / exact - 1) <= (2 * abs(mpmath.log(exact)) + 4) * EPS


@pytest.mark.parametrize("now", [example1().at(0.5), example2().at(1.3)], ids=["example1", "example2"])
def test_a_typo_in_the_v_row_fails_the_comparison(now):
    # V's e+-^2/(2m) written as e+-^2/m
    assert misfit("V", now) <= 1
    assert misfit("V", now, v_bohm_over=m) > 1e12


# ---------------------------------------------------------------------------
# factorization: exp(nu (K+ - K-)) = exp(f1 K+) exp(2 f2 K0) exp(f3 K-)

NU = sp.Symbol("nu", real=True)
K0 = sp.diag(sp.Rational(1, 2), -sp.Rational(1, 2))
KP = sp.Matrix([[0, 1], [0, 0]])
KM = sp.Matrix([[0, 0], [-1, 0]])
CLOSED = (sp.tanh(NU), -sp.log(sp.cosh(NU)), -sp.tanh(NU))


def factored(f1, f2, f3):
    # K+ and K- square to zero and K0 is diagonal, so each factor's series ends
    return (sp.eye(2) + f1 * KP) * sp.diag(sp.exp(f2), sp.exp(-f2)) * (sp.eye(2) + f3 * KM)


def cancels(expr) -> bool:
    """Whether ``expr``, written in exponentials of nu, cancels to 0 as a rational function of them."""
    return sp.cancel(sp.expand(expr.rewrite(sp.exp))) == 0


def test_factorization_identity_in_the_two_by_two_representation():
    # su(1,1)'s commutators hold, as a b, a+ b+ and (a a+ + b+ b)/2 obey them
    assert K0 * KP - KP * K0 == KP and K0 * KM - KM * K0 == -KM and KM * KP - KP * KM == 2 * K0
    squeeze = (NU * (KP - KM)).exp()
    assert all(cancels(e) for e in squeeze - factored(*CLOSED))
    # with f3's sign flipped the identity fails, by 2 sinh nu in one entry
    f1, f2, f3 = CLOSED
    flipped = squeeze - factored(f1, f2, -f3)
    assert cancels(flipped[1, 0] - 2 * sp.sinh(NU)) and not cancels(flipped[1, 0])


F = sp.symbols("f1 f2 f3", real=True)
SYSTEM = (1 - F[0] ** 2, -F[0], -sp.exp(2 * F[1]))  # (f1', f2', f3'), as fockalg._dp_step states them


def test_closed_forms_solve_the_system_the_ode_oracle_integrates():
    for fi, slope in zip(CLOSED, SYSTEM):
        assert cancels(fi.diff(NU) - slope.subs(dict(zip(F, CLOSED))))
    assert [fi.subs(NU, 0) for fi in CLOSED] == [0, 0, 0]
    # and the system is the factorization's: along any of its solutions,
    # d/dnu (product) (product)^-1 is the generator K+ - K-
    g = [sp.Function(str(fi))(NU) for fi in F]
    product = factored(*g)
    inverse = (sp.eye(2) - g[2] * KM) * sp.diag(sp.exp(-g[1]), sp.exp(g[1])) * (sp.eye(2) - g[0] * KP)
    slopes = {gi.diff(NU): slope.subs(dict(zip(F, g))) for gi, slope in zip(g, SYSTEM)}
    assert (product.diff(NU) * inverse).subs(slopes).applyfunc(sp.expand) == KP - KM
    # _dp_step's slopes at its result are the system's right-hand sides,
    # and a step from the origin lands within its own error estimate
    h = 0.05
    y7, z7, g7, k7, m7, _, d1, d2, d3 = fa._dp_step(0.0, 0.0, 0.0, 1.0, -1.0, h)
    k, _, m_slope = sp.lambdify(F, SYSTEM, modules="math")(y7, z7, g7)
    assert k7 == pytest.approx(k, rel=4 * EPS) and m7 == pytest.approx(m_slope, rel=4 * EPS)
    exact = [float(fi.subs(NU, h).evalf(30)) for fi in CLOSED]
    for got, want, estimate in zip((y7, z7, g7), exact, (d1, d2, d3)):
        assert abs(got - want) <= estimate
