#!/usr/bin/env python3
"""Symbolic derivation of every constant frozen into the test suite.

Everything here is exact sympy computation, independent of the package's
finite-difference machinery; the printed values are the oracles the numeric
code is tested against.  Requires sympy (not a package dependency).
"""
import sys

try:
    import sympy as sp
except ImportError:
    sys.exit("this script needs sympy: pip install sympy")


def main() -> int:
    t, a, b, kap, lam, c = sp.symbols("t a b kappa lambda c", real=True)
    x1, x2, v1, v2 = sp.symbols("x1 x2 v1 v2", real=True)

    s = 1 - x1**2 - x2**2
    speed = sp.sqrt(v1**2 + v2**2)
    h = (2 * kap * (x1 * v2 - x2 * v1) + 2 * lam * speed) / s
    g = 2 * speed / s

    print("== multiplier of the extremal circle ==")
    r, rd = sp.symbols("r rdot", real=True, positive=True)
    h_polar = (2 * kap * r**2 + 2 * lam * sp.sqrt(r**2 + rd**2)) / (1 - r**2)
    el_circle = sp.diff(h_polar, r).subs({rd: 0, r: a})
    lam_star = sp.solve(el_circle, lam)[0]
    lam_star = sp.simplify(lam_star)
    print("lambda(a) =", lam_star)  # -2 a kappa/(a^2 + 1)

    print("\n== volume-form constants at b = 3/10 ==")
    kappas = {
        "bh": (1 - sp.Rational(3, 10) ** 2) ** sp.Rational(3, 2),
        "ht": sp.Integer(1),
        "max": (1 + sp.Rational(3, 10)) ** 3,
        "min": (1 - sp.Rational(3, 10)) ** 3,
    }
    for name, val in kappas.items():
        print(f"kappa[{name}] = {val} = {sp.N(val, 17)}")
    kap_bh = kappas["bh"]
    lam_val = lam_star.subs({a: sp.Rational(1, 2), kap: kap_bh})
    print("lambda(1/2, bh, b=3/10) =", sp.N(lam_val, 17))

    print("\n== wrong-multiplier residual: a=1/2, kappa=1, lambda=-1 ==")
    res = sp.diff(h_polar, r).subs({rd: 0, r: sp.Rational(1, 2), kap: 1, lam: -1})
    print("residual =", sp.simplify(res))  # -8/9

    print("\n== Weierstrass excess closed form ==")
    u1, u2 = sp.symbols("u1 u2", real=True)
    h_u = h.subs({v1: u1, v2: u2})
    excess = h_u - h - (u1 - v1) * sp.diff(h, v1) - (u2 - v2) * sp.diff(h, v2)
    target = 2 * lam * (sp.sqrt(u1**2 + u2**2) * speed - (v1 * u1 + v2 * u2)) / (s * speed)
    print("E - closed form simplifies to:", sp.simplify(excess - target))  # 0

    print("\n== Jacobi coefficients in the x1-variation chart, circle a=1/2 ==")
    circ = {x1: a * sp.cos(t), x2: a * sp.sin(t), v1: -a * sp.sin(t), v2: a * sp.cos(t)}
    xdd2 = -a * sp.sin(t)  # second derivative of x2 along the circle
    h_v1v1 = sp.diff(h, v1, 2)
    h_x1v1 = sp.diff(h, x1, v1)
    h_x1x1 = sp.diff(h, x1, 2)
    h1c = sp.simplify((h_v1v1 / v2**2).subs(circ))
    Kc = sp.simplify((h_x1v1 - xdd2 * h_v1v1 / v2).subs(circ))
    dK = sp.diff(Kc, t)
    h2c = sp.simplify(((h_x1x1.subs(circ)) - xdd2**2 * h1c - dK) / (a * sp.cos(t)) ** 2)
    dtan = sp.diff((v1 / v2).subs(circ), t)
    Uc = sp.simplify(
        (sp.diff(g, x1, v2) - sp.diff(g, v1, x2)).subs(circ)
        - sp.diff(g, v1, 2).subs(circ) * dtan
    )
    print("h1 =", sp.simplify(h1c), " (t-independent)")
    print("K  =", sp.simplify(Kc), " (oscillates, only dK/dt enters h2)")
    print("h2 =", sp.simplify(h2c), " (equals -h1)")
    print("U  =", Uc)
    nums = {a: sp.Rational(1, 2), kap: kap_bh, lam: lam_val, t: 0}
    print("at a=1/2, b=3/10, bh:")
    print("  h1 =", sp.N(h1c.subs(nums), 17))
    print("  h2 =", sp.N(h2c.subs(nums), 17))
    print("  U  =", sp.N(Uc.subs(nums), 17))
    print("  K(pi/4) =", sp.N(Kc.subs({**nums, t: sp.pi / 4}), 17))
    print("  trace h_v1v1 + h_v2v2 =", sp.N(
        sp.simplify((sp.diff(h, v1, 2) + sp.diff(h, v2, 2)).subs(circ)).subs(nums), 17
    ))

    print("\n== Hessian of h on the circle, in the frame e_r, e_t ==")
    a_pos = sp.Symbol("a", positive=True)   # |v| = a on the circle needs a > 0
    Hc = sp.hessian(h, (x1, x2, v1, v2)).subs(circ).subs(a, a_pos)
    er = sp.Matrix([sp.cos(t), sp.sin(t)])
    et = sp.Matrix([-sp.sin(t), sp.cos(t)])
    s_c = 1 - a_pos**2
    N_c = 2 * kap * a_pos**2 + 2 * lam * a_pos
    frame = {
        "c_rr": 8 * a_pos**2 * (kap + N_c / s_c) / s_c**2,   # e_r e_r^T in h_xx
        "c_N": 2 * N_c / s_c**2,                             # I in h_xx, e_r e_t^T in h_xv
        "c_rot": 2 * kap / s_c,                              # [[0, 1], [-1, 0]] in h_xv
        "c_vv": 2 * lam / (a_pos * s_c),                     # e_r e_r^T in h_vv
    }
    h_xv = frame["c_rot"] * sp.Matrix([[0, 1], [-1, 0]]) + frame["c_N"] * er * et.T
    closed = sp.BlockMatrix([
        [frame["c_rr"] * er * er.T + frame["c_N"] * sp.eye(2), h_xv],
        [h_xv.T, frame["c_vv"] * er * er.T],
    ]).as_explicit()
    residual = (Hc - closed).applyfunc(lambda e: sp.cancel(sp.trigsimp(e)))
    print("H - circle form simplifies to:", residual)  # the zero matrix
    print("at a=1/2, b=3/10, bh:")
    for name, coeff in frame.items():
        print(f"  {name} =", sp.N(coeff.subs(a_pos, a).subs(nums), 17))

    print("\n== conjugate-point determinant, constant-coefficient reduction ==")
    U_, h1_ = sp.symbols("U h1", real=True)
    # theta1, theta2 solve y'' = -y; theta3 carries the unit multiplier forcing
    theta2 = sp.sin(t)
    theta3 = (U_ / h1_) * (1 - sp.cos(t))
    z2 = sp.integrate(U_ * theta2, (t, 0, c))
    z3 = sp.integrate(U_ * theta3, (t, 0, c))
    D = sp.simplify(theta2.subs(t, c) * z3 - theta3.subs(t, c) * z2)
    print("D(c) =", D)  # (U^2/h1)(c sin c + 2 cos c - 2)
    D_num = D.subs({U_: Uc.subs(nums), h1_: h1c.subs(nums)})
    for cc in (sp.pi / 2, sp.pi, 3 * sp.pi / 2, 2 * sp.pi):
        print(f"  D({cc}) =", sp.N(D_num.subs(c, cc), 13))

    print("\n== flag-curvature residual on the positive x-axis ==")
    x = sp.symbols("x", positive=True)
    bb = sp.symbols("beta_b", positive=True)
    sx = 1 - x**2
    beta_vec = [2 * bb / sx, 0]  # covector of the drift form at (x, 0)
    gamma1 = 2 / sx * sp.Matrix([[x, 0], [0, -x]])
    gamma2 = 2 / sx * sp.Matrix([[0, x], [x, 0]])
    p1, p2 = sp.symbols("p1 p2", real=True)
    rad = sp.sqrt(p1**2 + p2**2)
    sp_ = 1 - p1**2 - p2**2
    bcov = [2 * bb * p1 / (sp_ * rad), 2 * bb * p2 / (sp_ * rad)]
    jac = sp.Matrix(2, 2, lambda i, j: sp.diff(bcov[i], [p1, p2][j]))
    onaxis = {p1: x, p2: 0}
    a_ij = (2 / sx) ** 2 * sp.eye(2)
    bibj = sp.Matrix([[beta_vec[0] ** 2, 0], [0, 0]])
    R = (
        jac.subs(onaxis)
        - beta_vec[0] * gamma1
        - beta_vec[1] * gamma2
        - 2 * (a_ij - bibj)
    )
    R = sp.simplify(R)
    print("R_11 =", sp.factor(R[0, 0]))  # -8(1-b^2)/(1-x^2)^2
    print("R_22 =", sp.simplify(R[1, 1]))
    vals = {x: sp.Rational(3, 10), bb: sp.Rational(1, 2)}
    print("at p=(3/10, 0), b=1/2:")
    print("  R_11 =", sp.nsimplify(R[0, 0].subs(vals)), "=", sp.N(R[0, 0].subs(vals), 17))
    print("  R_22 =", sp.nsimplify(R[1, 1].subs(vals)), "=", sp.N(R[1, 1].subs(vals), 17))
    print("|R_11| floor over the disc: 8(1 - b^2), e.g. b=1/2 ->", sp.N(8 * (1 - sp.Rational(1, 4)), 5))
    return 0


if __name__ == "__main__":
    sys.exit(main())
