"""Dormand–Prince 8(5,3) with dense output, on Python floats.

Dormand and Prince's explicit Runge–Kutta method of order 8, as DOP853
in Hairer, Nørsett & Wanner, *Solving Ordinary Differential Equations I*
(Springer 1993): §II.4 (step size control and the starting step), §II.5
and §II.10 (the method and its 5th- and 3rd-order error estimators) and
§II.6 (dense output).  The step loop follows scipy's ``solve_ivp(...,
method="DOP853", t_eval=...)``: the same initial-step rule, step control
(safety 0.9, step factors in [0.2, 10], exponent -1/8, a smallest step
of 10 ulp of ``t``), error norm blending the two estimators, ``rtol``
floor of 100 eps with its warning, dense output on the requested times,
and the same messages.  Sums run left to right in plain IEEE arithmetic,
never through ``sum()``, whose float sums are compensated from Python 3.12
on, so the digits depend neither on a BLAS kernel nor on the Python
version, and agree with scipy's to round-off.  The error estimate is a
difference of nearly equal sums, so its last digits, and with them the
step sizes, depend on the order of summation.  At tight tolerances the
two take the same steps and right-hand side evaluations; at loose ones a
step near the acceptance threshold can go either way, and ``nfev`` can
differ by a few percent, as it does in scipy itself when ``y0`` moves by
one ulp.

For a state of dimension ``n`` the stage combinations, the error norm and
the interpolant are compiled once per solve into straight-line Python over
named locals, with the tableau's nonzero entries as literals.
"""

from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_right
from typing import Callable, List, Sequence, Tuple

N_STAGES = 12             # stages of one step; the 13th evaluation is f(t + h, y_new)
N_STAGES_EXTENDED = 16    # three more stages for the dense output
INTERPOLATOR_POWER = 7

C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
     0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
     0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
     0.7777777777777778)

#: ``A[s]`` holds the weights of stages ``0 .. s-1`` in stage ``s``; row 12
#: is the weights ``B`` of the 8th-order solution, rows 13-15 the extra
#: stages of the dense output.
A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
B = A[N_STAGES]

#: error estimators over the 13 evaluations of a step (the last weight is 0)
E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, -0.4226823213237919,
      -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)
E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
      -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
      0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)

#: the interpolant's coefficients 3..6 over all 16 stages (0..2 follow from
#: the end values and slopes)
D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8     # -1 / (error estimator order 7 + 1)
EPS = sys.float_info.epsilon

SUCCESS = "The solver successfully reached the end of the integration interval."
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _combo(weights: Sequence[float], i: int) -> str:
    """``sum_j k_j[i] * w_j`` over the nonzero weights, summed left to right."""
    return " + ".join(f"k{j}_{i} * {w!r}" for j, w in enumerate(weights) if w)


def _stage(s: int, n: int) -> List[str]:
    """Stage ``s``: f at ``t + c*h``, ``y + (sum_j a_sj k_j) * h``."""
    point = ", ".join(f"y{i} + ({_combo(A[s], i)}) * h" for i in range(n))
    return [f"k{s} = fun(t + {C[s]!r} * h, [{point}])",
            ", ".join(f"k{s}_{i}" for i in range(n)) + f", = k{s}"]


def _compile(n: int) -> Tuple[Callable, Callable]:
    """The step and dense-output functions for a state of dimension ``n``.

    ``step(fun, t, h, y, f, atol, rtol)`` returns ``(y_new, f_new, err, K)``:
    the 8th-order solution at ``t + h``, f there, the error norm of the step
    and its 13 evaluations.  ``dense(fun, t, h, y, y_new, K)`` makes the
    three extra evaluations and returns the interpolant of the step as a
    function of ``x = (t_out - t) / h``.
    """
    ys = ", ".join(f"y{i}" for i in range(n)) + ","
    step = [f"{ys} = y", "k0 = f", ", ".join(f"k0_{i}" for i in range(n)) + ", = f"]
    for s in range(1, N_STAGES):
        step += _stage(s, n)
    step += [f"z{i} = y{i} + h * ({_combo(B, i)})" for i in range(n)]
    step.append("z = [" + ", ".join(f"z{i}" for i in range(n)) + "]")
    step.append(f"k{N_STAGES} = fun(t + h, z)")
    r5, r3 = [], []
    for i in range(n):
        # scale = atol + max(|y|, |y_new|) * rtol; the max keeps a NaN of y_new
        step.append(f"a = abs(y{i}); b = abs(z{i}); s = atol + (a if a > b else b) * rtol")
        step.append(f"r{i} = ({_combo(E5, i)}) / s")
        step.append(f"q{i} = ({_combo(E3, i)}) / s")
        r5.append(f"r{i} * r{i}")
        r3.append(f"q{i} * q{i}")
    # the squared 2-norms as scipy rounds them, norm(x) ** 2 = sqrt(x . x) ** 2
    step.append(f"e5 = sqrt({' + '.join(r5)}); e5 = e5 * e5")
    step.append(f"e3 = sqrt({' + '.join(r3)}); e3 = e3 * e3")
    # 0/0 (both norms underflowing to 0 but not both 0) is NaN, a rejected step
    step.append(f"den = sqrt((e5 + 0.01 * e3) * {n})")
    step.append("err = 0.0 if e5 == 0 and e3 == 0 else abs(h) * e5 / den if den else nan")
    stages = ", ".join(f"k{s}" for s in range(N_STAGES + 1))
    step.append(f"return z, k{N_STAGES}, err, ({stages})")

    dense = [f"{ys} = y", ", ".join(f"z{i}" for i in range(n)) + ", = z",
             ", ".join("(" + ", ".join(f"k{s}_{i}" for i in range(n)) + ",)"
                       for s in range(N_STAGES + 1)) + " = K"]
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        dense += _stage(s, n)
    values = []
    for i in range(n):
        # F0 = dy, F1 = h f_old - dy, F2 = 2 dy - h (f_new + f_old), F3.. = h D.K
        dense.append(f"d{i} = z{i} - y{i}")
        dense.append(f"f{i}_1 = h * k0_{i} - d{i}")
        dense.append(f"f{i}_2 = 2 * d{i} - h * (k{N_STAGES}_{i} + k0_{i})")
        dense += [f"f{i}_{3 + r} = h * ({_combo(row, i)})" for r, row in enumerate(D)]
        # y = y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + ...)))), innermost first
        expr = f"(0.0 + f{i}_6)"
        for p in range(5, -1, -1):
            expr = f"({expr} * {'x' if p % 2 else 'u'} + {f'f{i}_{p}' if p else f'd{i}'})"
        values.append(f"{expr} * x + y{i}")
    dense += ["def at(x):", "    u = 1 - x", "    return [" + ", ".join(values) + "]",
              "return at"]

    src = (f"def step(fun, t, h, y, f, atol, rtol):\n"
           + "".join(f"    {ln}\n" for ln in step)
           + "def dense(fun, t, h, y, z, K):\n"
           + "".join(f"    {ln}\n" for ln in dense))
    ns = {"sqrt": math.sqrt, "nan": math.nan}
    exec(compile(src, f"<DOP853 n={n}>", "exec"), ns)
    return ns["step"], ns["dense"]


def _div(a: float, b: float) -> float:
    """``a / b`` as IEEE 754 (numpy) divides: inf or NaN where Python raises."""
    if b:
        return a / b
    if a != a or a == 0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _rms(x: Sequence[float]) -> float:
    # a plain loop: sum() of floats is compensated from Python 3.12 on
    total = 0.0
    for v in x:
        total += v * v
    return math.sqrt(total) / len(x) ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """Hairer, Nørsett & Wanner's starting step (§II.4), with one evaluation."""
    interval = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [v + h0 * dv for v, dv in zip(y0, f0)])
    d2 = _div(_rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]), h0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = _div(0.01, max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def solve(fun: Callable, t_bound: float, y0: Sequence[float], tol: float,
          t_eval: Sequence[float]):
    """Integrate ``y' = fun(t, y)`` from ``t = 0`` to ``t_bound > 0``, with
    ``tol`` as the absolute and the relative tolerance (the latter floored).

    ``fun`` takes and returns sequences of floats.  Returns ``(t, y, success,
    message, nfev)``: the times of ``t_eval`` (sorted, within ``[0,
    t_bound]``) that the solver reached, the state at each as a list, whether
    it reached ``t_bound``, its message and the number of calls of ``fun``.
    """
    rtol = atol = tol
    if tol < 100 * EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=3)
        rtol = 100 * EPS
    y = [float(v) for v in y0]
    if not all(math.isfinite(v) for v in y):
        raise ValueError("All components of the initial state `y0` must be finite.")
    step, dense = _compile(len(y))
    t = 0.0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    ts: List[float] = []
    ys: List[List[float]] = []
    seen = 0                     # t_eval[:seen] are answered
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return ts, ys, False, TOO_SMALL_STEP, nfev
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err, K = step(fun, t, h, y, f, atol, rtol)
            nfev += N_STAGES
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        reached = bisect_right(t_eval, t_new, seen)
        if reached > seen:
            at = dense(fun, t, h, y, y_new, K)
            nfev += 3
            for te in t_eval[seen:reached]:
                ts.append(te)
                ys.append(at((te - t) / h))
            seen = reached
        t, y, f = t_new, y_new, f_new
        if t - t_bound >= 0:
            return ts, ys, True, SUCCESS, nfev
