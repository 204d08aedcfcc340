"""DOP853 with sampled output: the one ODE integrator every run uses.

``solve_ivp`` integrates d/dt y = f(t, y) forward in time with the
explicit Runge-Kutta pair of order 8(5,3) of Dormand and Prince (Prince &
Dormand, J. Comput. Appl. Math. 7, 67 (1981); Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, 2nd ed., Springer 1993,
Ch. II) and returns the states at the times of ``t_eval`` and ``nfev``.
States are complex: a real start is integrated as complex, so a complex
right-hand side keeps its imaginary part.  The right-hand side is called in place,
``fun(t, y, out)``, and writes f(t, y) into ``out``, which is a row of the
stage array K.  Its arithmetic is that of
``scipy.integrate.solve_ivp(method="DOP853")`` (scipy 1.17) with a complex
y0 and ``t_eval``, operation for operation: the same initial step
(Hairer et al., Sec. II.4), the same stage sums ``y + np.dot(K[:s].T, a) * h``, the same
error norm from the 5th- and 3rd-order estimates, the same step-size rules
and the same 7-term interpolant, built from three extra stages, for each
step that holds samples.  So ``nfev`` and every sample equal scipy's bit
for bit, and where scipy's solve returns status -1 this one raises
``StepFailure`` at that step, with scipy's message.  Each step writes its
stage states, y_new, |y_new|, the error
scale and both error estimates into buffers made once per solve, with
scipy's operations in scipy's order (a product with h is a product with a
0-d complex array, the scalar scipy's operator converts h to), so a
step that holds no samples allocates no state-sized array.  What it leaves
out is scipy's generality (events, dense output, backward or vectorized
integration, other methods) and its per-call wrappers.

The tableau below is copied from scipy's
``scipy/integrate/_ivp/dop853_coefficients.py``, which takes it from
Hairer's Fortran code DOP853.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import StepFailure

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

SAFETY = 0.9  # multiplies the asymptotic step-size factor
MIN_FACTOR = 0.2  # smallest factor a rejected step shrinks by
MAX_FACTOR = 10.0  # largest factor an accepted step grows by
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
EPS = np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass
class OdeResult:
    """Samples of one solve, with scipy's field names: ``y`` holds one column per time of ``t``."""

    t: np.ndarray
    y: np.ndarray
    nfev: int


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _squared_norm(re: np.ndarray, im: np.ndarray) -> float:
    """np.linalg.norm(re + 1j * im) ** 2 with the same roundings: the square of the rounded root."""
    return math.sqrt(re.dot(re) + im.dot(im)) ** 2


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """The starting step of Hairer et al., Sec. II.4, with error order 7."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = np.empty_like(y0)
    fun(t0 + h0, y1, f1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def solve_ivp(fun, t_span, y0, *, rtol: float, atol: float, t_eval) -> OdeResult:
    """DOP853 of d/dt y = fun(t, y) over t_span = (t0, tf), tf > t0, sampled at ``t_eval``.

    ``y0`` is a non-empty 1-D float or complex array, cast to complex: the
    states, the samples and ``out`` are complex.  ``fun(t, y, out)`` writes
    dy/dt into ``out``, a complex array of y0's length, and returns
    nothing; it keeps no reference to ``y`` or ``out``, which the solver
    reuses.  ``t_eval`` is increasing and inside t_span.  ``rtol`` below
    100 machine epsilons is raised to it with a warning, as scipy does.
    Returns an ``OdeResult`` of the samples at every time of ``t_eval``,
    whose ``nfev`` counts every call of ``fun``.  A step size below ten
    spacings of floats at t, or NaN, raises ``StepFailure`` naming t and
    scipy's message.
    """
    t, t_bound = map(float, t_span)
    if not t_bound > t:
        raise ValueError("t_span must run forward in time")
    y = np.asarray(y0, dtype=complex)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("`y0` must be a non-empty 1-D array.")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if rtol < 100 * EPS:
        warnings.warn(f"`rtol` is too small. Setting `rtol = {100 * EPS}`.", stacklevel=2)
        rtol = max(rtol, 100 * EPS)
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or np.any(np.diff(t_eval) <= 0):
        raise ValueError("`t_eval` must be 1-dimensional and increasing.")
    if np.any(t_eval < t) or np.any(t_eval > t_bound):
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    n = y.size
    samples = np.empty((t_eval.size, n), dtype=complex)
    sample_times = t_eval.tolist()

    # Rows 0..12 of K hold the stages of a step and rows 13..15 the extra
    # stages of its interpolant; row 12 is f at the step's end, so after an
    # accepted step it is f at the new start.  Each stage sum reads K[:s]
    # through a view made here, with its coefficients cast to complex here,
    # so the dot sees the operands scipy's mixed-type call converts to.
    K = np.empty((N_STAGES_EXTENDED, n), dtype=complex)

    def stages(rows):
        return [(K[s], K[:s].T, A[s, :s].astype(complex), float(C[s])) for s in rows]

    steps, extras = stages(range(1, N_STAGES)), stages(range(N_STAGES + 1, N_STAGES_EXTENDED))
    KB, b = K[:N_STAGES].T, B.astype(complex)
    KE, e5, e3 = K[: N_STAGES + 1].T, E5.astype(complex), E3.astype(complex)
    d = D.astype(complex)
    f_new = K[N_STAGES]

    # Every array operation of a step attempt writes into a buffer made
    # here, in scipy's order: a stage's state y + K[:s].T a h goes to
    # y_stage, as a dot, a product with h and a sum; y_new and |y_new| go
    # to the rows of ys and abs_ys that do not hold y and |y|; both error
    # estimates go to err, whose real and imaginary parts are viewed once.
    # h, rtol and atol are 0-d arrays of the dtypes scipy's operators
    # convert them to.
    y_stage = np.empty(n, dtype=complex)
    ys, abs_ys = np.empty((2, n), dtype=complex), np.empty((2, n))
    scale, err = np.empty(n), np.empty(n, dtype=complex)
    err_re, err_im = err.real, err.imag
    h_0d = np.empty((), dtype=complex)
    rtol_0d, atol_0d = np.array(rtol, dtype=float), np.array(atol, dtype=float)
    ys[0] = y
    (y, y_new), (abs_y, abs_new) = ys, abs_ys

    fun(t, y, f_new)
    h_abs = _initial_step(fun, t, y, f_new, t_bound, rtol, atol)
    nfev = 2
    np.abs(y, out=abs_y)
    next_sample, pieces = 0, []
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        K[0] = f_new
        rejected = False
        while True:
            # written so that a NaN step size fails too, rather than loop
            if not h_abs >= min_step:
                raise StepFailure(f"integration failed at t={t}: {TOO_SMALL_STEP}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            h_0d[()] = h
            for K_s, KT, a, c in steps:
                KT.dot(a, out=y_stage)
                np.multiply(y_stage, h_0d, out=y_stage)
                np.add(y_stage, y, out=y_stage)
                fun(t + c * h, y_stage, K_s)
            KB.dot(b, out=y_new)
            np.multiply(y_new, h_0d, out=y_new)
            np.add(y_new, y, out=y_new)
            fun(t + h, y_new, f_new)
            nfev += N_STAGES
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            np.multiply(scale, rtol_0d, out=scale)
            np.add(scale, atol_0d, out=scale)
            KE.dot(e5, out=err)
            np.divide(err, scale, out=err)
            err5_norm_2 = _squared_norm(err_re, err_im)
            KE.dot(e3, out=err)
            np.divide(err, scale, out=err)
            err3_norm_2 = _squared_norm(err_re, err_im)
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h_abs * err5_norm_2 / math.sqrt(denom * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True
        # y_old keeps its row until the next step writes y_new over it
        t_old, t = t, t_new
        y_old, y, y_new = y, y_new, y
        abs_y, abs_new = abs_new, abs_y
        last_sample = bisect.bisect_right(sample_times, t)
        if last_sample == next_sample:
            continue
        # the interpolant of the step, evaluated at its samples
        for K_s, KT, a, c in extras:
            KT.dot(a, out=y_stage)
            np.multiply(y_stage, h_0d, out=y_stage)
            np.add(y_stage, y_old, out=y_stage)
            fun(t_old + c * h, y_stage, K_s)
        nfev += len(extras)
        delta_y = y - y_old
        F = np.empty((INTERPOLATOR_POWER, n), dtype=complex)
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (K[N_STAGES] + K[0])
        F[3:] = h * d.dot(K)
        x = ((t_eval[next_sample:last_sample] - t_old) / (t - t_old))[:, None]
        out = samples[next_sample:last_sample]
        out[...] = 0
        for i, f in enumerate(reversed(F)):
            out += f
            out *= x if i % 2 == 0 else 1 - x
        out += y_old
        pieces.append((next_sample, last_sample))
        next_sample = last_sample
    # y joins the steps' samples as scipy does, so it has scipy's memory
    # layout, and reductions over y.T round as they do there
    y = np.hstack([samples[i:j].T for i, j in pieces]) if pieces else samples[:0].T
    return OdeResult(t=t_eval, y=y, nfev=nfev)
