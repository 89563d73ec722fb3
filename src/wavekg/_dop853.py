"""The DOP853 integrator with dense output, for kg-lab's oscillator sweep.

SciPy 1.17's solve_ivp(method="DOP853", dense_output=True), operation for
operation, so its steps and dense values are bit-identical: the 8(5,3)
Dormand-Prince pair with its 7th-order continuous extension (Hairer,
Norsett and Wanner, Solving Ordinary Differential Equations I, 2nd ed.,
1993, Sec. II.10).  Only what the sweep uses is carried: an increasing
span, a real state and scalar tolerances; no max_step, first_step,
events or vectorized right-hand side.
"""

from __future__ import annotations

import numpy as np

__all__ = ["solve"]

# The tableau: the nonzero entries of each row of A (column: value), the
# nodes C, the error weights E3 and E5 and the dense-output rows D, as
# float64 values of SciPy's dop853_coefficients.  Stages 0-11 make the
# step, row 12 of A is its weights B, and stages 13-15 are the extra
# stages of the dense output.
_N_STAGES, _N_EXTENDED = 12, 16
_A_ROWS = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
)
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
_D_ROWS = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
)


def _dense(rows, width):
    """The rows of column: value dicts as one (len(rows), width) array."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


_A = _dense(_A_ROWS, _N_EXTENDED)
_B = _A[_N_STAGES, :_N_STAGES]
_D = _dense(_D_ROWS, _N_EXTENDED)

# the step controller: safety factor, bounds on the step's change, and the
# exponent -1/(q + 1) of the 7th-order error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """SciPy's select_initial_step for the 7th-order error estimate."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _stages(fun, t, y, h, K, first, stop):
    """Stages first..stop-1 of the extended tableau into the rows of K."""
    for s in range(first, stop):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = fun(t + _C[s] * h, y + dy)


def _error_norm(K, h, scale):
    """DOP853's blend of the 5th- and 3rd-order error estimates."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve(fun, t0, t_bound, y0, rtol, atol):
    """Integrate y' = fun(t, y) from t0 to t_bound > t0; returns its
    DenseSolution.

    Raises ValueError on a non-finite y0, and RuntimeError, with SciPy's
    message, if the step falls below ten spacings of floats at t, as it
    does on a non-finite fun; an exception of fun propagates.
    """
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    K_extended = np.empty((_N_EXTENDED, y.size))
    K = K_extended[:_N_STAGES + 1]
    f = fun(t0, y)
    h_abs = _initial_step(fun, t0, y, t_bound, f, rtol, atol)
    t, ts, y_olds, Fs = t0, [t0], [], []
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError("oscillator integration failed: Required "
                                   "step size is less than spacing between "
                                   "numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = f
            _stages(fun, t, y, h, K, 1, _N_STAGES)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        # the accepted step's dense output: three more stages and the
        # seven coefficient rows F of its interpolant
        _stages(fun, t, y, h, K_extended, _N_STAGES + 1, _N_EXTENDED)
        F = np.empty((7, y.size))
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (f_new + K[0])
        F[3:] = h * np.dot(_D, K_extended)
        y_olds.append(y)
        Fs.append(F)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
    return DenseSolution(np.array(ts), np.array(y_olds), np.array(Fs))


class DenseSolution:
    """The continuous solution: one 7th-degree interpolant per accepted
    step, ts holding the steps' ends (t0 first).

    Called on a 1-D array of times it returns the states, one column per
    time, each from the step that SciPy's OdeSolution picks for it (the
    first whose end is not below it, clipped to the span).
    """

    def __init__(self, ts, y_olds, F):
        self.ts, self._y_olds, self._F = ts, y_olds, F

    def __call__(self, t):
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1,
                      0, len(self._F) - 1)
        t_old = self.ts[seg]
        x = (t - t_old) / (self.ts[seg + 1] - t_old)
        # Dop853DenseOutput's Horner loop in x and 1 - x, with each
        # column's own coefficient rows
        y = np.zeros((self._y_olds.shape[1], t.size))
        for i in range(7):
            y += self._F[seg, 6 - i].T
            y *= x if i % 2 == 0 else 1 - x
        y += self._y_olds[seg].T
        return y
