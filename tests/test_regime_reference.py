"""The shared regime classifier against the per-model predictions it replaces.

The reference functions below are the earlier implementations, kept
verbatim apart from their docstrings and the tol and k_max arguments that
the index scans no longer take: signed and block-model recovery each
wrote out the alpha-regime verdicts, with `_critical_limits` for the
critical exponent. Every comparison is `==` on the whole RegimePrediction,
or the same error type and message, over a grid that reaches every regime
label, a float alpha that snaps to 1/3, kappa inside the dead zone, and
abs read as unrecoverable once its one derivative is scanned.
"""

import itertools
import math
from fractions import Fraction

import pytest

from nlspike import distributions as dist
from nlspike.errors import CapabilityError
from nlspike.nonlinearity import (
    Named,
    Polynomial,
    derivative_moment,
    even_odd_index,
    gamma_moment,
    hermite_fn,
    sd_f,
    sd_f_centered,
    signal_constant_index,
)
from nlspike.theory import (
    KAPPA_DEAD_ZONE,
    RegimePrediction,
    _compare_alpha,
    sbm_recovery_prediction,
    signed_recovery_prediction,
)

HE2_HE3 = hermite_fn({2: 1.0, 3: 1.0})
SBM_QUARTIC = hermite_fn({2: 2.25, 3: 1.0, 4: 1.0})
FUNCTIONS = [HE2_HE3, SBM_QUARTIC, Named("tanh"), Named("abs"), Polynomial([0.0, 1.0]),
             Polynomial([0.0, 0.0, 1.0])]
N01, N_PLUS, N_MINUS = dist.Gaussian(0.0, 1.0), dist.Gaussian(0.6, 1.0), dist.Gaussian(-0.6, 1.0)
U11, U_SHIFTED, RADEMACHER = dist.Uniform(-1.0, 1.0), dist.Uniform(-0.5, 1.5), dist.Rademacher(0.5)
LAWS = [N01, N_PLUS, N_MINUS, U11, U_SHIFTED, RADEMACHER]
LAW_PAIRS = [(N01, N01), (N_PLUS, N_MINUS), (U11, U11), (U11, U_SHIFTED), (N01, U11),
             (RADEMACHER, RADEMACHER)]
ALPHAS = ["1/4", "1/3", 0.3333333333333333, "3/8"]
# Both study functions have index 3 and kappa = c^3 under N(0, 1) laws, in
# either model, so kappa meets sigma_f inside the 1e-9 dead zone at
# c = sqrt 2 (He2 + He3, sigma_f = sqrt 8) and c = 40.125^(1/6) (the
# quartic, sigma_f = sqrt 40.125)
C_GRID = [0.5, 2.0, math.sqrt(2.0), 40.125 ** (1.0 / 6.0)]


# ---------------------------------------------------------------------------
# reference predictions
# ---------------------------------------------------------------------------


def _old_critical_limits(kappa: float, sigma_f: float) -> tuple[float | str, float, bool]:
    """(outlier, alignment, at_threshold) at the critical exponent."""
    if abs(kappa - sigma_f) <= KAPPA_DEAD_ZONE:
        return 2.0 * sigma_f, 0.0, True
    if kappa > sigma_f:
        return kappa + sigma_f**2 / kappa, math.sqrt(1.0 - sigma_f**2 / kappa**2), False
    return 2.0 * sigma_f, 0.0, False


def _old_signed_recovery_prediction(f, d, c_lambda, alpha):
    i_e, i_o = even_odd_index(f, d)
    sigma_f = sd_f(f, d)
    indices = {"I_e": float(i_e), "I_o": float(i_o)}
    which = 2 if i_e < i_o else 1
    if math.isinf(i_o):
        return RegimePrediction(
            "wigner", "sign-unrecoverable", None, None, sigma_f,
            2.0 * sigma_f, 0.0, which, indices,
        )
    i_o = int(i_o)
    threshold = Fraction(i_o - 1, 2 * i_o)
    kappa = c_lambda**i_o / math.factorial(i_o) * derivative_moment(f, i_o, d)
    side = _compare_alpha(alpha, threshold)
    if side < 0:
        return RegimePrediction(
            "wigner", "subcritical", threshold, kappa, sigma_f,
            2.0 * sigma_f, 0.0, which, indices,
        )
    if side > 0:
        return RegimePrediction(
            "wigner", "supercritical", threshold, kappa, sigma_f,
            "diverges", 1.0, which, indices,
        )
    outlier, align, at_thr = _old_critical_limits(kappa, sigma_f)
    return RegimePrediction(
        "wigner", "critical", threshold, kappa, sigma_f,
        outlier, align, which, indices, at_thr,
    )


def _old_sbm_recovery_prediction(f, d, d_bar, c_lambda, alpha):
    j_s, j_c = signal_constant_index(f, d, d_bar)
    s = sd_f_centered(f, d)
    sb = sd_f_centered(f, d_bar)
    sigma_f = math.sqrt(0.5 * (s**2 + sb**2))
    indices = {"J_s": float(j_s), "J_c": float(j_c)}
    if j_s == 0:
        which = 1 if j_s <= j_c else 2
        return RegimePrediction(
            "sbm", "trivially-recoverable", None, None, sigma_f,
            "diverges", 1.0, which, indices,
        )
    which = 2 if j_s > j_c else 1
    if math.isinf(j_s):
        return RegimePrediction(
            "sbm", "signal-unrecoverable", None, None, sigma_f,
            2.0 * sigma_f, 0.0, which, indices,
        )
    j_s = int(j_s)
    threshold = Fraction(j_s - 1, 2 * j_s)
    g = gamma_moment(f, j_s, d)
    gb = gamma_moment(f, j_s, d_bar)
    kappa = c_lambda**j_s * (g + (-1.0) ** (j_s + 1) * gb) / (2.0 * math.factorial(j_s))
    side = _compare_alpha(alpha, threshold)
    if side < 0:
        return RegimePrediction(
            "sbm", "subcritical", threshold, kappa, sigma_f,
            2.0 * sigma_f, 0.0, which, indices,
        )
    if side > 0:
        return RegimePrediction(
            "sbm", "supercritical", threshold, kappa, sigma_f,
            "diverges", 1.0, which, indices,
        )
    outlier, align, at_thr = _old_critical_limits(kappa, sigma_f)
    return RegimePrediction(
        "sbm", "critical", threshold, kappa, sigma_f,
        outlier, align, which, indices, at_thr,
    )


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _outcome(predict, *args):
    """The prediction, or the (type, message) of the CapabilityError it raised."""
    try:
        return predict(*args)
    except CapabilityError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "model, new, old, law_grid",
    [
        ("wigner", signed_recovery_prediction, _old_signed_recovery_prediction,
         [(d,) for d in LAWS]),
        ("sbm", sbm_recovery_prediction, _old_sbm_recovery_prediction, LAW_PAIRS),
    ],
    ids=["signed", "sbm"],
)
def test_classifier_matches_per_model_predictions(model, new, old, law_grid):
    reached = set()
    for f, laws, c, alpha in itertools.product(FUNCTIONS, law_grid, C_GRID, ALPHAS):
        got = _outcome(new, f, *laws, c, alpha)
        assert got == _outcome(old, f, *laws, c, alpha), (f, laws, c, alpha)
        if isinstance(got, RegimePrediction):
            reached.add(got.regime)
            if got.at_threshold:
                reached.add("at_threshold")
            if isinstance(alpha, float) and got.regime == "critical":
                reached.add("float-alpha snap")
            if f == Named("abs") and got.regime.endswith("-unrecoverable"):
                reached.add("abs unrecoverable")
        else:
            reached.add(got[0].__name__)
    expected = {"subcritical", "critical", "supercritical", "at_threshold", "float-alpha snap",
                "abs unrecoverable"}
    assert "CapabilityError" not in reached
    if model == "wigner":
        expected.add("sign-unrecoverable")
    else:
        expected |= {"signal-unrecoverable", "trivially-recoverable"}
    assert expected <= reached
