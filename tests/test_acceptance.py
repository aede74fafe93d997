"""Acceptance criteria, one test per numbered item.

Each test prints a single verdict line (run with -s to see them on
success; failures always show theirs). Tolerances are pinned here and
nowhere else.

The phase-transition formulas are n -> infinity statements, and in these
models their finite-n corrections decay only like n^(-1/6) or n^(-1/4):
each entry of f(W + s zeta zeta^T) has the law of f(Z + s) or f(Z - s),
with a per-entry shift s = c n^(alpha - 1/2) that is order one at
n = 2000. Criteria 2, 4 and 6 therefore evaluate the same formulas with
that finite-n entry law (_finite_n_bbp, _increment_sd) and keep their
band widths around the result; each of those checks prints the limit
value beside its finite-n reference. Criterion 3 stays a documented
finite-size failure whose cause is open; the lead is an outlier of the
noise image localised on its largest entry a = max f(W)/sqrt(n), near
a + sigma_f^2/a and above 2 sigma_f at these n (see its docstring).
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from nlspike.distributions import Gaussian
from nlspike.harness import fit_transition_midpoint, load_table, parse_config, run_experiment
from nlspike.matrixgen import (
    SbmSpec,
    SpikeParams,
    assemble_observation,
    community_signal,
    rademacher_signal,
    sample_sbm_adjacency,
    sample_wigner,
)
from nlspike.nonlinearity import (
    Polynomial,
    derivative,
    even_odd_index,
    hermite_fn,
    sd_f,
    signal_constant_index,
)
from nlspike.rng import derive_seed
from nlspike.sbm import run_sbm_trial, transform_and_embed
from nlspike.spectral import alignment, esd_histogram, sym_eig_top
from nlspike.theory import (
    bbp_prediction,
    qve_support_edge,
    sbm_recovery_prediction,
    signed_recovery_prediction,
    solve_qve_two_block,
    spectral_density_from_qve,
    stieltjes_semicircle,
)

STD_NORMAL = Gaussian(0.0, 1.0)
IDENTITY = Polynomial([0.0, 1.0])
F_CUBIC = hermite_fn({2: 1.0, 3: 1.0})
F_SBM = hermite_fn({2: 2.25, 3: 1.0, 4: 1.0})

F_JSON = {"kind": "polynomial", "coeffs": list(F_CUBIC.coeffs)}
GAUSS_JSON = {"kind": "gaussian", "mean": 0.0, "std": 1.0}


class Checks:
    def __init__(self, label: str):
        self.label = label
        self.lines: list[str] = []
        self.failures: list[str] = []

    def add(self, ok: bool, detail: str):
        self.lines.append(("ok " if ok else "FAIL ") + detail)
        if not ok:
            self.failures.append(detail)

    def finish(self):
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"[{self.label}] {verdict}: " + "; ".join(self.lines))
        assert not self.failures, f"{self.label}: " + " | ".join(self.failures)


def _entry_shift(c_lambda: float, alpha, n: int) -> float:
    """Per-entry shift s = lambda / sqrt(n) = c n^(alpha - 1/2)."""
    return c_lambda * n ** (float(alpha) - 0.5)


def _finite_n_bbp(f, kappa: float, a: float) -> tuple[float, float, float]:
    """(sigma_eff, outlier, squared alignment) of the BBP formulas at the
    tested size, for entries shifted by +-a over unit Gaussian noise.

    Each entry has the law of f(Z + a) or f(Z - a), so the bulk's entry
    variance is sigma_eff^2 = (Var f(Z + a) + Var f(Z - a)) / 2 rather
    than sigma_f^2 = Var f(Z); sigma_eff -> sigma_f as a -> 0, and
    sigma_eff = sigma_f exactly for linear f. For the polynomials here
    the odd part of E f(Z + a) is exactly a^3, so kappa needs no
    finite-n correction.
    """
    sigma_eff = math.sqrt(
        0.5 * sum(sd_f(f, Gaussian(sign * a, 1.0)) ** 2 for sign in (1.0, -1.0))
    )
    gamma, align_sq = bbp_prediction(kappa, sigma_eff)
    return sigma_eff, gamma, align_sq


def _increment_sd(f: Polynomial, s: float) -> float:
    """sigma_rem = sqrt((Var[f(Z + s) - f(Z)] + Var[f(Z - s) - f(Z)]) / 2),
    the entry deviation of f(W + s zeta zeta^T) - f(W) around its mean;
    to first order s sqrt(Var f'(Z))."""
    p = np.polynomial.Polynomial(f.coeffs)
    var = [
        sd_f(Polynomial((p(np.polynomial.Polynomial([a, 1.0])) - p).coef), STD_NORMAL) ** 2
        for a in (s, -s)
    ]
    return math.sqrt(0.5 * sum(var))


# ---------------------------------------------------------------------------
# 1. BBP reproduction
# ---------------------------------------------------------------------------


def test_acceptance_1_bbp_reproduction():
    """Linear model at lambda = 2 over unit Gaussian noise: the top
    eigenvalue and its squared signal alignment match the classical
    limits 2.5 and 0.75."""
    n, trials = 2000, 8
    gammas, aligns_sq = [], []
    for t in range(trials):
        seed = derive_seed(101, t)
        W = sample_wigner(n, STD_NORMAL, derive_seed(seed, 0))
        x = rademacher_signal(n, derive_seed(seed, 1))
        Y = assemble_observation(W, IDENTITY, SpikeParams(2.0, 0.0, n), x)
        pairs = sym_eig_top(Y, 1)
        gammas.append(float(pairs.values[0]))
        aligns_sq.append(alignment(pairs.vectors[:, 0], x) ** 2)
    med_gamma = float(np.median(gammas))
    med_align_sq = float(np.median(aligns_sq))

    c = Checks("acceptance 1: BBP")
    c.add(abs(med_gamma - 2.5) <= 0.05, f"median gamma1 {med_gamma:.4f} in 2.5+-0.05")
    c.add(abs(med_align_sq - 0.75) <= 0.05, f"median align^2 {med_align_sq:.4f} in 0.75+-0.05")
    c.finish()


# ---------------------------------------------------------------------------
# 2. signed-recovery critical line
# ---------------------------------------------------------------------------


def _signed_trial(n, c, alpha, t, base):
    seed = derive_seed(base, t)
    W = sample_wigner(n, STD_NORMAL, derive_seed(seed, 0))
    x = rademacher_signal(n, derive_seed(seed, 1))
    Y = assemble_observation(W, F_CUBIC, SpikeParams(c, alpha, n), x)
    pairs = sym_eig_top(Y, 2)
    return float(pairs.values[1]), alignment(pairs.vectors[:, 1], x)


def test_acceptance_2_signed_recovery_critical_line():
    """Critical exponent 1/3 at c = 2: the second eigenvalue sits at
    kappa + sigma^2/kappa and its alignment at sqrt(1 - sigma^2/kappa^2),
    with kappa = c^3 = 8.

    With sigma = sigma_f = sqrt(8) these are the limits 9 and 0.9354.
    At n = 2000 the per-entry shift s = 2 n^(-1/6) = 0.5635 is order one
    and the bulk's entry variance is sigma_eff^2 = 15.89, so the same
    formulas give 9.986 and 0.867 there, and the bands are centred on
    those finite-n values. Measured medians at seed 202: 10.125 / 0.849
    (seeds 204 and 205: 10.091 / 0.846 and 10.113 / 0.847). Reaching
    the limit values within the same bands would need s <= 0.1, i.e.
    n >~ 10^8.
    """
    n, trials = 2000, 8
    c_lambda, alpha = 2.0, Fraction(1, 3)
    pred = signed_recovery_prediction(F_CUBIC, STD_NORMAL, c_lambda, alpha)
    sigma_eff, ref_gamma2, ref_align_sq = _finite_n_bbp(
        F_CUBIC, pred.kappa, _entry_shift(c_lambda, alpha, n)
    )
    ref_align = math.sqrt(ref_align_sq)

    crit = [_signed_trial(n, c_lambda, alpha, t, 202) for t in range(trials)]
    med_gamma2 = float(np.median([g for g, _ in crit]))
    med_align = float(np.median([a for _, a in crit]))
    sub = [_signed_trial(n, 1.0, alpha, t, 203) for t in range(trials)]
    med_align_sub = float(np.median([a for _, a in sub]))

    c = Checks("acceptance 2: signed critical")
    c.add(
        abs(med_gamma2 - ref_gamma2) <= 0.2,
        f"median gamma2 {med_gamma2:.4f} in {ref_gamma2:.4f}+-0.2 "
        f"(finite-n, sigma_eff^2 {sigma_eff**2:.2f}; limit {pred.outlier_limit:.4f})",
    )
    c.add(
        abs(med_align - ref_align) <= 0.05,
        f"median align {med_align:.4f} in {ref_align:.4f}+-0.05 "
        f"(finite-n; limit {pred.alignment_limit:.4f})",
    )
    c.add(med_align_sub <= 0.1, f"subcritical control align {med_align_sub:.4f} <= 0.1")
    c.finish()


# ---------------------------------------------------------------------------
# 3. scale collapse
# ---------------------------------------------------------------------------


def test_acceptance_3_scale_collapse(tmp_path):
    """Transition-midpoint geometry at alpha = 1/4 across n in {1000, 2000}.

    The constant-direction transition is predicted n-independent near
    c = (2 sqrt 2)^(1/2) = 1.682 because its spike strength c^2 carries
    no n factor at this exponent; the signal-direction threshold is
    predicted to drift upward like n^(1/12) (a shift of +0.157 between
    these two sizes in the limit formulas). Midpoints come from monotone
    logistic fits to trial-averaged correlation curves over a grid that
    reaches saturation.

    Known desk-scale failure of both checks; the cause is finite-n and
    is not settled. Measured with 8 trials per point at base seed 33,
    the u1 midpoints are 2.122 / 2.022 (a gap of 0.100, which misses
    the band only by rounding: "0.1000 <= 0.1"; a change that merely
    flips that rounding is no fix) and the u2 midpoints 3.025 / 3.078
    (a shift of 0.053 against >= 0.15). With 32 trials per point at
    base seed 1033 they are 2.123 / 2.005 (0.117) and 3.060 / 3.110
    (0.050), so the gaps are not Monte Carlo noise. Nor does the
    finite-n bulk variance sigma_eff explain them: the BBP curves with
    sigma_eff in place of sigma_f, put through this test's logistic fit,
    give u1 midpoints 1.977 / 1.949 (gap 0.027) and u2 midpoints
    2.934 / 3.067 (shift 0.133), so sigma_eff alone cancels only 0.024
    of the predicted +0.157 drift (0.049 of the 0.182 that the same fit
    gives on the limit curves). What causes the rest is open. It is not
    softening of the transition inside the BBP window: a spiked GOE in
    the Dumitriu-Edelman tridiagonal model, put through this test's fit
    on its c grid with 150 trials per c, gives u1 midpoints that are
    flat in n (1.856 / 1.873 / 1.871 at n = 1000 / 2000 / 8000). The
    lead is an extreme-entry outlier of the noise image, not a soft bulk
    edge. With no spike, let a = max f(W)/sqrt(n): a single entry
    a > sigma_f gives an outlier near a + sigma_f^2/a (the rank-one BBP
    location), whose eigenvector sits on that entry. The median top
    eigenvalue of f(W)/sqrt(n) is 5.982 at n = 1000 and 5.850 at
    n = 2000, against a + sigma_f^2/a = 5.925 and 5.677 and
    2 sigma_f = 5.657; the top-2-coordinate mass of its eigenvector is
    0.74 and 0.34. At n = 1000 the spiked u1 competes with this localised
    eigenvector, so corr_u1_ones rises later at the smaller n. The raw
    curves do separate visibly with n, so the qualitative effect is real.
    """
    raw = {
        "experiment": "signed-sweep",
        "n_list": [1000, 2000],
        "c_grid": [round(0.8 + 0.3 * i, 2) for i in range(15)],  # 0.8 .. 5.0
        "alpha": "1/4",
        "trials_per_point": 8,
        "base_seed": 33,
        "f": F_JSON,
        "noise": GAUSS_JSON,
    }
    arts = run_experiment(parse_config(raw), tmp_path)
    table = load_table(arts["csv"])

    mids = {}
    for col in ("corr_u1_ones", "corr_u2_zeta"):
        for n in (1000, 2000):
            mask = table["n"] == n
            cs = np.unique(table["c"][mask])
            means = np.array(
                [np.mean(table[col][mask & (table["c"] == cv)]) for cv in cs]
            )
            mids[(col, n)], _ = fit_transition_midpoint(cs, means)

    du1 = abs(mids[("corr_u1_ones", 1000)] - mids[("corr_u1_ones", 2000)])
    du2 = abs(mids[("corr_u2_zeta", 2000)] - mids[("corr_u2_zeta", 1000)])

    c = Checks("acceptance 3: scale collapse")
    c.add(
        du1 <= 0.1,
        f"u1/ones midpoints {mids[('corr_u1_ones', 1000)]:.4f} vs "
        f"{mids[('corr_u1_ones', 2000)]:.4f} differ by {du1:.4f} <= 0.1 (ref 1.682)",
    )
    c.add(
        du2 >= 0.15,
        f"u2/zeta midpoints {mids[('corr_u2_zeta', 1000)]:.4f} vs "
        f"{mids[('corr_u2_zeta', 2000)]:.4f} shift by {du2:.4f} >= 0.15",
    )
    c.finish()


# ---------------------------------------------------------------------------
# 4. decomposition remainder
# ---------------------------------------------------------------------------


def test_acceptance_4_decomposition_remainder(tmp_path):
    """Operator-norm remainder of the signal-plus-noise approximation at
    alpha = 1/4, c = 1 over n in {500, 1000, 2000}: non-increasing
    medians, each within 3 % of 2 sigma_rem(n).

    The remainder vanishes as n -> infinity, but slowly: it is dominated
    by the fluctuation of f(W + s zeta zeta^T) - f(W) around its mean,
    s = c n^(-1/4), a Wigner-like matrix of norm 2 sigma_rem with
    sigma_rem^2 = (Var[f(Z + s) - f(Z)] + Var[f(Z - s) - f(Z)]) / 2.
    To first order that is 2 sqrt(Var f'(Z)) c n^(-1/4) = 2 sqrt(22)
    n^(-1/4); the exact form gives 2.002 / 1.679 / 1.409 at n = 500 /
    1000 / 2000 (measured medians 2.014 / 1.683 / 1.410). The earlier
    bound "<= 0.5 at n = 2000" would need n ~ 1.3 * 10^5. The 3 % band
    still catches a wrong spike term: dropping or mis-scaling the
    second-order (H2) term reads about 1.50 at n = 2000 (+6 %).
    """
    raw = {
        "experiment": "decompose-check",
        "n_list": [500, 1000, 2000],
        "c_grid": [1.0],
        "alpha": 0.25,
        "trials_per_point": 8,
        "base_seed": 44,
        "f": F_JSON,
        "noise": GAUSS_JSON,
    }
    arts = run_experiment(parse_config(raw), tmp_path)
    table = load_table(arts["csv"])
    summary = table["seed"] == -1
    medians = {int(n): r for n, r in zip(table["n"][summary], table["remainder_norm"][summary])}

    c = Checks("acceptance 4: remainder")
    seq = [medians[500], medians[1000], medians[2000]]
    c.add(
        seq[0] >= seq[1] >= seq[2],
        f"medians non-increasing: {seq[0]:.3f} >= {seq[1]:.3f} >= {seq[2]:.3f}",
    )
    sd_deriv = sd_f(derivative(F_CUBIC, 1), STD_NORMAL)
    for n, med in medians.items():
        s = _entry_shift(1.0, Fraction(1, 4), n)
        ref = 2.0 * _increment_sd(F_CUBIC, s)
        c.add(
            abs(med - ref) <= 0.03 * ref,
            f"median at n={n} is {med:.3f} within 3% of 2 sigma_rem {ref:.3f} "
            f"(first order {2.0 * sd_deriv * s:.3f}; limit 0)",
        )
    c.finish()


# ---------------------------------------------------------------------------
# 5. QVE correctness
# ---------------------------------------------------------------------------


def test_acceptance_5_qve_correctness():
    """Balanced-case equality with the semicircle transform, density
    normalization at beta = 1/3, and the bulk of a noise-only
    transformed block model matching the QVE density."""
    c = Checks("acceptance 5: QVE")

    s, sb = 1.3, 0.7
    sigma_f = math.sqrt(0.5 * (s * s + sb * sb))
    worst = 0.0
    for z in np.linspace(-6.0, 6.0, 100) + 0.05j:
        sol = solve_qve_two_block(0.5, s, sb, z)
        ms = stieltjes_semicircle(z, sigma_f)
        worst = max(worst, abs(sol.m1 - ms), abs(sol.m2 - ms))
    c.add(worst <= 1e-10, f"beta=1/2 matches semicircle: max |m - m_sc| = {worst:.2e} <= 1e-10")

    # noise-only transformed block model: odd cubic transform keeps the
    # transformed block means at zero, exposing the pure bulk
    f_noise = hermite_fn({3: 1.0})
    sigma = math.sqrt(6.0)  # Var He3 under N(0,1)
    v = 0.5
    sigma_bar = math.sqrt(15 * v**3 - 18 * v**2 + 9 * v)  # Var He3 under N(0, v)
    beta = 1.0 / 3.0

    tau = np.linspace(-7.0, 7.0, 1401)
    rho = spectral_density_from_qve(beta, sigma, sigma_bar, tau)
    integral = float(np.trapezoid(rho, tau))
    c.add(abs(integral - 1.0) <= 1e-3, f"beta=1/3 density integral {integral:.6f} in 1+-1e-3")
    c.add(bool(np.all(rho >= 0.0)), "density nonnegative on the grid")

    n = 2001  # nearest size to 2000 with an integral beta * n split
    spec = SbmSpec(n, beta, Gaussian(0.0, 1.0), Gaussian(0.0, math.sqrt(v)))
    Y = transform_and_embed(sample_sbm_adjacency(spec, seed=derive_seed(55, 0)), f_noise)
    edge = qve_support_edge(beta, sigma, sigma_bar)
    bounds = (-edge - 0.5, edge + 0.5)
    centers, density = esd_histogram(Y, 40, bounds)
    rho_at_centers = spectral_density_from_qve(beta, sigma, sigma_bar, centers)
    sup_dist = float(np.max(np.abs(density - rho_at_centers)))
    c.add(sup_dist <= 0.05, f"ESD vs QVE sup-distance {sup_dist:.4f} <= 0.05 over 40 bins")
    c.finish()


# ---------------------------------------------------------------------------
# 6. SBM recovery
# ---------------------------------------------------------------------------


def _sbm_spec(n, c):
    """Balanced block model with separation Delta = 2 c n^(-1/6) between
    unit-variance block laws, i.e. a per-entry shift of +-c n^(-1/6)."""
    a = c * n ** (-1.0 / 6.0)
    return SbmSpec(n, 0.5, Gaussian(a, 1.0), Gaussian(-a, 1.0))


def _sbm_point(n, c, trials, base):
    spec = _sbm_spec(n, c)
    return [run_sbm_trial(spec, F_SBM, derive_seed(base, t)) for t in range(trials)]


def _sbm_reference(n, c):
    """(limit prediction, (sigma_eff, outlier, align^2) at size n)."""
    pred = sbm_recovery_prediction(F_SBM, STD_NORMAL, STD_NORMAL, c, Fraction(1, 3))
    return pred, _finite_n_bbp(F_SBM, pred.kappa, c * n ** (-1.0 / 6.0))


def test_acceptance_6_sbm_recovery():
    """Balanced transformed block model at the critical exponent 1/3,
    separation 2 c n^(-1/6), unit-variance block laws, kappa = c^3.

    A supercritical representative must recover the split through the
    second eigenvector and a weak point must not. Class membership is
    read off the finite-n ratio kappa/sigma_eff at n = 2000, the same
    reference the arbitration uses: 2.30 at c = 3.5 (>= 2) and 0.32 at
    c = 1.4 (<= 1/2); the limit ratios kappa/sigma_f are 6.8 and 0.43.

    The alignment arbitration is pinned where kappa = 2 sigma_eff at
    n = 2000, so that the outlier-consistent form 1 - sigma^2/kappa^2
    gives 0.75 while the competing closed form
    1 - 2 kappa^2/(sigma^2 + sigmabar^2) gives the impossible -3. That
    point is solved for here: c* = 3.2345, a per-entry shift of 0.911,
    sigma_eff = 16.92 against sigma_f = 6.334, kappa = 33.84. The limit
    point kappa = 2 sigma_f (c = 2.331) cannot serve at this size: its
    finite-n ratio 12.67/12.02 = 1.054 lies inside the BBP window
    (n^(-1/3) ~ 0.08), no outlier detaches there (measured align^2
    0.004) and neither closed form applies. Measured at c*: median
    align^2 0.695 at seed 608 (0.698 and 0.692 at seeds 609 and 610),
    median second eigenvalue 43.0 against the predicted 42.3.

    In about 1 trial in 8 (2 of 24 over seeds 608-610) an eigenvalue
    produced by a single heavy-tailed entry lies above the community
    outlier (align^2 ~ 0.04 in that trial); the median absorbs it.
    """
    n, trials = 2000, 8
    c = Checks("acceptance 6: SBM recovery")

    super_c = 3.5
    pred, (sigma_eff, _, _) = _sbm_reference(n, super_c)
    assert pred.kappa >= 2.0 * sigma_eff  # class membership of the representative
    sup = _sbm_point(n, super_c, trials, 606)
    med_overlap = float(np.median([r.overlap_second for r in sup]))
    c.add(med_overlap >= 0.8, f"supercritical c=3.5 overlap_second {med_overlap:.3f} >= 0.8")

    weak_c = 1.4
    pred, (sigma_eff, _, _) = _sbm_reference(n, weak_c)
    assert pred.kappa <= 0.5 * sigma_eff
    weak = _sbm_point(n, weak_c, trials, 607)
    med_weak = float(np.median([r.overlap_second for r in weak]))
    c.add(med_weak <= 0.15, f"weak c=1.4 overlap_second {med_weak:.3f} <= 0.15")

    def excess(cv):
        pred, (sigma_eff, _, _) = _sbm_reference(n, cv)
        return pred.kappa - 2.0 * sigma_eff

    # kappa = 2 sigma_f in the limit; the finite-n crossing lies above it
    c_limit = (2.0 * sd_f(F_SBM, STD_NORMAL)) ** (1.0 / 3.0)
    c_arb = brentq(excess, c_limit, super_c)
    pred, (sigma_eff, ref_gamma2, ref_align_sq) = _sbm_reference(n, c_arb)
    spec = _sbm_spec(n, c_arb)
    _, truth = community_signal(n, 0.5)
    gammas, align_sq = [], []
    for t in range(trials):
        Y = transform_and_embed(sample_sbm_adjacency(spec, derive_seed(608, t)), F_SBM)
        pairs = sym_eig_top(Y, 2)
        gammas.append(float(pairs.values[1]))
        align_sq.append(alignment(pairs.vectors[:, 1], truth) ** 2)
    med_align_sq = float(np.median(align_sq))
    rejected_form = 1.0 - 2.0 * pred.kappa**2 / (2.0 * sigma_eff**2)
    c.add(
        abs(med_align_sq - ref_align_sq) <= 0.07,
        f"arbitration at kappa=2sigma_eff (c={c_arb:.4f}): align^2 {med_align_sq:.4f} "
        f"in {ref_align_sq:.4f}+-0.07 (finite-n, sigma_eff {sigma_eff:.2f}; "
        f"limit {pred.alignment_limit**2:.4f}; median gamma2 {np.median(gammas):.1f} vs "
        f"{ref_gamma2:.1f}; rejected closed form would be {rejected_form:.1f})",
    )
    c.finish()


# ---------------------------------------------------------------------------
# 7. index oracles
# ---------------------------------------------------------------------------


def test_acceptance_7_index_oracles():
    """Index pairs for the two study functions, with the closed-form and
    Monte Carlo evaluation paths agreeing."""
    c = Checks("acceptance 7: indices")

    exact_io = even_odd_index(F_CUBIC, STD_NORMAL)
    c.add(exact_io == (2, 3), f"(I_e, I_o) = {exact_io} == (2, 3)")
    mc_io = even_odd_index(
        F_CUBIC, STD_NORMAL, method="monte-carlo", mc_samples=400_000, mc_seed=7
    )
    c.add(mc_io == exact_io, f"Monte Carlo path agrees: {mc_io}")

    d = Gaussian(0.6, 1.0)
    d_bar = Gaussian(-0.6, 1.0)  # unit-variance reading of the block laws
    exact_js = signal_constant_index(F_SBM, d, d_bar)
    c.add(exact_js == (3, 2), f"(J_s, J_c) = {exact_js} == (3, 2)")
    mc_js = signal_constant_index(
        d=d, d_bar=d_bar, f=F_SBM, method="monte-carlo", mc_samples=400_000, mc_seed=8
    )
    c.add(mc_js == exact_js, f"Monte Carlo path agrees: {mc_js}")
    c.finish()


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------


def test_acceptance_8_determinism(tmp_path):
    """Byte-identical artifacts across re-runs and across serial vs
    parallel execution, for every sweep kind."""
    c = Checks("acceptance 8: determinism")
    configs = [
        (
            "signed-sweep",
            {
                "experiment": "signed-sweep",
                "n_list": [150, 200],
                "c_grid": [0.8, 1.6, 2.4],
                "alpha": "1/4",
                "trials_per_point": 2,
                "base_seed": 88,
                "f": F_JSON,
                "noise": GAUSS_JSON,
            },
        ),
        (
            "sbm-sweep",
            {
                "experiment": "sbm-sweep",
                "n_list": [128],
                "c_grid": [1.0, 2.0],
                "alpha": "1/3",
                "trials_per_point": 2,
                "base_seed": 88,
                "f": F_JSON,
                "within": GAUSS_JSON,
                "across": GAUSS_JSON,
                "beta": 0.5,
            },
        ),
        (
            "decompose-check",
            {
                "experiment": "decompose-check",
                "n_list": [100, 150],
                "c_grid": [1.0],
                "alpha": 0.25,
                "trials_per_point": 2,
                "base_seed": 88,
                "f": F_JSON,
                "noise": GAUSS_JSON,
            },
        ),
    ]
    for name, raw in configs:
        cfg = parse_config(raw)
        runs = [
            run_experiment(cfg, tmp_path / f"{name}_{i}", threads=threads)
            for i, threads in enumerate((1, 4, 4))
        ]
        blobs = [Path(r["csv"]).read_bytes() for r in runs]
        c.add(blobs[0] == blobs[1], f"{name}: serial == parallel bytes")
        c.add(blobs[1] == blobs[2], f"{name}: re-run byte-identical")
    c.finish()
