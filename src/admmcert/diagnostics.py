"""Certificate checks for every inequality and rate bound, discrete and continuous.

Each check evaluates the left- and right-hand side of one proved inequality
at every index (or every prefix) of a recorded trace, in one array pass over
its rows, and returns its entries, each with its worst slack lhs - rhs.
CERTIFICATES lists every certificate in report order with its tolerance rule,
and _entry, the only code that decides a pass, applies it: 1e-9 absolute for
per-step inequalities (step) and rate bounds (rate), 1e-12 for monotonicity
deltas (mono), and 10*delta for a high-resolution trace (continuous), whose
node values carry O(delta) error. A continuous check is the discrete kernel
(energy, weak gap, strong gap) read at elapsed time t of every node, fed trapezoid
time means and, for the weak gap, Theorem 4.2's probes.

Every check and bundle takes the trace alone: the problem, s (and delta), the r
of an r-proximal run and the saddle come from it, and _entry adds the first three
to each entry's constants. The NE checks read its ne column and the Lyapunov
checks its lyapunov column, as the run computed them: edited rows need both anew.
Every check reads the saddle, directly or through that column, and so asks _saddle
for it, which refuses a trace run without one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .functions import AffineIndicator, Quadratic

TOL_STEP = 1e-9
TOL_RATE = 1e-9
TOL_MONO = 1e-12

# every certificate, in report order: standard, r-proximal, continuous bundle
CERTIFICATES = {
    "energy_decay_with_ne": "step",
    "lyapunov_monotone": "step",
    "lemma_iterative_inequality": "step",
    "theorem_4_3_rate": "rate",
    "theorem_4_2_weak_rate": "rate",
    "ne_telescoping": "step",
    "theorem_5_1_ne_monotone": "mono",
    "theorem_5_1_last_iterate": "rate",
    "supporting_triple_inequality": "step",
    "theorem_4_4_strong_avg": "rate",
    "theorem_6_1_x_diff_rate": "rate",
    "theorem_6_2_x_diff_last": "rate",
    "theorem_6_extended_ne_monotone": "mono",
    "theorem_6_extended_lyapunov_monotone": "step",
    "theorem_3_3_lyapunov_monotone": "continuous",
    "theorem_3_2_weak_rate": "continuous",
    "theorem_3_4_strong_avg": "continuous",
}

_PROBE_SEED = 12345


@dataclass
class CertificateEntry:
    theorem: str
    passed: bool
    worst_slack: float
    worst_index: int
    tolerance: float
    constants: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "theorem": self.theorem,
            "pass": bool(self.passed),
            "worst_slack": float(self.worst_slack),
            "worst_index": int(self.worst_index),
            "tolerance": float(self.tolerance),
            "constants": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                          for k, v in sorted(self.constants.items())},
        }


@dataclass
class CertificateReport:
    entries: list = field(default_factory=list)

    @property
    def all_pass(self):
        return all(e.passed for e in self.entries)

    def failing(self):
        return [e.theorem for e in self.entries if not e.passed]

    def to_json_bytes(self):
        payload = {
            "all_pass": self.all_pass,
            "certificates": [e.as_dict() for e in self.entries],
        }
        return (json.dumps(payload, sort_keys=True) + "\n").encode()

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())


def _entry(theorem, trace, slacks, **constants):
    """The entry of theorem: its worst slack against the tolerance of its CERTIFICATES
    rule, with constants and the trace's s, and its delta or r when it has one."""
    own = {"s": trace.config.s, "delta": getattr(trace.config, "delta", None), "r": trace.r}
    constants.update((k, v) for k, v in own.items() if v is not None)
    rule = CERTIFICATES[theorem]
    tolerance = (10.0 * own["delta"] if rule == "continuous"
                 else {"step": TOL_STEP, "rate": TOL_RATE, "mono": TOL_MONO}[rule])
    slacks = np.asarray(slacks, dtype=float)
    if slacks.size == 0:
        return CertificateEntry(theorem, True, float("-inf"), -1, tolerance, constants)
    worst = int(np.argmax(slacks))
    return CertificateEntry(theorem, bool(slacks[worst] <= tolerance), float(slacks[worst]),
                            worst, tolerance, constants)


def _sq(v):
    """Squared Euclidean norm of a (d,) vector, or of each row of an (n, d) array."""
    return np.sum(v * v, axis=-1)


def _energy(y, lam, ref_y, ref_lam, s):
    """(1/2s)||G(y - ref_y)||^2 + (s/2)||lam - ref_lam||^2, row by row: the one
    energy kernel behind every Lyapunov, NE and energy column and certificate.
    G = +/-I, and ||-v||^2 has the same bits as ||v||^2, so G drops out."""
    return _sq(y - ref_y) / (2.0 * s) + s * _sq(lam - ref_lam) / 2.0


def _extended_energy(x, y, lam, ref_x, ref_y, ref_lam, spec, s, r):
    """_energy plus (r||x - ref_x||^2 - ||F(x - ref_x)||^2)/(2s), row by row."""
    dx = x - ref_x
    extra = (r * _sq(dx) - _sq(spec.F_op.dot(dx))) / (2.0 * s)
    return extra + _energy(y, lam, ref_y, ref_lam, s)


def _start_constant(v0, lam0, ref_v, ref_lam, s):
    """C = ||v0 - ref_v||^2 + s^2 ||lam0 - ref_lam||^2, the constant of every rate bound
    that starts from (v0, lam0): v is G y (G = +/-I drops out), or x in the strong-average
    bounds; the weak probes measure lam from ref_lam = 0."""
    dv, dl = v0 - ref_v, lam0 - ref_lam
    return float(dv @ dv) + s * s * float(dl @ dl)


def _saddle(trace):
    """The saddle the trace was run against; ParameterError for a trace run without one,
    whose lyapunov column is NaN. Every check calls it, itself or through a helper."""
    if trace.saddle is None:
        raise ParameterError("certificates need a saddle: the trace was run without one, "
                             "so its lyapunov column is NaN")
    return trace.saddle


def _lyapunov(trace):
    """The lyapunov column, measured against the trace's saddle."""
    _saddle(trace)
    return trace.scalars["lyapunov"]


def _rate_constant(trace):
    saddle = _saddle(trace)
    return _start_constant(trace.ys[0], trace.lams[0], saddle.y_star, saddle.lambda_star,
                           trace.config.s)


def _u_series(trace):
    """||G(y_{k+1}-y_k)||^2 + s^2 ||lam_{k+1}-lam_k||^2, i.e. 2s * NE(k) from the ne column."""
    return 2.0 * trace.config.s * trace.scalars["ne"][:-1]


def _prefix_slacks(u, bound):
    """The worse of avg(u[:N+1]) - bound[N] and min(u[:N+1]) - bound[N], for each prefix N."""
    n = np.arange(1, u.size + 1)
    return np.maximum(np.cumsum(u) / n - bound, np.minimum.accumulate(u) - bound)


def check_lemma_iterative_inequality(trace):
    """Per-step Lyapunov difference inequality at the two probe points of the theorem
    derivations, (x*, y*, 0) and (x*, y*, lam*)."""
    spec, s, saddle = trace.spec, trace.config.s, _saddle(trace)
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    ne = trace.scalars["ne"][:-1]
    fx, gy = spec.f.value(xs[1:]), spec.g.value(ys[1:])
    mult = ls[1:] - spec.G_sign * (ys[1:] - ys[:-1]) / s
    dev = spec.F_op.dot(xs[1:] - saddle.x_star) + spec.G_sign * (ys[1:] - saddle.y_star)
    slacks = np.full(len(trace) - 1, -np.inf)
    for px, py, plam in ((saddle.x_star, saddle.y_star, np.zeros(spec.m)),
                         (saddle.x_star, saddle.y_star, saddle.lambda_star)):
        fp, gp = spec.f.value(px), spec.g.value(py)
        if not np.isfinite(fp) or not np.isfinite(gp):
            continue  # infinite probe value makes the inequality vacuous
        disp = spec.F_op.dot(px - saddle.x_star) + spec.G_sign * (py - saddle.y_star)
        lhs = np.diff(_energy(ys, ls, py, plam, s))
        rhs = fp - fx + gp - gy + mult @ disp - dev @ plam - ne
        slacks = np.maximum(slacks, lhs - rhs)
    return [_entry("lemma_iterative_inequality", trace, slacks, probes=2)]


def check_convergence1(trace):
    """E(k+1) - E(k) + NE(k) <= 0 with the saddle as reference (energy decay)."""
    e = _lyapunov(trace)
    slacks = np.diff(e) + trace.scalars["ne"][:-1]
    return [_entry("energy_decay_with_ne", trace, slacks, E0=e[0])]


def check_lyapunov_monotone(trace):
    e = _lyapunov(trace)
    return [_entry("lyapunov_monotone", trace, np.diff(e), E0=e[0])]


def check_rate_theorem_4_3(trace):
    """Average and min of ||G dy||^2 + s^2 ||dlam||^2 over each prefix, against C/(N+1)."""
    C = _rate_constant(trace)
    u = _u_series(trace)
    slacks = _prefix_slacks(u, C / np.arange(1, u.size + 1))
    return [_entry("theorem_4_3_rate", trace, slacks, C=C)]


def _prefix_means(arr):
    """Means of arr[1..N+1] for each prefix N = 0..len-2 (the derivation indexing)."""
    means = np.cumsum(arr[1:], axis=0)
    means /= np.arange(1, arr.shape[0]).reshape(-1, 1)
    return means


def _weak_probes(trace):
    """(x*, y*), zero and a seeded random point; x stays at x* when f is an indicator."""
    spec, saddle = trace.spec, _saddle(trace)
    rng = np.random.default_rng(_PROBE_SEED)
    if isinstance(spec.f, AffineIndicator):
        # zeros/random x would leave the indicator set; probe at x* instead
        x_zero, x_rand = saddle.x_star, saddle.x_star
    else:
        x_zero = np.zeros(spec.d1)
        x_rand = rng.standard_normal(spec.d1)
    return [
        (saddle.x_star, saddle.y_star),
        (x_zero, np.zeros(spec.d2)),
        (x_rand, rng.standard_normal(spec.d2)),
    ]


def check_weak_rate_theorem_4_2(trace):
    """Duality-gap-like quantity at averaged iterates, bounded by C_probe/(2s(N+1)).

    Averages run over iterates 1..N+1, matching the telescoped derivation;
    the averaged-difference multiplier term telescopes to
    G(y_{N+1} - y_0)/(s(N+1)).
    """
    spec, s = trace.spec, trace.config.s
    probes = _weak_probes(trace)
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    t = s * np.arange(1, len(trace))
    mbar = _prefix_means(ls) - spec.G_sign * (ys[1:] - ys[0]) / t.reshape(-1, 1)
    slacks, consts = _weak_gap(trace, probes, _prefix_means(xs),
                               _prefix_means(ys), mbar, t)
    return [_entry("theorem_4_2_weak_rate", trace, slacks, **consts)]


def _weak_gap(trace, probes, xbar, ybar, mbar, t):
    """Per row of averages (xbar, ybar, mbar) at elapsed time t, the max over probes
    p = (px, py) of f(xbar) - f(px) + g(ybar) - g(py) - <mbar, F(px - x*) + G(py - y*)>
    - C_p/(2t), C_p the start constant of the trace from (py, 0); and the constants
    C_probe<i>. Theorem 4.2 feeds prefix means at t = s(N+1), Theorem 3.2 trapezoid
    time means; a probe where f or g is infinite makes the bound vacuous and is skipped."""
    spec, s, saddle = trace.spec, trace.config.s, _saddle(trace)
    fx, gy = spec.f.value(xbar), spec.g.value(ybar)
    slacks = np.full(len(t), -np.inf)
    consts = {}
    for i, (px, py) in enumerate(probes):
        px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
        fp, gp = spec.f.value(px), spec.g.value(py)
        if not np.isfinite(fp) or not np.isfinite(gp):
            continue
        C = consts[f"C_probe{i}"] = _start_constant(trace.ys[0], trace.lams[0], py, 0.0, s)
        disp = spec.F_op.dot(px - saddle.x_star) + spec.G_sign * (py - saddle.y_star)
        # summing (or integrating) the per-step inequality puts the multiplier
        # term on the bound side, so it enters the gap with a minus sign
        slacks = np.maximum(slacks, fx - fp + gy - gp - mbar @ disp - C / (2.0 * t))
    return slacks, consts


def strong_convexity_modulus(spec):
    """mu of a strongly convex f; the one gate of every strong-average certificate."""
    if not isinstance(spec.f, Quadratic):
        raise ParameterError("strong convexity certificate unavailable: f is not quadratic")
    mu = spec.f.strong_convexity_modulus()
    if mu <= 1e-10:
        raise ParameterError("strong convexity certificate unavailable: A^T A is singular")
    return mu


def _strong_gap(xbar, trace, mu, t):
    """||xbar - x*||^2 - C/(mu t) row by row, and C = ||x_0 - x*||^2 + s^2 ||lam_0 - lam*||^2.
    Theorem 4.4 feeds means of iterates at t = s(N+1), Theorem 3.4 trapezoid time means."""
    saddle = _saddle(trace)
    C = _start_constant(trace.xs[0], trace.lams[0], saddle.x_star, saddle.lambda_star,
                        trace.config.s)
    # squaring the temporary lets numpy reuse its buffer: one (n, d) array less
    return np.sum((xbar - saddle.x_star) ** 2, axis=-1) - C / (mu * t), C


def check_strong_avg_theorem_4_4(trace):
    """Printed strong-average bound ||xbar_{N+1} - x*||^2 <= C/(mu s (N+1)).

    The literal reading averages x_0..x_{N+1}; the shifted reading (what the
    telescoped derivation yields) averages x_1..x_{N+1}. Both slacks are
    recorded; pass/fail follows the literal printed bound. Raises ParameterError
    unless f is strongly convex.
    """
    mu = strong_convexity_modulus(trace.spec)
    s, xs = trace.config.s, trace.xs
    n = np.arange(1, xs.shape[0])
    lit = np.cumsum(xs, axis=0)[1:]
    lit /= (n + 1).reshape(-1, 1)  # mean of x_0..x_{N+1}, divided in place
    slacks, C = _strong_gap(lit, trace, mu, s * n)
    del lit  # one (n, d) array fewer while the shifted means are built
    shifted, _ = _strong_gap(_prefix_means(xs), trace, mu, s * n)
    return [_entry("theorem_4_4_strong_avg", trace, slacks, C=C, mu=mu,
                   worst_slack_shifted=float(np.max(shifted)))]


def check_ne_telescoping(trace):
    """Telescoped numerical error: sum_{k<=N} NE(k) <= E(0) for every prefix."""
    e0 = _lyapunov(trace)[0]
    slacks = np.cumsum(trace.scalars["ne"][:-1]) - e0
    return [_entry("ne_telescoping", trace, slacks, E0=e0)]


def check_ne_monotone_theorem_5(trace):
    """NE monotonicity, the last-iterate rate bound, and the supporting triple inequality."""
    C = _rate_constant(trace)
    if len(trace) < 3:
        raise ParameterError("NE monotonicity needs a trace of length >= 3")
    spec, s = trace.spec, trace.config.s
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    mono = _entry("theorem_5_1_ne_monotone", trace, np.diff(trace.scalars["ne"][:-1]))

    u = _u_series(trace)
    n = np.arange(1, u.size + 1)
    last = _entry("theorem_5_1_last_iterate", trace, u - C / n, C=C)

    # triple inequality: <G ddy, F dx_{k+2}> >= s^2 <dlam_{k+1}, dlam_{k+1} - dlam_k>
    gdy = spec.G_sign * (ys[1:] - ys[:-1])
    fdx = spec.F_op.dot(xs[1:] - xs[:-1])
    dl = ls[1:] - ls[:-1]
    lhs = np.sum((gdy[1:] - gdy[:-1]) * fdx[1:], axis=1)
    rhs = s * s * np.sum(dl[1:] * (dl[1:] - dl[:-1]), axis=1)
    triple = _entry("supporting_triple_inequality", trace, rhs - lhs)
    return [mono, last, triple]


def check_general_rates_theorems_6(trace):
    """x-difference rate bounds and extended Lyapunov/NE monotonicity (r-proximal runs),
    at the r the run stepped with."""
    saddle = _saddle(trace)
    if trace.config.variant != "general":
        raise ParameterError("general-rate certificates require an r-proximal trace")
    spec, s, r = trace.spec, trace.config.s, trace.r
    if not r > spec.FtF_norm:
        raise ParameterError("r must exceed the spectral norm of F^T F")
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    dx0 = xs[0] - saddle.x_star
    C = r * float(dx0 @ dx0) + _rate_constant(trace)
    dxsq = np.sum(np.diff(xs, axis=0) ** 2, axis=1)
    bound = C / (np.arange(1, dxsq.size + 1) * (r - spec.FtF_norm))
    e61 = _entry("theorem_6_1_x_diff_rate", trace, _prefix_slacks(dxsq, bound), C=C,
                 FtF_norm=spec.FtF_norm)
    e62 = _entry("theorem_6_2_x_diff_last", trace, dxsq - bound, C=C, FtF_norm=spec.FtF_norm)

    ext_ne = _extended_energy(xs[1:], ys[1:], ls[1:], xs[:-1], ys[:-1], ls[:-1], spec, s, r)
    mono_ne = _entry("theorem_6_extended_ne_monotone", trace, np.diff(ext_ne))

    e = _extended_energy(xs, ys, ls, saddle.x_star, saddle.y_star, saddle.lambda_star,
                         spec, s, r)
    mono_e = _entry("theorem_6_extended_lyapunov_monotone", trace, np.diff(e), E0=e[0])
    return [e61, e62, mono_ne, mono_e]


# ---------------------------------------------------------------------------
# continuous certificates: the discrete kernels read at elapsed time t. A time-mean
# check puts node 0's slack, -inf (every bound is infinite at t = 0), before those of
# nodes 1.., so that its worst_index is a node index


def _time_means(trace, *series):
    """Trapezoid time means of each (n, d) series over [0, t_j] at every node j >= 1,
    one row per node, and those t_j: the counterpart of _prefix_means."""
    t = trace.axis[1:] - trace.axis[0]
    half_dt = 0.5 * np.diff(trace.axis).reshape(-1, 1)
    means = [np.cumsum(half_dt * (v[1:] + v[:-1]), axis=0) / t.reshape(-1, 1)
             for v in series]
    return means, t


def _ydot(trace):
    """dY/dt at every node: central differences (Y_{j+1} - Y_{j-1})/(t_{j+1} - t_{j-1})
    inside, one-sided at the two ends."""
    j = np.arange(len(trace))
    lo, hi = np.maximum(j - 1, 0), np.minimum(j + 1, j[-1])
    return (trace.ys[hi] - trace.ys[lo]) / (trace.axis[hi] - trace.axis[lo]).reshape(-1, 1)


def check_theorem_3_3_monotone(trace):
    """Continuous Lyapunov (saddle reference) nonincreasing along the trajectory."""
    e = _lyapunov(trace)
    return [_entry("theorem_3_3_lyapunov_monotone", trace, np.diff(e), E0=e[0])]


def check_theorem_3_2_weak(trace):
    """Time-average weak gap against C/(2t) at every node: the Theorem 4.2 kernel fed
    trapezoid time means, with the multiplier Lam - G dY/dt (_ydot), at elapsed time t,
    at the probes of Theorem 4.2 (_weak_probes)."""
    mult = trace.lams - trace.spec.G_sign * _ydot(trace)
    (xbar, ybar, mbar), t = _time_means(trace, trace.xs, trace.ys, mult)
    slacks, consts = _weak_gap(trace, _weak_probes(trace), xbar, ybar, mbar, t)
    return [_entry("theorem_3_2_weak_rate", trace, np.r_[-np.inf, slacks], **consts)]


def check_continuous_strong_avg(trace):
    """Strong time-average bound ||Xbar - x*||^2 <= C/(mu t) at every node: the
    Theorem 4.4 kernel fed trapezoid time means at elapsed time t. Raises
    ParameterError unless f is strongly convex."""
    mu = strong_convexity_modulus(trace.spec)
    (xbar,), t = _time_means(trace, trace.xs)
    slacks, C = _strong_gap(xbar, trace, mu, t)
    return [_entry("theorem_3_4_strong_avg", trace, np.r_[-np.inf, slacks], C=C, mu=mu)]


# ---------------------------------------------------------------------------
# bundles


def _bundle(trace, checks, strong_avg=None):
    """Every entry of checks, in order, then those of strong_avg unless its gate refuses
    a not strongly convex f. The bundles pass their checks in at each call, so the
    module's current checks run, wrapped ones included. Each check refuses a trace run
    without a saddle."""
    entries = []
    for check in checks:
        entries += check(trace)
    if strong_avg is not None:
        try:
            entries += strong_avg(trace)
        except ParameterError:
            pass  # the strong-average bound needs a strongly convex f
    return CertificateReport(entries)


def certify_standard(trace):
    """Full certificate bundle for a standard-ADMM trace; Theorem 4.4 joins it when f
    is strongly convex."""
    return _bundle(trace, (
        check_convergence1, check_lyapunov_monotone, check_lemma_iterative_inequality,
        check_rate_theorem_4_3, check_weak_rate_theorem_4_2, check_ne_telescoping,
        check_ne_monotone_theorem_5), check_strong_avg_theorem_4_4)


def certify_general(trace):
    """Certificate bundle for an r-proximal trace."""
    return _bundle(trace, (check_general_rates_theorems_6,))


def certify_continuous(trace):
    """Certificate bundle for a high-resolution trace; Theorem 3.4 joins it when f is
    strongly convex."""
    return _bundle(trace, (check_theorem_3_3_monotone, check_theorem_3_2_weak),
                   check_continuous_strong_avg)
