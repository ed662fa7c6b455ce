"""Certificate checks for every per-iteration inequality and rate bound.

Each check evaluates the left- and right-hand side of one proved inequality
at every index (or every prefix) of a recorded trace, in one array pass over
its rows, and reports the worst slack lhs - rhs. A check passes when the
worst slack stays below its tolerance: 1e-9 absolute for per-step
inequalities and rate bounds, 1e-12 for monotonicity deltas.

Every check and bundle is called as (trace, saddle): the problem, the step s
and the r of an r-proximal run come from the trace, and the NE checks read
its ne column, the series solver.run computed once.
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


def _entry(name, slacks, tolerance, constants=None):
    slacks = np.asarray(slacks, dtype=float)
    if slacks.size == 0:
        return CertificateEntry(name, True, float("-inf"), -1, tolerance, constants or {})
    worst = int(np.argmax(slacks))
    return CertificateEntry(
        name, bool(slacks[worst] <= tolerance), float(slacks[worst]), worst,
        tolerance, constants or {},
    )


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
    extra = (r * _sq(dx) - _sq(dx @ spec.F.T)) / (2.0 * s)
    return extra + _energy(y, lam, ref_y, ref_lam, s)


def _start_constant(y0, lam0, ref_y, ref_lam, spec, s):
    """C = ||G(y0 - ref_y)||^2 + s^2 ||lam0 - ref_lam||^2, the constant of every rate
    bound that starts from (y0, lam0); the weak probes measure lam from ref_lam = 0."""
    dy, dl = y0 - ref_y, lam0 - ref_lam
    return float(dy @ dy) + s * s * float(dl @ dl)


def _rate_constant(trace, saddle):
    return _start_constant(trace.ys[0], trace.lams[0], saddle.y_star, saddle.lambda_star,
                           trace.spec, trace.config.s)


def _lyapunov(trace, saddle):
    """E(k) with the saddle as reference, for every row of the trace."""
    return _energy(trace.ys, trace.lams, saddle.y_star, saddle.lambda_star, trace.config.s)


def _u_series(trace):
    """||G(y_{k+1}-y_k)||^2 + s^2 ||lam_{k+1}-lam_k||^2, i.e. 2s * NE(k) from the ne column."""
    return 2.0 * trace.config.s * trace.scalars["ne"][:-1]


def _prefix_slacks(u, bound):
    """The worse of avg(u[:N+1]) - bound[N] and min(u[:N+1]) - bound[N], for each prefix N."""
    n = np.arange(1, u.size + 1)
    return np.maximum(np.cumsum(u) / n - bound, np.minimum.accumulate(u) - bound)


def canonical_probes(saddle, spec):
    """The two probe points used by the theorem derivations: (x*, y*, 0) and (x*, y*, lam*)."""
    zero = np.zeros(spec.m)
    return [
        (saddle.x_star, saddle.y_star, zero),
        (saddle.x_star, saddle.y_star, saddle.lambda_star),
    ]


def check_lemma_iterative_inequality(trace, saddle, probes=None):
    """Per-step Lyapunov difference inequality for arbitrary probe points."""
    spec, s = trace.spec, trace.config.s
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    ne = trace.scalars["ne"][:-1]
    fx, gy = spec.f.value(xs[1:]), spec.g.value(ys[1:])
    mult = ls[1:] - spec.G_sign * (ys[1:] - ys[:-1]) / s
    dev = (xs[1:] - saddle.x_star) @ spec.F.T + spec.G_sign * (ys[1:] - saddle.y_star)
    all_probes = canonical_probes(saddle, spec) + list(probes or [])
    slacks = np.full(len(trace) - 1, -np.inf)
    for px, py, plam in all_probes:
        px, py, plam = (np.asarray(v, dtype=float) for v in (px, py, plam))
        fp, gp = spec.f.value(px), spec.g.value(py)
        if not np.isfinite(fp) or not np.isfinite(gp):
            continue  # infinite probe value makes the inequality vacuous
        disp = spec.F @ (px - saddle.x_star) + spec.G_sign * (py - saddle.y_star)
        lhs = np.diff(_energy(ys, ls, py, plam, s))
        rhs = fp - fx + gp - gy + mult @ disp - dev @ plam - ne
        slacks = np.maximum(slacks, lhs - rhs)
    return _entry("lemma_iterative_inequality", slacks, TOL_STEP,
                  {"probes": len(all_probes), "s": s})


def check_convergence1(trace, saddle):
    """E(k+1) - E(k) + NE(k) <= 0 with the saddle as reference (energy decay)."""
    e = _lyapunov(trace, saddle)
    slacks = np.diff(e) + trace.scalars["ne"][:-1]
    return _entry("energy_decay_with_ne", slacks, TOL_STEP, {"E0": e[0], "s": trace.config.s})


def check_lyapunov_monotone(trace, saddle):
    e = _lyapunov(trace, saddle)
    return _entry("lyapunov_monotone", np.diff(e), TOL_STEP, {"E0": e[0], "s": trace.config.s})


def check_rate_theorem_4_3(trace, saddle):
    """Average and min of ||G dy||^2 + s^2 ||dlam||^2 over each prefix, against C/(N+1)."""
    u = _u_series(trace)
    C = _rate_constant(trace, saddle)
    slacks = _prefix_slacks(u, C / np.arange(1, u.size + 1))
    return _entry("theorem_4_3_rate", slacks, TOL_RATE, {"C": C, "s": trace.config.s})


def _prefix_means(arr):
    """Means of arr[1..N+1] for each prefix N = 0..len-2 (the derivation indexing)."""
    means = np.cumsum(arr[1:], axis=0)
    means /= np.arange(1, arr.shape[0]).reshape(-1, 1)
    return means


def default_weak_probes(saddle, spec):
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


def check_weak_rate_theorem_4_2(trace, saddle, probes=None):
    """Duality-gap-like quantity at averaged iterates, bounded by C_probe/(2s(N+1)).

    Averages run over iterates 1..N+1, matching the telescoped derivation;
    the averaged-difference multiplier term telescopes to
    G(y_{N+1} - y_0)/(s(N+1)).
    """
    spec, s = trace.spec, trace.config.s
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    t = s * np.arange(1, len(trace))
    mbar = _prefix_means(ls) - spec.G_sign * (ys[1:] - ys[0]) / t.reshape(-1, 1)
    probes = list(probes) if probes is not None else default_weak_probes(saddle, spec)
    slacks, consts = _weak_gap(trace, saddle, probes, _prefix_means(xs), _prefix_means(ys),
                               mbar, t)
    return _entry("theorem_4_2_weak_rate", slacks, TOL_RATE, {"s": s, **consts})


def _weak_gap(trace, saddle, probes, xbar, ybar, mbar, t):
    """Per row of averages (xbar, ybar, mbar) at elapsed time t, the max over probes
    p = (px, py) of f(xbar) - f(px) + g(ybar) - g(py) - <mbar, F(px - x*) + G(py - y*)>
    - C_p/(2t), C_p the start constant of the trace from (py, 0); and the constants
    C_probe<i>. Theorem 4.2 feeds prefix means at t = s(N+1), Theorem 3.2 trapezoid
    time means; a probe where f or g is infinite makes the bound vacuous and is skipped."""
    spec, s = trace.spec, trace.config.s
    fx, gy = spec.f.value(xbar), spec.g.value(ybar)
    slacks = np.full(len(t), -np.inf)
    consts = {}
    for i, (px, py) in enumerate(probes):
        px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
        fp, gp = spec.f.value(px), spec.g.value(py)
        if not np.isfinite(fp) or not np.isfinite(gp):
            continue
        C = consts[f"C_probe{i}"] = _start_constant(trace.ys[0], trace.lams[0], py, 0.0, spec, s)
        disp = spec.F @ (px - saddle.x_star) + spec.G_sign * (py - saddle.y_star)
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


def _strong_gap(xbar, trace, saddle, mu, t):
    """||xbar - x*||^2 - C/(mu t) row by row, and C = ||x_0 - x*||^2 + s^2 ||lam_0 - lam*||^2.
    Theorem 4.4 feeds means of iterates at t = s(N+1), Theorem 3.4 trapezoid time means."""
    s = trace.config.s
    dx0 = trace.xs[0] - saddle.x_star
    dl0 = trace.lams[0] - saddle.lambda_star
    C = float(dx0 @ dx0) + s * s * float(dl0 @ dl0)
    # squaring the temporary lets numpy reuse its buffer: one (n, d) array less
    return np.sum((xbar - saddle.x_star) ** 2, axis=-1) - C / (mu * t), C


def check_strong_avg_theorem_4_4(trace, saddle):
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
    slacks, C = _strong_gap(lit, trace, saddle, mu, s * n)
    del lit  # one (n, d) array fewer while the shifted means are built
    shifted, _ = _strong_gap(_prefix_means(xs), trace, saddle, mu, s * n)
    return _entry("theorem_4_4_strong_avg", slacks, TOL_RATE,
                  {"C": C, "mu": mu, "s": s, "worst_slack_shifted": float(np.max(shifted))})


def check_ne_telescoping(trace, saddle):
    """Telescoped numerical error: sum_{k<=N} NE(k) <= E(0) for every prefix."""
    s = trace.config.s
    e0 = _energy(trace.ys[0], trace.lams[0], saddle.y_star, saddle.lambda_star, s)
    slacks = np.cumsum(trace.scalars["ne"][:-1]) - e0
    return _entry("ne_telescoping", slacks, TOL_STEP, {"E0": e0, "s": s})


def check_ne_monotone_theorem_5(trace, saddle):
    """NE monotonicity, the last-iterate rate bound, and the supporting triple inequality."""
    if len(trace) < 3:
        raise ParameterError("NE monotonicity needs a trace of length >= 3")
    spec, s = trace.spec, trace.config.s
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    mono = _entry("theorem_5_1_ne_monotone", np.diff(trace.scalars["ne"][:-1]), TOL_MONO,
                  {"s": s})

    u = _u_series(trace)
    C = _rate_constant(trace, saddle)
    n = np.arange(1, u.size + 1)
    last = _entry("theorem_5_1_last_iterate", u - C / n, TOL_RATE, {"C": C, "s": s})

    # triple inequality: <G ddy, F dx_{k+2}> >= s^2 <dlam_{k+1}, dlam_{k+1} - dlam_k>
    gdy = spec.G_sign * (ys[1:] - ys[:-1])
    fdx = (xs[1:] - xs[:-1]) @ spec.F.T
    dl = ls[1:] - ls[:-1]
    lhs = np.sum((gdy[1:] - gdy[:-1]) * fdx[1:], axis=1)
    rhs = s * s * np.sum(dl[1:] * (dl[1:] - dl[:-1]), axis=1)
    triple = _entry("supporting_triple_inequality", rhs - lhs, TOL_STEP, {"s": s})
    return [mono, last, triple]


def check_general_rates_theorems_6(trace, saddle):
    """x-difference rate bounds and extended Lyapunov/NE monotonicity (r-proximal runs),
    at the r the run stepped with."""
    if trace.config.variant != "general":
        raise ParameterError("general-rate certificates require an r-proximal trace")
    spec, s, r = trace.spec, trace.config.s, trace.r
    if not r > spec.FtF_norm:
        raise ParameterError("r must exceed the spectral norm of F^T F")
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    dx0 = xs[0] - saddle.x_star
    C = r * float(dx0 @ dx0) + _rate_constant(trace, saddle)
    dxsq = np.sum(np.diff(xs, axis=0) ** 2, axis=1)
    bound = C / (np.arange(1, dxsq.size + 1) * (r - spec.FtF_norm))
    e61 = _entry("theorem_6_1_x_diff_rate", _prefix_slacks(dxsq, bound), TOL_RATE,
                 {"C": C, "r": r, "s": s, "FtF_norm": spec.FtF_norm})
    e62 = _entry("theorem_6_2_x_diff_last", dxsq - bound, TOL_RATE,
                 {"C": C, "r": r, "s": s, "FtF_norm": spec.FtF_norm})

    ext_ne = _extended_energy(xs[1:], ys[1:], ls[1:], xs[:-1], ys[:-1], ls[:-1], spec, s, r)
    mono_ne = _entry("theorem_6_extended_ne_monotone", np.diff(ext_ne), TOL_MONO,
                     {"r": r, "s": s})

    e = _extended_energy(xs, ys, ls, saddle.x_star, saddle.y_star, saddle.lambda_star,
                         spec, s, r)
    mono_e = _entry("theorem_6_extended_lyapunov_monotone", np.diff(e), TOL_STEP,
                    {"E0": e[0], "r": r, "s": s})
    return [e61, e62, mono_ne, mono_e]


def step_inclusion_residuals(trace):
    """Subgradient-membership residuals of the defining optimality inclusions per step,
    of the r-proximal x-update when the run stepped with an r. Reads no saddle."""
    spec, s, r = trace.spec, trace.config.s, trace.r
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    target = spec.G_sign * ((ys[1:] - ys[:-1]) @ spec.F) / s - ls[1:] @ spec.F
    if r is not None:
        dx = np.diff(xs, axis=0)
        target = target - (r * dx - dx @ spec.FtF.T) / s
    return (spec.f.subgrad_distance(target, xs[1:]),
            spec.g.subgrad_distance(-(spec.G_sign * ls[1:]), ys[1:]))


def certify_standard(trace, saddle):
    """Full certificate bundle for a standard-ADMM trace; Theorem 4.4 joins it when f
    is strongly convex. The check tuple is built at each call, so the module's
    current checks run, wrapped ones included."""
    entries = [check(trace, saddle) for check in (
        check_convergence1, check_lyapunov_monotone, check_lemma_iterative_inequality,
        check_rate_theorem_4_3, check_weak_rate_theorem_4_2, check_ne_telescoping)]
    entries += check_ne_monotone_theorem_5(trace, saddle)
    try:
        entries.append(check_strong_avg_theorem_4_4(trace, saddle))
    except ParameterError:
        pass  # Theorem 4.4 needs a strongly convex f
    return CertificateReport(entries)


def certify_general(trace, saddle):
    """Certificate bundle for an r-proximal trace."""
    return CertificateReport(check_general_rates_theorems_6(trace, saddle))
