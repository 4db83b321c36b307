"""Exact solve of the offline tracking relaxation, in O(n): the test oracle
of offline._solve_lp.

The relaxation is the LP offline_dispatch solves first: minimise
sum |C r[k] - p_hes[k]| over the generator, load and battery powers, with
the charge/discharge complementarity dropped, so one step may charge and
discharge at once. Its one state is the SoC e, and its cost-to-go

    G_n(e) = 0,    G_k(e) = min over d of g_k(d) + G_{k+1}(e + d),

on [soc_min, soc_max] is convex and piecewise linear. The step cost g_k(d)
of a SoC change d is dist(t_k, [b_min(d) - load.p_max, b_max(d) +
gen.p_max]), t_k = C r[k], where [b_min(d), b_max(d)] is the range of
p_discharge + p_charge over the (p_discharge, p_charge) pairs within the
battery's rating that change the SoC by d, overlap allowed. b_max is
concave, b_min convex, so g_k is convex. G_k is the infimal convolution of
G_{k+1} with g_k reflected (Rockafellar, Convex Analysis, 1970, section 5):
the segments of both, merged in slope order, and then cut to the envelope.
Every slope lies in {0, +-eta_d/alpha, +-1/(alpha eta_c)}, alpha =
dt / energy_capacity, and each is taken from that set rather than from a
difference of values, so equal slopes merge exactly and no G_k has more
than five pieces.

The trace is recovered forward from soc_init. At SoC e the optimal changes
d form an interval, g_k + G_{k+1}(e + .) being convex; its point nearest to
the change the priority rule makes from e is taken, and realised with the
largest battery output that attains g_k there, clip(t_k + load.p_max,
b_min, b_max), which is the least overlap. Generator and load take the
rest, split as offline._assemble_trace splits them. Where the closed form
holds, the rule's step is optimal at every step, so the trace is the rule's
up to rounding. The overlap is least at each step, not over the window:
where the rule lets the SoC climb, the trace may burn energy at the ceiling
although an optimum without overlap exists.

Nothing under src/ imports this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np

from hes_regkit.controller import DispatchTrace, _check_inputs, _headroom
from hes_regkit.model import HesConfig, soc_change
from hes_regkit.offline import _assemble_trace, _check_steps
from hes_regkit.signals import RegSignal


class Pwl(NamedTuple):
    """A convex piecewise-linear function: its knots, ascending, its value
    at the first, and the slope of each segment between two knots."""

    knots: list[float]
    f0: float
    slopes: list[float]


class Relaxation(NamedTuple):
    """The relaxation's optimum G_0(soc_init), a trace that attains it, and
    the cost-to-go G_0 .. G_n."""

    value: float
    trace: DispatchTrace
    cost_to_go: list[Pwl]


class _Battery:
    """The (p_discharge, p_charge) pairs of one step, by SoC change d.

    With u = d / alpha, a pair (p, -q), p, q in [0, p_max], changes the SoC
    by d when eta_c q - p / eta_d = u. Along that line p + (-q) falls as q
    grows, so b_max(d) is the pair without overlap and b_min(d) the one with
    the most overlap: p = p_max for d <= d_full and q = p_max beyond it. At
    d_full both are p_max, and b_min is 0.
    """

    def __init__(self, cfg: HesConfig):
        batt = cfg.batt
        self.p = batt.p_max
        self.eta_c, self.eta_d = batt.eta_c, batt.eta_d
        self.alpha = cfg.dt / batt.energy_capacity
        self.d_lo = -self.alpha * self.p / self.eta_d  # full discharge
        self.d_hi = self.alpha * self.p * self.eta_c  # full charge
        self.d_full = self.alpha * self.p * (self.eta_c - 1.0 / self.eta_d)
        self.s_d = self.eta_d / self.alpha  # |slope| of b_max for d < 0
        self.s_c = 1.0 / (self.alpha * self.eta_c)  # |slope| of b_max for d > 0

    def b_max(self, d: float) -> float:
        u = d / self.alpha
        return -self.eta_d * u if d <= 0.0 else -u / self.eta_c

    def b_min(self, d: float) -> float:
        u = d / self.alpha
        if d <= self.d_full:
            return self.p - (u + self.p / self.eta_d) / self.eta_c
        return self.eta_d * (self.eta_c * self.p - u) - self.p

    def where_b_max(self, y: float) -> float:
        """The d at which b_max(d) = y, for y in [-p_max, p_max]."""
        return -self.alpha * y / self.eta_d if y >= 0.0 else -self.alpha * self.eta_c * y

    def where_b_min(self, y: float) -> float:
        """The d at which b_min(d) = y, for y in [-p_max, p_max]."""
        if y >= 0.0:
            return self.alpha * (self.eta_c * (self.p - y) - self.p / self.eta_d)
        return self.alpha * (self.eta_c * self.p - (self.p + y) / self.eta_d)

    def realise(self, d: float, b: float) -> tuple[float, float]:
        """(p_discharge, p_charge) with SoC change d and output b, for b in
        [b_min(d), b_max(d)]: from the pair without overlap, q grows by x
        and p by eta_d eta_c x, which keeps d and lowers b by
        (1 - eta_d eta_c) x."""
        u = d / self.alpha
        p, q = (-self.eta_d * u, 0.0) if d <= 0.0 else (0.0, u / self.eta_c)
        loss = 1.0 - self.eta_d * self.eta_c
        x = (self.b_max(d) - b) / loss if loss > 0.0 and b < self.b_max(d) else 0.0
        p = min(max(p + self.eta_d * self.eta_c * x, 0.0), self.p)
        q = min(max(q + x, 0.0), self.p)
        return p, -q


def _step_cost(bat: _Battery, t: float, gen_max: float, load_max: float) -> Pwl:
    """g(d) = max(0, b_min(d) - load_max - t, t - gen_max - b_max(d)) on
    [d_lo, d_hi]. The knots are the knots of b_min and b_max and where each
    term crosses 0; each segment's slope is that of its active term."""
    knots = {bat.d_lo, bat.d_full, 0.0, bat.d_hi}
    if -bat.p < t + load_max < bat.p:
        knots.add(bat.where_b_min(t + load_max))
    if -bat.p < t - gen_max < bat.p:
        knots.add(bat.where_b_max(t - gen_max))
    knots = sorted(x for x in knots if bat.d_lo <= x <= bat.d_hi)
    slopes = []
    for a, b in zip(knots, knots[1:]):
        m = 0.5 * (a + b)
        if bat.b_min(m) - load_max > t:
            slopes.append(-bat.s_c if m < bat.d_full else -bat.s_d)
        elif t > bat.b_max(m) + gen_max:
            slopes.append(bat.s_d if m < 0.0 else bat.s_c)
        else:
            slopes.append(0.0)
    # at full discharge b_min = b_max = p_max
    return Pwl(knots, max(0.0, bat.p - load_max - t, t - gen_max - bat.p), slopes)


def _at(f: Pwl, x: float) -> float:
    """f(x), x within f's domain."""
    value = f.f0
    for a, b, s in zip(f.knots, f.knots[1:], f.slopes):
        if x <= a:
            break
        value += s * (min(x, b) - a)
    return value


def _slope_at(f: Pwl, x: float) -> float:
    """The slope of f's segment that holds x, its first or last outside."""
    return f.slopes[bisect_right(f.knots, x, 1, len(f.slopes)) - 1]


def _convolve(f: Pwl, h: Pwl) -> Pwl:
    """The infimal convolution x -> min over y of f(y) + h(x - y): its
    domain is the sum of the two, and its segments are both sets of
    segments in slope order, equal slopes merged."""
    lengths: dict[float, float] = {}
    for g in (f, h):
        for a, b, s in zip(g.knots, g.knots[1:], g.slopes):
            lengths[s] = lengths.get(s, 0.0) + (b - a)
    slopes = sorted(lengths)
    knots = [f.knots[0] + h.knots[0]]
    for s in slopes:
        knots.append(knots[-1] + lengths[s])
    return Pwl(knots, f.f0 + h.f0, slopes)


def _restrict(f: Pwl, lo: float, hi: float) -> Pwl:
    """f on [lo, hi], which lies within f's domain."""
    first = bisect_right(f.knots, lo) - 1
    last = bisect_left(f.knots, hi) - 1
    knots = [lo, *f.knots[first + 1 : last + 1], hi]
    return Pwl(knots, _at(f, lo), f.slopes[first : last + 1])


def _argmin(g: Pwl, f: Pwl, e: float, lo: float, hi: float) -> tuple[float, float]:
    """The interval of d in [lo, hi] on which g(d) + f(e + d) is least,
    from the signs of its slopes between the knots of both."""
    inner = [x for x in g.knots if lo < x < hi]
    inner += [x - e for x in f.knots if lo < x - e < hi]
    points = sorted({lo, hi, *inner})
    slopes = [
        _slope_at(g, m) + _slope_at(f, e + m)
        for m in (0.5 * (a + b) for a, b in zip(points, points[1:]))
    ]
    return points[sum(s < 0.0 for s in slopes)], points[len(slopes) - sum(s > 0.0 for s in slopes)]


def _rule_change(cfg: HesConfig, t: float, e: float) -> float:
    """The SoC change the priority rule makes at SoC e for target t."""
    gen_max, load_max = cfg.gen.p_max, cfg.load.p_max
    resid = t - min(max(t, 0.0), gen_max) + min(max(-t, 0.0), load_max)
    d_max, c_max = (float(h) for h in _headroom(cfg, e))
    p_d = max(min(resid, d_max), 0.0)
    p_c = min(max(resid, c_max), 0.0)
    return soc_change(cfg.batt, p_c, p_d, cfg.dt)


def solve_relaxation(cfg: HesConfig, c: float, sig: RegSignal) -> Relaxation:
    """The relaxation's optimum, and the trace the tie-break recovers."""
    _check_inputs(cfg, c, sig.dt)
    _check_steps(sig)
    batt = cfg.batt
    gen_max, load_max = cfg.gen.p_max, cfg.load.p_max
    lo, hi = batt.soc_min, batt.soc_max
    bat = _Battery(cfg)
    target = c * sig.samples
    n = sig.n

    # backward: G_k from G_{k+1}, with g_k reflected, h(x) = g_k(-x)
    costs = [_step_cost(bat, t, gen_max, load_max) for t in target.tolist()]
    cost_to_go = [Pwl([lo, hi], 0.0, [0.0])] * (n + 1)
    for k in range(n - 1, -1, -1):
        g = costs[k]
        h = Pwl([-x for x in reversed(g.knots)], _at(g, bat.d_hi), [-s for s in reversed(g.slopes)])
        cost_to_go[k] = _restrict(_convolve(cost_to_go[k + 1], h), lo, hi)

    # forward: at each step the point of the argmin interval nearest the
    # rule's change, and the least overlap that attains g_k there
    p_discharge = np.empty(n)
    p_charge = np.empty(n)
    net_gl = np.empty(n)
    soc = np.empty(n + 1)
    e = soc[0] = batt.soc_init
    for k, t in enumerate(target.tolist()):
        g, nxt = costs[k], cost_to_go[k + 1]
        left, right = _argmin(g, nxt, e, max(bat.d_lo, lo - e), min(bat.d_hi, hi - e))
        d = min(max(_rule_change(cfg, t, e), left), right)
        b = min(max(t + load_max, bat.b_min(d)), bat.b_max(d))
        p_discharge[k], p_charge[k] = bat.realise(d, b)
        net_gl[k] = min(max(t - b, -load_max), gen_max)
        e = soc[k + 1] = e + soc_change(batt, p_charge[k], p_discharge[k], cfg.dt)

    trace = _assemble_trace(
        cfg, target, np.maximum(net_gl, 0.0), np.maximum(-net_gl, 0.0),
        p_discharge, p_charge, soc,
    )
    return Relaxation(_at(cost_to_go[0], batt.soc_init), trace, cost_to_go)
