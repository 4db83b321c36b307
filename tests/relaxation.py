"""Exact solve of the offline tracking relaxation, in O(n): the test oracle
of offline._solve_lp.

The relaxation is the LP offline_dispatch solves first: minimise
sum |C r[k] - p_hes[k]| over the generator, load and battery powers, with
the charge/discharge complementarity dropped, so one step may charge and
discharge at once. Among its optima this module takes one with the least
battery throughput, sum (p_discharge - p_charge): for a fixed SoC change and
net output, each unit of overlap adds to both powers, so throughput is the
convex stand-in for overlap. Every value and slope below is a pair (error,
throughput), and pairs compare lexicographically, as Python tuples do.

Its one state is the SoC e, and its cost-to-go

    G_n(e) = (0, 0),    G_k(e) = min over d of g_k(d) + G_{k+1}(e + d),

on [soc_min, soc_max] is convex and piecewise linear. The step cost g_k(d)
of a SoC change d is least at the battery output b = clip(t_k + load.p_max,
b_min(d), b_max(d)), t_k = C r[k]: the largest output that tracks as well as
any, and so the least overlap. Its error is dist(t_k, [b - load.p_max, b +
gen.p_max]) and its throughput b + 2q, q the charge that realises b (see
_Battery). [b_min(d), b_max(d)] is the range of p_discharge + p_charge over
the (p_discharge, p_charge) pairs within the battery's rating that change the
SoC by d, overlap allowed; b_max is concave, b_min convex. G_k is the infimal
convolution of G_{k+1} with g_k reflected (Rockafellar, Convex Analysis,
1970, section 5): the segments of both, merged in slope order, and then cut
to the envelope. Each slope is taken from a fixed set of pairs rather than
from a difference of values, so equal slopes merge exactly; see
test_relaxation.py for the piece bound that follows.

The trace is recovered forward from soc_init. At SoC e the optimal changes
d form an interval, g_k + G_{k+1}(e + .) being convex; its point nearest to
the change the priority rule makes from e is taken, and realised at
clip(t_k + load.p_max, b_min, b_max). Generator and load take the rest,
split as offline._assemble_trace splits them. Where the closed form holds,
the rule's step is optimal at every step, so the trace is the rule's up to
rounding.

Where that output lies under b_max by no more than BURN_TOL_MW, the step is
realised at b_max instead, without overlap, at that much tracking error.
The lexicographic order prefers any error saved to any overlap, and so
burns energy at the SoC ceiling to save an error of rounding size (6e-10 MW
of overlap on a 2 000-step drift window).

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

# MW of tracking error a step may give up to realise its output without
# overlap: 11x the largest rounding-size gap measured (9.0e-11 MW, on the
# drift windows of seeds 0-20), and 7e7 under the least a true burn gave up
# (0.071 MW); see test_rounding_burns_sit_under_the_tolerance
BURN_TOL_MW = 1e-9

Pair = tuple[float, float]  # (error, throughput)


def _plus(a: Pair, b: Pair) -> Pair:
    return (a[0] + b[0], a[1] + b[1])


def _neg(a: Pair) -> Pair:
    return (-a[0], -a[1])


class Pwl(NamedTuple):
    """A convex piecewise-linear function: its knots, ascending, its value
    at the first, and the slope of each segment between two knots."""

    knots: list[float]
    f0: Pair
    slopes: list[Pair]


class Relaxation(NamedTuple):
    """The relaxation's optimum G_0(soc_init), as its error (the LP's
    objective) and the least throughput that attains it, a trace that
    attains both, and the cost-to-go G_0 .. G_n."""

    value: float
    throughput: float
    trace: DispatchTrace
    cost_to_go: list[Pwl]


class _Battery:
    """The (p_discharge, p_charge) pairs of one step, by SoC change d.

    With u = d / alpha, a pair (p, -q), p, q in [0, p_max], changes the SoC
    by d when eta_c q - p / eta_d = u. Along that line p + (-q) falls as q
    grows, so b_max(d) is the pair without overlap and b_min(d) the one with
    the most overlap: p = p_max for d <= d_full and q = p_max beyond it. At
    d_full both are p_max, and b_min is 0. At output b the charge is q =
    (u + b / eta_d) / (eta_c - 1 / eta_d), and the throughput p + q = b + 2q.
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
        self.loss = 1.0 - self.eta_d * self.eta_c
        # throughput slope at a fixed output; where nothing is lost b_min =
        # b_max, no step holds that output strictly inside, and it goes unused
        self.s_burn = -2.0 * self.eta_d / (self.alpha * self.loss) if self.loss > 0.0 else 0.0

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
        x = (self.b_max(d) - b) / self.loss if self.loss > 0.0 and b < self.b_max(d) else 0.0
        p = min(max(p + self.eta_d * self.eta_c * x, 0.0), self.p)
        q = min(max(q + x, 0.0), self.p)
        return p, -q


def _step_cost(bat: _Battery, t: float, gen_max: float, load_max: float) -> Pwl:
    """g(d) = (max(0, b - load_max - t, t - gen_max - b), b + 2q) at b =
    clip(t + load_max, b_min(d), b_max(d)), on [d_lo, d_hi]. The knots are
    the knots of b_min and b_max and where b moves from one bound to the
    other or the error crosses 0; each segment's slopes are those of its
    active terms."""
    knots = {bat.d_lo, bat.d_full, 0.0, bat.d_hi}
    if -bat.p < t + load_max < bat.p:
        knots.add(bat.where_b_min(t + load_max))
        knots.add(bat.where_b_max(t + load_max))
    if -bat.p < t - gen_max < bat.p:
        knots.add(bat.where_b_max(t - gen_max))
    knots = sorted(x for x in knots if bat.d_lo <= x <= bat.d_hi)
    # the throughput's slopes along b_min, either side of d_full: the pair
    # with the most overlap, which is the pair without when nothing is lost
    full = (bat.s_c, -bat.s_d) if bat.loss > 0.0 else (-bat.s_d, bat.s_c)
    slopes = []
    for a, b in zip(knots, knots[1:]):
        m = 0.5 * (a + b)
        if bat.b_min(m) - load_max > t:  # at b_min, too much output
            slopes.append((-bat.s_c, full[0]) if m < bat.d_full else (-bat.s_d, full[1]))
        elif t > bat.b_max(m) + gen_max:  # at b_max, too little
            slopes.append((bat.s_d, -bat.s_d) if m < 0.0 else (bat.s_c, bat.s_c))
        elif bat.b_max(m) > t + load_max:  # at t + load_max, with overlap
            slopes.append((0.0, bat.s_burn))
        else:  # at b_max, without overlap
            slopes.append((0.0, -bat.s_d) if m < 0.0 else (0.0, bat.s_c))
    # at full discharge b_min = b_max = p_max
    return Pwl(knots, (max(0.0, bat.p - load_max - t, t - gen_max - bat.p), bat.p), slopes)


def _at(f: Pwl, x: float) -> Pair:
    """f(x), x within f's domain."""
    err, thr = f.f0
    for a, b, (s_err, s_thr) in zip(f.knots, f.knots[1:], f.slopes):
        if x <= a:
            break
        err += s_err * (min(x, b) - a)
        thr += s_thr * (min(x, b) - a)
    return err, thr


def _slope_at(f: Pwl, x: float) -> Pair:
    """The slope of f's segment that holds x, its first or last outside."""
    return f.slopes[bisect_right(f.knots, x, 1, len(f.slopes)) - 1]


def _convolve(f: Pwl, h: Pwl) -> Pwl:
    """The infimal convolution x -> min over y of f(y) + h(x - y): its
    domain is the sum of the two, and its segments are both sets of
    segments in slope order, equal slopes merged."""
    lengths: dict[Pair, float] = {}
    for g in (f, h):
        for a, b, s in zip(g.knots, g.knots[1:], g.slopes):
            lengths[s] = lengths.get(s, 0.0) + (b - a)
    slopes = sorted(lengths)
    knots = [f.knots[0] + h.knots[0]]
    for s in slopes:
        knots.append(knots[-1] + lengths[s])
    return Pwl(knots, _plus(f.f0, h.f0), slopes)


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
        _plus(_slope_at(g, m), _slope_at(f, e + m))
        for m in (0.5 * (a + b) for a, b in zip(points, points[1:]))
    ]
    zero = (0.0, 0.0)
    return points[sum(s < zero for s in slopes)], points[len(slopes) - sum(s > zero for s in slopes)]


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
    cost_to_go = [Pwl([lo, hi], (0.0, 0.0), [(0.0, 0.0)])] * (n + 1)
    for k in range(n - 1, -1, -1):
        g = costs[k]
        h = Pwl([-x for x in reversed(g.knots)], _at(g, bat.d_hi), [_neg(s) for s in reversed(g.slopes)])
        cost_to_go[k] = _restrict(_convolve(cost_to_go[k + 1], h), lo, hi)

    # forward: at each step the point of the argmin interval nearest the
    # rule's change, realised at the largest output that attains g_k there
    p_discharge = np.empty(n)
    p_charge = np.empty(n)
    net_gl = np.empty(n)
    soc = np.empty(n + 1)
    e = soc[0] = batt.soc_init
    for k, t in enumerate(target.tolist()):
        g, nxt = costs[k], cost_to_go[k + 1]
        left, right = _argmin(g, nxt, e, max(bat.d_lo, lo - e), min(bat.d_hi, hi - e))
        d = min(max(_rule_change(cfg, t, e), left), right)
        b_max = bat.b_max(d)
        b = min(max(t + load_max, bat.b_min(d)), b_max)
        if b_max - b <= BURN_TOL_MW:
            b = b_max
        p_discharge[k], p_charge[k] = bat.realise(d, b)
        net_gl[k] = min(max(t - b, -load_max), gen_max)
        e = soc[k + 1] = e + soc_change(batt, p_charge[k], p_discharge[k], cfg.dt)

    trace = _assemble_trace(
        cfg, target, np.maximum(net_gl, 0.0), np.maximum(-net_gl, 0.0),
        p_discharge, p_charge, soc,
    )
    value, throughput = _at(cost_to_go[0], batt.soc_init)
    return Relaxation(value, throughput, trace, cost_to_go)
