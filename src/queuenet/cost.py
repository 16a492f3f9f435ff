"""Link performance functions with queue-dependent capacity.

A residual queue Q at a link entrance reduces the discharge capacity to
C(Q) = C_max - gamma*Q, 0 <= gamma < 1 (only below 1 does arrival rate y
above C_max have a steady queue, (y - C_max)/(1 - gamma)).  Generalized
link time is a polynomial running-time term evaluated against C(Q) plus an
explicit queuing-delay term

    t(v, Q) = t_f * (1 + beta * (v / C(Q))**n) + alpha * (Q / C(Q))**m.

`CostParams` holds its five parameters, and `PARAM_NAMES` their names.
Everything here prices links; nothing knows of paths, whose costs and
equilibrium merit `solver.py` sums over the path set.
`objective` is the Beckmann potential of the running time with the
exponent smoothed in the queue, n~ = n * phi**(-Q); `smoothed_link_time` is
its flow derivative.  At Q = 0 it is the classical Beckmann function,
minimised by the capacity-free user equilibrium; with queues it is neither
convex in the queues nor stationary at the queue-dependent equilibrium.
Only the benchmark's probe and tests read it.  No function can serve as an
exact potential for this model: `solver.merit` explains why.  Their
smoothing base phi (default e) is an argument, not a model parameter.

The slopes the solver's gradient-projection step divides by are
`_flow_part`'s flow slope and, on a queued link, `_queue_response_slope`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .net import Link

__all__ = [
    "CostParams",
    "gamma_of_flow",
    "capacity",
    "link_travel_time",
    "queuing_delay",
    "smoothed_link_time",
    "marginal_link_time",
    "objective",
]

ArrayLike = "float | np.ndarray"


@dataclass(frozen=True)
class CostParams:
    """Generalized-cost parameters; fields may be scalars or per-link arrays.

    alpha  weight of the queuing-delay term (hours at Q/C = 1)
    beta   running-time congestion coefficient
    m      queuing-delay exponent
    n      running-time exponent
    gamma  capacity loss per unit queue (dimensionless), 0 <= gamma < 1
    """

    alpha: float | np.ndarray = 0.5
    beta: float | np.ndarray = 0.5
    m: float | np.ndarray = 1.0
    n: float | np.ndarray = 4.0
    gamma: float | np.ndarray = 0.5

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for name in ("alpha", "beta", "gamma"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be >= 0")
        if np.any(np.asarray(self.gamma) >= 1):
            raise ValueError("gamma must be < 1")
        if np.any(np.asarray(self.m) <= 0) or np.any(np.asarray(self.n) <= 0):
            raise ValueError("m and n must be > 0")

    def replace(self, **kwargs) -> "CostParams":
        return replace(self, **kwargs)

    def for_links(self, links: Sequence["Link"]) -> "CostParams":
        """Expand to per-link arrays, applying any per-link overrides."""
        arrays = {
            name: np.full(len(links), getattr(self, name), float) for name in PARAM_NAMES
        }
        for i, link in enumerate(links):
            for name, value in link.overrides:
                arrays[name][i] = value
        return CostParams(**arrays)


#: config keys, link-table override columns and sweep parameters
PARAM_NAMES = tuple(f.name for f in fields(CostParams))


def gamma_of_flow(v: ArrayLike, c_max: ArrayLike, params: CostParams) -> np.ndarray:
    """Queue at which discharge capacity would equal the flow v.

    Solves C_max - gamma*Q = v for Q; infinite where gamma = 0 and v < C_max
    (a fixed-capacity link never chokes down to its inflow).
    """
    v = np.asarray(v, dtype=float)
    c_max = np.asarray(c_max, dtype=float)
    gamma = np.asarray(params.gamma, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(gamma > 0, (c_max - v) / np.where(gamma > 0, gamma, 1.0), np.inf)
    return np.where((gamma == 0) & (v >= c_max), 0.0, out)


def capacity(q: ArrayLike, c_max: ArrayLike, params: CostParams) -> np.ndarray:
    """Queue-dependent discharge capacity C(Q) = C_max - gamma*Q (> 0)."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("queue must be >= 0")
    c = np.asarray(c_max, dtype=float) - np.asarray(params.gamma, dtype=float) * q
    if np.any(c <= 0):
        raise ValueError("queue exhausts link capacity (C_max - gamma*Q <= 0)")
    return c


def queuing_delay(q: ArrayLike, c_max: ArrayLike, params: CostParams) -> np.ndarray:
    """Delay term alpha * (Q / C(Q))**m."""
    q = np.asarray(q, dtype=float)
    c = capacity(q, c_max, params)
    return np.asarray(params.alpha) * (q / c) ** np.asarray(params.m)


def _link_arrays(params: CostParams) -> tuple[np.ndarray, ...]:
    """The parameters as float arrays, in `PARAM_NAMES` (`_queue_part`) order."""
    return tuple(np.asarray(getattr(params, k), dtype=float) for k in PARAM_NAMES)


class _QueuePart(NamedTuple):
    """What a link's priced cost reads of its queue Q and its parameters:
    the terms that stay fixed while Q does."""

    q: np.ndarray
    c: np.ndarray  # C(Q) = C_max - gamma*Q
    t_f: np.ndarray
    beta: np.ndarray
    n: np.ndarray
    n_1: np.ndarray  # n - 1
    tbn: np.ndarray  # t_f * beta * n
    delay: np.ndarray  # alpha * (Q / C(Q))**m
    zero_slope: np.ndarray  # dt/dv at v = 0


def _queue_part(
    q: np.ndarray,
    t_f: np.ndarray,
    c_max: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    m: np.ndarray,
    n: np.ndarray,
    gamma: np.ndarray,
) -> _QueuePart:
    """The queue half of a link's priced cost, unvalidated: everything
    that depends on the queue Q alone (C(Q), the delay term, t_f*beta*n
    and the slope at v = 0).  The solver's GP passes hold the queues fixed
    while the flows move, so they compute it once per set of queues, over
    all links, and each level of OD groups reads its own links' slice."""
    c = c_max - gamma * q
    return _QueuePart(
        q, c, t_f, beta, n, n - 1.0, t_f * beta * n,
        alpha * (q / c) ** m,
        np.where(n == 1.0, t_f * beta / c, 0.0),
    )


def _flow_part(
    v: np.ndarray, qp: _QueuePart, system_optimum: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The flow half of a link's priced cost, at throughflows v: the link
    cost priced by path choice and its own flow slope.

    Returns (t, dt/dv) with t the generalized time, or for the system
    optimum the marginal time and its slope,
        (t + (v + Q) * t_v,  2 * t_v + (v + Q) * t_vv).
    Slopes whose power of v would be negative at v = 0 are flushed to 0
    there (to t_f * beta / C(Q) for n = 1).  At v = 0 the slope's discarded
    branch divides by zero (n < 1, or n < 2 for the system optimum's
    curvature), so callers run it with numpy's divide and invalid warnings
    off.
    """
    r = v / qp.c
    t = qp.t_f * (1.0 + qp.beta * r**qp.n) + qp.delay
    t_v = np.where(v > 0, qp.tbn * r**qp.n_1 / qp.c, qp.zero_slope)
    if not system_optimum:
        return t, t_v
    t_vv = np.where(v > 0, qp.tbn * qp.n_1 * r ** (qp.n - 2.0) / qp.c**2, 0.0)
    load = v + qp.q
    return t + load * t_v, 2.0 * t_v + load * t_vv


#: with m < 1 the queuing-delay slope (Q/C)^(m-1) grows without bound as
#: Q -> 0+; `_queue_response_slope` evaluates it at no less than this Q/C,
#: so a dissolving queue's rounding residue cannot freeze the steps through it
QUEUE_RATIO_FLOOR = 1e-6


def _queue_response_slope(
    qp: _QueuePart, alpha: np.ndarray, m: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """d(delay)/dy along the steady queue Q = (y - C_max)/(1 - gamma), the
    delay's response to a queued link's arrivals y, which the GP step adds
    to the flow slope there; 0 on a link without a queue.  Q/C is taken at
    >= QUEUE_RATIO_FLOOR.  Callers run it with numpy's divide and invalid
    warnings off."""
    q, c = qp.q, qp.c
    ratio = np.maximum(q / c, QUEUE_RATIO_FLOOR)
    slope = alpha * m * ratio ** (m - 1.0) * (c + gamma * q) / (c**2 * (1.0 - gamma))
    return np.where(q > 0, slope, 0.0)


def _checked_cost(
    v: ArrayLike,
    q: ArrayLike,
    t_f: ArrayLike,
    c_max: ArrayLike,
    params: CostParams,
    system_optimum: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The priced cost of `_flow_part` behind the `capacity` checks on the
    queue."""
    q = np.asarray(q, dtype=float)
    capacity(q, c_max, params)
    qp = _queue_part(
        q, np.asarray(t_f, dtype=float), np.asarray(c_max, dtype=float),
        *_link_arrays(params),
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        return _flow_part(np.asarray(v, dtype=float), qp, system_optimum)


def link_travel_time(
    v: ArrayLike, q: ArrayLike, t_f: ArrayLike, c_max: ArrayLike, params: CostParams
) -> np.ndarray:
    """Generalized link time: running time against C(Q) plus queuing delay."""
    return _checked_cost(v, q, t_f, c_max, params, False)[0]


def marginal_link_time(
    v: ArrayLike, q: ArrayLike, t_f: ArrayLike, c_max: ArrayLike, params: CostParams
) -> np.ndarray:
    """System-optimum marginal cost: t + (v + Q) * dt/dv."""
    return _checked_cost(v, q, t_f, c_max, params, True)[0]


def _smoothed_exponent(q: ArrayLike, params: CostParams, phi: ArrayLike) -> np.ndarray:
    """n~ = n * phi**(-Q), for a smoothing base phi that is finite and
    >= 1; hardware underflow flushes huge queues to n~ = 0."""
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi) & (phi >= 1)):
        raise ValueError("phi must be finite and >= 1")
    q = np.asarray(q, dtype=float)
    n = np.asarray(params.n, dtype=float)
    return n * np.exp(-q * np.log(phi))


def smoothed_link_time(
    v: ArrayLike, q: ArrayLike, t_f: ArrayLike, c_max: ArrayLike, params: CostParams,
    phi: ArrayLike = math.e,
) -> np.ndarray:
    """Running time with the queue-smoothed exponent, against C_max.

    This is the flow derivative of `objective` at the same smoothing base
    phi; at Q = 0 it coincides with the plain running time
    t_f * (1 + beta*(v/C_max)**n), and at phi = 1 it is that for every Q.
    """
    v = np.asarray(v, dtype=float)
    t_f = np.asarray(t_f, dtype=float)
    c_max = np.asarray(c_max, dtype=float)
    n_t = _smoothed_exponent(q, params, phi)
    r = v / c_max
    with np.errstate(invalid="ignore"):
        pow_term = np.where((r == 0) & (n_t == 0), 1.0, r**n_t)
    return t_f * (1.0 + np.asarray(params.beta) * pow_term)


def _queue_integral(q: np.ndarray, c_max: np.ndarray, params: CostParams) -> np.ndarray:
    """integral_0^Q (y / (C_max - gamma*y))**m dy, per link.

    Closed forms for m = 1 and for gamma = 0; adaptive fixed-order
    Gauss-Legendre (panel doubling to 1e-8 relative) otherwise.
    """
    q = np.asarray(q, dtype=float)
    c_max, gamma, m = np.broadcast_arrays(
        np.asarray(c_max, dtype=float),
        np.asarray(params.gamma, dtype=float),
        np.asarray(params.m, dtype=float),
    )
    q = np.broadcast_to(q, c_max.shape).astype(float)
    out = np.zeros_like(q)

    flat = gamma == 0
    if np.any(flat):
        out[flat] = q[flat] ** (m[flat] + 1.0) / ((m[flat] + 1.0) * c_max[flat] ** m[flat])

    linear = (~flat) & (m == 1.0)
    if np.any(linear):
        g, c, qq = gamma[linear], c_max[linear], q[linear]
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -qq / g - (c / g**2) * np.log1p(-g * qq / c)
        out[linear] = np.where(qq > 0, val, 0.0)

    general = (~flat) & (m != 1.0)
    for idx in np.flatnonzero(general):
        out.flat[idx] = _gl_integral(
            q.flat[idx], c_max.flat[idx], gamma.flat[idx], m.flat[idx]
        )
    return out


def _gl_integral(q: float, c_max: float, gamma: float, m: float) -> float:
    if q <= 0:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(32)
    prev = math.inf
    panels = 1
    while panels <= 256:
        edges = np.linspace(0.0, q, panels + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        y = mid[:, None] + half[:, None] * nodes[None, :]
        f = (y / (c_max - gamma * y)) ** m
        total = float(np.sum(half[:, None] * weights[None, :] * f))
        if abs(total - prev) <= 1e-8 * max(abs(total), 1.0):
            return total
        prev = total
        panels *= 2
    return prev


def objective(
    v: ArrayLike, q: ArrayLike, t_f: ArrayLike, c_max: ArrayLike, params: CostParams,
    phi: ArrayLike = math.e,
) -> float:
    """Beckmann potential with the queue-smoothed exponent, summed over links.

    Per link: the running-time primitive with the queue-smoothed exponent,
        t_f*v + t_f*beta*C_max*(v/C_max)**(n~+1) / (n~+1),
    plus the queue term
        t_f*(1+beta)*Q + alpha * integral_0^Q (y/C(y))**m dy.

    At Q = 0 this is the classical Beckmann function, whose minimiser is the
    traditional user equilibrium.  It is not a potential for the
    queue-dependent model: the smoothed exponent collapses within a few
    vehicles of queue, so J first rises with a queue, and past that it falls
    because held traffic drops out of the downstream running-time terms.
    It has no capacity bound, and on the six-node scenario it is lower at
    Q = 0 than at the equilibrium queue.  The solver's safeguard reads
    `solver.merit` instead.
    """
    v = np.asarray(v, dtype=float)
    q = np.asarray(q, dtype=float)
    t_f = np.asarray(t_f, dtype=float)
    c_max = np.asarray(c_max, dtype=float)
    if np.any(v < -1e-9) or np.any(q < -1e-9):
        raise ValueError("flows and queues must be >= 0")
    v = np.maximum(v, 0.0)
    q = np.maximum(q, 0.0)
    n_t = _smoothed_exponent(q, params, phi)
    r = v / c_max
    with np.errstate(invalid="ignore"):
        pow_term = np.where((r == 0) & (n_t + 1.0 == 0), 1.0, r ** (n_t + 1.0))
    running = t_f * v + t_f * np.asarray(params.beta) * c_max * pow_term / (n_t + 1.0)
    queue = t_f * (1.0 + np.asarray(params.beta)) * q + np.asarray(
        params.alpha
    ) * _queue_integral(q, c_max, params)
    return float(np.sum(running + queue))
