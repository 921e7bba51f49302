"""Independent numerical bound-state solver (shooting method).

This module never touches the closed-form machinery: it integrates the
radial equation phi'' = W(r, E) phi directly, so its eigenvalues are an
independent check on the analytic spectrum.  ``mode`` selects the
centrifugal term: "exact" keeps l(l+1)/r**2, "approx" uses the screened
surrogate that the analytic treatment is built on (the two coincide for
l = 0 and as beta*r -> 0).

Method: a fourth-order Runge-Kutta sweep outward from r_min and inward
from r_max, matched at the classical turning point nearest r_max/3 (grid
midpoint when no turning point exists).  The ODE is linear, so one RK4
step is a fixed 2x2 linear map of (phi, phi'), and a sweep of S steps runs
as a two-level scan over about sqrt(S) chunks of L = ceil(sqrt(S)) steps:
every chunk's transfer matrix is built at once (L passes over a chunk x
energy array), the chunk start states follow by chaining the matrices,
and all chunks are then re-run together from those starts to record phi
at the grid nodes.  That is about 3*sqrt(S) NumPy passes per direction
instead of S; states are rescaled by positive factors along the way,
which keeps node signs and the log-derivative.  Eigenvalues are bracketed
by node count plus the sign of a Wronskian-normalized log-derivative
mismatch, then refined by safeguarded false position to
|dE| < 1e-10 * m0.

Two implementation notes, both measured necessities rather than choices:

* Near the origin the regular solution behaves like r**g with fractional
  g = 1/2 + sqrt(1/4 + c2); the sweep therefore starts on the two-term
  series phi = r**g * (1 + c1*r) at r_min instead of the naive
  (phi, phi') = (0, 1), and the first few hundred grid cells are
  internally subdivided on a geometric ladder.  A (0, 1) start
  contaminates the sweep with the subdominant power and, for the
  parameter ranges exercised here, leaves an energy error floor well
  above the tolerances this solver must meet.
* When c2 < -1/4 the origin exponents turn complex (the singularity is
  over-attractive) and no self-adjoint bound-state problem remains; such
  runs raise InvalidRegime instead of returning numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import GridResolution, InvalidRegime
from .model import PhysicalSystem, RadialGrid, default_grid

_LADDER_RATIO = 1.006       # geometric refinement ratio of the origin ladder
_MISMATCH_TOL = 1e-3        # converged roots must have |tail_mismatch| below


@dataclass(frozen=True)
class ShootingDiagnostics:
    """One numerically found eigenvalue with its quality indicators."""

    energy: float
    node_count: int
    tail_mismatch: float
    converged: bool


@dataclass(frozen=True)
class ApproxErrorRow:
    """One row of the centrifugal-approximation error table.

    ``status`` is "ok" when both modes produced the requested state,
    "unmatched" when one side is missing or ambiguous, "invalid_regime"
    when the parameters admit no analysis at that beta, and
    "grid_resolution" when the default grid cannot resolve the states at
    that beta.  Energy and error fields are None for non-"ok" rows.
    """

    beta: float
    E_approx: Optional[float]
    E_exact: Optional[float]
    abs_err: Optional[float]
    rel_err: Optional[float]
    status: str


def ode_coefficient(system: PhysicalSystem, l: int, E: float, r,
                    mode: str = "approx"):
    """Coefficient W(r, E) of the radial equation phi'' = W phi.

    Accepts a scalar or array of radii (all > 0).  Both modes share the
    full mass and potential terms; they differ only in the centrifugal
    piece.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("radius must be positive")
    w0, w1 = _w_parts(system, l, mode, arr)
    out = w0 + w1 * E - (E / system.hbar_c) ** 2
    return float(out) if out.ndim == 0 else out


def _w_parts(system, l, mode, r):
    """W split as w0(r) + w1(r)*E - (E/hbar_c)**2; returns (w0, w1), built
    on the system's own potential, mass and centrifugal profiles."""
    hc2 = system.hbar_c**2
    V = np.asarray(system.potential_at(r))
    m = np.asarray(system.mass_at(r))
    cf = np.asarray(system.centrifugal_at(l, r, mode))
    return cf + (m * m - V * V) / hc2, 2.0 * V / hc2


def _origin_series(system, l):
    """Series data of the regular solution phi ~ r**g * (1 + c1 r) at r -> 0.

    Returns (c2, cm1_const, cm1_lin, g) where the ODE coefficient behaves
    like c2/r**2 + (cm1_const + cm1_lin*E)/r + O(1) and
    g = 1/2 + sqrt(1/4 + c2).  Raises InvalidRegime when 1/4 + c2 < 0.
    """
    se = system.screening_energy
    q2 = 1.0 / (se * se)
    c2 = l * (l + 1) + q2 * (system.m1**2 - system.V0**2)
    P0 = q2 * (system.m1**2 - 2.0 * system.m0 * system.m1 + system.V0**2)
    cm1_const = system.beta * P0
    cm1_lin = -system.beta * 2.0 * q2 * system.V0
    disc = 0.25 + c2
    if disc < -1e-12 * max(1.0, abs(c2)):
        raise InvalidRegime(
            "over-attractive origin: effective inverse-square strength "
            f"{c2!r} < -1/4, origin exponents complex")
    g = 0.5 + math.sqrt(max(disc, 0.0))
    return c2, cm1_const, cm1_lin, g


def _rk4_step(phi, p, h, Wa, Wm, Wb):
    """One RK4 step of (phi, p)' = (p, W phi) with W sampled at the step's
    start, midpoint and end."""
    k1p = Wa * phi
    phi2 = phi + 0.5 * h * p
    p2 = p + 0.5 * h * k1p
    k2p = Wm * phi2
    phi3 = phi + 0.5 * h * p2
    p3 = p + 0.5 * h * k2p
    k3p = Wm * phi3
    phi4 = phi + h * p3
    p4 = p + h * k3p
    k4p = Wb * phi4
    return (phi + h / 6.0 * (p + 2.0 * p2 + 2.0 * p3 + p4),
            p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))


def _ladder(r_min, h, cells):
    """Geometric node ladder covering the first ``cells`` grid cells.

    Steps grow by _LADDER_RATIO until they reach the main spacing h; every
    main-grid node is kept, and mark[j] gives its index in the ladder.
    """
    pts = [r_min]
    mark = np.empty(cells + 1, dtype=np.int64)
    mark[0] = 0
    for j in range(1, cells + 1):
        edge = r_min + j * h
        cur = pts[-1]
        while True:
            step = (_LADDER_RATIO - 1.0) * cur
            if step >= h or cur + 1.5 * step >= edge:
                break
            cur += step
            pts.append(cur)
        pts.append(edge)
        mark[j] = len(pts) - 1
    return np.asarray(pts), mark


class _Steps(NamedTuple):
    """One sweep direction as a flat list of S RK4 steps, padded with
    identity steps (h = 0) to C chunks of L = ceil(sqrt(S)) steps and stored
    step-major, so row j holds step j of every chunk."""

    h: np.ndarray        # (L, C) step lengths
    w: np.ndarray        # (6, L, C) w0, w1 at each step's start, mid, end
    node: np.ndarray     # (L, C) grid node a step reaches, or -1
    reach: np.ndarray    # (K,) flat index of the step reaching each node
    start: int           # the node the sweep starts from


def _chunked(h, w, node, start):
    """_Steps from flat per-step arrays: h (S,), w (6, S), node (S,)."""
    S = h.size
    L = math.isqrt(S - 1) + 1
    C = -(-S // L)
    pad = C * L - S
    reach = np.full(max(start, node.max()) + 1, -1)
    reach[node[node >= 0]] = np.flatnonzero(node >= 0)
    h = np.concatenate([h, np.zeros(pad)])
    w = np.concatenate([w, np.zeros((6, pad))], axis=1)
    node = np.concatenate([node, np.full(pad, -1)])
    return _Steps(np.ascontiguousarray(h.reshape(C, L).T),
                  np.ascontiguousarray(w.reshape(6, C, L).transpose(0, 2, 1)),
                  np.ascontiguousarray(node.reshape(C, L).T), reach, start)


@lru_cache(maxsize=64)
def _tables(system, l, mode, grid):
    """Step tables of one channel: (outward, inward).

    Outward runs the geometric origin ladder over the first grid cells and
    then the main grid; inward runs the main grid down from r_max.
    """
    K = grid.points
    h = grid.spacing
    cells = min(300, K // 4)
    pts, mark = _ladder(grid.r_min, h, cells)
    lw0a, lw1a = _w_parts(system, l, mode, pts)
    lw0m, lw1m = _w_parts(system, l, mode, 0.5 * (pts[:-1] + pts[1:]))
    rr = grid.r_min + 0.5 * h * np.arange(2 * K - 1)
    w0, w1 = _w_parts(system, l, mode, rr)
    if not (np.isfinite(w0[0]) and np.isfinite(w1[0])):
        raise InvalidRegime(
            f"ODE coefficient not finite at r_min={grid.r_min!r}; "
            "the origin offset is too small for these parameters")

    lnode = np.full(len(pts) - 1, -1)
    lnode[mark[1:] - 1] = np.arange(1, cells + 1)
    i = 2 * np.arange(cells, K - 1)
    outward = _chunked(
        np.concatenate([np.diff(pts), np.full(i.size, h)]),
        np.concatenate([[lw0a[:-1], lw1a[:-1], lw0m, lw1m, lw0a[1:], lw1a[1:]],
                        [w0[i], w1[i], w0[i + 1], w1[i + 1], w0[i + 2],
                         w1[i + 2]]], axis=1),
        np.concatenate([lnode, np.arange(cells + 1, K)]), 0)
    i = 2 * np.arange(K - 1, 0, -1)
    inward = _chunked(
        np.full(K - 1, -h),
        np.array([w0[i], w1[i], w0[i - 1], w1[i - 1], w0[i - 2], w1[i - 2]]),
        np.arange(K - 2, -1, -1), K - 1)
    return outward, inward


def _rescale(phi, p, axes=()):
    """Divide (phi, p) by the positive factor max(|phi|, |p|), reduced over
    ``axes`` (the columns of a transfer matrix share one factor).  Signs
    and the log-derivative are unchanged."""
    scale = np.maximum(np.abs(phi), np.abs(p)).max(axis=axes)
    scale = np.where(scale > 0.0, scale, 1.0)
    return phi / scale, p / scale


def _sweep(steps, phi, p, E, E2, match_idx):
    """Run one direction for a batch of energies from the start state
    (phi, p), as a two-level scan over the chunks of ``steps``.

    Returns (flips, phi_m, p_m): flips[k] marks a sign change of phi
    between grid nodes k and k + 1, shape (K - 1, B), and (phi_m, p_m) is
    the state at each energy's matching index, known up to a positive
    factor (each chunk carries its own scale).
    """
    L, C = steps.h.shape
    B = E.size

    def W(j, k):            # W at sample k (start, mid, end) of step row j
        return (steps.w[2 * k, j][:, None] + steps.w[2 * k + 1, j][:, None]
                * E - E2)

    # 1. transfer matrix of every chunk: both unit vectors at once
    mphi = np.zeros((2, C, B))
    mp = np.zeros((2, C, B))
    mphi[0] = 1.0
    mp[1] = 1.0
    for j in range(L):
        mphi, mp = _rk4_step(mphi, mp, steps.h[j][:, None], W(j, 0), W(j, 1),
                             W(j, 2))
        if (j & 63) == 63:
            mphi, mp = _rescale(mphi, mp, 0)

    # 2. start state of every chunk: chain the matrices
    sphi = np.empty((C, B))
    sp = np.empty((C, B))
    for c in range(C):
        sphi[c], sp[c] = phi, p
        phi, p = _rescale(mphi[0, c] * phi + mphi[1, c] * p,
                          mp[0, c] * phi + mp[1, c] * p)

    # 3. trajectory: re-run all chunks from their start states
    traj = np.empty((steps.reach.size, B))
    traj[steps.start] = sphi[0]
    s = steps.reach[match_idx]
    mc, mj = np.divmod(s, L)
    mj[s < 0] = -1
    cols = np.arange(B)
    phi_m = np.where(s < 0, sphi[0], 0.0)
    p_m = np.where(s < 0, sp[0], 0.0)
    phi, p = sphi, sp
    for j in range(L):
        phi, p = _rk4_step(phi, p, steps.h[j][:, None], W(j, 0), W(j, 1),
                           W(j, 2))
        node = steps.node[j]
        hit = node >= 0
        traj[node[hit]] = phi[hit]
        cap = mj == j
        phi_m = np.where(cap, phi[mc, cols], phi_m)
        p_m = np.where(cap, p[mc, cols], p_m)
        if (j & 63) == 63:
            phi, p = _rescale(phi, p)
    sgn = np.where(traj >= 0.0, 1.0, -1.0)
    flips = (sgn[:-1] * sgn[1:] < 0) & (traj[1:] != 0.0) & (traj[:-1] != 0.0)
    return flips, phi_m, p_m


def _shoot(system, l, mode, E, grid, match_idx):
    """Two-sided sweep for a batch of energies.

    Returns (mismatch, nodes): the Wronskian-normalized log-derivative
    defect at each energy's matching index, and the interior node count of
    the glued solution.
    """
    E = np.atleast_1d(np.asarray(E, dtype=float))
    B = E.size
    match_idx = np.broadcast_to(np.asarray(match_idx, int), (B,)).copy()
    K = grid.points
    outward, inward = _tables(system, l, mode, grid)
    E2 = (E / system.hbar_c) ** 2

    _, cm1c, cm1l, g = _origin_series(system, l)
    c1 = (cm1c + cm1l * E) / (2.0 * g)

    # ---- outward sweep: series start at r_min
    phi, p = _rescale(1.0 + c1 * grid.r_min, g / grid.r_min + c1 * (g + 1.0))
    flips, out_phi, out_p = _sweep(outward, phi, p, E, E2, match_idx)
    cum = np.cumsum(flips, axis=0)
    cols = np.arange(B)
    n_out = np.where(match_idx > 0, cum[np.maximum(match_idx - 1, 0), cols], 0)

    # ---- inward sweep: exponentially decaying start at r_max, where the
    # first inward step starts
    W_end = np.maximum(inward.w[0, 0, 0] + inward.w[1, 0, 0] * E - E2, 0.0)
    flips, in_phi, in_p = _sweep(inward, np.ones(B), -np.sqrt(W_end), E, E2,
                                 match_idx)
    cum_i = np.cumsum(flips[::-1], axis=0)[::-1]
    n_in = cum_i[np.minimum(match_idx, K - 2), cols]

    # Wronskian-form mismatch: zero exactly when log-derivatives agree,
    # free of poles at nodes of either sweep
    wr = out_p * in_phi - in_p * out_phi
    mism = wr / (np.abs(out_p * in_phi) + np.abs(in_p * out_phi) + 1e-300)
    return mism, n_out + n_in


def _turning_indices(system, l, mode, E, grid):
    """Matching index per energy: sign change of W nearest index K//3
    (about r_max/3), falling back to the grid midpoint."""
    K = grid.points
    r = grid.radii()
    w0, w1 = _w_parts(system, l, mode, r)
    E = np.atleast_1d(np.asarray(E, dtype=float))
    W = w0[:, None] + w1[:, None] * E[None, :] \
        - ((E / system.hbar_c) ** 2)[None, :]
    S = np.sign(W)
    cross = S[:-1, :] * S[1:, :] <= 0
    idx = np.arange(K - 1)
    target = K // 3
    score = np.where(cross, np.abs(idx[:, None] - target), 10 * K)
    im = np.argmin(score, axis=0)
    im[~cross.any(axis=0)] = K // 2
    return np.clip(im, 2, K - 2)


def _refine_batch(system, l, mode, brackets, grid, tol):
    """Safeguarded false position (Illinois) on each bracket, matching index
    frozen per bracket; brackets without a sign change there are dropped."""
    if not brackets:
        return []
    lo = np.array([b[0] for b in brackets])
    hi = np.array([b[1] for b in brackets])
    nb = lo.size
    imr = _turning_indices(system, l, mode, 0.5 * (lo + hi), grid)
    fa, fb = np.split(_shoot(system, l, mode, np.concatenate([lo, hi]), grid,
                             np.concatenate([imr, imr]))[0], 2)
    ok = fa * fb < 0
    a, b = lo.copy(), hi.copy()
    side = np.zeros(nb, dtype=int)
    active = ok.copy()
    for _ in range(120):
        if not active.any():
            break
        c = (fa * b - fb * a) / (fa - fb)
        c = np.clip(c, a + 0.01 * (b - a), b - 0.01 * (b - a))
        fc, _ = _shoot(system, l, mode, c, grid, imr)
        neg = (fa * fc < 0) & active
        pos = ~neg & active
        b = np.where(neg, c, b)
        fb = np.where(neg, fc, fb)
        fa = np.where(neg & (side == -1), 0.5 * fa, fa)
        side = np.where(neg, -1, side)
        a = np.where(pos, c, a)
        fa = np.where(pos, fc, fa)
        fb = np.where(pos & (side == +1), 0.5 * fb, fb)
        side = np.where(pos, +1, side)
        # an exact zero is the root: collapse the bracket onto it, else
        # false position keeps returning c = a and only creeps off it
        b = np.where(pos & (fc == 0.0), c, b)
        active &= (b - a) >= tol
    e_final = 0.5 * (a + b)
    mism_f, nodes_f = _shoot(system, l, mode, e_final, grid, imr)
    width = b - a
    out = []
    for i in range(nb):
        if not ok[i]:
            continue
        converged = bool(width[i] <= tol
                         and abs(mism_f[i]) <= _MISMATCH_TOL)
        out.append(ShootingDiagnostics(energy=float(e_final[i]),
                                       node_count=int(nodes_f[i]),
                                       tail_mismatch=float(mism_f[i]),
                                       converged=converged))
    return out


def find_bound_states(system: PhysicalSystem, l: int, window=None,
                      mode: str = "approx",
                      grid: Optional[RadialGrid] = None,
                      scan_points: int = 240):
    """All bound states of one (l, mode) channel inside the energy window.

    Scans ``scan_points`` energies, brackets eigenvalues where the node
    count is flat and the matching mismatch changes sign (node-count jumps
    are subdivided first), then refines each bracket to
    |dE| < 1e-10 * m0.  Results are sorted by energy with node counts
    attached.

    Raises InvalidRegime for an over-attractive origin, GridResolution if
    node counts decrease along the scan (the grid cannot resolve the
    states), and returns an empty list when nothing brackets.
    """
    m_inf = system.asymptotic_mass
    eps = 1e-9 * system.m0
    if window is None:
        window = (-m_inf + eps, m_inf - eps)
    lo, hi = float(window[0]), float(window[1])
    if not (-m_inf <= lo < hi <= m_inf):
        raise ValueError("window must lie inside the binding range "
                         f"(-{m_inf!r}, {m_inf!r})")
    if grid is None:
        grid = default_grid(system)
    _origin_series(system, l)          # fail fast on a supercritical origin

    E = np.linspace(lo, hi, scan_points)
    im = _turning_indices(system, l, mode, E, grid)
    mism, nodes = _shoot(system, l, mode, E, grid, im)
    drops = np.diff(nodes) < 0
    if np.any(drops):
        where = int(np.argmax(drops))
        raise GridResolution(
            f"node count drops from {int(nodes[where])} to "
            f"{int(nodes[where + 1])} near E={E[where]!r}: the grid is too "
            f"coarse to resolve these states; increase grid.points "
            f"(currently {grid.points})")
    # every node-count jump is subdivided 16-fold, all in one sweep
    jumps = np.flatnonzero(np.diff(nodes) != 0)
    sub = np.linspace(E[jumps], E[jumps + 1], 17, axis=1)
    if jumps.size:
        im_s = _turning_indices(system, l, mode, sub.ravel(), grid)
        ms, ns = (a.reshape(sub.shape) for a in _shoot(
            system, l, mode, sub.ravel(), grid, im_s))
    brackets = []
    k = 0
    for i in range(scan_points - 1):
        if nodes[i] == nodes[i + 1] and mism[i] * mism[i + 1] < 0:
            brackets.append((E[i], E[i + 1]))
        elif nodes[i + 1] != nodes[i]:
            for j in range(16):
                if ns[k, j] == ns[k, j + 1] and ms[k, j] * ms[k, j + 1] < 0:
                    brackets.append((sub[k, j], sub[k, j + 1]))
            k += 1
    tol = 1e-10 * system.m0
    states = _refine_batch(system, l, mode, brackets, grid, tol)
    states.sort(key=lambda d: d.energy)
    deduped = []
    for d in states:
        if deduped and abs(d.energy - deduped[-1].energy) < 10.0 * tol:
            continue
        deduped.append(d)
    return deduped


def approximation_error(system: PhysicalSystem, n: int, l: int, betas):
    """Quality of the screened-centrifugal surrogate across screening rates.

    For each beta the (n, l) state is solved in both modes and the energies
    are compared.  Rows where either mode lacks a unique n-node state are
    flagged "unmatched"; betas whose parameters admit no analysis at all
    are flagged "invalid_regime", and betas whose states the default grid
    cannot resolve "grid_resolution".  Rows are never dropped.  (For l = 0
    the two modes are the same equation, so the error is solver noise.)
    """
    if n < 0 or l < 0:
        raise ValueError("n and l must be >= 0")
    rows = []
    for beta in betas:
        variant = PhysicalSystem(V0=system.V0, beta=float(beta),
                                 m0=system.m0, m1=system.m1,
                                 hbar_c=system.hbar_c)
        try:
            per_mode = {}
            for mode in ("approx", "exact"):
                found = [d for d in find_bound_states(variant, l, mode=mode)
                         if d.node_count == n]
                per_mode[mode] = found
        except InvalidRegime:
            status = "invalid_regime"
        except GridResolution:
            status = "grid_resolution"
        else:
            status = ("ok" if len(per_mode["approx"]) == 1
                      and len(per_mode["exact"]) == 1 else "unmatched")
        if status != "ok":
            rows.append(ApproxErrorRow(beta=float(beta), E_approx=None,
                                       E_exact=None, abs_err=None,
                                       rel_err=None, status=status))
            continue
        e_a = per_mode["approx"][0].energy
        e_x = per_mode["exact"][0].energy
        abs_err = abs(e_a - e_x)
        rel_err = abs_err / max(abs(e_x), 1e-300)
        rows.append(ApproxErrorRow(beta=float(beta), E_approx=e_a,
                                   E_exact=e_x, abs_err=abs_err,
                                   rel_err=rel_err, status="ok"))
    return rows
