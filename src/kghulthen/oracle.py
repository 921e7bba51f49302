"""Independent numerical bound-state solver (shooting method).

This module never touches the closed-form machinery: it integrates the
radial equation phi'' = W(r, E) phi directly, so its eigenvalues are an
independent check on the analytic spectrum.  ``mode`` selects the
centrifugal term: "exact" keeps l(l+1)/r**2, "approx" uses the screened
surrogate that the analytic treatment is built on.  The two coincide as
beta*r -> 0, and for l = 0 they are the same equation, so
``approximation_error`` solves an l = 0 channel once for both columns.

Method, in outline: fourth-order Runge-Kutta sweeps outward from r_min
and inward from r_max, each energy matched at its classical turning point
nearest r_max/3 (``_nearest_crossing``).  A solve builds its channel once
(``_channel``).  Each RK4 step is a 2x2 linear map whose entries are
polynomials in E (``_map_table``), so a sweep (``_sweep``) forms the maps
for a batch of energies as matrix products of the channel's step table
with the powers of E, never W itself.  ``find_bound_states`` brackets and
refines the eigenvalues in one loop of such sweeps; its docstring states
the bracket rule and what ``converged`` means.

Two implementation notes, both measured necessities rather than choices:

* Near the origin the regular solution behaves like r**g with fractional
  g = 1/2 + sqrt(1/4 + c2) (``model.origin_power``); the sweep therefore
  starts on the two-term series phi = r**g * (1 + c1*r) at r_min instead
  of the naive (phi, phi') = (0, 1), and the first few hundred grid cells
  are internally subdivided on a geometric ladder.  A (0, 1) start
  contaminates the sweep with the subdominant power and, for the
  parameter ranges exercised here, leaves an energy error floor well
  above the tolerances this solver must meet.
* Beyond that rule's rounding band the origin exponents are complex (the
  singularity is over-attractive), no self-adjoint bound-state problem
  remains, and such runs raise InvalidRegime instead of returning numbers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import GridResolution, InvalidRegime, SolverError
from .model import (PhysicalSystem, RadialGrid, binding_window, default_grid,
                    origin_power)

_LADDER_RATIO = 1.006       # geometric refinement ratio of the origin ladder
_MISMATCH_TOL = 1e-3        # converged roots must have |tail_mismatch| below
_MAX_CHUNK = 128            # longest sweep chunk; step tables pad to it
_CHUNK_CELLS = 6144         # chunk x energy cells per sweep pass; fewer slow
                            # 60-energy sweeps, more raise peak memory
_NODE_BLOCK = 256           # grid nodes combined per gather

log = logging.getLogger(__name__)


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

    Accepts a scalar or array of radii (all > 0); an array E broadcasts
    against them.  Both modes share the full mass and potential terms;
    they differ only in the centrifugal piece, part of the E-free term.
    """
    w = _w_coefficients(system, l, mode, r)
    out = w[..., 0] + w[..., 1] * E + w[..., 2] * E**2
    return float(out) if out.ndim == 0 else out


def _w_coefficients(system, l, mode, r):
    """W's coefficients in powers of E at the radii r, shape r.shape +
    (3,): the rows (w0, w1, -1/hbar_c**2), so that W = row @ (1, E, E**2);
    built on the system's own potential, mass and centrifugal profiles."""
    hc2 = system.hbar_c**2
    V = np.asarray(system.potential_at(r))
    m = np.asarray(system.mass_at(r))
    cf = np.asarray(system.centrifugal_at(l, r, mode))
    return np.stack(np.broadcast_arrays(
        cf + (m * m - V * V) / hc2, 2.0 * V / hc2, -1.0 / hc2), axis=-1)


def _origin_series(system, l):
    """Series data of the regular solution phi ~ r**g * (1 + c1 r) at r -> 0.

    Returns (cm1_const, cm1_lin, g) where the ODE coefficient behaves like
    c2/r**2 + (cm1_const + cm1_lin*E)/r + O(1) and g = 1/2 +
    origin_power(c2).  Raises InvalidRegime when that is complex.
    """
    se = system.screening_energy
    q2 = 1.0 / (se * se)
    c2 = l * (l + 1) + q2 * (system.m1**2 - system.V0**2)
    P0 = q2 * (system.m1**2 - 2.0 * system.m0 * system.m1 + system.V0**2)
    s = origin_power(c2)
    if math.isnan(s):
        raise InvalidRegime(
            "over-attractive origin: effective inverse-square strength "
            f"{c2!r} < -1/4, origin exponents complex")
    return system.beta * P0, -system.beta * 2.0 * q2 * system.V0, 0.5 + s


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
    identity steps (h = 0) to a multiple of _MAX_CHUNK, so that every
    power-of-two chunk length up to _MAX_CHUNK splits it into whole chunks
    by reshaping alone.  Each step's RK4 map is a polynomial in E
    (_map_table): row j of ``table`` times (1, E, E**2, E**3, E**4) is its
    (m11, m12, m21, m22)."""

    table: np.ndarray    # (S, 4, 5) map coefficients in powers of E
    node: np.ndarray     # (S,) grid node a step reaches, or -1
    reach: np.ndarray    # (K,) index of the step reaching each node, or -1
    start: int           # the node the sweep starts from


def _map_table(h, c):
    """One RK4 step of (phi, p)' = (p, W phi) per entry of h, as the
    coefficients of its 2x2 matrix (m11, m12, m21, m22) in powers of E,
    shape (S, 4, 5) for E**0 ... E**4.  With W sampled at the step's
    start, midpoint and end,

        m11 = 1 + h^2/6 (Wa + 2 Wm) + h^4/24 Wm Wa
        m12 = h + h^3/6 Wm
        m21 = h/6 [Wa + 4 Wm + Wb + h^2/2 Wm (Wa + Wb)]
        m22 = 1 + h^2/6 (2 Wm + Wb) + h^4/24 Wb Wm

    and each W is the quadratic c[i] @ (1, E, E**2) at sample i, step j
    running over samples 2j, 2j + 1, 2j + 2, so each entry has degree at
    most 4.  A step with h = 0 is exactly the identity."""
    table = np.zeros((len(h), 4, 5))
    m11, m12, m21, m22 = table.transpose(1, 0, 2)
    h = h[:, None]
    q = h * h / 6.0
    Wa, Wm, Wb = c[:-1:2], c[1::2], c[2::2]

    def add(m, f, a, b=None):        # m += f * a, or f * a * b
        if b is None:
            m[:, :3] += f * a
        else:
            for i in range(3):
                m[:, i:i + 3] += (f * a[:, i:i + 1]) * b

    m11[:, 0] = m22[:, 0] = 1.0
    m12[:, 0] = h[:, 0]
    add(m11, q, Wa + 2.0 * Wm)
    add(m11, 1.5 * q * q, Wm, Wa)
    add(m12, h * q, Wm)
    add(m21, h / 6.0, Wa + 4.0 * Wm + Wb)
    add(m21, h * q / 2.0, Wm, Wa + Wb)
    add(m22, q, 2.0 * Wm + Wb)
    add(m22, 1.5 * q * q, Wb, Wm)
    return table


def _padded(h, w, node, start):
    """_Steps from flat arrays: h (S,), w (2S + 1, 3) W's coefficients
    (``_w_coefficients``) at the start, midpoint, end, midpoint, end, ...
    of the steps, node (S,)."""
    pad = -h.size % _MAX_CHUNK
    reach = np.full(max(start, node.max()) + 1, -1)
    reach[node[node >= 0]] = np.flatnonzero(node >= 0)
    return _Steps(_map_table(np.concatenate([h, np.zeros(pad)]),
                             np.pad(w, ((0, 2 * pad), (0, 0)))),
                  np.concatenate([node, np.full(pad, -1)]), reach, start)


class _Channel(NamedTuple):
    """One (system, l, mode, grid) channel as a solve reads it."""

    outward: _Steps
    inward: _Steps
    w: np.ndarray        # (K, 3) W's coefficients at the grid nodes
    series: tuple        # _origin_series at l: (cm1_const, cm1_lin, g)
    r_min: float


def _channel(system, l, mode, grid):
    """Step tables of one channel, W at its nodes and its origin series.

    Outward runs the geometric origin ladder over the first grid cells and
    then the main grid; inward runs the main grid down from r_max, on the
    same samples of W.  Row k of w is W's coefficients at grid node k, so
    that ``w @ (1, E, E**2)`` is W there.  The origin series comes first,
    so an over-attractive origin raises before W's finiteness check.
    """
    series = _origin_series(system, l)
    K = grid.points
    h = grid.spacing
    cells = min(300, K // 4)
    pts, mark = _ladder(grid.r_min, h, cells)
    rr = grid.r_min + 0.5 * h * np.arange(2 * K - 1)
    ladder = np.empty(2 * pts.size - 1)
    ladder[::2] = pts
    ladder[1::2] = 0.5 * (pts[:-1] + pts[1:])
    w = _w_coefficients(system, l, mode, rr)
    w_out = np.concatenate([_w_coefficients(system, l, mode, ladder),
                            w[2 * cells + 1:]])
    if not np.all(np.isfinite(w_out[:, 0])):
        raise InvalidRegime(
            f"ODE coefficient not finite at r_min={grid.r_min!r}; "
            "the origin offset is too small for these parameters")

    lnode = np.full(len(pts) - 1, -1)
    lnode[mark[1:] - 1] = np.arange(1, cells + 1)
    outward = _padded(
        np.concatenate([np.diff(pts), np.full(K - 1 - cells, h)]), w_out,
        np.concatenate([lnode, np.arange(cells + 1, K)]), 0)
    inward = _padded(np.full(K - 1, -h), w[::-1], np.arange(K - 2, -1, -1),
                     K - 1)
    return _Channel(outward, inward, w[::2].copy(), series, grid.r_min)


def _rescale(phi, p, axes=()):
    """Divide (phi, p) by the positive factor max(|phi|, |p|), reduced over
    ``axes`` (the columns of a transfer matrix share one factor).  Signs
    and the log-derivative are unchanged."""
    scale = np.maximum(np.abs(phi), np.abs(p)).max(axis=axes)
    scale = np.where(scale > 0.0, scale, 1.0)
    return phi / scale, p / scale


def _chunk_length(S, B):
    """Chunk length of a sweep of S padded steps for B energies: the
    shortest power of two from 16 to _MAX_CHUNK whose chunk x energy pass
    holds at most _CHUNK_CELLS cells, else _MAX_CHUNK."""
    L = 16
    while L < _MAX_CHUNK and S // L * B > _CHUNK_CELLS:
        L *= 2
    return L


@np.errstate(over="ignore", invalid="ignore")
def _sweep(steps, phi, p, EP, match_idx):
    """Run one direction for a batch of energies from the start state
    (phi, p), as a two-level scan over chunks of ``steps``; EP holds the
    powers (1, E, E**2, E**3, E**4) of the batch's energies.

    It runs the S steps up to the one reaching the batch's farthest
    matching node, S rounded up to a multiple of _MAX_CHUNK, and keeps phi
    at the N nodes they reach; no node past a matching node is read.
    The chunk length L comes from the batch width B (_chunk_length): a
    narrow batch runs 16 rows over many chunks, a wide one longer, fewer
    chunks.  Every chunk's transfer matrix is built in L row passes, taken
    in blocks of R rows: the RK4 maps of a block, about _CHUNK_CELLS
    chunk x energy cells per entry, are one matrix product of the block's
    table rows with EP, read in place from the step table (a stack of
    (C, 5) x (5, B) products, one per row and map entry).  The chunk start
    states come from the inclusive prefix products M_c ... M_0 of the
    chunk matrices, by recursive doubling (log2 C passes over C chunks,
    each rescaled per chunk), and phi at each node is its kept first row
    applied to its chunk's start state, gathered _NODE_BLOCK nodes at a
    time.  How the arithmetic is grouped depends on B (the BLAS path of the
    map products, L and R) and on S, so an energy's result depends on the
    batch it shares, at rounding level only.

    Returns (flips, first, phi_m, p_m): flips[k] marks a sign change of
    phi between grid nodes first + k and first + k + 1, shape (N - 1, B),
    with ``first`` the lowest node kept, and (phi_m, p_m) is the state at
    each energy's matching index, known up to a positive
    factor (each chunk carries its own scale).  Raises GridResolution when
    a node value or the matched state overflows between rescalings.
    """
    B = EP.shape[1]
    s = steps.reach[match_idx]
    S = (max(s.max(), 0) // _MAX_CHUNK + 1) * _MAX_CHUNK   # whole blocks
    node = steps.node[:S]
    reached = node[node >= 0]
    first = reached.min(initial=steps.start)
    N = reached.max(initial=steps.start) + 1 - first
    L = _chunk_length(S, B)
    C = S // L
    R = max(1, min(L, _CHUNK_CELLS // (C * B)))
    table = steps.table[:S].reshape(C, L, 4, 5).transpose(1, 2, 0, 3)
    node = np.where(node >= 0, node - first, N).reshape(C, L).T

    # 1. transfer matrix of every chunk, its columns the images of (1, 0)
    # and (0, 1), over blocks of R rows: the RK4 maps of a block in one
    # product, then the rows in order.  The matrix's first row is kept at
    # every node-reaching step (row N of traj and tail takes the
    # steps that reach none), the whole matrix at each energy's match step
    mphi = np.zeros((2, C, B))
    mp = np.zeros((2, C, B))
    mphi[0] = 1.0
    mp[1] = 1.0
    # rows 0 ... N of blocks sized to the whole grid: every sweep asks the
    # allocator for one size and reuses the last sweep's freed block
    # (blocks sized to N left holes and raised the peak RSS of wide scans)
    traj = np.empty((steps.reach.size + 1, B))[:N + 1]
    tail = np.empty((steps.reach.size + 1, B))[:N + 1]
    mc = np.where(s < 0, 0, s // L)
    mj = np.where(s < 0, -1, s % L)
    cap = {j: np.flatnonzero(mj == j) for j in set(mj.tolist())}
    cphi = np.zeros((2, B))
    cp = np.zeros((2, B))
    cphi[0] = 1.0
    cp[1] = 1.0
    for j0 in range(0, L, R):
        blk = slice(j0, j0 + R)
        maps = np.matmul(table[blk], EP)
        kept = np.empty((2, len(maps), C, B))
        for i, (m11, m12, m21, m22) in enumerate(maps):
            j = j0 + i
            mphi, mp = m11 * mphi + m12 * mp, m21 * mphi + m22 * mp
            if (j & 63) == 63:
                mphi, mp = _rescale(mphi, mp, 0)
            kept[:, i] = mphi
            if j in cap:
                cols = cap[j]
                cphi[:, cols] = mphi[:, mc[cols], cols]
                cp[:, cols] = mp[:, mc[cols], cols]
        traj[node[blk]], tail[node[blk]] = kept

    # 2. start state of every chunk: the products P_c = M_c ... M_0 of the
    # chunk matrices by recursive doubling, P_c <- P_c P_(c-n) for n = 1,
    # 2, 4, ..., each pass rescaled per chunk
    n = 1
    while n < C:
        top, bot = mphi[:, n:], mp[:, n:]
        mphi[:, n:], mp[:, n:] = _rescale(
            top[0] * mphi[:, :-n] + top[1] * mp[:, :-n],
            bot[0] * mphi[:, :-n] + bot[1] * mp[:, :-n], 0)
        n *= 2
    sphi = np.empty((C, B))
    sp = np.empty((C, B))
    sphi[0], sp[0] = phi, p
    sphi[1:] = mphi[0, :-1] * phi + mphi[1, :-1] * p
    sp[1:] = mp[0, :-1] * phi + mp[1, :-1] * p

    # 3. phi at the nodes: each node's kept first row applied to its
    # chunk's start state, in place, one block of nodes at a time (the
    # start node keeps the row (1, 0) of chunk 0)
    traj, tail = traj[:N], tail[:N]
    traj[steps.start - first] = 1.0
    tail[steps.start - first] = 0.0
    chunk = np.maximum(steps.reach[first:first + N], 0) // L
    for lo in range(0, N, _NODE_BLOCK):
        blk = slice(lo, lo + _NODE_BLOCK)
        traj[blk] *= sphi[chunk[blk]]
        tail[blk] *= sp[chunk[blk]]
        traj[blk] += tail[blk]
    del tail            # free it before the sign test, which needs phi alone
    phi, p = sphi[mc, np.arange(B)], sp[mc, np.arange(B)]
    phi, p = cphi[0] * phi + cphi[1] * p, cp[0] * phi + cp[1] * p
    if not (np.isfinite(traj).all() and np.isfinite([phi, p]).all()):
        raise GridResolution(
            "oracle sweep overflowed: phi is not finite; the grid is too "
            "coarse for these parameters; increase grid.points "
            f"(currently {steps.reach.size})")
    neg = ~(traj >= 0.0)
    nonzero = traj != 0.0
    flips = (neg[:-1] != neg[1:]) & nonzero[1:] & nonzero[:-1]
    return flips, first, phi, p


def _shoot(ch, E, match_idx):
    """Two-sided sweep of the channel ``ch`` for a batch of energies.

    Returns (mismatch, nodes): the Wronskian-normalized log-derivative
    defect at each energy's matching index, and the interior node count of
    the glued solution.
    """
    E = np.atleast_1d(np.asarray(E, dtype=float))
    B = E.size
    match_idx = np.broadcast_to(np.asarray(match_idx, int), (B,)).copy()
    EP = np.vander(E, 5, increasing=True).T.copy()

    cm1c, cm1l, g = ch.series
    c1 = (cm1c + cm1l * E) / (2.0 * g)

    # ---- outward sweep: series start at r_min
    phi, p = _rescale(1.0 + c1 * ch.r_min, g / ch.r_min + c1 * (g + 1.0))
    flips, first, out_phi, out_p = _sweep(ch.outward, phi, p, EP, match_idx)
    row = np.arange(first, first + len(flips))[:, None]
    nodes = np.count_nonzero(flips & (row < match_idx), axis=0)

    # ---- inward sweep: exponentially decaying start at r_max, where the
    # first inward step starts
    W_end = np.maximum(ch.w[-1] @ EP[:3], 0.0)
    flips, first, in_phi, in_p = _sweep(ch.inward, np.ones(B),
                                        -np.sqrt(W_end), EP, match_idx)
    row = np.arange(first, first + len(flips))[:, None]
    nodes += np.count_nonzero(
        flips & (row >= np.minimum(match_idx, len(ch.w) - 2)), axis=0)

    # Wronskian-form mismatch: zero exactly when log-derivatives agree,
    # free of poles at nodes of either sweep
    wr = out_p * in_phi - in_p * out_phi
    mism = wr / (np.abs(out_p * in_phi) + np.abs(in_p * out_phi) + 1e-300)
    return mism, nodes


def _nearest_crossing(w, EP):
    """Per column of the finite w @ EP (K, B), with w holding W's
    coefficient rows at the grid nodes and EP the powers of each energy:
    the index i of the sign change between nodes i and i + 1 nearest K//3,
    the lower one on a tie, K//2 where none is found, clipped to
    [2, K - 2].  A zero sample is a sign change with both its neighbours.
    The product is formed a block of nodes at a time, at least _NODE_BLOCK
    nodes and about _NODE_BLOCK**2 node x energy cells, so that only the
    boolean mask of sign changes is whole."""
    K, B = len(w), EP.shape[1]
    target = K // 3
    cross = np.empty((K - 1, B), dtype=bool)
    n = _NODE_BLOCK * max(1, _NODE_BLOCK // B)
    for lo in range(0, K - 1, n):
        Wb = w[lo:lo + n + 1] @ EP
        pos, neg = Wb > 0.0, Wb < 0.0
        same = pos[:-1] & pos[1:]
        same |= neg[:-1] & neg[1:]
        np.logical_not(same, out=cross[lo:lo + n])
    # the first crossing going down from target and going up past it
    down, up = cross[target::-1], cross[target + 1:]
    d, u = down.argmax(axis=0), up.argmax(axis=0)
    col = np.arange(B)
    below, above = down[d, col], up[u, col]
    im = np.where(below & ~(above & (u + 1 < d)), target - d, target + 1 + u)
    im[~(below | above)] = K // 2
    return np.clip(im, 2, K - 2)


def find_bound_states(system: PhysicalSystem, l: int, window=None,
                      mode: str = "approx",
                      grid: Optional[RadialGrid] = None,
                      scan_points: int = 240):
    """All bound states of one (l, mode) channel inside the energy window.

    One loop of sweeps.  Each sweep shoots the current row(s) of scan
    energies together with one false-position point per open bracket,
    every energy matched at its own turning index.  The scan starts as
    ``scan_points`` energies, and one bracket rule holds at every level: a
    flat node count with a mismatch sign change is a bracket; a node-count
    jump is split 16-fold and scanned again, on the first row always (a
    root pair can straddle a jump), below it when the mismatch changes
    sign (it is continuous through a jump) or the count jumps by 2 or more
    (two states can share a piece).  A piece still jumping below the
    tolerance is named in a warning and refined as a bracket.

    A bracket (a, b) starts from the mismatches its ends have from the
    scan and is refined by Illinois false position (each point kept
    min(0.01 * (b - a), tol/2) inside the bracket, a retained end's
    mismatch halved when it is kept twice, an exact zero collapsing the
    bracket) until it is narrower than tol = 1e-10 * m0 or has taken 120
    steps.  The tol/2 bound is Brent's minimum step: an estimate already
    within tol of the root closes its bracket on the next sweep instead
    of being pushed past the root by 1% of a wide bracket.  On a bracket
    wider than 50 * tol the clip is tol/2 and does not narrow it, so a
    point moves off a retained end by Illinois halving alone; the 1% term
    acts only below 50 * tol, where it keeps the last point near its
    estimate (a tol/2 clip there moves it up to tol/2 off a steep root's
    estimate, which can leave its mismatch above 1e-3).  A bracket
    reports its last point, with that sweep's node count and mismatch;
    ``converged`` says it was refined below tol with |mismatch| <= 1e-3.
    Results are sorted by energy.

    Raises ValueError for a window outside the binding range or fewer than
    2 scan points, InvalidRegime for an over-attractive origin (or W not
    finite at r_min), GridResolution if
    the node count drops between scan energies above max V(r) over the
    grid nodes (there dW/dE = -2(E - V)/hbar_c**2 < 0 at every node, so
    the count cannot fall unless the grid fails to resolve the states;
    below it the count need not be monotone, and a drop is split like any
    other jump), and returns an empty list when nothing brackets.
    """
    lo, hi = binding_window(system, window)
    if scan_points < 2:
        raise ValueError(f"scan_points must be >= 2, got {scan_points!r}")
    if grid is None:
        grid = default_grid(system)
    ch = _channel(system, l, mode, grid)

    tol = 1e-10 * system.m0
    v_max = np.max(system.potential_at(grid.radii()))
    states = []
    # open brackets: ends, their mismatches, the end last kept (-1 for a,
    # +1 for b, 0 at the start) and the Illinois steps taken
    a, b, fa, fb = np.empty((4, 0))
    side, steps = np.empty((2, 0), dtype=int)
    E, first = np.linspace(lo, hi, scan_points)[None], True
    while E.size or a.size:            # one row of scan energies per piece
        c = np.divide(fa * b - fb * a, fa - fb, out=0.5 * (a + b),
                      where=fa != fb)
        d = np.minimum(0.01 * (b - a), 0.5 * tol)
        c = np.clip(c, a + d, b - d)
        batch = np.concatenate([E.ravel(), c])
        mism, nodes = _shoot(ch, batch, _nearest_crossing(
            ch.w, np.vander(batch, 3, increasing=True).T))
        fc, nc = mism[E.size:], nodes[E.size:]
        mism, nodes = (x[:E.size].reshape(E.shape) for x in (mism, nodes))

        # one Illinois step on every open bracket; an exact zero is the
        # root, so the bracket collapses onto it
        neg = fa * fc < 0
        fa = np.where(neg & (side < 0), 0.5 * fa, fa)
        fb = np.where(~neg & (side > 0), 0.5 * fb, fb)
        a, fa = np.where(neg, (a, fa), (c, fc))
        b, fb = np.where(neg | (fc == 0.0), (c, fc), (b, fb))
        side = np.where(neg, -1, 1)
        steps += 1
        done = (b - a < tol) | (steps == 120)
        states += [ShootingDiagnostics(
            energy=float(e), node_count=int(n), tail_mismatch=float(f),
            converged=bool(w < tol and abs(f) <= _MISMATCH_TOL))
            for e, n, f, w in zip(c[done], nc[done], fc[done],
                                  (b - a)[done])]

        if first:
            drops = (np.diff(nodes[0]) < 0) & (E[0, :-1] > v_max)
            if drops.any():
                where = int(np.argmax(drops))
                raise GridResolution(
                    f"node count drops from {int(nodes[0, where])} to "
                    f"{int(nodes[0, where + 1])} near "
                    f"E={float(E[0, where])!r}: the grid is too coarse to "
                    f"resolve these states; increase grid.points "
                    f"(currently {grid.points})")
        lo_e, hi_e = E[:, :-1], E[:, 1:]
        sign = mism[:, :-1] * mism[:, 1:] < 0
        dn = np.abs(np.diff(nodes, axis=1))
        split = (dn > 0) & (sign | first | (dn >= 2))
        stuck = split & (hi_e - lo_e < tol)
        if stuck.any():
            log.warning("node count still jumps in pieces narrower than %g, "
                        "refined as brackets: %s", tol,
                        list(zip(lo_e[stuck].tolist(), hi_e[stuck].tolist())))
        # the closed brackets leave, the new ones join with the scan's
        # mismatches at their ends
        new = sign & (dn == 0) | stuck
        a, b, fa, fb, side, steps = (
            np.append(x[~done], y[new]) for x, y in zip(
                (a, b, fa, fb, side, steps),
                (lo_e, hi_e, mism[:, :-1], mism[:, 1:], np.zeros_like(dn),
                 np.zeros_like(dn))))
        split ^= stuck
        E, first = np.linspace(lo_e[split], hi_e[split], 17, axis=1), False
    states.sort(key=lambda d: d.energy)
    return states


def approximation_error(system: PhysicalSystem, n: int, l: int, betas):
    """Quality of the screened-centrifugal surrogate across screening rates.

    For each beta the (n, l) state is solved in both modes and the energies
    are compared.  Rows where either mode lacks a unique n-node state are
    flagged "unmatched"; betas whose parameters admit no analysis at all
    are flagged "invalid_regime", and betas whose states the default grid
    cannot resolve "grid_resolution".  Rows are never dropped.  For l = 0
    the two modes are the same equation, so each beta is solved once and
    both columns share that solve: the error there is 0 by construction.
    """
    if n < 0 or l < 0:
        raise ValueError("n and l must be >= 0")
    rows = []
    for beta in betas:
        variant = replace(system, beta=float(beta))
        try:
            modes = ("approx", "exact") if l else ("approx",)
            found = [[d.energy for d in find_bound_states(variant, l, mode=m)
                      if d.node_count == n] for m in modes]
        except SolverError as exc:
            status = exc.status
        else:
            status = "ok" if all(len(f) == 1 for f in found) else "unmatched"
        if status != "ok":
            rows.append(ApproxErrorRow(beta=float(beta), E_approx=None,
                                       E_exact=None, abs_err=None,
                                       rel_err=None, status=status))
            continue
        e_a, e_x = found[0][0], found[-1][0]
        abs_err = abs(e_a - e_x)
        rel_err = abs_err / max(abs(e_x), 1e-300)
        rows.append(ApproxErrorRow(beta=float(beta), E_approx=e_a,
                                   E_exact=e_x, abs_err=abs_err,
                                   rel_err=rel_err, status="ok"))
    return rows
