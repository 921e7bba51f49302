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
step is a fixed 2x2 linear map of (phi, phi'), and a sweep runs as a
two-level scan over chunks of L steps, L a power of two from 16 to 128
chosen from the batch width so that one chunk x energy pass stays within
a fixed cell budget (a one-energy sweep runs 16-step chunks).  Every
chunk's transfer matrix is built at once in L row passes, keeping the
matrix's first row at each step that reaches a grid node and the whole
matrix at each energy's matching step.  The chunk start states follow
from the prefix products of the chunk matrices, formed by recursive
doubling in log2(chunks) passes, and phi at a node is its kept first row
applied to its chunk's start state, gathered block by block.  States and
products are rescaled by positive factors along the way, which keeps node
signs and the log-derivative.
Eigenvalues are bracketed by one rule at every level of an energy scan
(flat node count, sign change of a Wronskian-normalized log-derivative
mismatch; pieces where the node count jumps are split and tested again),
then refined by safeguarded false position to |dE| < 1e-10 * m0.

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

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import GridResolution, InvalidRegime
from .model import PhysicalSystem, RadialGrid, binding_window, default_grid

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
    they differ only in the centrifugal piece.
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
    by reshaping alone.

    W is sampled at each step's start, midpoint and end; a step starts on
    the sample the one before it ended on, so step j runs over samples 2j,
    2j + 1, 2j + 2.  Sample rows are (w0, w1, 1), so that
    ``w @ (1, E, -E**2/hbar_c**2)`` is W."""

    h: np.ndarray        # (S,) step lengths
    w: np.ndarray        # (2S + 1, 3) samples
    node: np.ndarray     # (S,) grid node a step reaches, or -1
    reach: np.ndarray    # (K,) index of the step reaching each node, or -1
    start: int           # the node the sweep starts from


def _padded(h, w, node, start):
    """_Steps from flat arrays: h (S,), w (2, 2S + 1) = (w0, w1) at the
    start, midpoint, end, midpoint, end, ... of the steps, node (S,)."""
    pad = -h.size % _MAX_CHUNK
    reach = np.full(max(start, node.max()) + 1, -1)
    reach[node[node >= 0]] = np.flatnonzero(node >= 0)
    samples = np.zeros((w.shape[1] + 2 * pad, 3))
    samples[:, 2] = 1.0
    samples[:w.shape[1], :2] = w.T
    return _Steps(np.concatenate([h, np.zeros(pad)]), samples,
                  np.concatenate([node, np.full(pad, -1)]), reach, start)


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
    rr = grid.r_min + 0.5 * h * np.arange(2 * K - 1)
    ladder = np.empty(2 * pts.size - 1)
    ladder[::2] = pts
    ladder[1::2] = 0.5 * (pts[:-1] + pts[1:])
    w_out = np.array(_w_parts(system, l, mode,
                              np.concatenate([ladder, rr[2 * cells + 1:]])))
    if not np.all(np.isfinite(w_out[:, 0])):
        raise InvalidRegime(
            f"ODE coefficient not finite at r_min={grid.r_min!r}; "
            "the origin offset is too small for these parameters")

    lnode = np.full(len(pts) - 1, -1)
    lnode[mark[1:] - 1] = np.arange(1, cells + 1)
    outward = _padded(
        np.concatenate([np.diff(pts), np.full(K - 1 - cells, h)]), w_out,
        np.concatenate([lnode, np.arange(cells + 1, K)]), 0)
    inward = _padded(
        np.full(K - 1, -h), np.array(_w_parts(system, l, mode, rr[::-1])),
        np.arange(K - 2, -1, -1), K - 1)
    return outward, inward


def _rescale(phi, p, axes=()):
    """Divide (phi, p) by the positive factor max(|phi|, |p|), reduced over
    ``axes`` (the columns of a transfer matrix share one factor).  Signs
    and the log-derivative are unchanged."""
    scale = np.maximum(np.abs(phi), np.abs(p)).max(axis=axes)
    scale = np.where(scale > 0.0, scale, 1.0)
    return phi / scale, p / scale


def _rk4_map(h, Wa, Wm, Wb):
    """One RK4 step of (phi, p)' = (p, W phi), W sampled at the step's
    start, midpoint and end, as its 2x2 matrix (m11, m12, m21, m22):

        m11 = 1 + h^2/6 (Wa + 2 Wm) + h^4/24 Wm Wa
        m12 = h + h^3/6 Wm
        m21 = h/6 [Wa + 4 Wm + Wb + h^2/2 Wm (Wa + Wb)]
        m22 = 1 + h^2/6 (2 Wm + Wb) + h^4/24 Wb Wm
    """
    q = h * h / 6.0
    a, m, b = q * Wa, q * Wm, q * Wb
    m2 = m + m
    ab = Wa + Wb
    return (1.0 + (a + m2 + 1.5 * (m * a)),
            h + h * m,
            h / 6.0 * (ab + 4.0 * Wm + 3.0 * (m * ab)),
            1.0 + (b + m2 + 1.5 * (m * b)))


def _chunk_length(S, B):
    """Chunk length of a sweep of S padded steps for B energies: the
    shortest power of two from 16 to _MAX_CHUNK whose chunk x energy pass
    holds at most _CHUNK_CELLS cells, else _MAX_CHUNK."""
    L = 16
    while L < _MAX_CHUNK and S // L * B > _CHUNK_CELLS:
        L *= 2
    return L


def _sweep(steps, phi, p, EX, match_idx):
    """Run one direction for a batch of energies from the start state
    (phi, p), as a two-level scan over chunks of ``steps``; EX holds the
    rows (1, E, -E**2/hbar_c**2).

    The chunk length L comes from the batch width B (_chunk_length): a
    narrow batch runs 16 rows over many chunks, a wide one longer, fewer
    chunks.  Every chunk's transfer matrix is built in L row passes, taken
    in blocks of R rows so that W and the RK4 maps of a block are one
    _CHUNK_CELLS-sized pass each.  The chunk start states come from the
    inclusive prefix products M_c ... M_0 of the chunk matrices, by
    recursive doubling (log2 C passes over C chunks, each rescaled per
    chunk), and phi at each node is its kept first row applied to its
    chunk's start state, gathered _NODE_BLOCK nodes at a time.  How the
    arithmetic is grouped depends on B (the BLAS path of the W products,
    L and R), so an energy's result depends on the batch it shares, at
    rounding level only.

    Returns (flips, phi_m, p_m): flips[k] marks a sign change of phi
    between grid nodes k and k + 1, shape (K - 1, B), and (phi_m, p_m) is
    the state at each energy's matching index, known up to a positive
    factor (each chunk carries its own scale).
    """
    S = steps.h.size
    B = EX.shape[1]
    K = steps.reach.size
    L = _chunk_length(S, B)
    C = S // L
    R = max(1, min(L, _CHUNK_CELLS // (C * B)))
    h = steps.h.reshape(C, L).T[..., None]
    w = steps.w[1:].reshape(C, L, 2, 3).transpose(1, 2, 0, 3)
    node = steps.node.reshape(C, L).T

    # 1. transfer matrix of every chunk, its columns the images of (1, 0)
    # and (0, 1), over blocks of R rows: W and the RK4 maps of a block in
    # one pass each, then the rows in order.  The matrix's first row is
    # kept at every node-reaching step (row K of traj and tail takes the
    # steps that reach none), the whole matrix at each energy's match step
    mphi = np.zeros((2, C, B))
    mp = np.zeros((2, C, B))
    mphi[0] = 1.0
    mp[1] = 1.0
    traj = np.empty((K + 1, B))
    tail = np.empty((K + 1, B))
    s = steps.reach[match_idx]
    mc = np.where(s < 0, 0, s // L)
    mj = np.where(s < 0, -1, s % L)
    cap = {j: np.flatnonzero(mj == j) for j in set(mj.tolist())}
    cphi = np.zeros((2, B))
    cp = np.zeros((2, B))
    cphi[0] = 1.0
    cp[1] = 1.0
    Wb = (steps.w[:-1:2 * L] @ EX)[None]    # W where each chunk starts
    for j0 in range(0, L, R):
        blk = slice(j0, j0 + R)
        Wmb = (w[blk].reshape(-1, 3) @ EX).reshape(-1, 2, C, B)
        Wa = np.concatenate([Wb[-1:], Wmb[:-1, 1]])
        Wm, Wb = Wmb[:, 0], Wmb[:, 1]
        maps = _rk4_map(h[blk], Wa, Wm, Wb)
        kept = np.empty((2, len(Wm), C, B))
        for i, (m11, m12, m21, m22) in enumerate(zip(*maps)):
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
    traj, tail = traj[:K], tail[:K]
    traj[steps.start] = 1.0
    tail[steps.start] = 0.0
    chunk = np.maximum(steps.reach, 0) // L
    for lo in range(0, K, _NODE_BLOCK):
        blk = slice(lo, lo + _NODE_BLOCK)
        traj[blk] *= sphi[chunk[blk]]
        tail[blk] *= sp[chunk[blk]]
        traj[blk] += tail[blk]
    del tail            # free it before the sign test, which needs phi alone
    neg = ~(traj >= 0.0)
    nonzero = traj != 0.0
    flips = (neg[:-1] != neg[1:]) & nonzero[1:] & nonzero[:-1]
    phi, p = sphi[mc, np.arange(B)], sp[mc, np.arange(B)]
    return flips, cphi[0] * phi + cphi[1] * p, cp[0] * phi + cp[1] * p


def _energy_rows(system, E):
    """The rows (1, E, -E**2/hbar_c**2) of a batch E, so that a sample row
    (w0, w1, 1) of a step table times them is W."""
    return np.array([np.ones(E.size), E, -(E / system.hbar_c) ** 2])


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
    EX = _energy_rows(system, E)
    row = np.arange(K - 1)[:, None]

    _, cm1c, cm1l, g = _origin_series(system, l)
    c1 = (cm1c + cm1l * E) / (2.0 * g)

    # ---- outward sweep: series start at r_min
    phi, p = _rescale(1.0 + c1 * grid.r_min, g / grid.r_min + c1 * (g + 1.0))
    flips, out_phi, out_p = _sweep(outward, phi, p, EX, match_idx)
    nodes = np.count_nonzero(flips & (row < match_idx), axis=0)

    # ---- inward sweep: exponentially decaying start at r_max, where the
    # first inward step starts
    W_end = np.maximum(inward.w[0] @ EX, 0.0)
    flips, in_phi, in_p = _sweep(inward, np.ones(B), -np.sqrt(W_end), EX,
                                 match_idx)
    nodes += np.count_nonzero(
        flips & (row >= np.minimum(match_idx, K - 2)), axis=0)

    # Wronskian-form mismatch: zero exactly when log-derivatives agree,
    # free of poles at nodes of either sweep
    wr = out_p * in_phi - in_p * out_phi
    mism = wr / (np.abs(out_p * in_phi) + np.abs(in_p * out_phi) + 1e-300)
    return mism, nodes


def _turning_indices(system, l, mode, E, grid):
    """Matching index per energy: sign change of W nearest index K//3
    (about r_max/3), falling back to the grid midpoint."""
    K = grid.points
    E = np.atleast_1d(np.asarray(E, dtype=float))
    # the inward table samples W at every grid node, r_max first
    nodes = _tables(system, l, mode, grid)[1].w[2 * K - 2::-2]
    S = np.sign(nodes @ _energy_rows(system, E))
    cross = S[:-1, :] * S[1:, :] <= 0
    idx = np.arange(K - 1)
    target = K // 3
    score = np.where(cross, np.abs(idx[:, None] - target), 10 * K)
    im = np.argmin(score, axis=0)
    im[~cross.any(axis=0)] = K // 2
    return np.clip(im, 2, K - 2)


def _refine_batch(system, l, mode, brackets, grid, tol):
    """Safeguarded false position (Illinois) on each bracket, matching index
    frozen per bracket; brackets without a sign change there are dropped,
    with a warning that names them."""
    if not brackets:
        return []
    lo = np.array([b[0] for b in brackets])
    hi = np.array([b[1] for b in brackets])
    nb = lo.size
    imr = _turning_indices(system, l, mode, 0.5 * (lo + hi), grid)
    fa, fb = np.split(_shoot(system, l, mode, np.concatenate([lo, hi]), grid,
                             np.concatenate([imr, imr]))[0], 2)
    ok = fa * fb < 0
    if not ok.all():
        log.warning("dropped brackets with no mismatch sign change at the "
                    "frozen matching index: %s",
                    list(zip(lo[~ok].tolist(), hi[~ok].tolist())))
    a, b = lo.copy(), hi.copy()
    side = np.zeros(nb, dtype=int)
    active = ok.copy()
    for _ in range(120):
        if not active.any():
            break
        # false position on the active brackets only: a dropped one may
        # have fa == fb
        c = np.divide(fa * b - fb * a, fa - fb, out=0.5 * (a + b),
                      where=active)
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

    Scans ``scan_points`` energies and applies one bracket rule at every
    level: a flat node count with a mismatch sign change is a bracket; a
    node-count jump is split 16-fold and tested again, always on the scan
    (a root pair can straddle a jump) and below it only with a sign change
    (the mismatch is continuous through a jump).  A piece still jumping
    below the tolerance is named in a warning and refined as a bracket.
    Brackets are refined to |dE| < 1e-10 * m0; results are sorted by
    energy with node counts attached.

    Raises InvalidRegime for an over-attractive origin, GridResolution if
    node counts decrease along the scan (the grid cannot resolve the
    states), and returns an empty list when nothing brackets.
    """
    lo, hi = binding_window(system, window)
    if grid is None:
        grid = default_grid(system)
    _origin_series(system, l)          # fail fast on a supercritical origin

    tol = 1e-10 * system.m0
    brackets, first = [], True
    E = np.linspace(lo, hi, scan_points)[None]
    while E.size:                      # one row of energies per piece
        im = _turning_indices(system, l, mode, E.ravel(), grid)
        mism, nodes = (x.reshape(E.shape) for x in _shoot(
            system, l, mode, E.ravel(), grid, im))
        drops = np.diff(nodes[0]) < 0
        if first and drops.any():
            where = int(np.argmax(drops))
            raise GridResolution(
                f"node count drops from {int(nodes[0, where])} to "
                f"{int(nodes[0, where + 1])} near "
                f"E={float(E[0, where])!r}: the grid is too coarse to "
                f"resolve these states; increase grid.points "
                f"(currently {grid.points})")
        a, b = E[:, :-1], E[:, 1:]
        sign = mism[:, :-1] * mism[:, 1:] < 0
        jump = nodes[:, :-1] != nodes[:, 1:]
        split = jump & (sign | first)
        stuck = split & (b - a < tol)
        if stuck.any():
            log.warning("node count still jumps in pieces narrower than %g, "
                        "refined as brackets: %s", tol,
                        list(zip(a[stuck].tolist(), b[stuck].tolist())))
        bracket = sign & ~jump | stuck
        brackets += zip(a[bracket], b[bracket])
        split ^= stuck
        E, first = np.linspace(a[split], b[split], 17, axis=1), False
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
