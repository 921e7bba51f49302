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
(a sign change of W) nearest r_max/3 (``_nearest_crossing``), on one mesh
uniform in x = ln r + r/L (``_mesh``; geometric at the origin, even in
the tail; as L -> infinity, Langer's transformation, R. E. Langer, Phys.
Rev. 51, 669 (1937)).  A solve builds its channel once (``_channel``).
Each RK4 step is a 2x2 linear map whose entries are polynomials in E,
and one table holds both directions' maps (``_map_table``), built once
per channel from the outward steps: the inward step over the same
interval is its adjugate, and carried as psi = (phi, -p) it is the
outward map with its diagonal swapped, so the inward rows are the
outward ones reversed and permuted.  One sweep (``_sweep``) runs both
directions of a shot end to end on one chunk axis: it forms the maps
for a batch of energies as matrix products of the step tables with the
powers of E, never W itself, chains each direction's chunk transfer
matrices by a recursive doubling that stops at the boundary between the
two, and counts nodes from the chunk matrices.
``find_bound_states`` brackets and refines the eigenvalues in one loop of
such sweeps; its docstring states the bracket rule, what ``converged``
means and when the grid is too coarse for the states.  Its first scan row
shoots no energy inside the channel's no-state band (``_band``), where
W - u''/u >= 0 at every sample for a positive trial function u: one of
the family u = z**a exp(-k r), the shape of the n = 0 eigenfunction, or
Hardy's u = r**(1/2), the case the family extends.  No state lies there.
One routine (``_no_state_band``) both scores an even scan of the
family's rates and proves the slices of the two rates it picks.

Two implementation notes, both measured necessities rather than choices:

* Near the origin the regular solution behaves like r**g with fractional
  g = 1/2 + sqrt(1/4 + c2) (``model.origin_strength``, product form); the
  sweep therefore starts on the two-term series phi = r**g * (1 + c1*r) at
  r_min instead of the naive (phi, phi') = (0, 1).  A (0, 1) start
  contaminates the sweep with the subdominant power and, for the parameter
  ranges exercised here, leaves an energy error floor well above the
  tolerances this solver must meet.
* Beyond ``origin_power``'s rounding band the origin exponents are complex
  (the singularity is over-attractive), no self-adjoint bound-state problem
  remains, and ``model.real_origin_power`` raises InvalidRegime.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import GridResolution, InvalidRegime, SolverError
from .model import (PhysicalSystem, RadialGrid, binding_window, default_grid,
                    real_origin_power)

_MAP_LENGTH = 3.0           # L * beta of the mesh map x = ln r + r/L
_MISMATCH_TOL = 1e-3        # converged roots must have |tail_mismatch| below
_MAX_CHUNK = 128            # longest sweep chunk; step tables pad to it
_CHUNK_CELLS = 6144         # chunk x energy cells per sweep pass; fewer slow
                            # 60-energy sweeps, more raise peak memory
_NODE_BLOCK = 256           # mesh nodes per block of the turning search
_MAP_BLOCK = 1024           # steps per block of a step table's build
_BAND_STRIDE = 512          # samples apart in the scan of the band's rates
_BAND_RATES = 257           # evenly spaced rates the scan scores

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ShootingDiagnostics:
    """One numerically found eigenvalue with its quality indicators;
    ``branch`` is the sign of its charge (``find_bound_states``)."""

    energy: float
    node_count: int
    tail_mismatch: float
    converged: bool
    branch: str


@dataclass(frozen=True)
class ApproxErrorRow:
    """One row of the centrifugal-approximation error table.

    ``status`` is "ok" when both modes produced the requested state, the
    n-node state of the upper branch where either mode has one, else of
    the lower (``approximation_error``); "unmatched" when one side lacks
    that state or finds several of it, "invalid_regime"
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
    c2/r**2 + (cm1_const + cm1_lin*E)/r + O(1), c2 = ``origin_strength``
    (product form); g = 1/2 + s, s = ``real_origin_power`` or InvalidRegime.
    """
    se = system.screening_energy
    q2 = 1.0 / (se * se)
    P0 = q2 * (system.m1**2 - 2.0 * system.m0 * system.m1 + system.V0**2)
    return (system.beta * P0, -system.beta * 2.0 * q2 * system.V0,
            0.5 + real_origin_power(system, l))


def _mesh(r_min, r_max, K, L):
    """The 2K - 1 samples of the mesh x = ln r + r/L, uniform in x from
    x(r_min) to x(r_max), its K nodes at the even ones: their radii r, r' =
    dr/dx = rL/(r + L), r''/r' = L**2/(r + L)**2 and the Schwarzian {r; x}
    = -L**3 (L + 4r)/(2 (r + L)**4), as (r, r', r''/r', {r; x}), with the
    node spacing h in x.  With rho = r/L, ln rho + rho = y is solved by
    Newton steps on t = ln rho from min(y, ln(1 + max(y, 0))), which lies
    at or above the root, so the steps fall monotonically onto it."""
    y0, y1 = (math.log(r / L) + r / L for r in (r_min, r_max))
    y = np.linspace(y0, y1, 2 * K - 1)
    t = np.minimum(y, np.log1p(np.maximum(y, 0.0)))
    for _ in range(6):                  # to rounding for every y
        e = np.exp(t)
        t -= (t + e - y) / (1.0 + e)
    rho = np.exp(t)
    u = 1.0 / (1.0 + rho)
    return ((L * rho, L * rho * u, u * u, -0.5 * u**4 * (1.0 + 4.0 * rho)),
            (y1 - y0) / (K - 1))


def _map_table(h, w):
    """The RK4 steps of (phi, p)' = (p, W phi) across a mesh of K nodes
    for both sweep directions, h the node spacing and w (2K - 1, 3) W~'s
    coefficient rows at the start, midpoint, end, midpoint, end, ... of
    the outward steps: each step as the coefficients of its 2x2 matrix
    (m11, m12, m21, m22) in powers of E, shape (2, S, 4, 5) for the two
    directions and E**0 ... E**4.  With W sampled at the step's start,
    midpoint and end,

        m11 = 1 + h^2/6 (Wa + 2 Wm) + h^4/24 Wm Wa
        m12 = h + h^3/6 Wm
        m21 = h/6 [Wa + 4 Wm + Wb + h^2/2 Wm (Wa + Wb)]
        m22 = 1 + h^2/6 (2 Wm + Wb) + h^4/24 Wb Wm

    and each W is the quadratic w[i] @ (1, E, E**2) at sample i, outward
    step j going from node j to j + 1 over samples 2j, 2j + 1, 2j + 2, so
    each entry has degree at most 4.  Inward step j goes back from node K
    - 1 - j to K - 2 - j, over the interval of outward step K - 2 - j, and
    the step back over an interval (h -> -h, Wa <-> Wb) is the adjugate
    [[m22, -m12], [-m21, m11]] of these formulas.  Carried in the frame
    psi = (phi, -p), a sweep in -x, it is [[m22, m12], [m21, m11]] with no
    sign flip, so the inward table is the outward one's rows in reverse
    order with the entries (m22, m12, m21, m11).  Each direction's K - 1
    steps are padded with identity steps to S, a multiple of _MAX_CHUNK,
    so that every power-of-two chunk length up to _MAX_CHUNK splits it
    into whole chunks by reshaping alone.  The outward steps are built
    _MAP_BLOCK at a time: a block's entries accumulate in contiguous (5,
    n) arrays, then are written into its rows."""
    K = (len(w) + 1) // 2
    table = np.zeros((2, K - 1 + (1 - K) % _MAX_CHUNK, 4, 5))
    out, back = table
    c = w.T.copy()
    q = h * h / 6.0

    def add(m, f, a, b=None):        # m += f * a, or f * a * b
        if b is None:
            m[:3] += f * a
        else:
            for i in range(3):
                m[i:i + 3] += (f * a[i]) * b

    for j0 in range(0, K - 1, _MAP_BLOCK):
        n = min(_MAP_BLOCK, K - 1 - j0)
        Wa, Wm, Wb = (c[:, 2 * j0 + i:2 * (j0 + n) + i:2] for i in range(3))
        m = np.zeros((4, 5, n))
        m11, m12, m21, m22 = m
        m11[0] = m22[0] = 1.0
        m12[0] = h
        add(m11, q, Wa + 2.0 * Wm)
        add(m11, 1.5 * q * q, Wm, Wa)
        add(m12, h * q, Wm)
        add(m21, h / 6.0, Wa + 4.0 * Wm + Wb)
        add(m21, h * q / 2.0, Wm, Wa + Wb)
        add(m22, q, 2.0 * Wm + Wb)
        add(m22, 1.5 * q * q, Wb, Wm)
        out[j0:j0 + n] = m.transpose(2, 0, 1)
    for i, j in enumerate((3, 1, 2, 0)):
        back[:K - 1, i] = out[K - 2::-1, j]
    table[:, K - 1:, [0, 3], 0] = 1.0
    return table


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _no_state_band(w, uu):
    """(lo, hi): the energies E at which W(r, E) - u''/u >= 0 at every
    sample radius r, w holding W's coefficient rows there and uu the
    column of u''/u for one positive trial function u; (inf, -inf) when
    there are none.  A stack uu of shape (rates, samples) gives arrays lo
    and hi, each entry the bits of its row's own call.  At each sample the
    difference is the downward parabola (w0 - u''/u) + w1 E -
    E**2/hbar_c**2 in E, non-negative between its roots, so the band is
    the intersection of those root intervals, shrunk by 1e-9 of its width
    and kept only if every sample is still non-negative at both its ends
    in floats.  For a u no steeper than the regular solution at the origin
    no bound state lies inside (``find_bound_states``); ``_band`` takes
    the slices of two kinds of u.
    """
    a = w[:, 0] - uu
    b, c = w[:, 1], w[:, 2]
    # in place on two work arrays: a fresh sample-long temporary for each
    # operation doubled the time of this routine inside a solve.  A
    # negative discriminant makes NaN roots, NaN ends and so no band
    q, t = np.multiply(b, b, out=np.empty_like(a)), a * c
    t *= 4.0
    q -= t                                  # the discriminant
    np.sqrt(q, out=q)
    np.copysign(q, b, out=q)
    q += b
    q *= -0.5                               # stable roots q/c, a/q
    r1, r2 = np.divide(q, c, out=t), np.divide(a, q, out=q)
    lo = np.max(np.minimum(r1, r2), axis=-1)
    hi = np.min(np.maximum(r1, r2, out=r2), axis=-1)
    lo, hi = lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo)
    ok = lo < hi
    for E in (lo, hi):                      # a + E (b + c E) >= 0
        np.multiply(c, E[..., None], out=t)
        t += b
        t *= E[..., None]
        t += a
        ok &= np.all(t >= 0.0, axis=-1)
    lo, hi = np.where(ok, lo, math.inf), np.where(ok, hi, -math.inf)
    return (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)


def _band(system, r, w, g):
    """The no-state band of a channel whose sweeps read W's coefficient
    rows w at the radii r, g its origin power (``_origin_series``).

    Two kinds of trial function u give slices (``_no_state_band``):
    Hardy's u = r**(1/2), and u = z**a exp(-k r), z = 1 - exp(-beta r),
    a = g (1 - 1e-9), the shape of the closed-form ground state.  There
    u''/u = k**2 - (2 a k + a beta) y + a (a - 1) y**2, y = beta (1 -
    z)/z, so for fixed a W - u''/u is jointly concave in (E, k), and the
    hull of two of the family's slices holds no state either.  An even
    scan of _BAND_RATES rates k in [0, m_inf/hbar_c], scored in one
    stacked call on every _BAND_STRIDE-th sample, picks the rate whose
    slice reaches highest and the one whose slice reaches lowest; both
    slices are proven on every sample.  Hardy's slice joins their hull
    where they overlap, else the wider one is kept: its u''/u = -1/(4
    r**2) stays negative far out, where the family's falls to k**2.
    """
    beta = system.beta
    a = g * (1.0 - 1e-9)
    y = beta / np.expm1(beta * r)
    c0 = y * (a * (a - 1.0) * y - a * beta)

    def family(k, s=slice(None)):       # u''/u of the family at the rate k
        return (c0[s] + k * k) - (2.0 * a * k) * y[s]

    k = np.linspace(0.0, system.asymptotic_mass / system.hbar_c, _BAND_RATES)
    s = slice(None, None, _BAND_STRIDE)
    lo, hi = _no_state_band(w[s], family(k[:, None], s))
    (lo1, hi1), (lo2, hi2) = (_no_state_band(w, family(x))
                              for x in k[[np.argmax(hi), np.argmin(lo)]])
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    h_lo, h_hi = _no_state_band(w, -0.25 / (r * r))
    if h_lo <= hi and lo <= h_hi:
        return min(lo, h_lo), max(hi, h_hi)
    return max((lo, hi), (h_lo, h_hi), key=lambda s: s[1] - s[0])


class _Channel(NamedTuple):
    """One (system, l, mode, grid) channel as a solve reads it."""

    table: np.ndarray    # (2, S, 4, 5) outward, inward steps (_map_table)
    w: np.ndarray        # (K, 3) W's coefficients at the mesh nodes
    turn: np.ndarray     # (K, 3) h**2 W~'s coefficients at the mesh nodes
    r: np.ndarray        # (K,) the mesh nodes' radii
    target: int          # the node nearest r_max/3, where matching aims
    ends: np.ndarray     # (2, 2) r' and r''/(2 r') at r_min and at r_max
    series: tuple        # _origin_series at l: (cm1_const, cm1_lin, g)
    band: tuple          # (lo, hi) of _band over the sweeps' samples


def _channel(system, l, mode, grid):
    """Step table, start data, origin series and no-state band of one
    channel on its mesh.

    The sweeps integrate chi'' = W~ chi on grid.points nodes uniform in x =
    ln r + r/L, L = _MAP_LENGTH/beta (``_mesh``), phi = sqrt(r') chi and W~
    = r'**2 W - {r; x}/2, quadratic in E as W is (the Schwarzian holds no
    E).  One step table, built from the mesh's one spacing h, serves both
    directions (``_map_table``); the band reads W itself at the samples'
    radii.  Row k of w is W's coefficients at node k, so that ``w @ (1, E,
    E**2)`` is W there, and row k of turn is h**2 W~'s.
    The origin series comes first, so an over-attractive origin raises
    before W~'s finiteness check.
    """
    series = _origin_series(system, l)
    (r, slope, curve, schwarz), h = _mesh(grid.r_min, grid.r_max, grid.points,
                                          _MAP_LENGTH / system.beta)
    w = _w_coefficients(system, l, mode, r)
    wt = slope[:, None]**2 * w
    wt[:, 0] -= 0.5 * schwarz
    if not np.all(np.isfinite(wt[:, 0])):
        raise InvalidRegime(
            f"ODE coefficient not finite at r_min={grid.r_min!r}; "
            "the origin offset is too small for these parameters")
    nodes = r[::2]
    return _Channel(_map_table(h, wt), w[::2].copy(),
                    h * h * wt[::2], nodes,
                    int(np.argmin(np.abs(nodes - nodes[-1] / 3.0))),
                    np.stack([slope, 0.5 * curve])[:, [0, -1]].T, series,
                    _band(system, r, w, series[2]))


def _rescale(m, axes=()):
    """Divide the states m, (phi, p) along its first axis, in place by the
    positive factor max(|phi|, |p|), reduced over ``axes`` (the columns of
    a transfer matrix share one factor), and return m.  Signs and the
    log-derivative are unchanged."""
    scale = np.abs(m).max(axis=axes)
    m /= np.where(scale > 0.0, scale, 1.0)
    return m


def _chunk_length(S, B):
    """Chunk length of a sweep of S padded steps for B energies: the
    shortest power of two from 16 to _MAX_CHUNK whose chunk x energy pass
    holds at most _CHUNK_CELLS cells, else _MAX_CHUNK."""
    L = 16
    while L < _MAX_CHUNK and S // L * B > _CHUNK_CELLS:
        L *= 2
    return L


@np.errstate(over="ignore", invalid="ignore")
def _sweep(ch, start, EP, match_idx):
    """Run both directions of the channel ``ch`` for a batch of energies
    from the start states start[:, d], (phi, p) of shape (2, B), of
    direction d (0 outward, 1 inward in the frame psi = (phi, -p) of
    ``_map_table``), as one two-level scan over chunks of its step table;
    EP holds the powers (1, E, E**2, E**3, E**4) of the batch's energies.

    Each direction runs the S_d steps up to the one reaching the batch's
    farthest matching node, S_d rounded up to a multiple of _MAX_CHUNK,
    and the two runs lie end to end on one chunk axis: the C_o outward
    chunks, then the C_i inward ones.  On a mesh of K nodes, match node m
    is reached by outward step m - 1 and by inward step K - 2 - m
    (``_shoot`` keeps 1 <= m <= K - 2).  The chunk length L comes from S_o
    + S_i and the batch width B (_chunk_length): a narrow batch runs 16
    rows over many chunks, a wide one longer, fewer chunks.  Every chunk's
    transfer matrix is built in L row passes, taken in blocks of R rows:
    the RK4 maps of a block, about _CHUNK_CELLS chunk x energy cells per
    entry, are two matrix products, one per direction, of the block's
    table rows with EP into one buffer, read in place from the step table
    (a stack of (C, 5) x (5, B) products, one per row and map entry).  The
    chunk start states come from the inclusive prefix products M_c ... M_0
    of each direction's chunk matrices, by recursive doubling (P_c <- P_c
    P_(c-n) for n = 1, 2, 4, ..., each pass rescaled per chunk) that never
    crosses from one direction into the other: at each pass the inward
    run's first n chunks keep their products.  How the arithmetic is
    grouped depends on B (the BLAS path of the map products, L and R) and
    on S_o + S_i, so an energy's result depends on the batch it shares, at
    rounding level only.

    Nodes are counted from the chunk matrices: the row passes count n_u,
    the sign changes of phi along each chunk's first column u (the image
    of (phi, p) = (1, 0)) at every step.  Two solutions of one equation
    turn the same way through phi = 0 (clockwise in the (phi, p) plane,
    and in the (phi, -p) plane of a sweep in -x) and never pass each
    other, so the solution from the chunk's start state (x, y), flipped to
    x > 0, changes sign n_u times when its end sign has the parity of n_u
    (u starts at phi = 1), else n_u + 1 if it starts ahead of u (y < 0)
    and n_u - 1 if behind (Sturm separation; H. Prüfer, Math. Ann. 95, 499
    (1926)).  A chunk ends at the next one's start state; the match chunk
    ends at the matched state, counted up to the match row, and the chunks
    past it in its direction are dropped.

    Returns (nodes, matched): the sign changes of phi at every step of
    both directions from their starts up to each energy's matching node,
    and each direction's state there, matched[:, d] in the frame of
    start[:, d], known up to a positive factor (each chunk carries its own
    scale); the count holds while no step turns phi by more than about 2
    rad.  Raises
    GridResolution when a chunk matrix, a chunk start state or a matched
    state overflows between rescalings.
    """
    B, K = EP.shape[1], len(ch.r)
    s = np.stack([match_idx - 1, K - 2 - match_idx])
    S = (s.max(axis=1) // _MAX_CHUNK + 1) * _MAX_CHUNK
    L = _chunk_length(int(S.sum()), B)
    Co, Ci = S // L
    C = Co + Ci
    R = max(1, min(L, _CHUNK_CELLS // (C * B)))
    tables = [t[:n].reshape(-1, L, 4, 5).transpose(1, 2, 0, 3)
              for t, n in zip(ch.table, S)]

    # 1. transfer matrix m[:, :, c] of every chunk c, its rows phi and p,
    # its columns the images of (1, 0) and (0, 1), over blocks of R rows:
    # the RK4 maps of a block in two products, then the rows in order,
    # counting the sign changes n_u of the first column's phi.  The matrix
    # and n_u are kept at each energy's match step in each direction,
    # column d*B + b of the captures for direction d and energy b
    m = np.zeros((2, 2, C, B))
    m[0, 0] = m[1, 1] = 1.0
    nxt, tmp = np.empty_like(m), np.empty((2, C, B))
    nu = np.zeros((C, B), dtype=np.uint8)    # at most L <= 128 a chunk
    neg, was = np.zeros((2, C, B), dtype=bool)
    turned = np.empty((C, B), dtype=bool)
    s = s.ravel()
    col = np.tile(np.arange(B), 2)
    mc = s // L + np.repeat([0, Co], B)
    mj = s % L
    cap = {j: np.flatnonzero(mj == j) for j in set(mj.tolist())}
    cm = np.empty((2, 2, 2 * B))        # every column has its match row
    cn = np.empty(2 * B, dtype=np.uint8)
    maps = np.empty((R, 4, C, B))
    for j0 in range(0, L, R):
        rows = maps[:min(R, L - j0)]
        np.matmul(tables[0][j0:j0 + R], EP, out=rows[:, :, :Co])
        np.matmul(tables[1][j0:j0 + R], EP, out=rows[:, :, Co:])
        for j, (m11, m12, m21, m22) in enumerate(rows, j0):
            # in place: fresh chunk-sized temporaries at every row cost a
            # quarter of a wide sweep
            np.multiply(m11, m[0], out=nxt[0])
            nxt[0] += np.multiply(m12, m[1], out=tmp)
            np.multiply(m21, m[0], out=nxt[1])
            nxt[1] += np.multiply(m22, m[1], out=tmp)
            m, nxt = nxt, m
            if (j & 63) == 63:
                _rescale(m, (0, 1))
            was, neg = neg, was
            np.less(m[0, 0], 0.0, out=neg)
            nu += np.not_equal(was, neg, out=turned).view(np.uint8)
            if j in cap:
                cols = cap[j]
                cm[..., cols] = m[..., mc[cols], col[cols]]
                cn[cols] = nu[mc[cols], col[cols]]
    finite = np.isfinite(m).all()
    del nxt, tmp, maps      # free before the doubling's temporaries

    # 2. start state of every chunk: the products P_c = M_c ... M_0 of
    # each direction's chunk matrices by recursive doubling, the inward
    # run's first n chunks kept as they were at pass n
    n = 1
    while n < max(Co, Ci):
        keep = m[:, :, Co:Co + n].copy()
        top, prev = m[:, :, n:], m[:, :, :-n]
        m[:, :, n:] = _rescale(top[:, :1] * prev[:1] + top[:, 1:] * prev[1:],
                               (0, 1))
        m[:, :, Co:Co + n] = keep
        n *= 2
    d = np.repeat([0, 1], [Co - 1, Ci])     # direction of chunks 1 ... C - 1
    st = np.empty((2, C, B))
    st[:, 1:] = m[:, 0, :-1] * start[0, d] + m[:, 1, :-1] * start[1, d]
    st[:, [0, Co]] = start                  # each direction's own start
    matched = st[:, mc, col]
    matched = cm[:, 0] * matched[0] + cm[:, 1] * matched[1]
    if not (finite and np.isfinite(st).all()
            and np.isfinite(matched).all()):
        raise GridResolution(
            "oracle sweep overflowed: phi is not finite; the grid is too "
            "coarse for these parameters; increase grid.points "
            f"(currently {K})")

    # 3. the solution's sign changes in every chunk from u's: a chunk ends
    # at the next one's start state, the match chunk at the matched state
    # with u's count at the match row, and the chunks past each
    # direction's match are dropped
    sphi, sp = st
    end = np.concatenate([sphi[1:], sphi[-1:]])     # each last: a filler
    end[mc, col] = matched[0]
    nu[mc, col] = cn
    flip = np.where(sphi < 0.0, -1.0, 1.0)          # start with x > 0
    odd = (flip * end < 0.0) != ((nu & 1) == 1)     # parities differ
    ahead = np.where(flip * sp < 0.0, 1, -1)
    c = np.arange(C)[:, None]
    nodes = np.sum(nu + odd * ahead, axis=0,
                   where=(c <= mc[:B]) | ((c >= Co) & (c <= mc[B:])))
    return nodes, matched.reshape(2, 2, B)


def _shoot(ch, E, match_idx):
    """Two-sided sweep of the channel ``ch`` for a batch of energies, both
    directions in one ``_sweep``: outward from the origin series at r_min,
    inward from the decaying start at r_max given as psi = (chi, -chi'),
    the frame of the inward step table (``_map_table``), whose second
    entry is negated back at the match.  Each match_idx is a mesh node
    with 1 <= match_idx <= K - 2, so that both directions take at least
    one step; ``_nearest_crossing`` clips its indices to [2, K - 2].

    Returns (mismatch, nodes, glue): the Wronskian-normalized
    log-derivative defect at each energy's matching index (of the same
    sign at any match), the interior node count of the glued solution,
    and sign(out_phi * in_phi) at the match.
    """
    E = np.atleast_1d(np.asarray(E, dtype=float))
    B = E.size
    match_idx = np.broadcast_to(np.asarray(match_idx, int), (B,))
    EP = np.vander(E, 5, increasing=True).T.copy()

    cm1c, cm1l, g = ch.series
    c1 = (cm1c + cm1l * E) / (2.0 * g)
    (s0, k0), (s1, k1) = ch.ends

    # outward: series start at r_min, carried to chi = phi / sqrt(r') by
    # chi'/chi = r' phi'/phi - r''/(2 r').  Inward: exponentially decaying
    # start at r_max, phi'/phi = -sqrt(W) from W itself, where the first
    # inward step starts, as psi = (chi, -chi')
    r0 = ch.r[0]
    phi = 1.0 + c1 * r0
    out = _rescale(np.stack([phi, s0 * (g / r0 + c1 * (g + 1.0)) - k0 * phi]),
                   0)
    W_end = np.maximum(ch.w[-1] @ EP[:3], 0.0)
    back = np.stack([np.ones(B), s1 * np.sqrt(W_end) + k1])
    nodes, ((out_phi, in_phi), (out_p, in_p)) = _sweep(
        ch, np.stack([out, back], axis=1), EP, match_idx)
    in_p = -in_p

    # Wronskian-form mismatch: zero exactly when log-derivatives agree,
    # free of poles at nodes of either sweep
    wr = out_p * in_phi - in_p * out_phi
    mism = wr / (np.abs(out_p * in_phi) + np.abs(in_p * out_phi) + 1e-300)
    return mism, nodes, np.sign(out_phi) * np.sign(in_phi)


def _nearest_crossing(w, EP, target):
    """Per column of the finite w @ EP (K, B), with w holding W's
    coefficient rows at the mesh nodes and EP the powers of each energy:
    the index i of the sign change between nodes i and i + 1 nearest the
    node ``target``, the lower one on a tie, K//2 where none is found,
    clipped to [2, K - 2].  A zero sample is a sign change with both its
    neighbours.
    The product is formed a block of nodes at a time, at least _NODE_BLOCK
    nodes and about _NODE_BLOCK**2 node x energy cells, so that only the
    boolean mask of sign changes is whole."""
    K, B = len(w), EP.shape[1]
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


def _check_phase(ch, E):
    """Raise GridResolution unless no mesh step in the allowed region of
    the energies E turns chi by more than 2 rad: h**2 (-W~) <= 4 at every
    node where W~ < 0.  Beyond that the mesh cannot resolve a state, and
    its node count need not be the one a finer mesh gives.  In a forbidden
    region RK4 multiplies the two modes by P(+-h sqrt(W~)), P the positive
    4th-order Taylor polynomial of exp, so a step there adds no node,
    however large.  The message names the state with the largest turn."""
    worst = np.max(-(ch.turn @ np.vander(E, 3, increasing=True).T), axis=0,
                   initial=0.0)
    if np.any(worst > 4.0):
        i = int(np.argmax(worst))
        raise GridResolution(
            f"the state near E={float(E[i])!r} turns phi by "
            f"{math.sqrt(worst[i]):.3g} rad in one mesh step, more than 2: "
            f"the grid is too coarse to resolve these states; increase "
            f"grid.points (currently {len(ch.w)})")


def find_bound_states(system: PhysicalSystem, l: int, window=None,
                      mode: str = "approx",
                      grid: Optional[RadialGrid] = None,
                      scan_points: int = 240):
    """All bound states of one (l, mode) channel inside the energy window.

    One loop of sweeps.  Each sweep shoots the current row(s) of scan
    energies together with one false-position point per open bracket,
    every energy matched at its own turning index.  The first row is
    ``scan_points`` energies less each one whose two neighbours lie in the
    channel's no-state band, so every merged piece lies inside the band.
    There W - u''/u >= 0 at every sample of the sweeps for a positive
    trial function u (``_band``): u = z**a exp(-k r), or Hardy's u =
    r**(1/2), the case that family extends, with u ~ r**a, a <= g, at the
    origin, where the regular solution goes like r**g.  A state phi = u v
    at E would give integral(u**2 v'**2) + integral((W - u''/u) phi**2) =
    -lim_(r -> 0) phi**2 (phi'/phi - u'/u) <= 0, though the left side is
    positive (v is not constant): no state lies there (the ground-state
    representation; for u = r**(1/2), Hardy's inequality, G. H. Hardy,
    Math. Z. 6, 314 (1920)).

    One bracket rule holds at every level: a flat node count with a
    mismatch sign change is a bracket; a node-count jump is split 16-fold
    and scanned again, on the first row always (a root pair can straddle
    a jump), below it when the mismatch changes sign (it is continuous
    through a jump) or the count jumps by 2 or more (two states can share
    a piece).  A piece still jumping below the tolerance is named in a
    warning and refined as a bracket.

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

    A state is "upper" where its Klein-Gordon charge Q = integral of
    (E - V) phi**2 dr is positive.  The mismatch's slope in E is the
    integral of dW~/dE chi**2 dx = dW/dE phi**2 dr = -2 (E - V) phi**2 /
    hbar_c**2 dr times a positive factor and sign(out_chi * in_chi) at the
    match, so sign(Q) = -sign(fb - fa) * sign(out_chi * in_chi), "upper"
    where fb == fa.

    Node counts are sign changes of chi, which has phi's sign, at every
    RK4 step (``_sweep``), and two rules guard the mesh.  The count may
    not drop between scan energies above max V(r) over the mesh nodes
    (there dW/dE = -2(E - V)/hbar_c**2 < 0 at every node, so the count
    cannot fall unless the mesh fails to resolve the states; below it the
    count need not be monotone, and a drop is split like any other jump).
    And no returned state may take an allowed-region mesh step (W~ < 0)
    that turns chi by more than 2 rad (``_check_phase``); a
    forbidden-region step adds no node, however large.

    Raises ValueError for a window outside the binding range or fewer than
    2 scan points, InvalidRegime for an over-attractive origin (or W~ not
    finite on the mesh), GridResolution when a sweep overflows or either
    mesh rule fails, and returns an empty list when nothing brackets.
    """
    lo, hi = binding_window(system, window)
    if scan_points < 2:
        raise ValueError(f"scan_points must be >= 2, got {scan_points!r}")
    if grid is None:
        grid = default_grid(system)
    ch = _channel(system, l, mode, grid)

    tol = 1e-10 * system.m0
    v_max = np.max(system.potential_at(ch.r))
    states = []
    # open brackets: ends, their mismatches, the end last kept (-1 for a,
    # +1 for b, 0 at the start) and the Illinois steps taken
    a, b, fa, fb = np.empty((4, 0))
    side, steps = np.empty((2, 0), dtype=int)
    # the first row keeps both ends of every piece that can hold a state:
    # an energy goes when both its neighbours lie in the no-state band
    E = np.linspace(lo, hi, scan_points)
    inside = (E >= ch.band[0]) & (E <= ch.band[1])
    E, first = E[np.r_[True, ~(inside[:-2] & inside[2:]), True]][None], True
    while E.size or a.size:            # one row of scan energies per piece
        c = np.divide(fa * b - fb * a, fa - fb, out=0.5 * (a + b),
                      where=fa != fb)
        d = np.minimum(0.01 * (b - a), 0.5 * tol)
        c = np.clip(c, a + d, b - d)
        batch = np.concatenate([E.ravel(), c])
        match = _nearest_crossing(ch.w, np.vander(batch, 3, increasing=True).T,
                                  ch.target)
        mism, nodes, glue = _shoot(ch, batch, match)
        fc, nc, gc = (x[E.size:] for x in (mism, nodes, glue))
        mism, nodes = (x[:E.size].reshape(E.shape) for x in (mism, nodes))

        # one Illinois step on every open bracket; an exact zero is the
        # root, so the bracket collapses onto it.  The step keeps the signs
        # of the ends, so the slope's sign is still that of the scan ends
        rise = np.sign(fb - fa)
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
            converged=bool(w < tol and abs(f) <= _MISMATCH_TOL),
            branch="lower" if q > 0 else "upper")
            for e, n, f, w, q in zip(c[done], nc[done], fc[done],
                                     (b - a)[done], (rise * gc)[done])]

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
    _check_phase(ch, np.array([d.energy for d in states]))
    states.sort(key=lambda d: d.energy)
    return states


def approximation_error(system: PhysicalSystem, n: int, l: int, betas):
    """Quality of the screened-centrifugal surrogate across screening rates.

    For each beta the (n, l) state is solved in both modes and the energies
    are compared.  A state is keyed by (node count, branch), as the
    spectrum's rows are: the upper n-node state where either mode has
    one, else the lower.  Rows where either mode lacks a unique state of
    that key are flagged "unmatched"; betas whose parameters admit no
    analysis at all are flagged "invalid_regime", and betas whose states
    the default grid cannot resolve "grid_resolution".  Rows are never
    dropped.  For l = 0 the two modes are the same equation, so each beta
    is solved once and both columns share that solve: the error there is
    0 by construction.
    """
    if n < 0 or l < 0:
        raise ValueError("n and l must be >= 0")
    rows = []
    for beta in betas:
        variant = replace(system, beta=float(beta))
        try:
            modes = ("approx", "exact") if l else ("approx",)
            found = [[d for d in find_bound_states(variant, l, mode=m)
                      if d.node_count == n] for m in modes]
        except SolverError as exc:
            status = exc.status
        else:
            branch = "upper" if any(d.branch == "upper" for f in found
                                    for d in f) else "lower"
            found = [[d.energy for d in f if d.branch == branch]
                     for f in found]
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
