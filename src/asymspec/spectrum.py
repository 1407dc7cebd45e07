"""Resolvent fields, spectra, and resolvent transport for matrix families.

The central object is the resolvent norm field: over a square grid of
complex points, the tail statistic of h -> ||(lambda I - S_h)^{-1}||.
Points where that statistic blows up make up the family spectrum estimate;
everything else belongs to the family resolvent set. One rule governs
singular samples: inside the tail window a singular sample makes the point
unresolved (inf, or UnresolvedPoint where a resolvent is needed); outside
it the sample is ignored, since every limit h -> 0 is read from the window.

Tail statistics only depend on the trailing window of the h-grid, so
every tail statistic evaluates the family at the window samples alone and
inverts, multiplies and takes norms there only: the default region, the
field sweeps, resolvent_at, the resolvent identities, defects and series
transport. An evaluation error therefore raises only where it names a
window h. A sweep evaluates the window once, in the calling thread, and
slices the region's points by one rule (see resolvent_norm_field): numpy
kernels in the calling thread up to dimension 3, batched LAPACK SVDs on a
thread pool from dimension 4 up, and the field does not depend on the CPU
count.

Per-h resolvent data has one form: a stack (k, d, d) ordered like the
h-samples, in which a NaN member marks a singular sample or a missing
candidate.

The spectrum estimate clusters the flagged points with a numpy labelling
(see _label_cells), so the package needs nothing beyond numpy.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, LengthMismatch, UnresolvedPoint
from .families import (
    FamilySpec,
    HGrid,
    TailEstimate,
    family_eval_stack,
    family_pair_stacks,
    window_limsup,
    window_sup,
)
from .linalg import (
    Workspace,
    inverse_stack,
    is_singular,
    singular_values_2x2,
    singular_values_3x3,
    spectral_norms,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# regions and fields


@dataclass(frozen=True)
class ComplexRegion:
    """Axis-aligned square window of the complex plane, sampled on a grid.

    resolution is the per-axis point count; odd so the center is a sample.
    """

    center: complex
    half_width: float
    resolution: int = 101

    def __post_init__(self):
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise BadParameter("region center must be finite")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise BadParameter("region half_width must be finite and positive")
        c, w = self.center, self.half_width
        # the grid's extremes and its width, which must not overflow
        if not all(map(math.isfinite, (c.real - w, c.real + w, c.imag - w, c.imag + w, 2.0 * w))):
            raise BadParameter("region center +- half_width overflows")
        if self.resolution < 21 or self.resolution % 2 == 0:
            raise BadParameter("region resolution must be odd and at least 21")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.resolution - 1)

    @property
    def xs(self) -> np.ndarray:
        return self.center.real + np.linspace(-self.half_width, self.half_width, self.resolution)

    @property
    def ys(self) -> np.ndarray:
        return self.center.imag + np.linspace(-self.half_width, self.half_width, self.resolution)


@dataclass(frozen=True)
class ResolventField:
    """Tail resolvent norms over a region; values[iy, ix] pairs with (xs[ix], ys[iy])."""

    region: ComplexRegion
    values: np.ndarray

    def __post_init__(self):
        expected = (self.region.resolution, self.region.resolution)
        if self.values.shape != expected:
            raise LengthMismatch(f"field shape {self.values.shape} != {expected}")


@dataclass(frozen=True)
class ResolventSweep:
    """Resolvents of one point at the tail-window samples, plus the tail verdict.

    inverses is the stack (grid.tail_window, d, d) of (lam I - S_h)^{-1},
    ordered like grid.window_samples, NaN at a singular sample; norms holds
    their spectral norms, inf at a singular sample.
    """

    lambda_: complex
    inverses: np.ndarray
    norms: np.ndarray
    tail: TailEstimate


def resolvent_at(sf: FamilySpec, lam: complex, grid: HGrid) -> ResolventSweep:
    """Invert (lam I - S_h) at the tail-window samples."""
    r = inverse_stack(lam * np.eye(sf.dim) - family_eval_stack(sf, grid.window_samples))[0]
    norms = spectral_norms(r)
    return ResolventSweep(lam, r, norms, window_limsup(norms, grid))


def resolvent_defect(
    sf: FamilySpec, rf: np.ndarray, lam: complex, grid: HGrid
) -> tuple[TailEstimate, TailEstimate]:
    """Tail norms of (lam I - S_h) R_h - I and R_h (lam I - S_h) - I.

    rf is a stack (grid.tail_window, d, d) of candidate resolvents, one per
    window sample, as resolvent_at returns them; a NaN member marks a sample
    with no candidate, which scores inf and poisons the tail.
    """
    if len(rf) != grid.tail_window:
        raise LengthMismatch(f"expected {grid.tail_window} candidate matrices, got {len(rf)}")
    return _defects(lam * np.eye(sf.dim) - family_eval_stack(sf, grid.window_samples), rf, grid)


def _defects(a: np.ndarray, r: np.ndarray, grid: HGrid) -> tuple[TailEstimate, TailEstimate]:
    """Tail norms of a_h r_h - I and r_h a_h - I over the window stacks a and r."""
    eye = np.eye(a.shape[-1])
    # a product that overflows has norm inf, which the tail reports
    with np.errstate(over="ignore", invalid="ignore"):
        products = (a @ r, r @ a)
    return tuple(window_limsup(spectral_norms(p - eye), grid) for p in products)


# ---------------------------------------------------------------------------
# field sweeps

# Region rows per slice of a sweep up to dimension 3, whose numpy kernels
# make a few dozen to a few hundred passes per slice, so a slice must be long
# enough to amortise Python's cost per call. With a 6-sample window (2-vCPU
# x86-64): on a 101^2 dim-2 sweep one row per slice took 10.6 ms, eight rows
# 5.5 ms with a 1.3 MB traced peak, and the whole field as one slice 12.3 ms
# and 13 MB; on a dim-3 Jordan-type sweep eight rows took 15-16 ms at 41^2
# (two rows 21-23 ms, the whole field 12-15 ms) and 78 ms at 101^2 (sixteen
# rows 88-90 ms).
ROWS_PER_SLICE = 8

# Each thread's workspace for the sweeps up to dimension 3 (linalg.Workspace).
# It outlives the sweep, because callers such as the CLI and a request loop
# hold nothing from one sweep to the next, and a workspace made per sweep
# returns its pages to the OS at the end and faults them in again in the
# next. A thread keeps it while it holds at most KEPT_WORKSPACE_BYTES; a
# dimension-3 sweep at resolution 101 with a 6-sample window needs 5.7 MB.
_thread_state = threading.local()
KEPT_WORKSPACE_BYTES = 16 * 2**20


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def resolvent_norm_field(sf: FamilySpec, region: ComplexRegion, grid: HGrid) -> ResolventField:
    """Sweep the tail resolvent norm max_h 1/sigma_min(lam I - S_h) over the region.

    Each tail-window matrix is evaluated once, in the calling thread. The
    region's points, in y-major order, are cut into slices, and each slice
    gets the singular values of lam I - S_h at every (point, window sample)
    in one call; a sample that is singular under linalg.is_singular makes
    its point inf. One rule schedules the slices. Up to dimension 3 the call
    is a numpy kernel, within a few eps sigma_max of LAPACK: |lam - s_h| at
    dimension 1, the closed form linalg.singular_values_2x2 at dimension 2,
    the Jacobi kernel linalg.singular_values_3x3 at dimension 3. It runs on
    slices of ROWS_PER_SLICE rows in the calling thread, whose workspace
    holds every large intermediate from slice to slice and from sweep to
    sweep. From dimension 4 up it is one batched SVD, on slices of
    ceil(resolution / workers) points, one worker thread per available CPU,
    so the slices in flight hold about one row's worth of shifted matrices.
    No kernel lets one point's value
    depend on another's, so the field is the same for any worker count or
    slice size. A region on which lam - s_h overflows for a diagonal entry
    s_h raises UnresolvedPoint before any slice runs.
    """
    window = family_eval_stack(sf, grid.window_samples)
    _require_finite_shifts(region, window)
    samples = window.shape[0]
    if sf.dim == 1:
        s11 = window[:, 0, 0]

        def singular_values(lams: np.ndarray, work: Workspace) -> np.ndarray:
            shape = (lams.shape[0], samples)
            shifted = np.subtract(lams, s11, out=work("shifted", shape, np.complex128))
            return np.abs(shifted, out=work("sigma", shape))[..., None]

    elif sf.dim == 2:
        s11, s22 = window[:, 0, 0], window[:, 1, 1]
        b, c = -window[:, 0, 1], -window[:, 1, 0]

        def singular_values(lams: np.ndarray, work: Workspace) -> np.ndarray:
            shape = (lams.shape[0], samples)
            a = np.subtract(lams, s11, out=work("shifted11", shape, np.complex128))
            d = np.subtract(lams, s22, out=work("shifted22", shape, np.complex128))
            return singular_values_2x2(a, b, c, d, work)

    else:
        eye = np.eye(sf.dim)

        def singular_values(lams: np.ndarray, work: Workspace) -> np.ndarray:
            shifted = work("shifted", (lams.shape[0],) + window.shape, np.complex128)
            np.subtract(np.multiply(lams[..., None, None], eye, out=shifted), window, out=shifted)
            if sf.dim == 3:
                return singular_values_3x3(shifted, work)
            return np.linalg.svd(shifted, compute_uv=False)

    def tail_norms(lams: np.ndarray, work: Workspace) -> np.ndarray:
        s = singular_values(lams[:, None], work)
        sigma_min = s[..., -1]
        norms = work("norms", sigma_min.shape)
        norms.fill(INF)
        np.divide(1.0, sigma_min, out=norms, where=~is_singular(s))
        return norms.max(axis=1)

    n = region.resolution
    lams = (region.xs[None, :] + 1j * region.ys[:, None]).ravel()
    if sf.dim <= 3:
        step = n * ROWS_PER_SLICE
        work = getattr(_thread_state, "work", None) or Workspace()
        values = [tail_norms(lams[i : i + step], work) for i in range(0, lams.size, step)]
        _thread_state.work = work if work.nbytes <= KEPT_WORKSPACE_BYTES else None
    else:
        workers = _cpu_count()
        step = -(-n // workers)
        slices = [lams[i : i + step] for i in range(0, lams.size, step)]
        with ThreadPoolExecutor(workers) as pool:
            values = list(pool.map(lambda part: tail_norms(part, Workspace()), slices))
    return ResolventField(region, np.concatenate(values).reshape(n, n))


def _require_finite_shifts(region: ComplexRegion, window: np.ndarray) -> None:
    """Raise UnresolvedPoint when lam - s overflows for a point lam of the
    region and a diagonal entry s of a window sample, where a sweep would
    return an inf or NaN field. The real and imaginary parts of lam - s are
    linear in lam, so their extremes over the square sit at its corners."""
    corners = (region.xs[[0, -1], None] + 1j * region.ys[[0, -1]]).ravel()
    with np.errstate(over="ignore"):
        shifts = corners[:, None] - np.diagonal(window, axis1=1, axis2=2).ravel()
    if not np.isfinite(shifts).all():
        raise UnresolvedPoint(
            "lambda - S_h overflows between the region and the family's diagonal; "
            "shrink the region or rescale the family"
        )


# ---------------------------------------------------------------------------
# spectrum estimation


@dataclass(frozen=True)
class Cluster:
    """One connected blob of flagged grid points."""

    centroid: complex
    radius: float
    cell_count: int


@dataclass(frozen=True)
class SpectrumEstimate:
    region: ComplexRegion
    epsilon: float
    clusters: tuple[Cluster, ...]
    flagged: np.ndarray  # boolean mask, same layout as the field values


def default_region(sf: FamilySpec, grid: HGrid) -> ComplexRegion:
    """The square about 0 of half-width 1.25 times the largest ||S_h|| over
    the tail window, at least 1, at resolution 101. Every eigenvalue of S_h
    has |lam| <= ||S_h||, so it encloses every window spectrum.

    Raises UnresolvedPoint when that norm is too large for the square's
    width to be finite.
    """
    upper = window_sup(spectral_norms(family_eval_stack(sf, grid.window_samples)))
    half = 1.25 * max(upper, 0.8)
    if not math.isfinite(2.0 * half):
        raise UnresolvedPoint(
            f"the window's largest ||S_h|| ({upper!r}) gives no finite default region; "
            "give a half-width (--region-half-width)"
        )
    return ComplexRegion(0 + 0j, half, 101)


def _label_cells(flagged: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected labelling of a boolean mask, as scipy.ndimage.label with a
    3x3 structure gives it: the label image and the label count, labels
    running from 1 in the raster order of each cluster's first cell.

    It follows the run-based two-scan design of He, Chao and Suzuki (IEEE
    Trans. Image Process. 17(5), 2008), in O(runs + links) work and at most
    log2(runs) pointer-jumping passes, whatever the clusters' shapes. A run
    is a maximal stretch of flagged cells in one row; runs are numbered in
    raster order. A run [s, e) touches a run [s', e') of the row above,
    diagonals included, when s' <= e and e' >= s, so the runs it touches are
    consecutive and two searchsorted calls over the runs' raster keys find
    them. Linking each run to the first of those gives a forest whose
    parents precede their children; the other links are united one by one,
    each root being the smaller of the two, so every cluster's root is its
    first run. Every parent still precedes its child, so the forest is at
    most runs deep, and each pointer-jumping pass halves its depth.
    """
    ny, nx = flagged.shape
    padded = np.zeros((ny, nx + 2), dtype=np.int8)
    padded[:, 1:-1] = flagged
    step = np.diff(padded, axis=1)
    rows, starts = np.nonzero(step == 1)
    ends = np.nonzero(step == -1)[1]
    # raster keys: row * width + column, with width past the largest end
    width = nx + 1
    above = (rows - 1) * width
    first = np.searchsorted(ends + rows * width, starts + above, "left")
    stop = np.searchsorted(starts + rows * width, ends + above, "right")
    runs = np.arange(rows.size)
    parent = np.where(first < stop, first, runs)
    extra = stop - first - 1
    many = extra > 0
    if many.any():
        counts = extra[many]
        below = np.repeat(runs[many], counts)
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        upper = np.repeat(first[many] + 1, counts) + offsets
        tree = parent.tolist()
        for a, b in zip(upper.tolist(), below.tolist()):
            # path halving to both roots, then the larger root joins the smaller
            while tree[a] != a:
                tree[a] = a = tree[tree[a]]
            while tree[b] != b:
                tree[b] = b = tree[tree[b]]
            if a < b:
                tree[b] = a
            elif b < a:
                tree[a] = b
        parent = np.array(tree)
    while not np.array_equal(grand := parent[parent], parent):
        parent = grand
    is_root = parent == runs
    run_labels = np.cumsum(is_root)[parent]
    labels = np.zeros(flagged.shape, dtype=np.int32)
    labels[flagged] = np.repeat(run_labels, ends - starts)
    return labels, int(is_root.sum())


def spectrum_estimate(field: ResolventField, epsilon: float | None = None) -> SpectrumEstimate:
    """Flag grid points whose tail resolvent norm reaches 1/epsilon; cluster them.

    epsilon defaults to 0.75 times the grid spacing. sigma_min is 1-Lipschitz
    in lambda, so the grid point nearest an eigenvalue has sigma_min <=
    spacing/sqrt(2) < 0.75 * spacing: the default flags it wherever the
    eigenvalue falls.

    Clustering is 8-connected, by _label_cells: diagonal neighbors belong to
    the same blob. Clusters come back sorted by centroid (real part, then
    imaginary part).
    """
    if epsilon is None:
        epsilon = 0.75 * field.region.spacing
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise BadParameter("epsilon must be finite and positive")
    threshold = 1.0 / epsilon
    flagged = field.values >= threshold
    labels, n_blobs = _label_cells(flagged)
    xs = field.region.xs
    ys = field.region.ys
    clusters = []
    for blob in range(1, n_blobs + 1):
        iys, ixs = np.nonzero(labels == blob)
        pts = xs[ixs] + 1j * ys[iys]
        centroid = complex(pts.mean())
        radius = float(np.abs(pts - centroid).max())
        clusters.append(Cluster(centroid, radius, int(pts.size)))
    clusters.sort(key=lambda c: (c.centroid.real, c.centroid.imag))
    return SpectrumEstimate(field.region, epsilon, tuple(clusters), flagged)


def clusters_match(a: SpectrumEstimate, b: SpectrumEstimate) -> bool:
    """Same cluster count and pairwise-close centroids, up to one grid spacing."""
    if len(a.clusters) != len(b.clusters):
        return False
    spacing = max(a.region.spacing, b.region.spacing)
    return all(
        abs(ca.centroid - cb.centroid) <= spacing + 1e-9
        for ca, cb in zip(a.clusters, b.clusters)
    )


# ---------------------------------------------------------------------------
# resolvent identities


def _resolvents(a: np.ndarray, lam: complex, grid: HGrid) -> np.ndarray:
    """(lam I - a_h)^{-1} for the stack a of the window samples' family
    values; UnresolvedPoint when one of them is singular."""
    r, singular = inverse_stack(lam * np.eye(a.shape[-1]) - a)
    if singular.any():
        h = grid.window_samples[int(np.argmax(singular))]
        raise UnresolvedPoint(f"resolvent missing at h={h!r} for lam={lam}")
    return r


def resolvent_equation_residual(
    sf: FamilySpec, lam: complex, mu: complex, grid: HGrid
) -> TailEstimate:
    """Tail norm of R(lam) - R(mu) - (mu - lam) R(lam) R(mu) over the window."""
    a = family_eval_stack(sf, grid.window_samples)
    r_lam = _resolvents(a, lam, grid)
    r_mu = _resolvents(a, mu, grid)
    return window_limsup(spectral_norms(r_lam - r_mu - (mu - lam) * (r_lam @ r_mu)), grid)


def resolvent_commutation_residual(
    sf: FamilySpec, lam: complex, grid: HGrid, mu: complex | None = None
) -> TailEstimate:
    """Tail norm of [S_h, R(lam)] (mu=None) or [R(lam), R(mu)] over the window."""
    a = family_eval_stack(sf, grid.window_samples)
    r_lam = _resolvents(a, lam, grid)
    other = a if mu is None else _resolvents(a, mu, grid)
    return window_limsup(spectral_norms(other @ r_lam - r_lam @ other), grid)


# ---------------------------------------------------------------------------
# resolvent transport between bracket-related families

MAX_SERIES_TERMS = 30


@dataclass(frozen=True)
class SeriesTransport:
    """Truncated transport of T's resolvent toward S's at one point.

    matrices is the stack (grid.tail_window, d, d) of the partial sums at the
    window samples; the defect estimates measure (lam I - S_h) Sigma - I and
    Sigma (lam I - S_h) - I there.
    term_tails holds the tail norm of every summand B_n R^{n+1}, n = 0..N,
    each summed by the recurrence of series_resolvent; the last of them,
    last_term_tail, is a truncation gauge.
    """

    lambda_: complex
    n_terms: int
    matrices: np.ndarray
    left_defect: TailEstimate
    right_defect: TailEstimate
    term_tails: tuple[float, ...]

    @property
    def last_term_tail(self) -> float:
        return self.term_tails[-1]


def series_resolvent(
    sf: FamilySpec,
    tf: FamilySpec,
    lam: complex,
    grid: HGrid,
    n_terms: int,
) -> SeriesTransport:
    """Approximate (lam I - S_h)^{-1} from (lam I - T_h)^{-1} via bracket series.

    Partial sum: Sigma_N = sum_{n=0}^{N} B_n R^{n+1} with B_n the order-n
    bracket of (S_h, T_h) and R = (lam I - T_h)^{-1}. Multiplying across,
    (lam I - S_h) Sigma_N = I - B_{N+1} R^{N+1}, so the defect is exactly the
    tail of the series; when the bracket roots die the defect vanishes.

    The summands X_n = B_n R^{n+1} follow their own recurrence,
    X_0 = R and X_{n+1} = (S_h X_n - X_n T_h) R, since R commutes with T_h.
    It never forms B_n or R^{n+1}, which may overflow and underflow while
    their product, the summand, is finite.

    Both families are evaluated at the tail-window samples alone, where the
    resolvents, the recurrence, the partial sums and their norms run too.
    Raises UnresolvedPoint when lam is not in T's resolvent set at some
    window sample, and at the first order whose partial sum leaves the float
    range at some window sample: the series diverges there. numpy's warnings
    on the way there are silenced, the refusal says it.
    """
    if not (0 <= n_terms <= MAX_SERIES_TERMS):
        raise BadParameter(f"n_terms must lie in [0, {MAX_SERIES_TERMS}]")
    sa, ta = family_pair_stacks(sf, tf, grid.window_samples)
    r = _resolvents(ta, lam, grid)
    term = total = r
    term_tails = [window_sup(spectral_norms(term))]
    for n in range(1, n_terms + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            term = (sa @ term - term @ ta) @ r
            total = total + term
        finite = np.isfinite(total).all(axis=(1, 2))
        if not finite.all():
            h = grid.window_samples[int(finite.argmin())]
            raise UnresolvedPoint(
                f"the bracket series at lam={lam} diverges: its partial sum of order {n} "
                f"leaves the float range at h={h!r}"
            )
        term_tails.append(window_sup(spectral_norms(term)))
    left, right = _defects(lam * np.eye(sf.dim) - sa, total, grid)
    return SeriesTransport(
        lambda_=lam,
        n_terms=n_terms,
        matrices=total,
        left_defect=left,
        right_defect=right,
        term_tails=tuple(term_tails),
    )


# ---------------------------------------------------------------------------
# serialization


def field_to_csv(field: ResolventField) -> str:
    """CSV dump, header re,im,value, rows in y-major order matching values.

    Every number is written as "%.17g". Each coordinate is formatted once (x
    per region, y per row), and each region row is one template, the x parts
    joined by the row's y part and a "%.17g" slot, filled by a single % over
    the row's values.
    """
    xs = ["%.17g," % x for x in field.region.xs.tolist()]
    parts = ["re,im,value\n"]
    for y, row in zip(field.region.ys.tolist(), field.values.tolist()):
        cell = "%.17g,%%.17g\n" % y
        parts.append((cell.join(xs) + cell) % tuple(row))
    return "".join(parts)


def spectrum_to_dict(estimate: SpectrumEstimate) -> dict:
    return {
        "epsilon": estimate.epsilon,
        "region": {
            "center_re": estimate.region.center.real,
            "center_im": estimate.region.center.imag,
            "half_width": estimate.region.half_width,
            "resolution": estimate.region.resolution,
        },
        "clusters": [
            {
                "centroid_re": c.centroid.real,
                "centroid_im": c.centroid.imag,
                "radius": c.radius,
                "cell_count": c.cell_count,
            }
            for c in estimate.clusters
        ],
    }


__all__ = [
    "ComplexRegion",
    "ResolventField",
    "ResolventSweep",
    "Cluster",
    "SpectrumEstimate",
    "SeriesTransport",
    "resolvent_at",
    "resolvent_defect",
    "resolvent_norm_field",
    "default_region",
    "spectrum_estimate",
    "clusters_match",
    "resolvent_equation_residual",
    "resolvent_commutation_residual",
    "series_resolvent",
    "field_to_csv",
    "spectrum_to_dict",
    "MAX_SERIES_TERMS",
]
