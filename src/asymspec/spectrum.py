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
schedules its kernel calls by one rule (see resolvent_norm_field): numpy
kernels in the calling thread up to dimension 3, batched LAPACK SVDs on a
thread pool from dimension 4 up, and the field does not depend on the CPU
count. It evaluates every point at the window's first and last samples,
and an interior sample only where a second-order bound along the segment
between those two matrices cannot prove that the sample leaves the
point's value as it is; the field is the one that evaluating every
sample gives, bit for bit.

Per-h resolvent data has one form: a stack (k, d, d) ordered like the
h-samples, in which a NaN member marks a singular sample or a missing
candidate.

The spectrum estimate clusters the flagged points with a numpy labelling
(see _label_cells), so the package needs nothing beyond numpy.
"""

from __future__ import annotations

import contextlib
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
    SINGULAR_RTOL,
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
            raise BadParameter("region center must be finite", param="center")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise BadParameter("region half_width must be finite and positive", param="half_width")
        c, w = self.center, self.half_width
        # the grid's extremes and its width, which must not overflow
        if not all(map(math.isfinite, (c.real - w, c.real + w, c.imag - w, c.imag + w, 2.0 * w))):
            raise BadParameter("region center +- half_width overflows", param="region")
        if self.resolution < 21 or self.resolution % 2 == 0:
            raise BadParameter("region resolution must be odd and at least 21", param="resolution")

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

# Rounding allowance of the window-sample skip in resolvent_norm_field. In
# units of a point's sigma_max bound, SKIP_ALLOWANCE * dim * eps comes off
# both ends' sigma_min and onto the least sigma_min a skipped sample must
# keep, for the rounding of the kernels (a few eps sigma_max, LAPACK's
# growing with dim) and of the formed shifts lam - s_h; the norms of R, of
# the E_j and of the window matrices are raised by as much, and the bound's
# own arithmetic gets SKIP_ALLOWANCE * eps of its terms. On rounding-level
# ties (a constant plus h times 1e-12 to 1e-9 in one of its zero entries,
# dimensions 1 to 5) the skip changed some values with no allowance and none
# with an allowance of 1 or more.
SKIP_ALLOWANCE = 64
EPS = float(np.finfo(np.float64).eps)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def resolvent_norm_field(sf: FamilySpec, region: ComplexRegion, grid: HGrid) -> ResolventField:
    """Sweep the tail resolvent norm max_h 1/sigma_min(lam I - S_h) over the region.

    Each tail-window matrix is evaluated once, in the calling thread. The
    value at a point is max_j 1/s_j over the window samples j, where s_j is
    the smallest singular value of lam I - S_{h_j} as the dimension's kernel
    computes it; a sample that is singular under linalg.is_singular makes
    its point inf. Up to dimension 3 the kernel is numpy, within a few eps
    sigma_max of LAPACK: |lam - s_h| at dimension 1, the closed form
    linalg.singular_values_2x2 at dimension 2, the Jacobi kernel
    linalg.singular_values_3x3 at dimension 3. From dimension 4 up it is a
    batched LAPACK SVD.

    The sweep makes two passes. The endpoint pass evaluates every point at
    the first and last window samples, W_0 and W_L. The interior pass
    evaluates only the (point, interior sample) pairs that a second-order
    bound along the segment from W_0 to W_L cannot exclude. With
    t_j = (h_j - h_0) / (h_L - h_0), R = W_L - W_0 and
    E_j = W_j - (1 - t_j) W_0 - t_j W_L, the function
    sigma_min(lam I - (1 - t) W_0 - t W_L)^2 - ||R||^2 t^2 is concave in t,
    being a minimum over unit x of quadratics whose t^2 coefficient
    ||R x||^2 - ||R||^2 is at most 0. So, by Weyl's inequality,

        sigma_min(lam I - W_j)
            >= sqrt((1 - t_j) s_0^2 + t_j s_L^2 - ||R||^2 t_j (1 - t_j)) - ||E_j||.

    A pair is skipped where this bound, less the rounding allowance
    SKIP_ALLOWANCE (of the kernels, of the formed shifts and of the bound
    itself), is at least min(s_0, s_L), and the point's sigma_min at both
    endpoints exceeds 2 SINGULAR_RTOL of its sigma_max. sigma_max is convex
    along the segment, so a skipped sample's sigma_max is at most the
    endpoints' largest plus ||E_j||: a skipped sample can neither raise the
    point's max_j 1/s_j nor make it inf, and every value is the one an
    evaluation of every sample gives, bit for bit. A non-finite R or E_j
    skips nothing.

    One rule schedules the kernel calls: each holds as many (point, sample)
    pairs as a slice of points at every window sample, ROWS_PER_SLICE
    region rows up to dimension 3 and ceil(resolution / workers) points from
    dimension 4 up. The endpoint pass cuts the region's points, in y-major
    order, into slices of half that many; the interior pass cuts the pairs
    it keeps, sample by sample, into chunks of that many. Each call forms
    its shifted matrices in place, sample by sample. Up to dimension 3 the
    calls run in the calling thread, whose workspace holds every large
    intermediate from call to call and from sweep to sweep; from dimension 4
    up they run on a thread pool, one worker thread per available CPU. No
    kernel lets one pair's values depend on another's, so the field is the
    same for any worker count or slice size. A region on which lam - s_h
    overflows for a diagonal entry s_h raises UnresolvedPoint before any
    kernel runs.
    """
    window = family_eval_stack(sf, grid.window_samples)
    _require_finite_shifts(region, window)
    singular_values = _sweep_kernel(window)
    n = region.resolution
    lams = (region.xs[None, :] + 1j * region.ys[:, None]).ravel()

    def evaluate(runs: list, work: Workspace):
        """The norm, sigma_max and sigma_min of every pair of the runs, in
        order; a run (j, points) pairs the points with window sample j."""
        s = singular_values([(j, lams[points]) for j, points in runs], work)
        sigma_min = s[:, -1]
        norms = np.full(len(s), INF)
        np.divide(1.0, sigma_min, out=norms, where=~is_singular(s))
        return norms, s[:, 0].copy(), sigma_min.copy()

    if sf.dim <= 3:
        per_call = window.shape[0] * n * ROWS_PER_SLICE
        work = getattr(_thread_state, "work", None) or Workspace()
        pool = contextlib.nullcontext()

        def run(tasks: list) -> list:
            return [evaluate(runs, work) for runs in tasks]

    else:
        workers = _cpu_count()
        per_call = window.shape[0] * -(-n // workers)
        work = Workspace()
        pool = ThreadPoolExecutor(workers)

        def run(tasks: list) -> list:
            return list(pool.map(lambda runs: evaluate(runs, Workspace()), tasks))

    last = window.shape[0] - 1
    ends = [0, last] if last else [0]
    with pool:
        step = per_call // len(ends)
        slices = [slice(i, i + step) for i in range(0, lams.size, step)]
        # rows: the ends; columns: the points
        norms, sigma_max, sigma_min = (
            np.concatenate([x.reshape(len(ends), -1) for x in arrays], axis=1)
            for arrays in zip(*run([[(j, part) for j in ends] for part in slices]))
        )
        values = norms.max(axis=0)
        if last > 1:
            upper = sigma_max.max(axis=0)
            del norms, sigma_max
            needed = _interior_needed(window, grid, upper, sigma_min, work)
            tasks = _chunks(needed, per_call)
            for runs, (norms, _, _) in zip(tasks, run(tasks)):
                start = 0
                for _, points in runs:
                    stop = start + points.size
                    values[points] = np.maximum(values[points], norms[start:stop])
                    start = stop
    if sf.dim <= 3:
        _thread_state.work = work if work.nbytes <= KEPT_WORKSPACE_BYTES else None
    return ResolventField(region, values.reshape(n, n))


def _chunks(needed: list[np.ndarray], size: int) -> list[list]:
    """The pairs (interior sample j, point) of needed, whose member j - 1
    holds sample j's points, cut in order into tasks of at most size pairs;
    a task is a list of runs (j, points)."""
    tasks, runs, room = [], [], size
    for j, points in enumerate(needed, start=1):
        while points.size:
            head, points = points[:room], points[room:]
            runs.append((j, head))
            room -= head.size
            if not room:
                tasks.append(runs)
                runs, room = [], size
    return tasks + [runs] if runs else tasks


def _sweep_kernel(window: np.ndarray):
    """The field sweep's kernel for the window stack: singular_values(runs,
    work) takes runs (j, lams) and gives the singular values (k, d), in
    descending order, of lam I - W_j for each lam of each run in order,
    forming the k shifted matrices run by run in work's arrays."""
    dim = window.shape[-1]

    def rows(runs):
        start = 0
        for j, lams in runs:
            yield j, lams, slice(start, start + lams.size)
            start += lams.size

    def size(runs) -> int:
        return sum(lams.size for _, lams in runs)

    if dim == 1:
        s11 = window[:, 0, 0]

        def singular_values(runs, work):
            shifted = work("shifted", (size(runs),), np.complex128)
            for j, lams, part in rows(runs):
                np.subtract(lams, s11[j], out=shifted[part])
            return np.abs(shifted, out=work("sigma", shifted.shape))[:, None]

    elif dim == 2:
        s11, s22 = window[:, 0, 0], window[:, 1, 1]
        s12, s21 = -window[:, 0, 1], -window[:, 1, 0]

        def singular_values(runs, work):
            shape = (size(runs),)
            a, b, c, d = (
                work(name, shape, np.complex128)
                for name in ("shifted11", "shifted12", "shifted21", "shifted22")
            )
            for j, lams, part in rows(runs):
                np.subtract(lams, s11[j], out=a[part])
                np.subtract(lams, s22[j], out=d[part])
                b[part], c[part] = s12[j], s21[j]
            return singular_values_2x2(a, b, c, d, work)

    else:
        eye = np.eye(dim)

        def singular_values(runs, work):
            shifted = work("shifted", (size(runs), dim, dim), np.complex128)
            for j, lams, part in rows(runs):
                np.multiply(lams[:, None, None], eye, out=shifted[part])
                np.subtract(shifted[part], window[j], out=shifted[part])
            if dim == 3:
                return singular_values_3x3(shifted, work)
            return np.linalg.svd(shifted, compute_uv=False)

    return singular_values


def _interior_needed(
    window: np.ndarray, grid: HGrid, upper: np.ndarray, sigma_min: np.ndarray, work: Workspace
) -> list[np.ndarray]:
    """For each interior window sample, the points whose singular values
    there the sweep must compute, from every point's largest sigma_max at
    the first and last samples, upper (points,), and its sigma_min there,
    (2, points). See resolvent_norm_field for the bound, which this takes
    with the largest ||E_j|| for every j; its norms come from the
    dimension's kernel at lam = 0, in work's arrays."""
    hs = np.asarray(grid.window_samples)
    t = (hs[1:-1] - hs[0]) / (hs[-1] - hs[0])
    w0, wl = window[0], window[-1]
    allowance = SKIP_ALLOWANCE * window.shape[-1] * EPS
    tau = SKIP_ALLOWANCE * EPS
    with np.errstate(all="ignore"):
        # R, the E_j as computed, and the window matrices, whose norms bound
        # the rounding of the E_j
        e_j = window[1:-1] - (1.0 - t)[:, None, None] * w0 - t[:, None, None] * wl
        stack = np.concatenate([(wl - w0)[None], e_j, window])
        if not np.isfinite(stack).all():
            return [np.arange(upper.size)] * t.size
        zero = np.zeros(1)
        norms = _sweep_kernel(stack)([(j, zero) for j in range(len(stack))], work)[:, 0]
        norms = norms * (1.0 + allowance)
        own = norms[t.size + 1 :]
        e = (norms[1 : t.size + 1] + allowance * (own[1:-1] + own[0] + own[-1])).max()
        # per point, in units of a bound on its sigma_max at every window
        # sample, so that no square overflows
        upper = upper + e
        s_0, s_l = sigma_min / upper
        m = np.minimum(s_0, s_l)
        a = np.square(np.maximum(s_0 - allowance, 0.0))
        b = np.square(np.maximum(s_l - allowance, 0.0))
        r = np.square(norms[0] / upper)
        target = np.square(m + e / upper + allowance) * (1.0 + tau) + tau * (a + b + r)
        # the bound at t_j, less the target, is (a - target) + t_j (b - a)
        # - r t_j (1 - t_j); a point near singular at an endpoint skips nothing
        floor = np.where(m > 2.0 * SINGULAR_RTOL, target - a, np.inf)
        slope = b - a
        return [np.flatnonzero(~(slope * tj - r * (tj * (1.0 - tj)) >= floor)) for tj in t]


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
        raise BadParameter("epsilon must be finite and positive", param="epsilon")
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
        raise BadParameter(f"n_terms must lie in [0, {MAX_SERIES_TERMS}]", param="n_terms")
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
