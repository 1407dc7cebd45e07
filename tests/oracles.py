"""Independent reference computations used to cross-check the library.

Everything here deliberately recomputes results through a route that shares
no code with the package: naive triple loops instead of BLAS, Pascal's
triangle instead of factorials, cyclic Jacobi rotations instead of power
iteration, and source-to-source re-evaluation of expression trees.  Slow is
fine; these only run on small fixtures.

The per-sample resolvent references are the exception: they call the
package's single-matrix kernels one grid sample at a time, so that the
stacked sweeps can be held to them bit for bit. So is the per-sample family
evaluator, which walks a recipe tree one h at a time (the quadrature of a
functional-calculus image included), so that the stacked evaluator can be
held to it bit for bit. So is the SVD-rule inverse, which decides
singularity by singular values alone, so that the certified inverse can be
held to it bit for bit. So is the full-grid tail statistic, which takes one
value per grid sample and hands the window's to the package's
window_limsup, so that statistics computed at the window alone can be held
to the full-grid computation bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from asymspec import exprs, families, funcalc
from asymspec.errors import (
    BadParameter,
    ExprError,
    LengthMismatch,
    SingularOnContour,
    TraceError,
)
from asymspec.families import family_eval_array
from asymspec.linalg import SINGULAR_RTOL, operator_norm, solve_inverse


def matmul_loops(a, b):
    """Entry-by-entry triple-loop matrix product on nested lists."""
    n = len(a)
    out = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc += complex(a[i][k]) * complex(b[k][j])
            out[i][j] = acc
    return out


def pascal_binom(n: int, k: int) -> int:
    """Binomial coefficient by the additive Pascal recurrence only."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[j] + row[j + 1] for j in range(len(row) - 1)] + [1]
    return row[k]


def jacobi_hermitian_eigenvalues(a, sweeps: int = 60, tol: float = 1e-30):
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    Works on nested lists of Python complex scalars.  Each rotation zeroes
    one off-diagonal pair with a 2x2 unitary; off-diagonal mass is strictly
    nonincreasing, so a fixed sweep budget suffices at test sizes.
    """
    n = len(a)
    m = [[complex(a[i][j]) for j in range(n)] for i in range(n)]
    for _ in range(sweeps):
        off = sum(abs(m[i][j]) ** 2 for i in range(n) for j in range(n) if i != j)
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(m[p][q])
                if r == 0.0:
                    continue
                phase = m[p][q] / r
                alpha = m[p][p].real
                beta = m[q][q].real
                theta = (beta - alpha) / (2.0 * r)
                sign = 1.0 if theta >= 0.0 else -1.0
                t = sign / (abs(theta) + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # column update: B = m @ G with G[p,p]=c, G[p,q]=s*phase,
                # G[q,p]=-s*conj(phase), G[q,q]=c
                for i in range(n):
                    mip, miq = m[i][p], m[i][q]
                    m[i][p] = c * mip - s * phase.conjugate() * miq
                    m[i][q] = s * phase * mip + c * miq
                # row update: m = G^H @ B
                for j in range(n):
                    mpj, mqj = m[p][j], m[q][j]
                    m[p][j] = c * mpj - s * phase * mqj
                    m[q][j] = s * phase.conjugate() * mpj + c * mqj
                m[p][q] = 0.0
                m[q][p] = 0.0
    return sorted(m[i][i].real for i in range(n))


def spectral_norm_oracle(rows) -> float:
    """Largest singular value via Jacobi eigenvalues of the Gram matrix."""
    n = len(rows)
    adj = [[complex(rows[j][i]).conjugate() for j in range(n)] for i in range(n)]
    gram = matmul_loops(adj, rows)
    eigs = jacobi_hermitian_eigenvalues(gram)
    return math.sqrt(max(eigs[-1], 0.0))


def taylor_exp(rows, terms: int = 40):
    """Matrix exponential as a plain truncated Taylor sum on nested lists."""
    n = len(rows)
    total = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    term = [row[:] for row in total]
    for k in range(1, terms):
        term = matmul_loops(term, rows)
        term = [[entry / k for entry in row] for row in term]
        total = [[total[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    return total


def render_expr(node) -> str:
    """Turn an expression tree back into Python source.

    Evaluating the rendered text with ``eval`` plus ``cmath`` gives a second,
    structurally different evaluator to compare against.
    """
    if isinstance(node, exprs.Const):
        return f"({node.value!r})"
    if isinstance(node, exprs.Var):
        return node.name
    if isinstance(node, exprs.Add):
        return f"({render_expr(node.left)} + {render_expr(node.right)})"
    if isinstance(node, exprs.Sub):
        return f"({render_expr(node.left)} - {render_expr(node.right)})"
    if isinstance(node, exprs.Mul):
        return f"({render_expr(node.left)} * {render_expr(node.right)})"
    if isinstance(node, exprs.Div):
        return f"({render_expr(node.left)} / {render_expr(node.right)})"
    if isinstance(node, exprs.Neg):
        return f"(-{render_expr(node.operand)})"
    if isinstance(node, exprs.IntPow):
        return f"({render_expr(node.base)} ** {node.exponent})"
    if isinstance(node, exprs.Exp):
        return f"cmath.exp({render_expr(node.operand)})"
    raise TypeError(f"unknown node {type(node).__name__}")


def eval_rendered(node, bindings) -> complex:
    source = render_expr(node)
    scope = {"cmath": cmath, "__builtins__": {}}
    scope.update({name: complex(value) for name, value in bindings.items()})
    return complex(eval(source, scope))


def node_at(node, h: float) -> np.ndarray:
    """One recipe node's value at one h, by recursion over the tree."""
    if isinstance(node, (families.Constant, families.Jordan, families.SeededRandom)):
        return node.matrix
    if isinstance(node, families.DiagExpr):
        values = []
        for i, ast in enumerate(node._asts):
            try:
                values.append(exprs.eval_expr(ast, {"h": complex(h)}))
            except Exception as exc:
                raise ExprError(f"entry {i} ({node.entries[i]!r}) at h={h!r}: {exc}") from exc
        return np.diag(np.asarray(values, dtype=np.complex128))
    if isinstance(node, families.HScaled):
        return h * node_at(node.inner, h)
    if isinstance(node, families.Sum):
        acc = node_at(node.children[0], h).copy()
        for child in node.children[1:]:
            acc += node_at(child, h)
        return acc
    if isinstance(node, families.Product):
        acc = node_at(node.children[0], h)
        for child in node.children[1:]:
            acc = acc @ node_at(child, h)
        return acc
    if isinstance(node, funcalc._Funcalc):
        t = node_at(node.inner, h)
        if not np.isfinite(t).all():
            raise TraceError(h, "the family value has a non-finite entry")
        try:
            q = funcalc._quadrature(t, node._levels)
        except SingularOnContour as exc:
            raise TraceError(h, f"functional calculus failed at h={h!r}: {exc}") from exc
        funcalc.require_quadrature([q], [h])
        return q.matrix
    raise TypeError(f"unknown node {type(node).__name__}")


def family_eval_per_sample(spec, hs) -> np.ndarray:
    """The family at each h in ``hs``, one h at a time, stacked: range check,
    tree recursion, then finiteness check, sample by sample."""
    out = []
    for h in hs:
        if not 0.0 < h <= 1.0:
            raise BadParameter(f"h must lie in (0, 1], got {h!r}")
        value = node_at(spec, float(h))
        if not np.isfinite(value).all():
            raise TraceError(h, "the family value has a non-finite entry")
        out.append(value)
    return np.stack(out)


def geometric_samples(h0, ratio, count):
    """The whole geometric grid h0 * ratio**j, j = 0..count-1, head included,
    by the expression the grid's window is held to bit for bit."""
    return tuple(h0 * ratio**j for j in range(count))


def grid_samples(grid):
    """Every sample of an HGrid, which itself forms its tail window alone."""
    return geometric_samples(grid.h0, grid.ratio, grid.count)


def tail_limsup(values, grid):
    """Tail statistic of one value per grid sample (ordered like the grid):
    the values before the window, finite or not, are ignored."""
    if len(values) != grid.count:
        raise LengthMismatch(f"expected {grid.count} values, got {len(values)}")
    return families.window_limsup(values[-grid.tail_window :], grid)


def resolvent_at_per_sample(sf, lam, grid):
    """Inverses and norms of lam I - S_h, one sample at a time: the solve_inverse
    result (None where singular) and its operator norm (inf where singular)."""
    eye = np.eye(sf.dim, dtype=np.complex128)
    inverses = [solve_inverse(lam * eye - family_eval_array(sf, h)) for h in grid_samples(grid)]
    norms = [math.inf if inv is None else operator_norm(inv.matrix) for inv in inverses]
    return inverses, norms


def resolvent_defect_per_sample(sf, rf, lam, grid):
    """Norms of (lam I - S_h) R_h - I and R_h (lam I - S_h) - I, one sample at
    a time; a candidate with a NaN entry scores inf on both sides."""
    eye = np.eye(sf.dim, dtype=np.complex128)
    left, right = [], []
    for h, r in zip(grid_samples(grid), rf):
        if np.isnan(r).any():
            left.append(math.inf)
            right.append(math.inf)
            continue
        a = lam * eye - family_eval_array(sf, h)
        left.append(operator_norm(a @ r - eye))
        right.append(operator_norm(r @ a - eye))
    return left, right


def svd_rule_inverse_stack(a):
    """Inverses of a stack (..., n, n) and the singular mask, deciding every
    member by its singular values: sigma_min <= SINGULAR_RTOL * sigma_max.
    Singular members are inverted as I, then set to NaN."""
    s = np.linalg.svd(a, compute_uv=False)
    singular = s[..., -1] <= SINGULAR_RTOL * s[..., 0]
    inv = np.linalg.inv(np.where(singular[..., None, None], np.eye(a.shape[-1]), a))
    inv[singular] = np.nan
    return inv, singular
