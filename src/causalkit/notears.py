"""Score-based structure learning via continuous optimization.

Minimizes a least-squares reconstruction loss with an l1 penalty subject to
the smooth acyclicity constraint h(W) = tr(e^{W∘W}) - d = 0, handled by an
augmented Lagrangian with an L-BFGS-B inner solver.  The loss depends on
the data only through C = X^T X / N, formed once per fit, so the inner
solver never touches the rows.  The matrix exponential uses scipy's
scaling-and-squaring Pade implementation (expm).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.optimize as sopt

from .data import CategoricalDataset
from .errors import ShapeError
from .graph import Dag, VariableScheme, reaches

log = logging.getLogger(__name__)

RHO_MAX = 1e16  # the augmented Lagrangian stops raising rho (from 1) here


@dataclass(frozen=True, eq=False)
class WeightedAdjacency:
    scheme: VariableScheme
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        d = len(self.scheme)
        if w.shape != (d, d):
            raise ShapeError(f"W has shape {w.shape}, expected ({d}, {d})")
        if not np.isfinite(w).all():
            raise ShapeError("W has non-finite entries")


@dataclass(frozen=True)
class NotearsConfig:
    max_iter: int = 100
    h_tol: float = 1e-8
    w_threshold: float = 0.5
    l1_penalty: float = 0.1

    def __post_init__(self):
        if isinstance(self.max_iter, bool) or not (  # a bool is not a count
            isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1
        ):
            raise ValueError("max_iter must be an integer >= 1")
        # Written so that NaN fails too.
        if not 0 < self.w_threshold < math.inf:
            raise ValueError("w_threshold must be positive and finite")
        if not 0 <= self.l1_penalty < math.inf:
            raise ValueError("l1_penalty must be non-negative and finite")
        if not 0 < self.h_tol < 1:
            raise ValueError("h_tol must be in (0, 1)")


@dataclass(frozen=True)
class NotearsResult:
    raw: WeightedAdjacency
    dag: Dag
    h_final: float
    converged: bool
    repaired_edges: tuple[tuple[int, int], ...] = ()


def acyclicity_h(w: np.ndarray):
    """h(W) = tr(e^{W∘W}) - d and its gradient (e^{W∘W})^T ∘ 2W."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"W must be square, got {w.shape}")
    e = sla.expm(w * w)
    h = float(np.trace(e)) - w.shape[0]
    grad = e.T * 2.0 * w
    return h, grad


def objective_and_grad(w: np.ndarray, x: np.ndarray, l1: float):
    """Least-squares loss 0.5/N ||X - XW||_F^2 + l1 ||W||_1 and the
    gradient of its smooth part."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.ndim != 2 or w.shape != (x.shape[1], x.shape[1]):
        raise ShapeError(f"incompatible shapes X{x.shape}, W{w.shape}")
    n = x.shape[0]
    residual = x - x @ w
    loss = 0.5 / n * float((residual ** 2).sum()) + l1 * float(np.abs(w).sum())
    grad = -1.0 / n * x.T @ residual
    return loss, grad


def standardize(matrix: np.ndarray) -> np.ndarray:
    """Center columns (constant columns become all-zero).

    Centering without rescaling keeps regression weights in the data's
    units; equalizing variances would make edge direction unidentifiable
    for the least-squares loss.
    """
    x = np.asarray(matrix, dtype=float)
    return x - x.mean(axis=0)


def _gram_loss(w: np.ndarray, c: np.ndarray):
    """The smooth part of objective_and_grad from C = X^T X / N alone:
    0.5 tr(R^T C R) and its gradient -C R, with R = I - W."""
    r = np.eye(len(c)) - w
    cr = c @ r
    return 0.5 * float((r * cr).sum()), -cr


def _solve_subproblem(w0, c, l1, rho, alpha, bounds):
    """Inner minimization of loss + (rho/2) h^2 + alpha h, with |W| split
    into positive and negative parts so L-BFGS-B handles the l1 term."""
    d = len(c)

    def func(theta):
        w = (theta[: d * d] - theta[d * d:]).reshape(d, d)
        loss, grad_smooth = _gram_loss(w, c)
        h, grad_h = acyclicity_h(w)
        value = loss + 0.5 * rho * h * h + alpha * h + l1 * theta.sum()
        grad_w = grad_smooth + (rho * h + alpha) * grad_h
        grad = np.concatenate([grad_w.ravel() + l1, -grad_w.ravel() + l1])
        return value, grad

    theta0 = np.concatenate([np.maximum(w0, 0).ravel(), np.maximum(-w0, 0).ravel()])
    result = sopt.minimize(
        func,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"gtol": 1e-6},
    )
    theta = result.x
    return (theta[: d * d] - theta[d * d:]).reshape(d, d)


def notears_fit(
    data, config: NotearsConfig = NotearsConfig(), scheme: VariableScheme | None = None
) -> NotearsResult:
    """Fit the weighted adjacency and threshold it to a Dag.

    `data` is a CategoricalDataset (encoded to standardized state indices)
    or a raw numeric matrix with an explicit scheme.
    """
    if isinstance(data, CategoricalDataset):
        scheme = data.scheme
        x = standardize(data.rows)
    else:
        if scheme is None:
            raise ShapeError("raw matrix input requires a scheme")
        x = np.asarray(data, dtype=float)
        if not np.isfinite(x).all():
            # The optimizer would never leave W = 0 and call that converged.
            raise ShapeError("raw matrix has non-finite entries")
        x = standardize(x)
    d = len(scheme)
    if d == 0:
        raise ShapeError(f"input of shape {x.shape} has no variables to fit")
    c = x.T @ x / x.shape[0]
    bounds = [(0, 0) if i == j else (0, None) for _ in range(2) for i in range(d) for j in range(d)]

    w = np.zeros((d, d))
    rho, alpha = 1.0, 0.0
    h = np.inf
    for _ in range(config.max_iter):
        h_prev = h
        while rho < RHO_MAX:
            w_new = _solve_subproblem(w, c, config.l1_penalty, rho, alpha, bounds)
            h_new, _ = acyclicity_h(w_new)
            if h_new > 0.25 * h_prev:
                rho *= 10.0
            else:
                break
        w, h = w_new, h_new
        alpha += rho * h
        if h <= config.h_tol or rho >= RHO_MAX:
            break
    converged = h <= config.h_tol
    if not converged:
        log.warning("did not reach h <= %g (final h = %g)", config.h_tol, h)

    thresholded = np.where(np.abs(w) >= config.w_threshold, w, 0.0)
    np.fill_diagonal(thresholded, 0.0)
    repaired = []
    # Drop the weakest surviving edge on some cycle until acyclic.
    while (edge := _weakest_cycle_edge(thresholded)) is not None:
        repaired.append(edge)
        thresholded[edge] = 0.0
    if repaired:
        log.warning("removed %d cycle edges after thresholding", len(repaired))
    edges = frozenset(
        (int(u), int(v)) for u, v in zip(*np.nonzero(thresholded))
    )
    if not edges:
        log.warning(
            "NOTEARS learned 0 edges (largest |w| %.3g is below w_threshold %g)",
            np.abs(w).max(), config.w_threshold,
        )
    return NotearsResult(
        raw=WeightedAdjacency(scheme, w),
        dag=Dag(scheme, edges),
        h_final=h,
        converged=converged,
        repaired_edges=tuple(repaired),
    )


def _weakest_cycle_edge(w: np.ndarray):
    """Smallest-|weight| edge among those on a cycle, or None if acyclic."""
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(w))]
    candidates = [(abs(w[u, v]), u, v) for u, v in edges if reaches(edges, v, u)]
    if not candidates:
        return None
    _, u, v = min(candidates)
    return u, v
