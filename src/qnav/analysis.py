"""Capacity and trainability analysis: empirical Fisher information,
effective dimension, eigenspectra, and return-curve aggregation."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import UsageError


# ---------------------------------------------------------------------------
# Fisher information


def empirical_fim(grads: np.ndarray) -> np.ndarray:
    """Empirical Fisher matrix (1/k) sum_j g_j g_j^T from the (k, d) matrix
    whose row j is the gradient of the scalar model output at input x_j.

    Under a unit-variance Gaussian output model the expected outer product of
    log-likelihood gradients reduces to grad V grad V^T, so the Gram form is
    used directly; the result is symmetric PSD by construction.
    """
    grads = np.asarray(grads, dtype=float)
    if grads.ndim != 2 or grads.shape[0] == 0:
        raise UsageError("empirical_fim needs a (k, d) gradient matrix with k >= 1")
    return grads.T @ grads / grads.shape[0]


def eigenspectrum(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted descending."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise UsageError("eigenspectrum needs a square matrix")
    return np.sort(np.linalg.eigvalsh(matrix))[::-1]


def effective_dimension(fim_samples: Sequence[np.ndarray], gamma: float,
                        n_data: int) -> tuple[float, float]:
    """Effective dimension of a model from FIM samples over the parameter cube.

    The samples are jointly normalized so the average trace equals the
    parameter count d, then
        kappa = gamma * n / (2 pi ln n)
        d_eff = 2 ln( mean_theta sqrt det(I + kappa * F_bar) ) / ln kappa.
    Returns (d_eff, d_eff / d).
    """
    if len(fim_samples) < 2:
        raise UsageError("need at least 2 FIM samples over theta")
    if not 0.0 < gamma <= 1.0:
        raise UsageError("gamma must be in (0, 1]")
    if n_data < 3:
        raise UsageError("n_data must be >= 3")
    kappa = gamma * n_data / (2.0 * math.pi * math.log(n_data))
    if kappa <= 1.0:
        raise UsageError("kappa <= 1: effective dimension is degenerate")
    mats = [np.asarray(f, dtype=float) for f in fim_samples]
    d = mats[0].shape[0]
    mean_trace = float(np.mean([np.trace(f) for f in mats]))
    if mean_trace <= 0.0:
        return 0.0, 0.0
    scale = d / mean_trace
    # log of mean_theta sqrt(det(I + kappa * F_bar)), via logsumexp
    half_logdets = []
    for f in mats:
        sign, logdet = np.linalg.slogdet(np.eye(d) + kappa * scale * f)
        if sign <= 0:
            raise UsageError("FIM sample is not PSD")
        half_logdets.append(0.5 * logdet)
    half_logdets = np.array(half_logdets)
    m = half_logdets.max()
    log_mean = m + math.log(np.mean(np.exp(half_logdets - m)))
    d_eff = 2.0 * log_mean / math.log(kappa)
    return float(d_eff), float(d_eff / d)


@dataclass(frozen=True)
class FIMReport:
    d: int
    gamma: float
    n_data: int
    n_theta_samples: int
    n_inputs: int
    eigenvalues: list  # of the averaged FIM, descending
    effective_dim: float
    normalized_effective_dim: float

    def to_dict(self) -> dict:
        return asdict(self)


def fim_report(grads_at: Callable[[np.ndarray], np.ndarray],
               theta_samples: Sequence[np.ndarray],
               gamma: float = 1.0,
               n_data: int = 3690) -> FIMReport:
    """Full capacity report for one critic model.

    ``grads_at(theta)`` returns the (k, d) matrix of gradients of the model
    output with respect to the d parameters at that theta, one row per input.
    """
    grads = [np.asarray(grads_at(theta), dtype=float) for theta in theta_samples]
    fims = [empirical_fim(g) for g in grads]
    d_eff, normalized = effective_dimension(fims, gamma, n_data)
    mean_fim = np.mean(fims, axis=0)
    return FIMReport(
        d=mean_fim.shape[0],
        gamma=gamma,
        n_data=n_data,
        n_theta_samples=len(theta_samples),
        n_inputs=grads[0].shape[0],
        eigenvalues=eigenspectrum(mean_fim).tolist(),
        effective_dim=d_eff,
        normalized_effective_dim=normalized,
    )


# ---------------------------------------------------------------------------
# return curves


def smooth_curve(returns: Sequence[float], window: int) -> list[float]:
    """Trailing moving average; partial windows average what is available."""
    if window < 1:
        raise UsageError("window must be >= 1")
    out = []
    acc = 0.0
    returns = list(returns)
    for i, r in enumerate(returns):
        acc += r
        if i >= window:
            acc -= returns[i - window]
        out.append(acc / min(i + 1, window))
    return out


def auc(curve: Sequence[float]) -> float:
    """Trapezoidal area under the curve over unit-spaced episode indices."""
    curve = np.asarray(curve, dtype=float)
    if curve.shape[0] < 2:
        raise UsageError("auc needs at least 2 points")
    return float(np.trapezoid(curve))


@dataclass
class CurveStats:
    n_runs: int
    length: int
    mean: list
    std: list
    low: list
    high: list
    aucs: list
    auc_mean: float
    auc_std: float


def aggregate_runs(run_returns: Sequence[Sequence[float]],
                   smooth_window: int = 100) -> CurveStats:
    """Per-episode mean/std/min/max across runs plus per-run smoothed AUC.

    Mixed-length runs are truncated to the shortest.
    """
    if len(run_returns) == 0:
        raise UsageError("no runs to aggregate")
    length = min(len(r) for r in run_returns)
    if length < 2:
        raise UsageError("runs too short to aggregate")
    smoothed = np.array([smooth_curve(list(r)[:length], smooth_window) for r in run_returns])
    aucs = [auc(row) for row in smoothed]
    return CurveStats(
        n_runs=len(run_returns),
        length=length,
        mean=smoothed.mean(axis=0).tolist(),
        std=smoothed.std(axis=0).tolist(),
        low=smoothed.min(axis=0).tolist(),
        high=smoothed.max(axis=0).tolist(),
        aucs=aucs,
        auc_mean=float(np.mean(aucs)),
        auc_std=float(np.std(aucs)),
    )
