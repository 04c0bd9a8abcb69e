"""Shared-covariance Gaussian mixtures over discrete center lattices.

Every distribution produced by the simulator is a finite mixture of Gaussian
components that share a single covariance: component centers live on a grid
generated by the two contact energies and the weights carry all mismatch
suppression factors.  A zero covariance degenerates to a point-mass mixture,
for which densities are undefined but moments remain valid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CHUNK_ELEMENTS = 2**22


def prune_components(
    centers: np.ndarray, weights: np.ndarray, rel_tol: float = 1e-18
) -> tuple[np.ndarray, np.ndarray]:
    """Drop components whose weight is negligible relative to the total mass."""
    weights = np.asarray(weights, dtype=float)
    scale = np.abs(weights).max(initial=0.0)
    if scale == 0.0:
        return centers, weights
    keep = np.abs(weights) >= rel_tol * scale
    return np.asarray(centers)[keep], weights[keep]


@dataclass
class GaussianMixture1D:
    """Mixture of one-dimensional Gaussians with a common variance."""

    centers: np.ndarray
    weights: np.ndarray
    variance: float

    def __post_init__(self) -> None:
        self.centers = np.asarray(self.centers, dtype=float).ravel()
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.centers.shape != self.weights.shape:
            raise ValueError("centers and weights must have matching lengths")
        if self.variance < 0:
            raise ValueError("variance must be non-negative")

    def density(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the mixture density on a grid of values."""
        if self.variance == 0.0:
            raise ValueError("density undefined for a point-mass mixture")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        centers, weights = prune_components(self.centers, self.weights)
        norm = 1.0 / np.sqrt(2.0 * np.pi * self.variance)
        out = np.zeros(x.shape[0], dtype=float)
        step = max(1, _CHUNK_ELEMENTS // max(1, x.shape[0]))
        for start in range(0, centers.shape[0], step):
            c = centers[start : start + step, None]
            w = weights[start : start + step, None]
            out += (w * np.exp(-((x[None, :] - c) ** 2) / (2.0 * self.variance))).sum(
                axis=0
            )
        return norm * out

    def moments(self) -> tuple[float, float]:
        """First and second moments of the mixture."""
        mean = float(self.weights @ self.centers)
        second = float(self.weights @ (self.centers**2 + self.variance))
        return mean, second

    def characteristic_function(self, u: np.ndarray) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        phases = np.exp(1j * np.outer(u, self.centers)) @ self.weights
        return phases * np.exp(-0.5 * self.variance * u**2)


@dataclass
class GaussianMixture2D:
    """Mixture of two-dimensional Gaussians with a common covariance."""

    centers: np.ndarray
    weights: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        self.centers = np.asarray(self.centers, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        self.covariance = np.asarray(self.covariance, dtype=float).reshape(2, 2)
        if self.centers.shape[0] != self.weights.shape[0]:
            raise ValueError("centers and weights must have matching lengths")
        if not np.allclose(self.covariance, self.covariance.T):
            raise ValueError("covariance must be symmetric")

    @property
    def is_degenerate(self) -> bool:
        return bool(np.all(self.covariance == 0.0))

    def density(self, w: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Evaluate on paired points (w[i], q[i])."""
        if self.is_degenerate:
            raise ValueError("density undefined for a point-mass mixture")
        w = np.atleast_1d(np.asarray(w, dtype=float))
        q = np.atleast_1d(np.asarray(q, dtype=float))
        prec = np.linalg.inv(self.covariance)
        norm = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(self.covariance)))
        centers, weights = prune_components(self.centers, self.weights)
        out = np.zeros(w.shape[0], dtype=float)
        step = max(1, _CHUNK_ELEMENTS // max(1, w.shape[0]))
        for start in range(0, centers.shape[0], step):
            dw = w[None, :] - centers[start : start + step, 0:1]
            dq = q[None, :] - centers[start : start + step, 1:2]
            quad = (
                prec[0, 0] * dw**2 + 2.0 * prec[0, 1] * dw * dq + prec[1, 1] * dq**2
            )
            out += (
                weights[start : start + step, None] * np.exp(-0.5 * quad)
            ).sum(axis=0)
        return norm * out

    def moments(self) -> tuple[float, float, float, float, float]:
        """Return (<W>, <Q>, <W^2>, <Q^2>, <WQ>) of the mixture."""
        a = self.centers[:, 0]
        b = self.centers[:, 1]
        w = self.weights
        mean_w = float(w @ a)
        mean_q = float(w @ b)
        total = w.sum()
        second_w = float(w @ (a**2) + total * self.covariance[0, 0])
        second_q = float(w @ (b**2) + total * self.covariance[1, 1])
        cross = float(w @ (a * b) + total * self.covariance[0, 1])
        return mean_w, mean_q, second_w, second_q, cross

    def characteristic_function(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Joint characteristic function at paired frequencies (u[i], v[i])."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        phases = np.exp(
            1j * (np.outer(u, self.centers[:, 0]) + np.outer(v, self.centers[:, 1]))
        ) @ self.weights
        uv = np.stack([u, v], axis=1)
        quad = np.einsum("pi,ij,pj->p", uv, self.covariance, uv)
        return phases * np.exp(-0.5 * quad)
