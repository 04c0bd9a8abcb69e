"""Brute-force enumeration of all contact-outcome branch pairs.

Cost grows as 256^N, so this module is the exactness reference for small
cycle counts: it assembles joint (work, heat) distributions for both
monitoring schemes directly from the definition, without the lattice
reduction.  The accumulated-pointer suppression factors are computed from the
aggregate energy-record differences of each full branch chain, which is what
the lattice module's initial-state fold must reproduce.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import initial_state
from .engine import (
    EngineConfig,
    EngineModel,
    build_model,
    joint_covariance,
    heat_variance,
    work_variance,
)
from .mixtures import GaussianMixture1D, GaussianMixture2D, collapse_duplicates
from .qubit import projector
from .superop import sandwich, vec

ORACLE_CYCLE_LIMIT = 3
PRUNE_TOL = 1e-15
_EXPANSION_CHUNK = 2**16


@dataclass(frozen=True)
class ContactPoint:
    """Bookkeeping signs of one projective energy contact."""

    work_sign: int
    heat_sign: int
    label: str


def contact_schedule(cycles: int) -> list[ContactPoint]:
    """Work and heat signs plus stroke label for contacts 1..4N."""
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    per_cycle = [
        ContactPoint(-1, 0, "cold"),
        ContactPoint(+1, -1, "hot"),
        ContactPoint(-1, +1, "hot"),
        ContactPoint(+1, 0, "cold"),
    ]
    return per_cycle * cycles


@dataclass(frozen=True)
class CycleBranch:
    """One of the 256 per-cycle contact-outcome branch operators.

    Work centers shift by ``da * eps_c + db * eps_h`` per cycle and heat
    centers by ``-db * eps_h``; ``mismatch_cold``/``mismatch_hot`` count the
    contacts where the two sides of the branch picked different energy levels.
    """

    superoperator: np.ndarray = field(repr=False)
    da: int
    db: int
    da_diff: int
    db_diff: int
    mismatch_cold: int
    mismatch_hot: int

    @property
    def dq(self) -> int:
        return -self.db


def tabulate_cycle_branches(model: EngineModel) -> list[CycleBranch]:
    """Build all 256 single-cycle branch superoperators.

    Expands every contact on both sides of the density matrix, independently
    of the tilted cycle map the other routes are built from.
    """
    proj = (projector(0), projector(1))
    sign = (-1, 1)
    u = model.forward_unitary
    ur = model.reverse_unitary
    hot_sop = model.hot_channel.superoperator()
    cold_sop = model.cold_channel.superoperator()
    branches = []
    for m1, m2, m3, m4 in itertools.product(range(2), repeat=4):
        left_first = proj[m2] @ u @ proj[m1]
        left_second = proj[m4] @ ur @ proj[m3]
        for n1, n2, n3, n4 in itertools.product(range(2), repeat=4):
            right_first = proj[n2] @ u @ proj[n1]
            right_second = proj[n4] @ ur @ proj[n3]
            sop = cold_sop @ sandwich(left_second, right_second) @ hot_sop @ sandwich(
                left_first, right_first
            )
            h1 = (sign[m1] + sign[n1]) // 2
            h2 = (sign[m2] + sign[n2]) // 2
            h3 = (sign[m3] + sign[n3]) // 2
            h4 = (sign[m4] + sign[n4]) // 2
            g1 = (sign[m1] - sign[n1]) // 2
            g2 = (sign[m2] - sign[n2]) // 2
            g3 = (sign[m3] - sign[n3]) // 2
            g4 = (sign[m4] - sign[n4]) // 2
            branches.append(
                CycleBranch(
                    superoperator=sop,
                    da=h4 - h1,
                    db=h2 - h3,
                    da_diff=g4 - g1,
                    db_diff=g2 - g3,
                    mismatch_cold=int(m1 != n1) + int(m4 != n4),
                    mismatch_hot=int(m2 != n2) + int(m3 != n3),
                )
            )
    return branches


@dataclass(frozen=True)
class BranchCoefficient:
    """Trace coefficient and readout data of one branch pair.

    ``suppression_rc`` is the product of the work and heat pointer-overlap
    factors, which are also exposed separately for one-pointer marginals.
    The integer coordinates locate the centers on the energy lattice:
    work = a*eps_c + b*eps_h with (a, b) = work_coords, heat = k*eps_h with
    k = heat_coord.
    """

    value: complex
    work_center: float
    heat_center: float
    suppression_rm: float
    suppression_rc: float
    suppression_rc_work: float
    suppression_rc_heat: float
    work_coords: tuple[int, int]
    heat_coord: int


@dataclass
class _BranchArrays:
    ops: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_diff: np.ndarray
    b_diff: np.ndarray
    n_cold: np.ndarray
    n_hot: np.ndarray


def _check_cycles(cycles: int) -> None:
    if not 1 <= cycles <= ORACLE_CYCLE_LIMIT:
        raise ValueError(
            f"enumeration supports 1..{ORACLE_CYCLE_LIMIT} cycles, got {cycles}"
        )


def _resolve(
    engine: EngineConfig | EngineModel, initial: np.ndarray | None
) -> tuple[EngineModel, np.ndarray]:
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    if initial is None:
        initial = initial_state(model.config, model)
    return model, np.asarray(initial, dtype=complex)


def _enumerate_arrays(
    model: EngineModel, cycles: int, rho: np.ndarray
) -> _BranchArrays:
    branches = tabulate_cycle_branches(model)
    sops = np.stack([br.superoperator for br in branches])
    da = np.array([br.da for br in branches], dtype=np.int32)
    db = np.array([br.db for br in branches], dtype=np.int32)
    ga = np.array([br.da_diff for br in branches], dtype=np.int32)
    gb = np.array([br.db_diff for br in branches], dtype=np.int32)
    nc = np.array([br.mismatch_cold for br in branches], dtype=np.int32)
    nh = np.array([br.mismatch_hot for br in branches], dtype=np.int32)

    state = _BranchArrays(
        ops=vec(rho)[None, :],
        a=np.zeros(1, dtype=np.int32),
        b=np.zeros(1, dtype=np.int32),
        a_diff=np.zeros(1, dtype=np.int32),
        b_diff=np.zeros(1, dtype=np.int32),
        n_cold=np.zeros(1, dtype=np.int32),
        n_hot=np.zeros(1, dtype=np.int32),
    )
    for _ in range(cycles):
        k = state.ops.shape[0]
        new_ops = np.empty((k, sops.shape[0], 4), dtype=complex)
        for start in range(0, k, _EXPANSION_CHUNK):
            stop = min(start + _EXPANSION_CHUNK, k)
            new_ops[start:stop] = np.einsum(
                "gij,kj->kgi", sops, state.ops[start:stop]
            )
        state = _BranchArrays(
            ops=new_ops.reshape(-1, 4),
            a=(state.a[:, None] + da[None, :]).ravel(),
            b=(state.b[:, None] + db[None, :]).ravel(),
            a_diff=(state.a_diff[:, None] + ga[None, :]).ravel(),
            b_diff=(state.b_diff[:, None] + gb[None, :]).ravel(),
            n_cold=(state.n_cold[:, None] + nc[None, :]).ravel(),
            n_hot=(state.n_hot[:, None] + nh[None, :]).ravel(),
        )
        live = np.abs(state.ops).max(axis=1) > 1e-250
        if not live.all():
            state = _BranchArrays(
                ops=state.ops[live],
                a=state.a[live],
                b=state.b[live],
                a_diff=state.a_diff[live],
                b_diff=state.b_diff[live],
                n_cold=state.n_cold[live],
                n_hot=state.n_hot[live],
            )
    return state


def _gaussian_overlap(delta: np.ndarray, sigma: float) -> np.ndarray:
    """Overlap of two pointer Gaussians displaced by delta."""
    if sigma == 0.0:
        return (delta == 0.0).astype(float)
    return np.exp(-(delta**2) / (8.0 * sigma**2))


def _suppressions(
    state: _BranchArrays, model: EngineModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-branch RM, RC-work and RC-heat suppression factors."""
    eps_c = model.h_cold.epsilon
    eps_h = model.h_hot.epsilon
    sigma = model.sigma
    if sigma == 0.0:
        supp_rm = ((state.n_cold + state.n_hot) == 0).astype(float)
    else:
        supp_rm = np.exp(
            -(state.n_cold * eps_c**2 + state.n_hot * eps_h**2) / (2.0 * sigma**2)
        )
    delta_w = 2.0 * (state.a_diff * eps_c + state.b_diff * eps_h)
    delta_q = -2.0 * state.b_diff * eps_h
    return supp_rm, _gaussian_overlap(delta_w, sigma), _gaussian_overlap(delta_q, sigma)


def enumerate_branches(
    engine: EngineConfig | EngineModel,
    cycles: int,
    initial: np.ndarray | None = None,
    prune: float = PRUNE_TOL,
) -> list[BranchCoefficient]:
    """All branch coefficients after the given number of cycles.

    Branches whose trace coefficient is smaller than ``prune`` in modulus are
    dropped; pass ``prune=0`` to keep every pair.
    """
    _check_cycles(cycles)
    model, rho = _resolve(engine, initial)
    state = _enumerate_arrays(model, cycles, rho)
    values = state.ops[:, 0] + state.ops[:, 3]
    keep = np.abs(values) >= prune if prune > 0 else slice(None)
    supp_rm, supp_w, supp_q = _suppressions(state, model)
    eps_c = model.h_cold.epsilon
    eps_h = model.h_hot.epsilon
    out = []
    for idx in np.arange(values.shape[0])[keep]:
        out.append(
            BranchCoefficient(
                value=complex(values[idx]),
                work_center=float(state.a[idx] * eps_c + state.b[idx] * eps_h),
                heat_center=float(-state.b[idx] * eps_h),
                suppression_rm=float(supp_rm[idx]),
                suppression_rc=float(supp_w[idx] * supp_q[idx]),
                suppression_rc_work=float(supp_w[idx]),
                suppression_rc_heat=float(supp_q[idx]),
                work_coords=(int(state.a[idx]), int(state.b[idx])),
                heat_coord=int(-state.b[idx]),
            )
        )
    return out


def _weighted(
    engine: EngineConfig | EngineModel,
    cycles: int,
    scheme: str,
    observable: str,
    initial: np.ndarray | None,
) -> tuple[_BranchArrays, np.ndarray, EngineModel]:
    """Branch arrays plus the scheme's per-branch weights.

    The two-pointer scheme always carries both overlap factors (the traced
    out pointer still decoheres the record); the one-pointer scheme carries
    only the factor of the observable its pointer accumulates.
    """
    _check_cycles(cycles)
    model, rho = _resolve(engine, initial)
    state = _enumerate_arrays(model, cycles, rho)
    values = state.ops[:, 0] + state.ops[:, 3]
    supp_rm, supp_w, supp_q = _suppressions(state, model)
    if scheme == "RM":
        weights = values * supp_rm
    elif scheme == "RC2":
        weights = values * supp_w * supp_q
    elif scheme == "RC1":
        if observable == "joint":
            raise ValueError("joint distribution requires two pointers")
        weights = values * (supp_w if observable == "work" else supp_q)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return state, weights, model


def joint_pdf_rm(
    engine: EngineConfig | EngineModel,
    cycles: int,
    initial: np.ndarray | None = None,
) -> GaussianMixture2D:
    """Exact joint (work, heat) mixture for per-stroke readout."""
    state, weights, model = _weighted(engine, cycles, "RM", "joint", initial)
    centers, merged = _collapse_joint(state, weights, model)
    cov = joint_covariance("RM", cycles, model.sigma)
    return GaussianMixture2D(centers, merged, cov)


def joint_pdf_rc(
    engine: EngineConfig | EngineModel,
    cycles: int,
    initial: np.ndarray | None = None,
) -> GaussianMixture2D:
    """Exact joint (work, heat) mixture for two accumulating pointers."""
    state, weights, model = _weighted(engine, cycles, "RC2", "joint", initial)
    centers, merged = _collapse_joint(state, weights, model)
    cov = joint_covariance("RC2", cycles, model.sigma)
    return GaussianMixture2D(centers, merged, cov)


def _collapse_joint(
    state: _BranchArrays, weights: np.ndarray, model: EngineModel
) -> tuple[np.ndarray, np.ndarray]:
    keys = np.stack([state.a, state.b], axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    merged = np.zeros(uniq.shape[0], dtype=complex)
    np.add.at(merged, inverse, weights)
    eps_c = model.h_cold.epsilon
    eps_h = model.h_hot.epsilon
    centers = np.stack(
        [uniq[:, 0] * eps_c + uniq[:, 1] * eps_h, -uniq[:, 1] * eps_h], axis=1
    )
    return centers, merged.real


def _collapse_1d(
    keys: np.ndarray, weights: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(uniq.shape[0], dtype=complex)
    np.add.at(merged, inverse, weights)
    return uniq * scale, merged.real


def grouped_work_weights(
    engine: EngineConfig | EngineModel,
    cycles: int,
    scheme: str,
    initial: np.ndarray | None = None,
) -> dict[tuple[int, int], float]:
    """Real mixture weight per integer work-lattice point (a, b)."""
    state, weights, _ = _weighted(engine, cycles, scheme, "work", initial)
    keys = np.stack([state.a, state.b], axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    merged = np.zeros(uniq.shape[0], dtype=complex)
    np.add.at(merged, inverse, weights)
    return {
        (int(pt[0]), int(pt[1])): float(w.real) for pt, w in zip(uniq, merged)
    }


def grouped_heat_weights(
    engine: EngineConfig | EngineModel,
    cycles: int,
    scheme: str,
    initial: np.ndarray | None = None,
) -> dict[int, float]:
    """Real mixture weight per integer heat-lattice point."""
    state, weights, _ = _weighted(engine, cycles, scheme, "heat", initial)
    keys = -state.b
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(uniq.shape[0], dtype=complex)
    np.add.at(merged, inverse, weights)
    return {int(k): float(w.real) for k, w in zip(uniq, merged)}


def marginal_rm_work(
    engine: EngineConfig | EngineModel,
    cycles: int,
    initial: np.ndarray | None = None,
) -> GaussianMixture1D:
    state, weights, model = _weighted(engine, cycles, "RM", "work", initial)
    eps_c = model.h_cold.epsilon
    eps_h = model.h_hot.epsilon
    values = state.a * eps_c + state.b * eps_h
    centers, merged = collapse_duplicates(values, weights.real)
    return GaussianMixture1D(centers, merged, work_variance("RM", cycles, model.sigma))


def marginal_rm_heat(
    engine: EngineConfig | EngineModel,
    cycles: int,
    initial: np.ndarray | None = None,
) -> GaussianMixture1D:
    state, weights, model = _weighted(engine, cycles, "RM", "heat", initial)
    centers, merged = _collapse_1d(-state.b, weights, model.h_hot.epsilon)
    return GaussianMixture1D(centers, merged, heat_variance("RM", cycles, model.sigma))


def marginal_rc_work(
    engine: EngineConfig | EngineModel,
    cycles: int,
    pointers: int = 2,
    initial: np.ndarray | None = None,
) -> GaussianMixture1D:
    """Accumulated-pointer work marginal with one or two pointers.

    With a single pointer the heat record is never produced, so only the work
    overlap factor suppresses interference terms; with two pointers the traced
    out heat pointer contributes its own overlap factor.
    """
    if pointers not in (1, 2):
        raise ValueError("pointers must be 1 or 2")
    scheme = "RC2" if pointers == 2 else "RC1"
    state, weights, model = _weighted(engine, cycles, scheme, "work", initial)
    eps_c = model.h_cold.epsilon
    eps_h = model.h_hot.epsilon
    values = state.a * eps_c + state.b * eps_h
    centers, merged = collapse_duplicates(values, weights.real)
    return GaussianMixture1D(
        centers, merged, work_variance(scheme, cycles, model.sigma)
    )


def marginal_rc_heat(
    engine: EngineConfig | EngineModel,
    cycles: int,
    pointers: int = 2,
    initial: np.ndarray | None = None,
) -> GaussianMixture1D:
    """Accumulated-pointer heat marginal with one or two pointers."""
    if pointers not in (1, 2):
        raise ValueError("pointers must be 1 or 2")
    scheme = "RC2" if pointers == 2 else "RC1"
    state, weights, model = _weighted(engine, cycles, scheme, "heat", initial)
    centers, merged = _collapse_1d(-state.b, weights, model.h_hot.epsilon)
    return GaussianMixture1D(
        centers, merged, heat_variance(scheme, cycles, model.sigma)
    )


def mixture_moments(
    mix: GaussianMixture1D | GaussianMixture2D,
) -> tuple[float, ...]:
    """Moments of an assembled mixture.

    Joint mixtures yield (<W>, <Q>, <W^2>, <Q^2>, <WQ>); one-dimensional
    mixtures yield (mean, second moment) of their single observable.
    """
    return mix.moments()
