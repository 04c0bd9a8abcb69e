"""Brute-force enumeration of all contact-outcome branch pairs.

Cost grows as 256^N, so this module is the exactness reference for small
cycle counts: it weights every branch pair of both monitoring schemes
directly from the definition, without the lattice reduction, and sums the
weights per integer lattice point.  The accumulated-pointer suppression
factors are computed from the aggregate energy-record differences of each
full branch chain, which is what the initial-state fold of
``asymptotics.prepare_initial_state`` must reproduce.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import initial_state
from .engine import EngineConfig, EngineModel, build_model
from .qubit import projector
from .superop import vec

ORACLE_CYCLE_LIMIT = 3
_EXPANSION_CHUNK = 2**16


def tabulate_cycle_branches(model: EngineModel) -> tuple[np.ndarray, np.ndarray]:
    """All 256 single-cycle branch superoperators and their integer counters.

    Branch (m1..m4, n1..n4), in ``itertools.product`` order, picks level m of
    each of the four contacts on the left of the density matrix and level n
    on the right.  Its operator is Cold S2 Hot S1, where each work stroke
    sandwiches P[m'] U P[m] on the left and P[n'] U P[n] on the right, so
    every contact is expanded independently of the tilted cycle map the
    other routes are built from.  The (6, 256) int32 counters are, per
    branch: the work shifts da and db (work moves by da * eps_c + db * eps_h
    per cycle, heat by -db * eps_h), their left-minus-right differences
    da_diff and db_diff, and the number of cold and of hot contacts whose
    two sides picked different levels.
    """
    proj = np.stack([projector(0), projector(1)])

    def sandwiches(unitary: np.ndarray) -> np.ndarray:
        # piece[m, m'] = P[m'] U P[m]; S[m, n] = kron(conj(piece[n]), piece[m]).
        piece = np.einsum("bij,jk,akl->abil", proj, unitary, proj).reshape(4, 2, 2)
        outer = np.einsum("nij,mkl->mnikjl", piece.conj(), piece)
        return outer.reshape(4, 4, 4, 4)

    first = sandwiches(model.forward_unitary)
    second = sandwiches(model.reverse_unitary)
    cold = model.cold_channel.superoperator()
    hot = model.hot_channel.superoperator()
    tail = (cold @ second) @ hot
    ops = tail[None, :, None, :] @ first[:, None, :, None]
    levels = (np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1
    m, n = levels[:, :4], levels[:, 4:]
    total, diff, mismatch = m + n, m - n, (m != n).astype(int)
    counters = np.stack([
        total[:, 3] - total[:, 0],
        total[:, 1] - total[:, 2],
        diff[:, 3] - diff[:, 0],
        diff[:, 1] - diff[:, 2],
        mismatch[:, 0] + mismatch[:, 3],
        mismatch[:, 1] + mismatch[:, 2],
    ]).astype(np.int32)
    return ops.reshape(256, 4, 4), counters


def _enumerate_arrays(
    model: EngineModel, cycles: int, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized operator and summed counters of every live branch pair."""
    sops, shifts = tabulate_cycle_branches(model)
    ops = vec(rho)[None, :]
    counters = np.zeros((shifts.shape[0], 1), dtype=np.int32)
    for _ in range(cycles):
        k = ops.shape[0]
        new_ops = np.empty((k, sops.shape[0], 4), dtype=complex)
        for start in range(0, k, _EXPANSION_CHUNK):
            stop = min(start + _EXPANSION_CHUNK, k)
            new_ops[start:stop] = np.einsum("gij,kj->kgi", sops, ops[start:stop])
        ops = new_ops.reshape(-1, 4)
        counters = (counters[:, :, None] + shifts[:, None, :]).reshape(len(shifts), -1)
        live = np.abs(ops).max(axis=1) > 1e-250
        if not live.all():
            ops, counters = ops[live], counters[:, live]
    return ops, counters


def _gaussian_overlap(delta: np.ndarray, sigma: float) -> np.ndarray:
    """Overlap of two pointer Gaussians displaced by delta."""
    if sigma == 0.0:
        return (delta == 0.0).astype(float)
    return np.exp(-(delta**2) / (8.0 * sigma**2))


def _suppressions(
    counters: np.ndarray, model: EngineModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-branch RM, RC-work and RC-heat suppression factors."""
    eps_c, eps_h, sigma = model.config.eps_c, model.config.eps_h, model.config.sigma
    _, _, a_diff, b_diff, n_cold, n_hot = counters
    if sigma == 0.0:
        supp_rm = ((n_cold + n_hot) == 0).astype(float)
    else:
        supp_rm = np.exp(-(n_cold * eps_c**2 + n_hot * eps_h**2) / (2.0 * sigma**2))
    delta_w = 2.0 * (a_diff * eps_c + b_diff * eps_h)
    delta_q = -2.0 * b_diff * eps_h
    return supp_rm, _gaussian_overlap(delta_w, sigma), _gaussian_overlap(delta_q, sigma)


@dataclass(frozen=True)
class BranchTable:
    """Every live branch pair after some cycles, one array entry each.

    A pair sits at the integer work point (a, b), work a*eps_c + b*eps_h and
    heat -b*eps_h, and carries the complex trace of its branch operator and
    the factors that suppress it under per-stroke readout and under the
    accumulated work and heat pointers.
    """

    model: EngineModel
    a: np.ndarray
    b: np.ndarray
    values: np.ndarray
    suppression_rm: np.ndarray
    suppression_rc_work: np.ndarray
    suppression_rc_heat: np.ndarray


def enumerate_branches(
    engine: EngineConfig | EngineModel,
    cycles: int,
    initial: np.ndarray | None = None,
) -> BranchTable:
    """The branch table of the configured (or given) initial state."""
    if not 1 <= cycles <= ORACLE_CYCLE_LIMIT:
        raise ValueError(
            f"enumeration supports 1..{ORACLE_CYCLE_LIMIT} cycles, got {cycles}"
        )
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    ops, counters = _enumerate_arrays(model, cycles, initial_state(model, initial=initial))
    values = ops[:, 0] + ops[:, 3]
    return BranchTable(model, counters[0], counters[1], values, *_suppressions(counters, model))


def point_weights(
    table: BranchTable,
    scheme: str,
    observable: str,
    suppression_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Real mixture weight per integer lattice point of one readout.

    Work and joint readouts sum the branch pairs per work point (a, b),
    returned as rows; heat readouts per heat record -b.  The two-pointer
    scheme always carries both overlap factors (the traced-out pointer still
    decoheres the record); the one-pointer scheme carries only the factor of
    the observable its pointer accumulates.  ``suppression_scale`` raises
    every factor to that power, which only a negative control wants.
    """
    if observable not in ("work", "heat", "joint"):
        raise ValueError(f"unknown observable {observable!r}")
    if scheme == "RM":
        factors = (table.suppression_rm,)
    elif scheme == "RC2":
        factors = (table.suppression_rc_work, table.suppression_rc_heat)
    elif scheme == "RC1":
        if observable == "joint":
            raise ValueError("joint distribution requires two pointers")
        factors = (
            table.suppression_rc_work
            if observable == "work"
            else table.suppression_rc_heat,
        )
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    weights = table.values
    for factor in factors:
        weights = weights * factor**suppression_scale
    if observable == "heat":
        points, inverse = np.unique(-table.b, return_inverse=True)
    else:
        # One int64 key per point, ordered as the rows (a, b) sort.
        a, b = table.a.astype(np.int64), table.b.astype(np.int64)
        a_min, b_min = a.min(), b.min()
        span = b.max() - b_min + 1
        keys, inverse = np.unique((a - a_min) * span + (b - b_min), return_inverse=True)
        points = np.stack([keys // span + a_min, keys % span + b_min], axis=1)
        points = points.astype(table.a.dtype)
    merged = np.zeros(points.shape[0], dtype=complex)
    np.add.at(merged, inverse, weights)
    return points, merged.real
