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

import itertools
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import initial_state
from .engine import EngineConfig, EngineModel, build_model
from .qubit import projector
from .superop import sandwich, vec

ORACLE_CYCLE_LIMIT = 3
_EXPANSION_CHUNK = 2**16


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


@dataclass
class _BranchArrays:
    ops: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_diff: np.ndarray
    b_diff: np.ndarray
    n_cold: np.ndarray
    n_hot: np.ndarray


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
    state = _enumerate_arrays(model, cycles, initial_state(model, initial=initial))
    values = state.ops[:, 0] + state.ops[:, 3]
    return BranchTable(model, state.a, state.b, values, *_suppressions(state, model))


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
        keys = np.stack([table.a, table.b], axis=1)
        points, inverse = np.unique(keys, axis=0, return_inverse=True)
    merged = np.zeros(points.shape[0], dtype=complex)
    np.add.at(merged, inverse, weights)
    return points, merged.real
