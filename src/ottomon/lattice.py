"""Polynomial-cost recursion over integer energy lattices.

Instead of tracking the exponentially many branch chains individually, the
accumulator stores one 2x2 operator block per reachable lattice point and
advances it by the per-cycle transfer operators: the coefficients of the
tilted cycle map, one per integer lattice increment.  For the
accumulated-pointer schemes this reduction is only valid for thermal channels
whose population and coherence sectors never mix, so kernel construction
fails closed on channels that violate that condition.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import asymptotics
from .engine import (
    MAX_SHIFT,
    EngineConfig,
    EngineModel,
    SCHEMES,
    build_model,
    heat_variance,
    joint_covariance,
    tilted_cycle_coefficients,
    work_variance,
)
from .mixtures import GaussianMixture1D, GaussianMixture2D
from .superop import trace_of_vec, vec
from .thermal import DECOUPLING_TOL, decoupling_violation

OBSERVABLES = ("work", "heat")


def fold_initial_state_rc(rho: np.ndarray, sigma: float, eps_c: float) -> np.ndarray:
    """Damp initial off-diagonals by the first-contact pointer overlap.

    The accumulated-pointer record differences telescope across the chain,
    leaving only the overlap factor of the very first contact; it acts on the
    initial state as a partial dephasing in the cold energy basis.
    """
    rho = np.asarray(rho, dtype=complex)
    factor = 0.0 if sigma == 0.0 else float(np.exp(-(eps_c**2) / (2.0 * sigma**2)))
    folded = rho.copy()
    folded[0, 1] *= factor
    folded[1, 0] *= factor
    return folded


def fold_required(scheme: str, observable: str) -> bool:
    """Whether the scheme/observable pair dephases the initial state.

    Both accumulated-pointer work marginals carry the first-contact work
    imprint; the heat marginal carries it only when the work pointer exists
    and is traced out (two pointers).  Per-stroke readout needs no fold: its
    suppression factors are all per-contact and live in the branch weights.
    """
    if scheme == "RM":
        return False
    return not (scheme == "RC1" and observable == "heat")


@dataclass(frozen=True)
class CycleKernel:
    """Precomputed grouped transfer operators for one scheme/observable."""

    model: EngineModel
    scheme: str
    observable: str
    shifts: np.ndarray
    operators: np.ndarray


def build_cycle_kernel(
    engine: EngineConfig | EngineModel, scheme: str, observable: str
) -> CycleKernel:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}")
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    if scheme != "RM":
        for channel in (model.cold_channel, model.hot_channel):
            violation = decoupling_violation(channel)
            if violation > DECOUPLING_TOL:
                raise ValueError(
                    "thermal channel mixes population and coherence sectors "
                    f"(violation {violation:.3e}); the accumulated-pointer "
                    "lattice reduction does not apply"
                )
    coeffs = tilted_cycle_coefficients(model, scheme)
    steps = np.arange(-MAX_SHIFT, MAX_SHIFT + 1, dtype=np.int64)
    if observable == "work":
        grid = np.meshgrid(steps, steps, indexing="ij")
        shifts = np.stack(grid, axis=-1).reshape(-1, 2)
        operators = coeffs.reshape(-1, 4, 4)
    else:
        # Heat moves by dq = -b: sum out a, then reverse b into ascending dq.
        shifts = steps
        operators = coeffs.sum(axis=0)[::-1]
    # Groups whose entries are all far below any representable contribution
    # (fully suppressed readout mismatches) are dropped to save advance work.
    live = np.abs(operators).max(axis=(1, 2)) > 1e-60
    return CycleKernel(
        model=model,
        scheme=scheme,
        observable=observable,
        shifts=shifts[live],
        operators=operators[live],
    )


@dataclass(frozen=True)
class LatticeAccumulator:
    """Operator-valued distribution over an integer energy lattice.

    Work lattices are two-dimensional with value a*eps_c + b*eps_h at point
    (a, b); heat lattices are one-dimensional with value k*eps_h.  The grid is
    a dense array with origin at index ``offset`` and the inclusive bounding
    box of occupied points is tracked to keep each advance proportional to
    the reached region only.
    """

    observable: str
    cycles_done: int
    capacity: int
    offset: int
    grid: np.ndarray
    bounds: tuple[int, ...]
    eps_c: float
    eps_h: float


def initialize_accumulator(
    rho: np.ndarray, capacity: int, observable: str, eps_c: float, eps_h: float
) -> LatticeAccumulator:
    """Delta distribution at the lattice origin carrying the (folded) state."""
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}")
    size = 4 * capacity + 1
    offset = 2 * capacity
    rho_vec = vec(np.asarray(rho, dtype=complex))
    if observable == "work":
        grid = np.zeros((size, size, 4), dtype=complex)
        grid[offset, offset] = rho_vec
        bounds = (offset, offset, offset, offset)
    else:
        grid = np.zeros((size, 4), dtype=complex)
        grid[offset] = rho_vec
        bounds = (offset, offset)
    return LatticeAccumulator(
        observable=observable,
        cycles_done=0,
        capacity=capacity,
        offset=offset,
        grid=grid,
        bounds=bounds,
        eps_c=eps_c,
        eps_h=eps_h,
    )


def _resolve_kernel(
    engine: EngineConfig | EngineModel | CycleKernel,
    scheme: str | None,
    observable: str | None,
) -> CycleKernel:
    if isinstance(engine, CycleKernel):
        if scheme is not None and scheme != engine.scheme:
            raise ValueError("scheme does not match the prepared kernel")
        if observable is not None and observable != engine.observable:
            raise ValueError("observable does not match the prepared kernel")
        return engine
    if scheme is None or observable is None:
        raise ValueError("scheme and observable are required to build a kernel")
    return build_cycle_kernel(engine, scheme, observable)


def advance_cycle(
    acc: LatticeAccumulator,
    engine: EngineConfig | EngineModel | CycleKernel,
    scheme: str | None = None,
    observable: str | None = None,
) -> LatticeAccumulator:
    """Apply one full cycle, scattering every occupied point by the grouped
    transfer operators."""
    kernel = _resolve_kernel(engine, scheme, observable)
    if kernel.observable != acc.observable:
        raise ValueError("kernel observable does not match the accumulator")
    if acc.cycles_done + 1 > acc.capacity:
        raise ValueError("accumulator capacity exhausted; initialize with more")
    new_grid = np.zeros_like(acc.grid)
    if acc.observable == "work":
        a0, a1, b0, b1 = acc.bounds
        src = np.ascontiguousarray(acc.grid[a0 : a1 + 1, b0 : b1 + 1])
        flat = src.reshape(-1, 4)
        shape = src.shape
        for (da, db), op in zip(kernel.shifts, kernel.operators):
            moved = (flat @ op.T).reshape(shape)
            new_grid[a0 + da : a1 + 1 + da, b0 + db : b1 + 1 + db] += moved
        shift_a = kernel.shifts[:, 0]
        shift_b = kernel.shifts[:, 1]
        bounds = (
            a0 + int(shift_a.min()),
            a1 + int(shift_a.max()),
            b0 + int(shift_b.min()),
            b1 + int(shift_b.max()),
        )
    else:
        k0, k1 = acc.bounds
        src = np.ascontiguousarray(acc.grid[k0 : k1 + 1])
        for dq, op in zip(kernel.shifts, kernel.operators):
            new_grid[k0 + dq : k1 + 1 + dq] += src @ op.T
        bounds = (k0 + int(kernel.shifts.min()), k1 + int(kernel.shifts.max()))
    return replace(
        acc, cycles_done=acc.cycles_done + 1, grid=new_grid, bounds=bounds
    )


def total_trace(acc: LatticeAccumulator) -> complex:
    """Sum of operator traces over the whole lattice; 1 for valid channels."""
    return complex(trace_of_vec(acc.grid).sum())


def weight_table(
    acc: LatticeAccumulator, tol: float = 0.0
) -> dict[tuple[int, int], float] | dict[int, float]:
    """Real trace weight per occupied integer lattice point."""
    traces = trace_of_vec(acc.grid).real
    occupied = np.abs(acc.grid).max(axis=-1) > tol
    out: dict = {}
    if acc.observable == "work":
        for ia, ib in zip(*np.nonzero(occupied)):
            out[(int(ia - acc.offset), int(ib - acc.offset))] = float(traces[ia, ib])
    else:
        for (ik,) in zip(*np.nonzero(occupied)):
            out[int(ik - acc.offset)] = float(traces[ik])
    return out


def _center_grid(acc: LatticeAccumulator) -> np.ndarray:
    if acc.observable == "work":
        idx = np.arange(acc.grid.shape[0]) - acc.offset
        return idx[:, None] * acc.eps_c + idx[None, :] * acc.eps_h
    return (np.arange(acc.grid.shape[0]) - acc.offset) * acc.eps_h


def assemble_marginal(
    acc: LatticeAccumulator,
    scheme: str,
    cycles: int,
    sigma: float,
    observable: str,
) -> GaussianMixture1D:
    """Gaussian mixture of the accumulated lattice distribution."""
    if observable != acc.observable:
        raise ValueError("observable does not match the accumulator")
    if cycles != acc.cycles_done:
        raise ValueError(
            f"accumulator holds {acc.cycles_done} cycles, caller expected {cycles}"
        )
    weights = trace_of_vec(acc.grid).real
    occupied = np.abs(acc.grid).max(axis=-1) > 0.0
    centers = _center_grid(acc)
    if observable == "work":
        variance = work_variance(scheme, cycles, sigma)
    else:
        variance = heat_variance(scheme, cycles, sigma)
    return GaussianMixture1D(centers[occupied], weights[occupied], variance)


def prepare_initial_state(
    model: EngineModel, scheme: str, observable: str, initial: np.ndarray | None = None
) -> np.ndarray:
    """Resolve the configured initial state and apply the fold if needed."""
    rho = (
        asymptotics.initial_state(model.config, model)
        if initial is None
        else np.asarray(initial, dtype=complex)
    )
    if fold_required(scheme, observable):
        rho = fold_initial_state_rc(rho, model.sigma, model.h_cold.epsilon)
    return rho


def accumulate(
    kernel: CycleKernel, cycles: int, initial: np.ndarray | None = None
) -> LatticeAccumulator:
    """Lattice distribution after the given number of cycles of a kernel."""
    model = kernel.model
    rho = prepare_initial_state(model, kernel.scheme, kernel.observable, initial)
    acc = initialize_accumulator(
        rho, cycles, kernel.observable, model.h_cold.epsilon, model.h_hot.epsilon
    )
    for _ in range(cycles):
        acc = advance_cycle(acc, kernel)
    return acc


def marginal_via_lattice(
    engine: EngineConfig | EngineModel,
    scheme: str,
    observable: str,
    cycles: int,
    initial: np.ndarray | None = None,
) -> GaussianMixture1D:
    """End-to-end marginal distribution after the given number of cycles."""
    kernel = build_cycle_kernel(engine, scheme, observable)
    acc = accumulate(kernel, cycles, initial)
    return assemble_marginal(acc, scheme, cycles, kernel.model.sigma, observable)


def assemble_joint(
    acc: LatticeAccumulator, scheme: str, sigma: float
) -> GaussianMixture2D:
    """Joint (work, heat) mixture of an accumulated work lattice.

    The point (a, b) carries work a*eps_c + b*eps_h and heat -b*eps_h.
    """
    if acc.observable != "work":
        raise ValueError("the joint mixture is read from a work lattice")
    weights = trace_of_vec(acc.grid).real
    occupied = np.abs(acc.grid).max(axis=-1) > 0.0
    ia, ib = np.nonzero(occupied)
    a = ia - acc.offset
    b = ib - acc.offset
    centers = np.stack([a * acc.eps_c + b * acc.eps_h, -b * acc.eps_h], axis=1)
    cov = joint_covariance(scheme, acc.cycles_done, sigma)
    return GaussianMixture2D(centers, weights[occupied], cov)


def joint_via_lattice(
    engine: EngineConfig | EngineModel,
    scheme: str,
    cycles: int,
    initial: np.ndarray | None = None,
) -> GaussianMixture2D:
    """Joint (work, heat) mixture after the given number of cycles.

    The work lattice resolves both observables at once, so no separate joint
    accumulator is needed.  A single heat pointer cannot produce a joint
    record, hence the one-pointer scheme is rejected.
    """
    if scheme == "RC1":
        raise ValueError("joint distribution requires two pointers")
    kernel = build_cycle_kernel(engine, scheme, "work")
    return assemble_joint(accumulate(kernel, cycles, initial), scheme, kernel.model.sigma)


def work_per_cycle_series(
    engine: EngineConfig | EngineModel,
    scheme: str,
    n_max: int,
    initial: np.ndarray | None = None,
) -> list[tuple[int, float, float]]:
    """Cumulative work statistics per cycle count.

    Returns one row (N, <W>_N / N, R_N) per cycle, where R is the negated
    mean over the standard deviation of the accumulated work record.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    kernel = build_cycle_kernel(engine, scheme, "work")
    model = kernel.model
    rho = prepare_initial_state(model, scheme, "work", initial)
    acc = initialize_accumulator(
        rho, n_max, "work", model.h_cold.epsilon, model.h_hot.epsilon
    )
    centers = _center_grid(acc)
    rows = []
    for n in range(1, n_max + 1):
        acc = advance_cycle(acc, kernel)
        weights = trace_of_vec(acc.grid).real
        mean = float((weights * centers).sum())
        second = float((weights * centers**2).sum()) + work_variance(
            scheme, n, model.sigma
        )
        variance = second - mean**2
        reliability = -mean / np.sqrt(variance) if variance > 0 else np.inf
        rows.append((n, mean / n, float(reliability)))
    return rows
