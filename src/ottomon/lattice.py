"""Polynomial-cost recursion over integer energy lattices.

Instead of tracking the exponentially many branch chains individually, the
accumulator stores one Hermitian 2x2 operator block per reachable lattice
point, as four reals, and advances it through the four contacts of the tilted
cycle map: each contact moves the two populations one lattice step in
opposite directions and scales the coherences, and the stroke after it acts
on every point at once.  For the accumulated-pointer schemes this reduction
is only valid for thermal channels whose population and coherence sectors
never mix, so kernel construction fails closed on channels that violate that
condition.
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
    apply_contact,
    build_model,
    contact_suppression,
    cycle_contacts,
    heat_variance,
    joint_covariance,
    tilted_cycle_coefficients,
    work_variance,
)
from .mixtures import GaussianMixture1D, GaussianMixture2D
from .moments import MomentSet
from .superop import trace_of_vec, vec
from .thermal import DECOUPLING_TOL, decoupling_violation

OBSERVABLES = ("work", "heat")
# Largest peak memory a lattice run may need before it is refused.
LATTICE_MEMORY_BUDGET = 2**30
# Final-size grids alive at the peak of a lattice run: the previous grid, the
# grid padded by a contact and the stroke's output (2.98 for work and 3.02 for
# heat, measured at 120 and 2000 cycles; assembly needs under 2.2).
_GRIDS_AT_PEAK = 3
# Largest imaginary entry a stroke may carry in the real Hermitian basis, and
# largest anti-Hermitian entry an initial state may carry.
HERMITICITY_TOL = 1e-12
# vec(rho) = _TO_VEC @ r for r = (rho00, Re rho10, Im rho10, rho11), the real
# coordinates of a Hermitian 2x2 operator; they keep the sector layout of vec,
# so the contact factors act on them unchanged.
_TO_VEC = np.array(
    [[1, 0, 0, 0], [0, 1, 1j, 0], [0, 1, -1j, 0], [0, 0, 0, 1]], dtype=complex
)
_FROM_VEC = np.array(
    [[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0], [0, 0, 0, 1]], dtype=complex
)


def _points_advanced(cycles: int, observable: str) -> int:
    """Lattice points a run advances: the sum over n < cycles of its box
    (2 MAX_SHIFT n + 1)^d, in closed form."""
    step = 2 * MAX_SHIFT
    linear = cycles * (cycles - 1) // 2
    if observable == "heat":
        return step * linear + cycles
    squares = (cycles - 1) * cycles * (2 * cycles - 1) // 6
    return step * step * squares + 2 * step * linear + cycles


# Largest lattice run admitted, counted in advanced points: that of a
# 457-cycle work lattice, which bounds the run time of heat lattices too.
LATTICE_POINT_BUDGET = _points_advanced(457, "work")


def fold_initial_state_rc(rho: np.ndarray, sigma: float, eps_c: float) -> np.ndarray:
    """Damp initial off-diagonals by the first-contact pointer overlap.

    The accumulated-pointer record differences telescope across the chain,
    leaving only the overlap factor of the very first contact; it acts on the
    initial state as a partial dephasing in the cold energy basis.
    """
    factor = contact_suppression(eps_c, sigma)
    folded = np.array(rho, dtype=complex)
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


def require_sector_separation(model: EngineModel, scheme: str) -> None:
    """Refuse accumulated-pointer schemes on channels that mix sectors.

    The accumulated pointers reduce to the initial-state fold only when no
    thermal channel converts populations into coherences or back; both the
    lattice and the moment recursion rest on that reduction.  Per-stroke
    readout does not, so RM always passes.
    """
    if scheme == "RM":
        return
    for channel in (model.cold_channel, model.hot_channel):
        violation = decoupling_violation(channel)
        if violation > DECOUPLING_TOL:
            raise ValueError(
                "thermal channel mixes population and coherence sectors "
                f"(violation {violation:.3e}); the accumulated-pointer "
                "lattice reduction does not apply"
            )


def _real_stroke(stroke: np.ndarray) -> np.ndarray:
    """A stroke superoperator as a real matrix on the Hermitian coordinates."""
    real = _FROM_VEC @ stroke @ _TO_VEC
    residue = float(np.abs(real.imag).max())
    if residue > HERMITICITY_TOL:
        raise ValueError(
            f"stroke does not preserve Hermiticity (imaginary residue "
            f"{residue:.3e}); the real lattice does not apply"
        )
    return np.ascontiguousarray(real.real)


def _hermitian_coordinates(rho: np.ndarray) -> np.ndarray:
    """(rho00, Re rho10, Im rho10, rho11) of a Hermitian 2x2 operator."""
    rho = np.asarray(rho, dtype=complex)
    skew = float(np.abs(rho - rho.conj().T).max())
    if skew > HERMITICITY_TOL:
        raise ValueError(
            f"initial state is not Hermitian (anti-Hermitian part {skew:.3e})"
        )
    return (_FROM_VEC @ vec(rho)).real


@dataclass(frozen=True)
class CycleKernel:
    """The four tilted contacts of one cycle on a scheme/observable lattice.

    Each contact is (lattice axis, exponent sign, overlap, stroke) as in
    :func:`ottomon.engine.cycle_contacts`, with the stroke a real 4x4 matrix
    on the Hermitian coordinates (rho00, Re rho10, Im rho10, rho11).  Heat
    lattices have one axis, the heat record -b; their cold contacts do not
    move (x = 1), so their overlap is folded into the stroke and their sign
    is 0.
    """

    model: EngineModel
    scheme: str
    observable: str
    contacts: tuple[tuple[int, int, float, np.ndarray], ...]


def build_cycle_kernel(
    engine: EngineConfig | EngineModel, scheme: str, observable: str
) -> CycleKernel:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}")
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    require_sector_separation(model, scheme)
    contacts = []
    for axis, power, overlap, stroke in cycle_contacts(model, scheme):
        real = _real_stroke(stroke)
        if observable == "heat":
            if axis == 0:
                real = real * np.array([1.0, overlap, overlap, 1.0])
                axis, power, overlap = 0, 0, 1.0
            else:
                # Heat moves by dq = -db.
                axis, power = 0, -power
        contacts.append((axis, power, overlap, real))
    return CycleKernel(
        model=model, scheme=scheme, observable=observable, contacts=tuple(contacts)
    )


@dataclass(frozen=True)
class LatticeAccumulator:
    """Operator-valued distribution over an integer energy lattice.

    Work lattices are two-dimensional with value a*eps_c + b*eps_h at point
    (a, b); heat lattices are one-dimensional with value k*eps_h.  The grid
    holds the Hermitian coordinates (rho00, Re rho10, Im rho10, rho11) of
    every point of the reached box along its first axis, one lattice axis
    after it; after n cycles the box is -2n..2n on every lattice axis, so the
    origin sits at index ``offset``.  ``capacity`` is the cycle count the
    lattice was admitted for.
    """

    observable: str
    cycles_done: int
    capacity: int
    grid: np.ndarray
    eps_c: float
    eps_h: float

    @property
    def offset(self) -> int:
        return (self.grid.shape[1] - 1) // 2


def initialize_accumulator(
    rho: np.ndarray, capacity: int, observable: str, eps_c: float, eps_h: float
) -> LatticeAccumulator:
    """Delta distribution at the lattice origin carrying the (folded) state.

    Refuses, before allocating, a capacity whose lattice run would need more
    than LATTICE_MEMORY_BUDGET bytes at its peak or advance more than
    LATTICE_POINT_BUDGET points, and an initial state that is not Hermitian.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}")
    size = 4 * capacity + 1
    points = size**2 if observable == "work" else size
    peak = _GRIDS_AT_PEAK * points * 4 * np.dtype(float).itemsize
    if peak > LATTICE_MEMORY_BUDGET:
        raise ValueError(
            f"a {capacity}-cycle {observable} lattice needs about "
            f"{peak / 2**30:,.1f} GiB, over the {LATTICE_MEMORY_BUDGET / 2**30:g} GiB "
            "lattice budget; for moments alone use `ottomon moments`, which "
            "needs no lattice"
        )
    advanced = _points_advanced(capacity, observable)
    if advanced > LATTICE_POINT_BUDGET:
        raise ValueError(
            f"a {capacity}-cycle {observable} lattice advances {advanced:,} "
            f"points, over the lattice budget of {LATTICE_POINT_BUDGET:,} (a "
            "457-cycle work lattice); for moments alone use `ottomon moments`, "
            "which needs no lattice"
        )
    shape = (4, 1, 1) if observable == "work" else (4, 1)
    grid = _hermitian_coordinates(rho).reshape(shape)
    return LatticeAccumulator(
        observable=observable,
        cycles_done=0,
        capacity=capacity,
        grid=grid,
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
    """Apply one full cycle: each contact in turn, then the stroke after it."""
    kernel = _resolve_kernel(engine, scheme, observable)
    if kernel.observable != acc.observable:
        raise ValueError("kernel observable does not match the accumulator")
    if acc.cycles_done + 1 > acc.capacity:
        raise ValueError("accumulator capacity exhausted; initialize with more")
    grid = acc.grid
    for axis, power, overlap, stroke in kernel.contacts:
        if power:
            grid = apply_contact(grid, 1 + axis, power, overlap)
        grid = (stroke @ grid.reshape(4, -1)).reshape(grid.shape)
    return replace(acc, cycles_done=acc.cycles_done + 1, grid=grid)


def _occupied(acc: LatticeAccumulator, tol: float = 0.0) -> np.ndarray:
    """Points whose operator has an entry of modulus above ``tol``."""
    grid = acc.grid
    populations = np.maximum(np.abs(grid[0]), np.abs(grid[3]))
    return np.maximum(populations, np.hypot(grid[1], grid[2])) > tol


def _weights(acc: LatticeAccumulator) -> np.ndarray:
    """Trace of the operator at every point of the box."""
    return acc.grid[0] + acc.grid[3]


def total_trace(acc: LatticeAccumulator) -> complex:
    """Sum of operator traces over the whole lattice; 1 for valid channels."""
    return complex(_weights(acc).sum())


def _points(
    acc: LatticeAccumulator, tol: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Integer points and trace weights of the occupied lattice entries.

    Work points are rows (a, b) in row-major order; heat points are the
    heat records.
    """
    occupied = _occupied(acc, tol)
    points = np.argwhere(occupied) - acc.offset
    if acc.observable == "heat":
        points = points[:, 0]
    return points, _weights(acc)[occupied]


def as_weight_table(
    points: np.ndarray, weights: np.ndarray
) -> dict[tuple[int, int], float] | dict[int, float]:
    """Integer lattice points and their weights as a point -> weight dict."""
    keys = map(tuple, points.tolist()) if points.ndim == 2 else points.tolist()
    return dict(zip(keys, weights.tolist()))


def weight_table(
    acc: LatticeAccumulator, tol: float = 0.0
) -> dict[tuple[int, int], float] | dict[int, float]:
    """Real trace weight per occupied integer lattice point."""
    return as_weight_table(*_points(acc, tol))


def mixture_from_points(
    points: np.ndarray,
    weights: np.ndarray,
    scheme: str,
    observable: str,
    cycles: int,
    sigma: float,
    eps_c: float,
    eps_h: float,
) -> GaussianMixture1D | GaussianMixture2D:
    """Gaussian mixture over integer lattice points and their weights.

    Work and joint points are rows (a, b), with work a*eps_c + b*eps_h and
    heat -b*eps_h; heat points are heat records k, with heat k*eps_h.  The
    components share the scheme's pointer variance (covariance for the
    joint) after the given number of cycles.
    """
    if observable == "heat":
        return GaussianMixture1D(
            points * eps_h, weights, heat_variance(scheme, cycles, sigma)
        )
    a, b = points[:, 0], points[:, 1]
    work = a * eps_c + b * eps_h
    if observable == "work":
        return GaussianMixture1D(work, weights, work_variance(scheme, cycles, sigma))
    if observable == "joint":
        centers = np.stack([work, -b * eps_h], axis=1)
        return GaussianMixture2D(
            centers, weights, joint_covariance(scheme, cycles, sigma)
        )
    raise ValueError(f"unknown observable {observable!r}")


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
    points, weights = _points(acc)
    return mixture_from_points(
        points, weights, scheme, observable, cycles, sigma, acc.eps_c, acc.eps_h
    )


def resolve_initial_state(
    model: EngineModel, initial: np.ndarray | None = None
) -> np.ndarray:
    """The given initial state, or the configured one when none is given."""
    if initial is None:
        return asymptotics.initial_state(model.config, model)
    return np.asarray(initial, dtype=complex)


def prepare_initial_state(
    model: EngineModel, scheme: str, observable: str, initial: np.ndarray | None = None
) -> np.ndarray:
    """Resolve the configured initial state and apply the fold if needed."""
    rho = resolve_initial_state(model, initial)
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


def joint_via_lattice(
    engine: EngineConfig | EngineModel,
    scheme: str,
    cycles: int,
    initial: np.ndarray | None = None,
) -> GaussianMixture2D:
    """Joint (work, heat) mixture after the given number of cycles.

    The work lattice resolves both observables at once, so no separate joint
    accumulator is needed: the point (a, b) carries work a*eps_c + b*eps_h
    and heat -b*eps_h.  A single heat pointer cannot produce a joint record,
    hence the one-pointer scheme is rejected.
    """
    if scheme == "RC1":
        raise ValueError("joint distribution requires two pointers")
    kernel = build_cycle_kernel(engine, scheme, "work")
    acc = accumulate(kernel, cycles, initial)
    points, weights = _points(acc)
    sigma = kernel.model.sigma
    return mixture_from_points(
        points, weights, scheme, "joint", cycles, sigma, acc.eps_c, acc.eps_h
    )


def moment_series(
    engine: EngineConfig | EngineModel,
    scheme: str,
    n_max: int,
    initial: np.ndarray | None = None,
) -> list[MomentSet]:
    """Mixture moments after 1..n_max cycles, read off the tilted cycle map.

    With K(l, m) = sum_ab exp(l x_ab + m q_b) G[a, b], where x_ab = a eps_c +
    b eps_h and q_b = -b eps_h are the work and heat increments of the
    coefficient G[a, b], the moments after N cycles are the derivatives of
    Tr K(l, m)^N rho at zero counting field (full counting statistics).  The
    Taylor coefficients of K(l, m)^N rho to second order obey

        v <- K0 v
        d <- K0 d + K1 v                      (per observable)
        s <- K0 s + K1 d + K2 v / 2           (per observable)
        c <- K0 c + K_w d_q + K_q d_w + K_wq v

    with K0 = sum G, K1 = sum x G, K2 = sum x^2 G, K_wq = sum x q G, and give
    <X> = Tr d, <X^2> = 2 Tr s and <WQ> = Tr c; the pointer terms are added
    as in the assembled mixtures.  Work and heat start from their own
    prepared initial states; RC1 folds only the work one and has no joint
    record, so its cross moment is nan.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    require_sector_separation(model, scheme)
    coeffs = tilted_cycle_coefficients(model, scheme)
    steps = np.arange(-MAX_SHIFT, MAX_SHIFT + 1)
    x = steps[:, None] * model.h_cold.epsilon + steps[None, :] * model.h_hot.epsilon
    q = np.broadcast_to(-steps[None, :] * model.h_hot.epsilon, x.shape)

    def weighted(increment: np.ndarray) -> np.ndarray:
        return np.einsum("ab,abij->ij", increment, coeffs)

    k0 = coeffs.sum(axis=(0, 1))
    k_w, k_q = weighted(x), weighted(q)
    zero = np.zeros((4, 4), dtype=complex)
    # Block lower-triangular step of the coefficient stack (v, d_w, d_q, s_w,
    # s_q, c).
    step = np.block(
        [
            [k0, zero, zero, zero, zero, zero],
            [k_w, k0, zero, zero, zero, zero],
            [k_q, zero, k0, zero, zero, zero],
            [0.5 * weighted(x * x), k_w, zero, k0, zero, zero],
            [0.5 * weighted(q * q), zero, k_q, zero, k0, zero],
            [weighted(x * q), k_q, k_w, zero, zero, k0],
        ]
    )
    rho = resolve_initial_state(model, initial)
    stack = np.zeros((24, 2), dtype=complex)
    for column, observable in enumerate(OBSERVABLES):
        stack[:4, column] = vec(prepare_initial_state(model, scheme, observable, rho))
    joint = fold_required(scheme, "work") == fold_required(scheme, "heat")
    sigma = model.sigma
    out = []
    for n in range(1, n_max + 1):
        stack = step @ stack
        # Block traces; column 0 starts from the work state, 1 from the heat one.
        tr = trace_of_vec(stack.reshape(6, 4, 2).transpose(0, 2, 1)).real
        cross = tr[5, 0] + joint_covariance(scheme, n, sigma)[0, 1] if joint else np.nan
        out.append(
            MomentSet(
                float(tr[1, 0]),
                float(tr[2, 1]),
                float(2.0 * tr[3, 0] + work_variance(scheme, n, sigma)),
                float(2.0 * tr[4, 1] + heat_variance(scheme, n, sigma)),
                float(cross),
            )
        )
    return out


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
    rows = []
    for n, moments in enumerate(moment_series(engine, scheme, n_max, initial), 1):
        variance = moments.work_variance
        mean = moments.mean_work
        reliability = -mean / np.sqrt(variance) if variance > 0 else np.inf
        rows.append((n, mean / n, float(reliability)))
    return rows
