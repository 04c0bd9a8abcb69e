"""Work and heat distributions from a polynomial-cost lattice recursion.

Instead of tracking the exponentially many branch chains individually, a
lattice run stores one Hermitian 2x2 operator block per reachable lattice
point, as four reals, and advances it through the four contacts of the tilted
cycle map: each contact moves the two populations one lattice step in
opposite directions and scales the coherences, and the stroke after it acts
on every point at once.  The traces of the blocks are the point weights that
:func:`mixture_from_points` turns into Gaussian mixtures.  For the
accumulated-pointer schemes this reduction is only valid for thermal channels
whose population and coherence sectors never mix, so a run fails closed on
channels that violate that condition.
"""
from __future__ import annotations

import numpy as np

from .asymptotics import prepare_initial_state
from .engine import (
    JOINT_SCHEMES,
    MAX_SHIFT,
    OBSERVABLES,
    SCHEMES,
    EngineConfig,
    EngineModel,
    apply_contact,
    build_model,
    cycle_contacts,
    pointer_covariance,
    require_sector_separation,
)
from .mixtures import GaussianMixture1D, GaussianMixture2D
from .qubit import HERMITICITY_TOL
from .superop import vec

# Largest peak memory a lattice run may need before it is refused.
LATTICE_MEMORY_BUDGET = 2**30
# Final-size grids alive at the peak of a lattice run: the previous grid, the
# grid padded by a contact and the stroke's output (2.98 for work and 3.02 for
# heat, measured at 120 and 2000 cycles; assembly needs under 2.2).
_GRIDS_AT_PEAK = 3
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
# Largest `pdf` density grid: about 170 bytes a point at the peak (the grid,
# the density columns and the CSV text; tracemalloc, heat at 2^20 points), so
# 2^20 points need about 170 MB.
DENSITY_POINT_BUDGET = 2**20


def check_lattice_budget(cycles: int, observable: str) -> None:
    """Refuse a lattice run over budget, from its size alone.

    A run is refused when it would need more than LATTICE_MEMORY_BUDGET bytes
    at its peak or advance more than LATTICE_POINT_BUDGET points.  Nothing is
    allocated, so lattice runs call it before their first grid.
    """
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    size = 4 * cycles + 1
    points = size**2 if observable == "work" else size
    peak = _GRIDS_AT_PEAK * points * 4 * np.dtype(float).itemsize
    if peak > LATTICE_MEMORY_BUDGET:
        raise ValueError(
            f"a {cycles}-cycle {observable} lattice needs about "
            f"{peak / 2**30:,.1f} GiB, over the {LATTICE_MEMORY_BUDGET / 2**30:g} GiB "
            "lattice budget; for moments alone use `ottomon moments`, which "
            "needs no lattice"
        )
    advanced = _points_advanced(cycles, observable)
    if advanced > LATTICE_POINT_BUDGET:
        raise ValueError(
            f"a {cycles}-cycle {observable} lattice advances {advanced:,} "
            f"points, over the lattice budget of {LATTICE_POINT_BUDGET:,} (a "
            "457-cycle work lattice); for moments alone use `ottomon moments`, "
            "which needs no lattice"
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


def _real_contacts(
    model: EngineModel, scheme: str, observable: str
) -> list[tuple[int, int, float, np.ndarray]]:
    """The four tilted contacts of one cycle on a scheme/observable lattice.

    Each contact is (lattice axis, exponent sign, overlap, stroke) as in
    :func:`ottomon.engine.cycle_contacts`, with the stroke a real 4x4 matrix
    on the Hermitian coordinates (rho00, Re rho10, Im rho10, rho11).  Heat
    lattices have one axis, the heat record -b; their cold contacts do not
    move (x = 1), so their overlap is folded into the stroke and their sign
    is 0.
    """
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
    return contacts


def lattice_points(
    engine: EngineConfig | EngineModel,
    scheme: str,
    observable: str,
    cycles: int,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Occupied lattice points and their trace weights after ``cycles`` cycles.

    Work lattices are two-dimensional, with value a*eps_c + b*eps_h at point
    (a, b), returned as rows in row-major order; heat lattices have one axis,
    with value k*eps_h at heat record k.  The grid of Hermitian coordinates
    starts as the (folded) initial state at the origin and grows by MAX_SHIFT
    points on each side per cycle.  Sector-mixing channels, strokes that
    break Hermiticity and runs over the lattice budget are refused, in that
    order, before any grid is allocated.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}")
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    contacts = _real_contacts(model, scheme, observable)
    check_lattice_budget(cycles, observable)
    rho = prepare_initial_state(model, scheme, observable, initial)
    dims = 2 if observable == "work" else 1
    grid = _hermitian_coordinates(rho).reshape((4,) + (1,) * dims)
    for _ in range(cycles):
        for axis, power, overlap, stroke in contacts:
            if power:
                grid = apply_contact(grid, 1 + axis, power, overlap)
            grid = (stroke @ grid.reshape(4, -1)).reshape(grid.shape)
    populations = np.maximum(np.abs(grid[0]), np.abs(grid[3]))
    occupied = np.maximum(populations, np.hypot(grid[1], grid[2])) > 0.0
    points = np.argwhere(occupied) - MAX_SHIFT * cycles
    if observable == "heat":
        points = points[:, 0]
    return points, (grid[0] + grid[3])[occupied]


def as_weight_table(
    points: np.ndarray, weights: np.ndarray
) -> dict[tuple[int, int], float] | dict[int, float]:
    """Integer lattice points and their weights as a point -> weight dict."""
    keys = map(tuple, points.tolist()) if points.ndim == 2 else points.tolist()
    return dict(zip(keys, weights.tolist()))


def mixture_from_points(
    points: np.ndarray,
    weights: np.ndarray,
    scheme: str,
    observable: str,
    cycles: int,
    config: EngineConfig,
) -> GaussianMixture1D | GaussianMixture2D:
    """Gaussian mixture over integer lattice points and their weights.

    Work and joint points are rows (a, b), with work a*eps_c + b*eps_h and
    heat -b*eps_h; heat points are heat records k, with heat k*eps_h.  The
    components share the scheme's pointer variance (covariance for the
    joint) after the given number of cycles; the half-gaps and the pointer
    width are those of ``config``.
    """
    eps_c, eps_h = config.eps_c, config.eps_h
    covariance = pointer_covariance(scheme, cycles, config.sigma)
    if observable == "heat":
        return GaussianMixture1D(points * eps_h, weights, covariance[1, 1])
    a, b = points[:, 0], points[:, 1]
    work = a * eps_c + b * eps_h
    if observable == "work":
        return GaussianMixture1D(work, weights, covariance[0, 0])
    if observable == "joint":
        centers = np.stack([work, -b * eps_h], axis=1)
        return GaussianMixture2D(centers, weights, covariance)
    raise ValueError(f"unknown observable {observable!r}")


def _lattice_mixture(
    engine: EngineConfig | EngineModel,
    scheme: str,
    lattice: str,
    observable: str,
    cycles: int,
    initial: np.ndarray | None,
) -> GaussianMixture1D | GaussianMixture2D:
    """Mixture of one readout of the points of a work or heat lattice run."""
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    points, weights = lattice_points(model, scheme, lattice, cycles, initial)
    return mixture_from_points(points, weights, scheme, observable, cycles, model.config)


def marginal_via_lattice(
    engine: EngineConfig | EngineModel,
    scheme: str,
    observable: str,
    cycles: int,
    initial: np.ndarray | None = None,
) -> GaussianMixture1D:
    """End-to-end marginal distribution after the given number of cycles."""
    return _lattice_mixture(engine, scheme, observable, observable, cycles, initial)


def joint_via_lattice(
    engine: EngineConfig | EngineModel,
    scheme: str,
    cycles: int,
    initial: np.ndarray | None = None,
) -> GaussianMixture2D:
    """Joint (work, heat) mixture after the given number of cycles.

    The work lattice resolves both observables at once, so no separate joint
    lattice is needed: the point (a, b) carries work a*eps_c + b*eps_h and
    heat -b*eps_h.  A single heat pointer cannot produce a joint record,
    hence the one-pointer scheme is rejected.
    """
    if scheme not in JOINT_SCHEMES:
        raise ValueError("joint distribution requires two pointers")
    return _lattice_mixture(engine, scheme, "work", "joint", cycles, initial)
