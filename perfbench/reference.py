"""Independent reference values from the tilted single-cycle map.

Only the stroke unitaries and the two thermal channel superoperators are
taken from the program; everything else is rebuilt here from the definition
of the monitored cycle, without the branch tabulation, the lattice or the
closed forms.  Column-stacked vectorization vec(X) = [X00, X10, X01, X11] is
used throughout, and an energy sign is -1 for the ground level and +1 for the
excited one.

A projective contact at energy e with counting variable lambda multiplies
the matched elements by exp(-+lambda*e) and the mismatched (coherence)
elements by the pointer overlap w:

    C(lambda) = diag(exp(-lambda*e), w, w, exp(lambda*e)),

and one cycle is the tilted map

    K(lambda) = Cold . C4 . Rev . C3 . Hot . C2 . Fwd . C1.

The signed contact energies are (-eps_c, +eps_h, -eps_h, +eps_c) for work and
(0, -eps_h, +eps_h, 0) for the heat drawn from the hot bath; w is
exp(-eps^2 / 2 sigma^2) at each contact for per-stroke readout (RM) and 1 for
the accumulated pointers (RC).  Tr[K(lambda)^N rho0] is the generating
function of the record after N cycles (full counting statistics, Esposito,
Harbola and Mukamel, Rev. Mod. Phys. 81, 1665 (2009)).
"""
from __future__ import annotations

import numpy as np

TRACE_ROW = np.array([1.0, 0.0, 0.0, 1.0])
SIGMA_Z_ROW = np.array([-1.0, 0.0, 0.0, 1.0])


def overlap(eps: float, sigma: float) -> float:
    """Overlap of the two pointer states of one mismatched contact."""
    return 0.0 if sigma == 0.0 else float(np.exp(-(eps**2) / (2.0 * sigma**2)))


def _conjugation_matrix(unitary: np.ndarray) -> np.ndarray:
    """4x4 matrix of X -> U X U^dagger, built column by column."""
    columns = []
    for j in range(4):
        basis = np.zeros((2, 2), dtype=complex)
        basis[j % 2, j // 2] = 1.0
        image = unitary @ basis @ unitary.conj().T
        columns.append(image.flatten("F"))
    return np.column_stack(columns)


class Cycle:
    """The four stroke maps of one engine and its contact data."""

    def __init__(self, model, eps_c: float, eps_h: float, sigma: float):
        self.eps_c = eps_c
        self.eps_h = eps_h
        self.sigma = sigma
        self.fwd = _conjugation_matrix(np.asarray(model.forward_unitary))
        self.rev = _conjugation_matrix(np.asarray(model.reverse_unitary))
        self.hot = np.asarray(model.hot_channel.superoperator(), dtype=complex)
        self.cold = np.asarray(model.cold_channel.superoperator(), dtype=complex)

    def contacts(self, kind: str, observable: str) -> list[tuple[float, float]]:
        """(signed energy, overlap) of contacts 1..4 in time order."""
        ec, eh = self.eps_c, self.eps_h
        if kind == "RM":
            wc, wh = overlap(ec, self.sigma), overlap(eh, self.sigma)
        else:
            wc = wh = 1.0
        if observable == "work":
            energies = (-ec, eh, -eh, ec)
        else:
            energies = (0.0, -eh, eh, 0.0)
        return list(zip(energies, (wc, wh, wh, wc)))

    def _strokes(self) -> list[np.ndarray]:
        """The maps that follow contacts 1..4."""
        return [self.fwd, self.hot, self.rev, self.cold]

    def series(self, kind: str, observable: str) -> list[np.ndarray]:
        """Taylor coefficients K0, K1, K2 of K(lambda) about lambda = 0."""
        total = [np.eye(4, dtype=complex), np.zeros((4, 4)), np.zeros((4, 4))]
        for (e, w), stroke in zip(self.contacts(kind, observable), self._strokes()):
            contact = [
                np.diag([1.0, w, w, 1.0]).astype(complex),
                np.diag([-e, 0.0, 0.0, e]).astype(complex),
                np.diag([0.5 * e * e, 0.0, 0.0, 0.5 * e * e]).astype(complex),
            ]
            step = [stroke @ c for c in contact]
            total = [
                step[0] @ total[0],
                step[0] @ total[1] + step[1] @ total[0],
                step[0] @ total[2] + step[1] @ total[1] + step[2] @ total[0],
            ]
        return total

    def at(self, kind: str, observable: str, lam: complex) -> np.ndarray:
        """K(lambda) at one complex counting variable."""
        total = np.eye(4, dtype=complex)
        for (e, w), stroke in zip(self.contacts(kind, observable), self._strokes()):
            contact = np.diag([np.exp(-lam * e), w, w, np.exp(lam * e)])
            total = stroke @ contact @ total
        return total

    def dephased(self, kind: str) -> np.ndarray:
        """Untilted cycle map: with contact dephasing for RM, bare for RC."""
        return self.series(kind, "work")[0]


def fixed_point(cycle_map: np.ndarray) -> np.ndarray:
    """Unit-trace fixed point from the bordered system [M - I; Tr] x = [0; 1]."""
    system = np.vstack([cycle_map - np.eye(4), TRACE_ROW])
    rhs = np.zeros(5, dtype=complex)
    rhs[4] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return solution


def gibbs_cold(beta_c: float, eps_c: float) -> np.ndarray:
    excited = np.exp(-beta_c * eps_c) / (2.0 * np.cosh(beta_c * eps_c))
    return np.array([1.0 - excited, 0.0, 0.0, excited], dtype=complex)


def fold(rho_vec: np.ndarray, eps_c: float, sigma: float) -> np.ndarray:
    """Damp the coherences of the initial state by one cold overlap."""
    out = np.array(rho_vec, dtype=complex)
    out[1:3] *= overlap(eps_c, sigma)
    return out


def scheme_setup(scheme: str, observable: str) -> tuple[str, bool]:
    """(map kind, whether the initial state is folded) of one readout."""
    if scheme == "RM":
        return "RM", False
    return "RC", not (scheme == "RC1" and observable == "heat")


def pointer_variance(scheme: str, observable: str, cycles: int, sigma: float) -> float:
    if scheme != "RM":
        return sigma**2
    return (4.0 if observable == "work" else 2.0) * cycles * sigma**2


def moment_series(
    cycle: Cycle, scheme: str, observable: str, rho0: np.ndarray, cycles: int
) -> list[tuple[float, float]]:
    """(mean, variance) of the record after 1..cycles cycles.

    Propagates the Taylor coefficients v, d, s of K(lambda)^N rho0:
    v <- K0 v, d <- K0 d + K1 v, s <- K0 s + K1 d + K2 v; the mean is Tr d and
    the second moment 2 Tr s plus the pointer variance.
    """
    kind, folded = scheme_setup(scheme, observable)
    k0, k1, k2 = cycle.series(kind, observable)
    v = fold(rho0, cycle.eps_c, cycle.sigma) if folded else np.array(rho0, dtype=complex)
    d = np.zeros(4, dtype=complex)
    s = np.zeros(4, dtype=complex)
    out = []
    for n in range(1, cycles + 1):
        v, d, s = k0 @ v, k0 @ d + k1 @ v, k0 @ s + k1 @ d + k2 @ v
        mean = float((TRACE_ROW @ d).real)
        second = 2.0 * float((TRACE_ROW @ s).real)
        second += pointer_variance(scheme, observable, n, cycle.sigma)
        out.append((mean, second - mean**2))
    return out


def characteristic_function(
    cycle: Cycle, scheme: str, observable: str, rho0: np.ndarray, cycles: int,
    u: np.ndarray,
) -> np.ndarray:
    """Tr[K(iu)^N rho0] exp(-sigma_N^2 u^2 / 2) at each frequency u."""
    kind, folded = scheme_setup(scheme, observable)
    start = fold(rho0, cycle.eps_c, cycle.sigma) if folded else np.array(rho0, dtype=complex)
    var = pointer_variance(scheme, observable, cycles, cycle.sigma)
    out = []
    for freq in np.atleast_1d(u):
        step = cycle.at(kind, observable, 1j * freq)
        power = np.linalg.matrix_power(step, cycles)
        out.append((TRACE_ROW @ power @ start) * np.exp(-0.5 * var * freq**2))
    return np.array(out)


def asymptotic(cycle: Cycle, kind: str) -> dict[str, float]:
    """Per-cycle work, heat and second eigenvalue modulus in the invariant state.

    Work and heat come from energy bookkeeping: the state is carried through
    the four strokes and the mean energy eps*<sigma_z> is read at each contact,
    giving W = (E2 - E1) + (E4 - E3) and Q = E3 - E2.
    """
    cycle_map = cycle.dephased(kind)
    rho = fixed_point(cycle_map)
    energies = []
    for (e, w), stroke in zip(cycle.contacts(kind, "work"), cycle._strokes()):
        energies.append(abs(e) * float((SIGMA_Z_ROW @ rho).real))
        rho = stroke @ (np.array([1.0, w, w, 1.0]) * rho)
    e1, e2, e3, e4 = energies
    moduli = np.sort(np.abs(np.linalg.eigvals(cycle_map)))[::-1]
    return {
        "work": (e2 - e1) + (e4 - e3),
        "heat": e3 - e2,
        "lambda2": float(moduli[1]),
    }
