"""Hamiltonian simulation: exact evolution and Trotter product formulas.

Two paths produce the unitary U = exp(i H t) needed by phase estimation:

``exact_evolution``
    Eigendecompose H once and exponentiate the spectrum.  This stands in for
    the fault-tolerant Hamiltonian-simulation oracle assumed by the paper.

``trotter_evolution``
    First- or second-order (Suzuki) product formula over the Pauli
    decomposition of H.  This is the gate-level-honest path; its error
    against the exact path is :func:`trotter_error`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import CircuitError
from repro.quantum.pauli import PauliTerm, pauli_decompose
from repro.utils.linalg import is_hermitian


@dataclass(frozen=True)
class SpectralDecomposition:
    """Cached eigendecomposition H = V diag(w) V†."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def of(cls, hamiltonian: np.ndarray) -> "SpectralDecomposition":
        """Eigendecompose a Hermitian matrix (validated)."""
        hamiltonian = np.asarray(hamiltonian, dtype=complex)
        if not is_hermitian(hamiltonian, atol=1e-8):
            raise CircuitError("Hamiltonian must be Hermitian")
        eigenvalues, eigenvectors = np.linalg.eigh(hamiltonian)
        return cls(eigenvalues=eigenvalues, eigenvectors=eigenvectors)

    def evolution(self, time: float) -> np.ndarray:
        """U = exp(i H t) from the cached spectrum."""
        phases = np.exp(1j * self.eigenvalues * time)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T


def exact_evolution(hamiltonian: np.ndarray, time: float) -> np.ndarray:
    """U = exp(i H t) via eigendecomposition (one-shot convenience)."""
    return SpectralDecomposition.of(hamiltonian).evolution(time)


def _term_evolution(term: PauliTerm, time: float) -> np.ndarray:
    """exp(i c t P) for one Pauli term, using P² = I:

    exp(i a P) = cos(a) I + i sin(a) P.
    """
    angle = term.coefficient * time
    matrix = term.matrix()
    dim = matrix.shape[0]
    return np.cos(angle) * np.eye(dim) + 1j * np.sin(angle) * matrix


def trotter_evolution(
    hamiltonian: np.ndarray,
    time: float,
    steps: int = 8,
    order: int = 1,
    terms: list[PauliTerm] | None = None,
) -> np.ndarray:
    """Approximate exp(i H t) with a product formula.

    Parameters
    ----------
    hamiltonian:
        Hermitian matrix of power-of-two dimension.
    time:
        Evolution time t.
    steps:
        Number of Trotter slices r; error is O(t²/r) at order 1 and
        O(t³/r²) at order 2.
    order:
        1 for Lie-Trotter, 2 for the symmetric Suzuki formula.
    terms:
        Pre-computed Pauli decomposition (recomputed when omitted).
    """
    if steps < 1:
        raise CircuitError(f"steps must be >= 1, got {steps}")
    if order not in (1, 2):
        raise CircuitError(f"only orders 1 and 2 are supported, got {order}")
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    if terms is None:
        terms = pauli_decompose(hamiltonian)
    dim = hamiltonian.shape[0]
    dt = time / steps
    if order == 1:
        slice_unitaries = [_term_evolution(term, dt) for term in terms]
    else:
        halves = [_term_evolution(term, dt / 2) for term in terms]
        slice_unitaries = halves + halves[::-1]
    one_slice = np.eye(dim, dtype=complex)
    for unitary in slice_unitaries:
        one_slice = unitary @ one_slice
    return np.linalg.matrix_power(one_slice, steps)


def trotter_error(
    hamiltonian: np.ndarray, time: float, steps: int, order: int = 1
) -> float:
    """Spectral-norm error ||Trotter − exact|| of the product formula."""
    exact = exact_evolution(hamiltonian, time)
    approx = trotter_evolution(hamiltonian, time, steps=steps, order=order)
    return float(np.linalg.norm(exact - approx, ord=2))
