"""Array-API accelerator backend behind the ``repro.linalg`` contract.

:class:`ArrayBackend` is the third :class:`~repro.linalg.backends.LinalgBackend`
implementation: it holds matrices as *device arrays* of one array-API
namespace — CuPy when a GPU stack is importable, torch when available,
plain numpy otherwise — and implements the full PR 1 contract
(``from_coo`` / ``identity`` / ``diagonal_matrix`` / ``scale_rows`` /
``scale_columns`` / ``lowest_eigenpairs`` / ``to_dense``) against that
namespace.  Host/device transfers happen only at the contract boundary:

* **in** — :meth:`ArrayBackend.from_host` (and every constructor method)
  moves a host array onto the device once, after the host-side COO
  assembly that preserves ``np.add.at`` duplicate-summing semantics;
* **out** — :meth:`ArrayBackend.to_dense` and
  :meth:`ArrayBackend.lowest_eigenpairs` move results back; the
  eigensolve itself runs on host LAPACK (``eigh``), because the small
  k-lowest eigenproblem is transfer-dominated and host LAPACK is exact.

Between the boundaries the row/column scalings run on the device
through the array-API surface (broadcast ``*``), so the same code runs
on numpy, torch or CuPy arrays.  The QPE, tomography and q-means stages
always compute on host numpy.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError
from repro.linalg.backends import LinalgBackend, BackendError, to_dense_array

#: Preference order of the array namespaces: CUDA first, torch second
#: (works on CPU too), numpy as the always-available fallback.
NAMESPACE_ORDER = ("cupy", "torch", "numpy")


class ArrayNamespace:
    """Uniform adapter over one array-API-style namespace.

    ``xp`` is the namespace module itself; the adapter adds only the two
    operations the array-API standard leaves library-specific — the
    host→device and device→host transfers — so everything else goes
    straight through ``xp``.
    """

    name = "abstract"
    xp = None

    def asarray(self, array):
        """Host (or native) array → native device array."""
        raise NotImplementedError

    def asnumpy(self, array) -> np.ndarray:
        """Native device array → host ``numpy.ndarray``."""
        raise NotImplementedError


class NumpyNamespace(ArrayNamespace):
    """The identity adapter: numpy ≥ 2.0 is array-API compliant itself."""

    name = "numpy"
    xp = np

    def asarray(self, array):
        return np.asarray(array)

    def asnumpy(self, array) -> np.ndarray:
        return np.asarray(array)


class TorchNamespace(ArrayNamespace):
    """torch tensors (CPU or CUDA); float64/complex128 precision is kept
    because ``torch.asarray`` preserves the numpy dtype."""

    name = "torch"

    def __init__(self, torch):
        self.xp = torch

    def asarray(self, array):
        return self.xp.asarray(np.asarray(array))

    def asnumpy(self, array) -> np.ndarray:
        if hasattr(array, "detach"):
            return array.detach().cpu().numpy()
        return np.asarray(array)


class CupyNamespace(ArrayNamespace):
    """CuPy arrays on the default CUDA device."""

    name = "cupy"

    def __init__(self, cupy):
        self.xp = cupy

    def asarray(self, array):
        return self.xp.asarray(np.asarray(array))

    def asnumpy(self, array) -> np.ndarray:
        return self.xp.asnumpy(array)


def _load_namespace(name: str) -> ArrayNamespace | None:
    """Adapter for ``name``, or ``None`` when the library is unusable."""
    if name == "numpy":
        return NumpyNamespace()
    if name == "torch":
        try:
            import torch
        except ImportError:
            return None
        return TorchNamespace(torch)
    if name == "cupy":
        try:
            import cupy

            # Importable CuPy without a reachable device raises at first
            # kernel launch; probe once here so resolution never selects
            # a namespace that cannot compute.
            if cupy.cuda.runtime.getDeviceCount() < 1:
                return None
        except Exception:
            return None
        return CupyNamespace(cupy)
    raise BackendError(
        f"unknown array namespace {name!r}; expected one of {NAMESPACE_ORDER}"
    )


def available_namespaces() -> tuple[str, ...]:
    """Names of the importable array namespaces, in preference order."""
    return tuple(
        name for name in NAMESPACE_ORDER if _load_namespace(name) is not None
    )


def default_namespace_name() -> str:
    """The namespace :class:`ArrayBackend` dispatches to by default."""
    return available_namespaces()[0]  # numpy always qualifies


def resolve_namespace(namespace=None) -> ArrayNamespace:
    """Adapter instance for a namespace spec (name, adapter, or ``None``).

    ``None`` picks the best available namespace per
    :data:`NAMESPACE_ORDER`; an explicit name that is not importable is a
    :class:`~repro.linalg.backends.BackendError` (never a silent numpy
    downgrade — the caller asked for that device on purpose).
    """
    if isinstance(namespace, ArrayNamespace):
        return namespace
    if namespace is None:
        return _load_namespace(default_namespace_name())
    loaded = _load_namespace(namespace)
    if loaded is None:
        raise BackendError(
            f"array namespace {namespace!r} is not importable on this host; "
            f"available: {', '.join(available_namespaces())}"
        )
    return loaded


class ArrayBackend(LinalgBackend):
    """Dense device arrays through one array-API namespace.

    Parameters
    ----------
    namespace:
        ``"cupy"``, ``"torch"``, ``"numpy"``, an :class:`ArrayNamespace`
        adapter, or ``None`` for the best available (the default the
        ``"array"`` backend name resolves to).

    Notes
    -----
    The native representation is *dense on device* — accelerators trade
    memory for throughput, so COO assembly happens on host (preserving
    ``np.add.at`` duplicate-summing exactly) and transfers once.
    ``lowest_eigenpairs`` transfers back and solves on host LAPACK: the
    k-lowest Hermitian eigenproblem at contract sizes is dominated by
    the transfer either way, and host ``eigh`` keeps the result
    tolerance-equal to the dense backend (property-tested in
    ``tests/linalg/test_array_backend.py``).
    """

    name = "array"

    def __init__(self, namespace=None):
        self._namespace = resolve_namespace(namespace)

    @property
    def namespace(self) -> str:
        """Name of the namespace this backend dispatches to."""
        return self._namespace.name

    @property
    def adapter(self) -> ArrayNamespace:
        """The underlying :class:`ArrayNamespace` adapter."""
        return self._namespace

    # -- contract boundary: explicit transfer points ----------------------

    def from_host(self, array):
        """Host array → native device array (the single inbound transfer)."""
        return self._namespace.asarray(np.asarray(array))

    def to_dense(self, matrix) -> np.ndarray:
        """Native device array → host ndarray (the outbound transfer)."""
        return self._namespace.asnumpy(matrix)

    # -- construction ------------------------------------------------------

    def from_coo(self, rows, cols, values, shape, dtype=complex):
        host = np.zeros(shape, dtype=dtype)
        np.add.at(host, (np.asarray(rows), np.asarray(cols)), values)
        return self.from_host(host)

    def identity(self, n: int, dtype=complex):
        return self.from_host(np.eye(n, dtype=dtype))

    def diagonal_matrix(self, values):
        return self.from_host(np.diag(np.asarray(values)))

    # -- scaling -----------------------------------------------------------

    def scale_rows(self, matrix, scale):
        return self.from_host(np.asarray(scale))[:, None] * matrix

    def scale_columns(self, matrix, scale):
        return matrix * self.from_host(np.asarray(scale))[None, :]

    # -- solving -----------------------------------------------------------

    def lowest_eigenpairs(self, matrix, k: int):
        host = to_dense_array(self._namespace.asnumpy(matrix), copy=False)
        n = host.shape[0]
        if not 1 <= k <= n:
            raise ConvergenceError(f"k must be in [1, {n}], got {k}")
        if not np.allclose(host, host.conj().T, atol=1e-8):
            raise ConvergenceError("lowest_eigenpairs requires a Hermitian matrix")
        values, vectors = np.linalg.eigh(host)
        return values[:k], vectors[:, :k]

