"""The compute-backend seam: protocol, configuration and registry.

The Monte-Carlo hot paths — the batched likelihood-ratio walk scores of
Algorithm 1, the classical ``c^tau`` SimRank reduction and the SARW
step-mass products — are pure array kernels: every input they need is
prepared by the estimator (walk tensors, per-step ``W``/``Q`` tables, the
dense semantic matrix, meeting times) and every output is a plain array
plus a handful of work counters.  :class:`ComputeBackend` pins that
contract down so the kernels can be swapped — a different blocking
strategy, eventually a compiled kernel — without touching the estimator,
the serving stack or the CLI.

Backends register themselves by name (:func:`register_backend`) and are
discovered through :func:`available_backends` / ``repro backends list``.
Third-party packages can plug in the same way::

    from repro.backends import ComputeBackend, register_backend

    @register_backend
    class MyBackend(ComputeBackend):
        name = "mine"
        ...

Selection precedence is **kwarg > CLI > environment > default**: an
explicit ``QueryEngine(backend=...)`` (the CLI's ``--backend`` is passed
through as that kwarg) beats the ``REPRO_BACKEND`` environment variable,
which beats the ``"numpy"`` default — see :func:`resolve_backend`.

Equivalence contract: a backend with ``exact=True`` must be
**bit-identical** to the ``numpy`` reference on every input (same floats,
same operation order); a backend with ``exact=False`` must agree within
its declared ``tolerance`` (an absolute per-score bound).  The
cross-backend property suite (``tests/properties/test_backend_identity.py``)
enforces this for every registered backend.
"""

from __future__ import annotations

import abc
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.registry import get_registry, is_enabled

#: Backend used when neither the caller nor the environment picks one.
DEFAULT_BACKEND = "numpy"

#: Environment variable consulted by :func:`resolve_backend` when the
#: caller passes no explicit backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class BackendError(ConfigurationError):
    """Base class for compute-backend selection/registration errors."""


class UnknownBackendError(BackendError):
    """No backend is registered under the requested name."""

    def __init__(self, name: str, known: list[str]) -> None:
        super().__init__(
            f"unknown compute backend {name!r}; registered backends: "
            f"{', '.join(known) or '(none)'}"
        )
        self.name = name


class BackendUnavailableError(BackendError):
    """The backend is registered but cannot run in this environment."""

    def __init__(self, name: str, reason: str) -> None:
        super().__init__(f"compute backend {name!r} is unavailable: {reason}")
        self.name = name
        self.reason = reason


@dataclass(frozen=True)
class BackendConfig:
    """Tuning knobs shared by every backend.

    block_rows:
        Rows (met coupled walks) whose elementwise factor/cumprod chain is
        processed per block by row-blocked kernels.  Smaller blocks keep
        the chain's working set cache-resident; the value trades numpy
        call overhead against memory traffic.
    step_memo_cap:
        Upper bound on the :class:`~repro.core.sarw.SemanticAwareWalker`
        step-distribution memo (entries, evicted least-recently-used).
        ``None`` disables the cap — only safe for short-lived processes.
    """

    block_rows: int = 4096
    step_memo_cap: int | None = 65536

    def __post_init__(self) -> None:
        if self.block_rows < 1:
            raise ConfigurationError(
                f"block_rows must be >= 1, got {self.block_rows!r}"
            )
        if self.step_memo_cap is not None and self.step_memo_cap < 1:
            raise ConfigurationError(
                f"step_memo_cap must be >= 1 or None, got {self.step_memo_cap!r}"
            )


@dataclass
class WalkScoreRequest:
    """Inputs of the batched Algorithm-1 walk-score kernel.

    All arrays are prepared by :class:`~repro.core.montecarlo.MonteCarloSemSim`
    — the kernel does no graph or measure work of its own.  Pair *i* is
    ``(pos_u[i], positions[i])``: every pair carries its own source, so
    one call can score pairs from many sources.  Rows of the kernel's
    intermediate planes are the met coupled walks, enumerated exactly as
    ``np.nonzero(meetings >= 1)`` (C order), and each row reads only its
    own pair's walks; *so_lookup*, when given, replaces the dense
    *so_matrix* with a per-pair callable (the SLING ``pair_index`` path)
    and owns its own evaluation counting.
    """

    walks: np.ndarray                 # (n, n_w, L + 1) node positions, -1 padded
    pos_u: np.ndarray                 # (m,) source node position per pair
    positions: np.ndarray             # (m,) candidate node position per pair
    meetings: np.ndarray              # (m, n_w) first-meeting steps, -1 = never
    sem_matrix: np.ndarray            # (n, n) dense semantic matrix
    step_weights: np.ndarray          # (n, n_w, L) per-step edge weights W
    step_q: np.ndarray                # (n, n_w, L) per-step proposal probs Q
    decay: float
    theta: float | None
    so_matrix: np.ndarray | None = None
    so_lookup: Callable[[int, int], float] | None = None


@dataclass
class WalkScoreResult:
    """Outputs of the batched walk-score kernel.

    *totals* holds, per pair, the sum of per-walk likelihood-ratio
    scores (the scalar path's ``sum_w _walk_score(...)``); the counters are
    the stat deltas the estimator folds into its
    :class:`~repro.core.montecarlo.EstimatorStats`.
    """

    totals: np.ndarray                # (m,) float64
    walks_met: int = 0
    so_evaluations: int = 0
    walks_pruned: int = 0


class ComputeBackend(abc.ABC):
    """Swappable kernels for the Monte-Carlo scoring hot paths.

    Subclasses set three class attributes — ``name`` (the registry key),
    ``exact`` (bit-identical to the ``numpy`` reference?) and
    ``tolerance`` (absolute per-score bound when not exact; 0.0 when
    exact) — and implement the three kernels.  Instances are cheap and
    thread-safe: any scratch state must be per-thread (serving workers
    share one estimator, hence one backend instance).
    """

    name: str = "abstract"
    exact: bool = False
    tolerance: float = 0.0
    description: str = ""

    def __init__(self, config: BackendConfig | None = None) -> None:
        self.config = config if config is not None else BackendConfig()

    @abc.abstractmethod
    def batch_walk_scores(self, request: WalkScoreRequest) -> WalkScoreResult:
        """Run the batched Algorithm-1 likelihood-ratio kernel."""

    @abc.abstractmethod
    def simrank_scores(
        self,
        meetings: np.ndarray,
        met: np.ndarray,
        decay: float,
        num_walks: int,
    ) -> np.ndarray:
        """Classical MC SimRank reduction: ``sum(c^tau) / n_w`` per row."""

    @abc.abstractmethod
    def step_masses(
        self,
        weights_u: np.ndarray,
        weights_v: np.ndarray,
        sem_block: np.ndarray,
    ) -> np.ndarray:
        """SARW step masses ``W(a,u) W(b,v) sem(a,b)``, flattened row-major.

        *sem_block* is the ``(|I(u)|, |I(v)|)`` pairwise semantic block;
        the result aligns with ``[(a, b) for a in I(u) for b in I(v)]``.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, exact={self.exact})"


# ---------------------------------------------------------------------------
# SO-plane helper shared by the numpy-family backends (pair_index path).
# ---------------------------------------------------------------------------

def resolve_so_plane(
    cu: np.ndarray,
    cv: np.ndarray,
    active: np.ndarray | None,
    num_nodes: int,
    so_lookup: Callable[[int, int], float],
) -> np.ndarray:
    """Fill a ``(rows, steps)`` SO plane through a per-pair lookup.

    Deduplicates identical ``(cu, cv)`` step pairs before consulting
    *so_lookup* (which owns caching and evaluation counting), exactly as
    the pre-seam batch path did.  *active* marks the cells that need real
    values (inactive cells stay 1.0 and are masked downstream); ``None``
    means the plane is dense and every cell is live.
    """
    pair_keys = cu.astype(np.int64) * np.int64(num_nodes) + cv
    if active is None:
        unique_keys, inverse = np.unique(pair_keys.ravel(), return_inverse=True)
    else:
        unique_keys, inverse = np.unique(pair_keys[active], return_inverse=True)
    unique_so = np.empty(unique_keys.size, dtype=np.float64)
    for j, key in enumerate(unique_keys):
        unique_so[j] = so_lookup(int(key) // num_nodes, int(key) % num_nodes)
    if active is None:
        return unique_so[inverse].reshape(cu.shape)
    so = np.ones(cu.shape, dtype=np.float64)
    so[active] = unique_so[inverse]
    return so


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackendInfo:
    """One row of ``repro backends list``."""

    name: str
    available: bool
    exact: bool
    tolerance: float
    description: str
    unavailable_reason: str | None = None


_REGISTRY: dict[str, type[ComputeBackend]] = {}
_UNAVAILABLE: dict[str, tuple[str, str]] = {}  # name -> (reason, description)


def register_backend(cls: type[ComputeBackend]) -> type[ComputeBackend]:
    """Class decorator: register *cls* under its ``name`` attribute.

    Re-registering a name overwrites the previous entry (latest wins), so
    a plugin can shadow a built-in deliberately; an unavailable stub of
    the same name is dropped.
    """
    name = getattr(cls, "name", None)
    if not name or name == ComputeBackend.name:
        raise ConfigurationError(
            f"backend class {cls.__name__} must define a non-default 'name'"
        )
    _REGISTRY[name] = cls
    _UNAVAILABLE.pop(name, None)
    return cls


def register_unavailable(name: str, reason: str, description: str = "") -> None:
    """Record a backend that exists but cannot run here (a missing dependency).

    Keeps the name discoverable — ``repro backends list`` shows it with
    its reason, and selecting it raises :class:`BackendUnavailableError`
    instead of :class:`UnknownBackendError`.
    """
    if name not in _REGISTRY:
        _UNAVAILABLE[name] = (reason, description)


def unregister_backend(name: str) -> None:
    """Remove *name* from the registry (plugin teardown / testing aid)."""
    _REGISTRY.pop(name, None)
    _UNAVAILABLE.pop(name, None)


def available_backends() -> list[BackendInfo]:
    """Describe every registered backend, available or not, sorted by name."""
    rows = [
        BackendInfo(
            name=name,
            available=True,
            exact=cls.exact,
            tolerance=cls.tolerance,
            description=cls.description,
        )
        for name, cls in _REGISTRY.items()
    ]
    rows.extend(
        BackendInfo(
            name=name,
            available=False,
            exact=False,
            tolerance=0.0,
            description=description,
            unavailable_reason=reason,
        )
        for name, (reason, description) in _UNAVAILABLE.items()
    )
    return sorted(rows, key=lambda info: info.name)


def get_backend(
    name: str, config: BackendConfig | None = None
) -> ComputeBackend:
    """Instantiate the backend registered under *name*."""
    cls = _REGISTRY.get(name)
    if cls is None:
        if name in _UNAVAILABLE:
            raise BackendUnavailableError(name, _UNAVAILABLE[name][0])
        raise UnknownBackendError(name, sorted(_REGISTRY))
    return cls(config)


def default_backend_name() -> str:
    """The name :func:`resolve_backend` falls back to: env var or default."""
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def resolve_backend(
    spec: "str | ComputeBackend | None" = None,
    config: BackendConfig | None = None,
) -> ComputeBackend:
    """Resolve a backend spec with kwarg > env > default precedence.

    *spec* may be a ready :class:`ComputeBackend` instance (returned
    as-is; *config* must then be ``None`` — the instance already carries
    its own), a registered name, or ``None`` — which consults the
    ``REPRO_BACKEND`` environment variable before falling back to
    :data:`DEFAULT_BACKEND`.
    """
    if isinstance(spec, ComputeBackend):
        if config is not None:
            raise ConfigurationError(
                "cannot combine a backend instance with backend_config; "
                "construct the instance with the config instead"
            )
        return spec
    if spec is None:
        spec = default_backend_name()
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"backend must be a name or a ComputeBackend, got {spec!r}"
        )
    return get_backend(spec, config)


# ---------------------------------------------------------------------------
# Kernel timing — the per-backend observability hook.
# ---------------------------------------------------------------------------

_KERNEL_SECONDS = get_registry().histogram(
    "kernel_seconds",
    help="Compute-kernel wall time per call, by backend and kernel.",
    labelnames=("backend", "kernel"),
    buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
             0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5),
)

_KERNEL_CELLS: dict[tuple[str, str], object] = {}


@contextmanager
def kernel_timer(backend: str, kernel: str) -> Iterator[None]:
    """Time one kernel call into ``kernel_seconds{backend, kernel}``.

    Free when observability is disabled; label children are cached so the
    hot path pays one dict hit, not a registry lookup.
    """
    if not is_enabled():
        yield
        return
    cell = _KERNEL_CELLS.get((backend, kernel))
    if cell is None:
        cell = _KERNEL_SECONDS.labels(backend=backend, kernel=kernel)
        _KERNEL_CELLS[(backend, kernel)] = cell
    start = time.perf_counter()
    try:
        yield
    finally:
        cell.observe(time.perf_counter() - start)
