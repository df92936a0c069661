"""``repro.store`` — content-addressed persistence for query engines.

The paper's Section 4 pipeline is preprocess-once / query-many; this
package makes the "once" literal across processes.  Artifacts (walk
tensors, proposal tables, semantic and ``SO`` matrices, iterative score
tables) are written once under a content hash of *everything that shaped
them* — graph, measure, canonical parameters, format version — and opened
with ``np.load(mmap_mode="r")``: zero copies, lazily paged, and shared
through the OS page cache by any number of reader processes.

Layers
------
:mod:`repro.store.fingerprint`
    content hashes and the manifest key;
:mod:`repro.store.artifacts`
    the artifact directory format, atomic writes, fail-closed reads, and
    the :class:`ArtifactStore` cache;
:mod:`repro.store.engine_io`
    snapshot/restore of :class:`repro.api.QueryEngine` state;
:mod:`repro.store.walk_io`
    the portable single-file ``.npz`` walk-tensor format;
:mod:`repro.store.sharding`
    node-range shard plans for the multi-process serving runtime
    (:mod:`repro.sched.sharded`), whose workers all open the one index;
:mod:`repro.store.hooks`
    the injectable I/O seam every disk-touching entry point gates on,
    which is what makes the failure paths deterministically testable
    (see :mod:`repro.testing.faults`).
"""

from repro.store.artifacts import (
    ArtifactStore,
    StoredArtifact,
    StoreError,
    read_artifact,
    write_artifact,
)
from repro.store.fingerprint import (
    FORMAT_VERSION,
    fingerprint_graph,
    fingerprint_measure,
    manifest_key,
)
from repro.store.hooks import io_gate, io_hook_installed, set_io_hook
from repro.store.sharding import ShardPlan, validate_shard_set
from repro.store.walk_io import WALK_FORMAT_VERSION, load_walks_npz, save_walks_npz

__all__ = [
    "ShardPlan",
    "validate_shard_set",
    "ArtifactStore",
    "StoredArtifact",
    "StoreError",
    "read_artifact",
    "write_artifact",
    "FORMAT_VERSION",
    "fingerprint_graph",
    "fingerprint_measure",
    "manifest_key",
    "WALK_FORMAT_VERSION",
    "load_walks_npz",
    "save_walks_npz",
    "io_gate",
    "io_hook_installed",
    "set_io_hook",
]
