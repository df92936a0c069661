"""Versioned ``.npz`` persistence for walk tensors.

This is the portable single-file cousin of the directory artifacts in
:mod:`repro.store.artifacts`: one compressed ``.npz`` holding the walk
tensor, the in-edge offset of every walk step, and a JSON metadata record
(format marker, version, sampling parameters, node order).
:func:`repro.core.walk_index.save_walk_index` / ``load_walk_index`` are
thin shims over these functions.

Loading **fails closed**: a truncated or corrupt file, a missing array or
metadata key, an unknown format or version, or a tensor whose shape
disagrees with its own metadata all raise
:class:`~repro.errors.GraphError` with a message naming the problem —
never a leaked ``KeyError``/``ValueError`` and never a silently wrong
index.  (Matching the payload against a live graph is the caller's job;
the loader only guarantees internal consistency.)
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import GraphError
from repro.obs.registry import get_registry, is_enabled
from repro.obs.trace import span
from repro.store.hooks import io_gate

_REGISTRY = get_registry()
_WALK_BYTES_WRITTEN = _REGISTRY.counter(
    "store_walk_bytes_written_total",
    help="Uncompressed walk and step-offset bytes saved to .npz files.",
)
_WALK_BYTES_READ = _REGISTRY.counter(
    "store_walk_bytes_read_total",
    help="Uncompressed walk and step-offset bytes loaded from .npz files.",
)

WALK_FORMAT = "repro-walk-index"
#: Version 1 was the unversioned seed format and version 2 added the
#: format/version markers; version 3 stores the step offsets.  Only the
#: current version is read: a walk file is a seeded sample, cheaper to
#: draw again than to migrate.
WALK_FORMAT_VERSION = 3

_REQUIRED_METADATA = ("num_walks", "length", "policy", "nodes")


def save_walks_npz(
    path: str | Path,
    walks: np.ndarray,
    offsets: np.ndarray,
    *,
    num_walks: int,
    length: int,
    policy: str,
    nodes: list[str],
) -> None:
    """Write one walk tensor, its step offsets and metadata to an ``.npz``."""
    io_gate("walks.save", path)
    metadata = {
        "format": WALK_FORMAT,
        "version": WALK_FORMAT_VERSION,
        "num_walks": int(num_walks),
        "length": int(length),
        "policy": str(policy),
        "nodes": list(nodes),
    }
    with span("store.save_walks", nodes=len(nodes), num_walks=num_walks):
        np.savez_compressed(
            path,
            walks=np.ascontiguousarray(walks),
            offsets=np.ascontiguousarray(offsets),
            metadata=np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8
            ),
        )
    if is_enabled():
        _WALK_BYTES_WRITTEN.inc(walks.nbytes + offsets.nbytes)


def load_walks_npz(path: str | Path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read and validate a file written by :func:`save_walks_npz`.

    Returns ``(walks, offsets, metadata)``.  Raises :class:`GraphError` on
    any structural problem; ``FileNotFoundError`` propagates unchanged so
    callers can distinguish "absent" from "broken".
    """
    path = Path(path)
    io_gate("walks.load", path)
    try:
        # The handle is ours, so it is closed even when np.load raises.
        with open(path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as payload:
            for entry in ("walks", "metadata", "offsets"):
                if entry not in payload:
                    raise GraphError(
                        f"walk-index file {path} is missing its {entry!r} "
                        f"entry — not a repro walk index, or written by an "
                        f"incompatible version"
                    )
            walks = np.asarray(payload["walks"])
            offsets = np.asarray(payload["offsets"])
            raw_metadata = payload["metadata"]
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise GraphError(
            f"walk-index file {path} is corrupt or truncated: {exc}"
        ) from None
    try:
        metadata = json.loads(bytes(np.asarray(raw_metadata).tobytes()).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise GraphError(
            f"walk-index file {path} has unreadable metadata: {exc}"
        ) from None
    if not isinstance(metadata, dict):
        raise GraphError(f"walk-index file {path} has malformed metadata")
    declared_format = metadata.get("format")
    if declared_format != WALK_FORMAT:
        raise GraphError(
            f"walk-index file {path} declares format {declared_format!r}, "
            f"expected {WALK_FORMAT!r}"
        )
    if metadata.get("version") != WALK_FORMAT_VERSION:
        raise GraphError(
            f"walk-index file {path} has unsupported format version "
            f"{metadata.get('version')!r}; this library reads version "
            f"{WALK_FORMAT_VERSION}"
        )
    missing = [key for key in _REQUIRED_METADATA if key not in metadata]
    if missing:
        raise GraphError(
            f"walk-index file {path} is missing metadata keys {missing}"
        )
    try:
        num_walks = int(metadata["num_walks"])
        length = int(metadata["length"])
    except (TypeError, ValueError):
        raise GraphError(
            f"walk-index file {path} has non-numeric sampling parameters"
        ) from None
    expected = (len(metadata["nodes"]), num_walks, length + 1)
    for name, tensor, shape in (
        ("walk", walks, expected),
        ("offset", offsets, expected[:2] + (length,)),
    ):
        if not np.issubdtype(tensor.dtype, np.integer) or tensor.ndim != 3:
            raise GraphError(
                f"walk-index file {path} holds an invalid {name} tensor "
                f"(dtype {tensor.dtype}, {tensor.ndim} dimensions)"
            )
        if tensor.shape != shape:
            raise GraphError(
                f"walk-index file {path} is internally inconsistent: {name} "
                f"tensor shape {tensor.shape} does not match metadata {shape}"
            )
    if is_enabled():
        _WALK_BYTES_READ.inc(walks.nbytes + offsets.nbytes)
    return walks, offsets, metadata
