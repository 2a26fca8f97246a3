"""Persistence for reference databases and workload summaries.

Section IV-C: the transposed database "can be stored for later use and
is thus a one-time cost", and "k-mer databases are relatively stable
over time".  This module provides the storage side of that story:

* a zero-copy **segment directory** (`.npy` per array + content-hash
  manifest) of a :class:`KmerDatabase` — compact 12-byte records,
  exactly the footprint the paper's size arithmetic assumes — that
  :meth:`KmerDatabase.open_mmap` maps read-only, so fleet/service
  shard workers share one page-cached copy of the reference instead
  of rebuilding (or copy-on-write duplicating) it per process;
* JSON save/load of a :class:`WorkloadStats`, so a trace measured once
  on the functional simulator can drive the analytic model in later
  sessions (the trace-driven methodology, made reproducible).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from .sieve.perfmodel import EspModel, WorkloadStats
from .genomics.database import KmerDatabase, MmapKmerDatabase
from .genomics.taxonomy import Taxonomy

PathLike = Union[str, Path]

#: Format tags guarding against loading the wrong file kind.
WORKLOAD_FORMAT = "sieve-repro-workload-v1"
SEGMENT_FORMAT = "sieve-repro-kmerdb-segments-v1"

#: Manifest file name inside a segment directory.
MANIFEST_NAME = "manifest.json"

#: The arrays a segment directory carries, in manifest (and hash) order.
SEGMENT_ARRAYS = ("kmers", "taxa")

#: The fields every segment manifest holds, and each of its segment
#: entries, with the type of each value.
MANIFEST_FIELDS = dict(k=int, canonical=bool, num_records=int, segments=dict, content_hash=str)
SEGMENT_FIELDS = dict(file=str, dtype=str, shape=list, sha256=str)


class SerializationError(ValueError):
    """Raised on malformed or mismatched files."""


def _record_arrays(database: KmerDatabase) -> Dict[str, np.ndarray]:
    """The sorted record image as the segment arrays (kmers, taxa)."""
    records = database.sorted_records()
    return {
        "kmers": np.array([k for k, _ in records], dtype=np.uint64),
        "taxa": np.array([t for _, t in records], dtype=np.uint32),
    }


def _array_sha256(array: np.ndarray) -> str:
    """Content hash of an array's raw little-endian bytes."""
    data = np.ascontiguousarray(array)
    if data.dtype.byteorder == ">":  # pragma: no cover - BE hosts only
        data = data.astype(data.dtype.newbyteorder("<"))
    return hashlib.sha256(data.tobytes()).hexdigest()


def _combine_content_hash(
    k: int, canonical: bool, array_hashes: Dict[str, str]
) -> str:
    """Database content hash: schema header + every array hash, in
    manifest order — identical for an in-memory build and its saved
    segment image."""
    parts = [SEGMENT_FORMAT, f"k={k}", f"canonical={bool(canonical)}"]
    parts.extend(f"{name}={array_hashes[name]}" for name in SEGMENT_ARRAYS)
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def database_content_hash(database: KmerDatabase) -> str:
    """Content hash of (k, canonical, sorted records).

    An mmap-opened database answers from its manifest without touching
    the mapped pages; an in-memory database hashes its record image.
    Equal hashes mean byte-identical reference content; the value is
    the ``content_hash`` :func:`save_segments` records in the manifest.
    """
    stored = getattr(database, "content_hash", None)
    if stored:
        return stored
    arrays = _record_arrays(database)
    return _combine_content_hash(
        database.k,
        database.canonical,
        {name: _array_sha256(arrays[name]) for name in SEGMENT_ARRAYS},
    )


def save_segments(database: KmerDatabase, path: PathLike) -> Dict[str, Any]:
    """Write a database as an mmap-able segment directory.

    Layout: one ``.npy`` file per record array (``kmers.npy`` uint64
    ascending, ``taxa.npy`` uint32 aligned payloads) plus a
    ``manifest.json`` recording dtype/shape/sha256 per segment and the
    combined database content hash.  Returns the manifest dict.
    """
    if len(database) == 0:
        raise SerializationError("refusing to save an empty database")
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = _record_arrays(database)
    segments: Dict[str, Dict[str, Any]] = {}
    hashes: Dict[str, str] = {}
    for name in SEGMENT_ARRAYS:
        array = arrays[name]
        np.save(directory / f"{name}.npy", array)
        hashes[name] = _array_sha256(array)
        segments[name] = {
            "file": f"{name}.npy",
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "sha256": hashes[name],
        }
    manifest: Dict[str, Any] = {
        "format": SEGMENT_FORMAT,
        "k": database.k,
        "canonical": bool(database.canonical),
        # Operational provenance, not content: a fault-hardened
        # (degraded) reference must reopen degraded so conformance
        # reporting survives the segment round trip, but the content
        # hash keys on (k, canonical, records) alone so clean and
        # degraded images of identical records still dedup in caches.
        "degraded": bool(database.capabilities().degraded),
        "num_records": len(database),
        "segments": segments,
        "content_hash": _combine_content_hash(
            database.k, database.canonical, hashes
        ),
    }
    manifest_path = directory / MANIFEST_NAME
    tmp_path = directory / (MANIFEST_NAME + ".tmp")
    tmp_path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    tmp_path.replace(manifest_path)
    return manifest


def read_segment_manifest(path: PathLike) -> Dict[str, Any]:
    """Parse and validate a segment directory's manifest."""
    directory = Path(path)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SerializationError(
            f"{directory}: no {MANIFEST_NAME} (not a segment directory)"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise SerializationError(
            f"{manifest_path}: invalid JSON ({exc})"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("format") != SEGMENT_FORMAT:
        found = manifest.get("format") if isinstance(manifest, dict) else manifest
        raise SerializationError(
            f"{manifest_path}: not a {SEGMENT_FORMAT} manifest (got {found!r})"
        )
    _check_fields(manifest, MANIFEST_FIELDS, manifest_path)
    for name in SEGMENT_ARRAYS:
        if name not in manifest["segments"]:
            raise SerializationError(
                f"{directory}: manifest is missing segment {name!r}"
            )
        _check_fields(
            manifest["segments"][name], SEGMENT_FIELDS, f"{manifest_path} segment {name!r}"
        )
    return manifest


def _check_fields(record: Any, fields: Dict[str, type], where: Any) -> None:
    """Raise unless ``record`` is a dict holding every field of
    ``fields`` with a value of its type."""
    if not isinstance(record, dict) or not all(
        isinstance(record.get(key), kind) for key, kind in fields.items()
    ):
        expected = {key: kind.__name__ for key, kind in fields.items()}
        raise SerializationError(f"{where}: expected {expected}, got {record!r:.200}")


def load_segments(
    path: PathLike,
    taxonomy: Optional[Taxonomy] = None,
    verify: bool = False,
) -> MmapKmerDatabase:
    """Open a segment directory as a read-only mmap-backed database.

    The arrays are memory-mapped (``np.load(..., mmap_mode="r")``) —
    nothing is copied, pages fault in on first access and are shared
    across every process mapping the same directory.  ``verify=True``
    re-hashes the mapped bytes against the manifest (touches every
    page; off by default to keep opening zero-copy).
    """
    directory = Path(path)
    manifest = read_segment_manifest(directory)
    arrays: Dict[str, np.ndarray] = {}
    for name in SEGMENT_ARRAYS:
        entry = manifest["segments"][name]
        file_path = directory / entry["file"]
        if not file_path.is_file():
            raise SerializationError(f"{file_path}: missing segment file")
        try:
            array = np.load(file_path, mmap_mode="r", allow_pickle=False)
        except (ValueError, OSError, EOFError) as exc:
            # A truncated file fails to map; a garbled header no longer
            # reads as .npy.
            raise SerializationError(f"{file_path}: unreadable segment ({exc})") from None
        if str(array.dtype) != entry["dtype"] or list(array.shape) != list(
            entry["shape"]
        ):
            raise SerializationError(
                f"{file_path}: dtype/shape {array.dtype}/{array.shape} does "
                f"not match manifest {entry['dtype']}/{entry['shape']}"
            )
        if verify and _array_sha256(array) != entry["sha256"]:
            raise SerializationError(
                f"{file_path}: content hash mismatch (corrupt segment)"
            )
        arrays[name] = array
    kmers = arrays["kmers"]
    taxa = arrays["taxa"]
    if kmers.ndim != 1 or taxa.shape != kmers.shape:
        raise SerializationError(
            f"{directory}: segment arrays must be aligned 1-D, got "
            f"{kmers.shape} and {taxa.shape}"
        )
    if kmers.size != int(manifest["num_records"]):
        raise SerializationError(
            f"{directory}: manifest says {manifest['num_records']} records, "
            f"segments hold {kmers.size}"
        )
    return MmapKmerDatabase(
        k=int(manifest["k"]),
        keys=kmers,
        payloads=taxa,
        canonical=bool(manifest["canonical"]),
        taxonomy=taxonomy,
        content_hash=str(manifest["content_hash"]),
        source=str(directory),
        degraded=bool(manifest.get("degraded", False)),
    )


def save_workload(workload: WorkloadStats, path: PathLike) -> None:
    """Write a workload summary as JSON."""
    payload = {
        "format": WORKLOAD_FORMAT,
        "name": workload.name,
        "k": workload.k,
        "num_kmers": workload.num_kmers,
        "hit_rate": workload.hit_rate,
        "index_filtered_fraction": workload.index_filtered_fraction,
        "esp_probabilities": list(workload.esp.probabilities),
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_workload(path: PathLike) -> WorkloadStats:
    """Load a workload summary written by :func:`save_workload`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: invalid JSON ({exc})") from None
    if payload.get("format") != WORKLOAD_FORMAT:
        raise SerializationError(f"{path}: not a {WORKLOAD_FORMAT} file")
    return WorkloadStats(
        name=payload["name"],
        k=payload["k"],
        num_kmers=payload["num_kmers"],
        hit_rate=payload["hit_rate"],
        index_filtered_fraction=payload["index_filtered_fraction"],
        esp=EspModel(tuple(payload["esp_probabilities"])),
    )
