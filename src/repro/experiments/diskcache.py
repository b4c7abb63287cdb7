"""Persistent content-addressed cache for experiment results.

Policy runs, baselines, standalone measurements, offline profiles, and
partition-sweep results are pure functions of (machine configuration,
workload/mix, run parameters, seed, simulator code).  This module gives
them a durable home under ``.repro_cache/`` so repeated figure
generation — and, crucially, parallel sweeps that fan cells out across
worker processes — never recompute a cell twice.

Keys are sha256 digests over the canonical ``repr`` of every key part
plus a *code version tag* derived from the source bytes of the modules
that determine simulation results; editing the simulator invalidates
the whole cache automatically.  Values are pickled.  Writes go to a
temporary file in the destination directory followed by an atomic
``os.replace``, so concurrent writers (the parallel sweep engine) can
race on the same cell safely: one of them wins, both are correct.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache root (default ``.repro_cache`` in the
  working directory).
* ``REPRO_CACHE=0`` (or ``off``/``false``) — disable reads and writes
  entirely.
"""

from __future__ import annotations

import ast
import hashlib
import json
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.sim.config import (
    DEFAULT_CACHE_DIR,
    cache_dir,
    cache_enabled,
    kernel_disk_cache_enabled,
)

_log = logging.getLogger(__name__)

#: Everything a truncated, corrupted, or version-skewed pickle can raise
#: while being read back.  ``OSError`` covers I/O failures mid-read;
#: ``EOFError``/``UnpicklingError`` cover truncated writers;
#: ``AttributeError``/``ImportError``/``IndexError`` are pickle's
#: documented failure modes for stale class layouts; ``ValueError`` and
#: ``KeyError`` surface from corrupt frame headers and memo references.
#: Anything outside this list is a genuine bug and propagates.
_CORRUPT_ENTRY_ERRORS = (
    OSError,
    EOFError,
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    ValueError,
)

#: Result namespaces; one subdirectory each.
KINDS = ("profile", "baseline", "standalone", "partition", "run")

_code_tag: Optional[str] = None


def code_version_tag() -> str:
    """Digest of the result-determining source files (memoized).

    Covers every module of :mod:`repro.sim`, :mod:`repro.workloads`, and
    :mod:`repro.core`, plus the harness itself: a change to any of them
    can change simulation output, so the tag is folded into every cache
    key and stale entries become unreachable rather than wrong.
    """
    global _code_tag
    if _code_tag is None:
        import repro.core as core_pkg
        import repro.sim as sim_pkg
        import repro.workloads as workloads_pkg

        digest = hashlib.sha256()
        sources = []
        for pkg in (sim_pkg, workloads_pkg, core_pkg):
            sources.extend(sorted(Path(pkg.__file__).parent.glob("*.py")))
        here = Path(__file__).parent
        sources.extend(
            here / name for name in ("harness.py", "mixes.py", "metrics.py")
        )
        for source in sources:
            digest.update(source.name.encode("utf-8"))
            digest.update(source.read_bytes())
        _code_tag = digest.hexdigest()[:16]
    return _code_tag


def cache_key(kind: str, parts: Sequence[object]) -> str:
    """Content-addressed key for ``parts`` within the ``kind`` namespace.

    Parts are folded in through their ``repr``; the frozen dataclasses
    used as key material (``MachineConfig``, ``Mix``, ``Policy``) render
    every field, so two cells differing in any one field — or in the
    seed — get distinct keys.
    """
    digest = hashlib.sha256()
    digest.update(code_version_tag().encode("utf-8"))
    digest.update(b"\x1f")
    digest.update(kind.encode("utf-8"))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(repr(part).encode("utf-8"))
    return digest.hexdigest()


class DiskCache:
    """Pickle store of experiment results under ``root``/``kind``/``key``."""

    def __init__(
        self, root: Optional[os.PathLike] = None, enabled: bool = True
    ) -> None:
        self.root = Path(root if root is not None else DEFAULT_CACHE_DIR)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: Entries dropped because they could not be read back (see
        #: ``_CORRUPT_ENTRY_ERRORS``); surfaced by ``repro cache stats``.
        self.corrupt_drops = 0

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / (key + ".pkl")

    def get(self, kind: str, parts: Sequence[object]) -> Tuple[bool, Any]:
        """Look a cell up; returns ``(hit, value)``.

        Unreadable or corrupt entries (killed writer, truncated disk)
        count as misses and are deleted so they cannot wedge the cache.
        """
        if not self.enabled:
            return False, None
        path = self._path(kind, cache_key(kind, parts))
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except _CORRUPT_ENTRY_ERRORS as exc:
            self.corrupt_drops += 1
            _log.debug(
                "dropping unreadable cache entry %s (%s: %s)",
                path, type(exc).__name__, exc,
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, kind: str, parts: Sequence[object], value: Any) -> None:
        """Store a cell (best-effort; atomic against concurrent writers)."""
        if not self.enabled:
            return
        path = self._path(kind, cache_key(kind, parts))
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle, pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PickleError):
            # A full disk or an unpicklable payload degrades to
            # recomputation, never to a failed experiment.
            pass

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for kind in KINDS:
            kind_dir = self.root / kind
            if not kind_dir.is_dir():
                continue
            for entry in kind_dir.glob("*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                kind_dir.rmdir()
            except OSError:
                pass
        try:
            self.root.rmdir()
        except OSError:
            pass
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry counts and byte totals per kind, plus process hit rates."""
        entries: Dict[str, int] = {}
        total_bytes = 0
        for kind in KINDS:
            kind_dir = self.root / kind
            count = 0
            if kind_dir.is_dir():
                for entry in kind_dir.glob("*.pkl"):
                    count += 1
                    try:
                        total_bytes += entry.stat().st_size
                    except OSError:
                        pass
            entries[kind] = count
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "code_version": code_version_tag(),
            "entries": entries,
            "total_entries": sum(entries.values()),
            "total_bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_drops": self.corrupt_drops,
        }


#: Subdirectory of the cache root holding persisted kernel sources.
KERNEL_KIND = "kernels"


class KernelDiskCache:
    """Persistent store of generated span-kernel *sources*.

    Unlike :class:`DiskCache` this holds text, not pickles: each entry
    is a small JSON document ``{shape, tag, sha256, source}`` named by
    the digest of ``(code_version_tag, repr(shape))``.  Any process —
    a fresh sweep worker, the CLI, the lint audit — can load a source
    instead of re-running ``_generate_source``; a warm pool initializer
    preloads the whole namespace in one pass.

    Safety model: the filename digest folds in the code-version tag, so
    editing the simulator orphans old entries instead of serving stale
    code; every load re-hashes the stored source against the recorded
    digest, so torn or doctored writes are dropped (and counted in
    ``corrupt_drops``) rather than ever reaching ``exec``; and lint rule
    GEN003 audits each on-disk source byte-for-byte against a fresh
    ``generate_kernel_source(shape)``.
    """

    def __init__(
        self, root: Optional[os.PathLike] = None, enabled: bool = True
    ) -> None:
        self.root = Path(root if root is not None else DEFAULT_CACHE_DIR)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries dropped because they were unreadable or failed the
        #: digest check; surfaced by ``repro cache kernels stats``.
        self.corrupt_drops = 0

    def _dir(self) -> Path:
        return self.root / KERNEL_KIND

    def _path(self, shape: Tuple[object, ...]) -> Path:
        digest = hashlib.sha256()
        digest.update(code_version_tag().encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(repr(shape).encode("utf-8"))
        return self._dir() / (digest.hexdigest() + ".json")

    def _drop(self, path: Path, why: str) -> None:
        self.corrupt_drops += 1
        _log.debug("dropping kernel cache entry %s (%s)", path, why)
        try:
            os.unlink(path)
        except OSError:
            pass

    def _read_entry(self, path: Path) -> Optional[Dict[str, Any]]:
        """Load and verify one entry file; None (and drop) on any damage."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except _CORRUPT_ENTRY_ERRORS as exc:
            self._drop(path, "%s: %s" % (type(exc).__name__, exc))
            return None
        source = entry.get("source") if isinstance(entry, dict) else None
        recorded = entry.get("sha256") if isinstance(entry, dict) else None
        if not isinstance(source, str) or not isinstance(recorded, str):
            self._drop(path, "malformed entry")
            return None
        actual = hashlib.sha256(source.encode("utf-8")).hexdigest()
        if actual != recorded:
            self._drop(path, "digest mismatch")
            return None
        return entry

    def load(self, shape: Tuple[object, ...]) -> Optional[str]:
        """Digest-verified source for ``shape``, or None on miss/damage."""
        if not self.enabled:
            return None
        path = self._path(shape)
        entry = self._read_entry(path)
        if entry is None:
            self.misses += 1
            return None
        if entry.get("shape") != repr(shape):
            # A digest collision is implausible; a hand-copied file is
            # not.  Treat it like corruption.
            self._drop(path, "shape mismatch")
            self.misses += 1
            return None
        self.hits += 1
        return entry["source"]

    def store(self, shape: Tuple[object, ...], source: str) -> None:
        """Persist a source (best-effort; atomic against racers)."""
        if not self.enabled:
            return
        path = self._path(shape)
        entry = {
            "shape": repr(shape),
            "tag": code_version_tag(),
            "sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
            "source": source,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.stores += 1
        except OSError:
            pass

    def entries(self) -> Iterator[Tuple[Tuple[object, ...], str]]:
        """Yield ``(shape, source)`` for every valid current-tag entry.

        Stale-tag entries (left behind by older code versions) are
        skipped silently — they are unreachable, not corrupt.  Damaged
        files are dropped exactly as :meth:`load` would drop them.
        """
        if not self.enabled or not self._dir().is_dir():
            return
        tag = code_version_tag()
        for path in sorted(self._dir().glob("*.json")):
            entry = self._read_entry(path)
            if entry is None or entry.get("tag") != tag:
                continue
            try:
                shape = ast.literal_eval(entry.get("shape", ""))
            except (ValueError, SyntaxError):
                self._drop(path, "unparseable shape")
                continue
            if not isinstance(shape, tuple):
                self._drop(path, "non-tuple shape")
                continue
            yield shape, entry["source"]

    def clear(self) -> int:
        """Delete every kernel entry; returns the number removed."""
        removed = 0
        kind_dir = self._dir()
        if kind_dir.is_dir():
            for entry in kind_dir.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                kind_dir.rmdir()
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry/byte totals on disk plus this process's hit counters."""
        entries = 0
        stale = 0
        total_bytes = 0
        tag = code_version_tag()
        if self._dir().is_dir():
            for path in self._dir().glob("*.json"):
                entries += 1
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    pass
                entry = self._read_entry(path)
                if entry is not None and entry.get("tag") != tag:
                    stale += 1
        return {
            "root": str(self._dir()),
            "enabled": self.enabled,
            "code_version": tag,
            "entries": entries,
            "stale_entries": stale,
            "total_bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_drops": self.corrupt_drops,
        }


_ACTIVE: Optional[DiskCache] = None

_ACTIVE_KERNELS: Optional[KernelDiskCache] = None


def get_kernel_cache() -> KernelDiskCache:
    """Process-wide kernel-source cache bound to the current environment.

    Mirrors :func:`get_cache`: the root and the enabled flag are
    re-read on every call, and the store is live only when both the
    master cache switch and ``REPRO_KERNEL_DISK_CACHE`` allow it.
    """
    global _ACTIVE_KERNELS
    root = cache_dir()
    enabled = cache_enabled() and kernel_disk_cache_enabled()
    if (
        _ACTIVE_KERNELS is None
        or str(_ACTIVE_KERNELS.root) != root
        or _ACTIVE_KERNELS.enabled != enabled
    ):
        _ACTIVE_KERNELS = KernelDiskCache(root, enabled)
    return _ACTIVE_KERNELS


def get_cache() -> DiskCache:
    """Process-wide cache bound to the current environment settings.

    Re-reads ``REPRO_CACHE_DIR``/``REPRO_CACHE`` on every call so tests
    (and worker processes inheriting a parent's environment) pick up
    redirected roots without an explicit reconfiguration hook.
    """
    global _ACTIVE
    root = cache_dir()
    enabled = cache_enabled()
    if (
        _ACTIVE is None
        or str(_ACTIVE.root) != root
        or _ACTIVE.enabled != enabled
    ):
        _ACTIVE = DiskCache(root, enabled)
    return _ACTIVE
