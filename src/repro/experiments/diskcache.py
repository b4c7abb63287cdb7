"""Persistent content-addressed cache for experiment results.

Policy runs, baselines, standalone measurements, offline profiles, and
partition-sweep results are pure functions of (machine configuration,
workload/mix, run parameters, seed, simulator code).  This module gives
them a durable home under ``.repro_cache/`` so repeated figure
generation — and, crucially, parallel sweeps that fan cells out across
worker processes — never recompute a cell twice.

Callers go through :func:`cached`, a process memo in front of the
disk: both layers key a result on the one tuple its caller builds.

Disk keys are sha256 digests over the canonical ``repr`` of every key
part plus a *code version tag* derived from the source bytes of the
modules that determine simulation results; editing the simulator
invalidates the whole cache automatically.  Values are pickled.  Writes
go to a temporary file in the destination directory followed by an
atomic ``os.replace``, so concurrent writers (the parallel sweep engine)
can race on the same cell safely: one of them wins, both are correct.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache root (default ``.repro_cache`` in the
  working directory).
* ``REPRO_CACHE=0`` (or ``off``/``false``) — disable disk reads and
  writes; the process memo still answers.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

from repro.sim.config import DEFAULT_CACHE_DIR, cache_dir, cache_enabled

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

#: ``(subdirectory, file pattern)`` of every store :meth:`DiskCache.clear`
#: removes: the result namespaces, plus the span-kernel sources earlier
#: versions kept under ``kernels/`` (nothing reads or writes them now).
_CLEARED = tuple((kind, "*.pkl") for kind in KINDS) + (("kernels", "*.json"),)

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
        """Delete every cached entry, and the emptied root; returns the
        number of entries removed (kernel sources earlier versions
        stored included)."""
        removed = 0
        for kind, pattern in _CLEARED:
            kind_dir = self.root / kind
            if not kind_dir.is_dir():
                continue
            for entry in kind_dir.glob(pattern):
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


_ACTIVE: Optional[DiskCache] = None


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


_T = TypeVar("_T")

#: The process memo in front of the disk, keyed ``(kind,) + key``.
_MEMO: Dict[Tuple, Any] = {}

_MISSING = object()

#: Open :func:`recording` blocks: each collects the memo entries the
#: :func:`cached` calls inside it return.
_RECORDERS: List[Dict[Tuple, Any]] = []


def cached(kind: str, key: Tuple, compute: Callable[[], _T]) -> _T:
    """The result stored under ``key`` in the ``kind`` namespace.

    Answers from the process memo, else from the disk cache, else runs
    ``compute()`` and stores its value in both layers.  ``key`` must
    hold every value the result depends on: it is the whole key of
    both layers.
    """
    memo_key = (kind,) + key
    value = _MEMO.get(memo_key, _MISSING)
    if value is _MISSING:
        disk = get_cache()
        hit, value = disk.get(kind, key)
        if not hit:
            value = compute()
            disk.put(kind, key, value)
        _MEMO[memo_key] = value
    for entries in _RECORDERS:
        entries[memo_key] = value
    return value


@contextmanager
def recording() -> Iterator[Dict[Tuple, Any]]:
    """Collect the memo entries every :func:`cached` call inside the
    block returns, computed or not, for :func:`seed_memo` in another
    process (a sweep's prepare cell hands its worker's to the policy
    cells, which may run on workers that lack them)."""
    entries: Dict[Tuple, Any] = {}
    _RECORDERS.append(entries)
    try:
        yield entries
    finally:
        _RECORDERS.remove(entries)


def seed_memo(entries: Dict[Tuple, Any]) -> None:
    """Add memo entries another process recorded (see :func:`recording`)."""
    _MEMO.update(entries)


def clear_memo() -> None:
    """Drop the process memo; the disk keeps its entries."""
    _MEMO.clear()


def get_kernel_cache() -> SimpleNamespace:
    """A persistent kernel store that is always disabled.

    Span kernels are compiled in-process only.  The only caller is
    ``perfbench/child.py``, which prints the store's ``enabled`` flag.
    """
    return SimpleNamespace(enabled=False)
