"""Cross-process on-disk caches: verdicts and compiled-sim plans.

The in-memory :class:`~repro.eval.pipeline.Evaluator` cache collapses
duplicate completions within one process, but every process-pool worker
(and every machine in a coordinated fleet) used to rebuild it from
scratch — the ROADMAP's "cross-process evaluator cache" opening.
:class:`VerdictStore` closes it: verdicts persist to a directory keyed
by ``(problem number, completion hash)``, so any evaluator pointed at
the same path — a later run, a sibling worker process, a pull-based
coordinator worker — skips the compile and simulation entirely.

Both stores share one engine, :class:`KeyedJsonStore` — a
directory-backed ``key -> JSON payload`` map kept as one append-only
JSONL log (``pack.jsonl``, one ``{"key", <payload field>}`` object per
line, later lines win):

* :class:`VerdictStore` — ``p<problem>_<hash>`` keys holding full
  :class:`~repro.eval.report.CompletionEvaluation` codecs;
* :class:`CompileSimCache` — ``s_<source-hash>`` keys in a
  ``simcache/`` subdirectory holding the netlist→closure compiler's
  plan summary (:meth:`repro.verilog.codegen.CompiledEngine.plan`)
  keyed by bench-source hash, so repeat evaluations of a seen source
  skip the two-state proof and reuse recorded compile decisions.

Concurrency model: a put appends one complete line with a single
``os.write`` on an ``O_APPEND`` descriptor — no temp file, no rename,
no lock between processes.  Each store instance keeps a per-process
index from key to the byte offset of that key's latest complete line.
A hit reads and decodes just that line.  A miss first indexes the
lines appended since the instance last looked; only newline-terminated
lines count, so a line still being written is left for the next look.
A log whose ``(st_dev, st_ino)`` changed, or that shrank, is indexed
again from the start: that is how readers pick up another process's
:meth:`~KeyedJsonStore.compact`.  Corrupt lines, and lines that no
longer carry the key they were indexed under, read as misses.  Two
processes racing on the same uncached key may both evaluate and both
append; evaluation is pure, so the duplicate work is bounded and both
lines carry the same payload.

Shared mounts: local filesystems append each line whole.  On a shared
mount without atomic append (NFS, for one), a concurrent line may be
lost or garbled.  A lost or garbled line costs a re-evaluation, never a
wrong verdict.

Older versions stored one ``<key>.json`` file per entry, and
:meth:`KeyedJsonStore.unpack` still writes the log out that way.  Such
entry files are still read, and win over log lines;
:meth:`KeyedJsonStore.pack` folds them into the log (append, then
delete the file).  Re-evaluated or re-packed keys leave shadowed
duplicate lines behind; :meth:`KeyedJsonStore.compact` rewrites the log
with one line per live key (temp file + atomic replace, idempotent).
``compact`` or ``unpack`` run during a live sweep may drop lines
appended while they run, which again costs only re-evaluations; do not
run them while another process is packing the same store.  The CLI
drives all three — ``python -m repro store {pack,compact,unpack} DIR``
— and applies pack/compact/clear to the verdict store and its attached
simcache together, so eviction shares one maintenance path.

The two stores are invisible to each other: entry filenames must match
the store's key pattern, so the simcache subdirectory and any foreign
``.json`` files are never counted, packed, or deleted by the verdict
store (and vice versa).

The stores are picklable (they carry only their path), so
:class:`~repro.service.process.ProcessPoolSweepExecutor` ships them to
workers the same way it ships the backend.
"""

from __future__ import annotations

import json
import os
import re
import threading

from .export import evaluation_from_dict, evaluation_to_dict

PACK_FILENAME = "pack.jsonl"

#: verdict entry filenames: p<problem>_<16-hex-digit completion hash>
_ENTRY_RE = re.compile(r"^p\d{2,}_[0-9a-f]{16,}\.json$")

#: compiled-sim plan entry filenames: s_<16-hex-digit source hash>
_SIM_ENTRY_RE = re.compile(r"^s_[0-9a-f]{16,}\.json$")

#: subdirectory of a verdict store holding its compiled-sim plan cache
SIM_CACHE_DIRNAME = "simcache"

#: flags of the descriptor a put appends its line through
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT

#: bytes per log read (widened for a longer line)
_READ_CHUNK = 1 << 13


def _parse_line(line: bytes, field: str) -> "tuple[str, dict] | None":
    """``(key, payload row)`` of one well-formed log line, else ``None``."""
    try:
        row = json.loads(line)
    except ValueError:
        return None
    if not isinstance(row, dict):
        return None
    key, payload = row.get("key"), row.get(field)
    if isinstance(key, str) and isinstance(payload, dict):
        return key, payload
    return None


class KeyedJsonStore:
    """Directory-backed ``key -> JSON payload`` map over an append-only log.

    Subclasses pin down the key shape (:data:`ENTRY_RE`), the log-line
    payload field name (:data:`PAYLOAD_FIELD`) and, optionally, a
    payload codec (:meth:`_encode_payload` / :meth:`_decode_payload`
    both default to identity on plain JSON objects).
    """

    #: filenames that belong to this store (everything else is foreign)
    ENTRY_RE: "re.Pattern[str]" = re.compile(r"^[A-Za-z0-9_]+\.json$")
    #: log-line field carrying the payload (kept per-store for
    #: backward compatibility with packs written before the refactor)
    PAYLOAD_FIELD = "payload"

    def __init__(self, path: str):
        os.makedirs(str(path), exist_ok=True)
        self.__setstate__({"path": str(path)})

    def __getstate__(self) -> dict:
        return {"path": self.path}  # the log index never crosses pickles

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        #: the store's log (named for the pack format it shares)
        self.pack_path = os.path.join(self.path, PACK_FILENAME)
        # guards the log index: one instance may serve a thread pool
        self._lock = threading.Lock()
        self._log_fd: "int | None" = None
        self._forget_log()

    def __del__(self) -> None:
        if getattr(self, "_log_fd", None) is not None:
            self._forget_log()  # the log descriptor lives as long as we do

    # ------------------------------------------------------------------
    # Payload codec (identity by default; rows must be JSON objects)
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_payload(payload) -> dict:
        return dict(payload)

    @staticmethod
    def _decode_payload(row: dict):
        return dict(row)

    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> str:
        return os.path.join(self.path, f"{key}.json")

    def _encode_line(self, key: str, row: dict) -> bytes:
        return (
            json.dumps({"key": key, self.PAYLOAD_FIELD: row}) + "\n"
        ).encode()

    # ------------------------------------------------------------------
    # Log index (per process; callers hold self._lock)
    # ------------------------------------------------------------------
    def _forget_log(self) -> None:
        if self._log_fd is not None:
            os.close(self._log_fd)
        self._log_fd = None
        self._log_id: "tuple[int, int] | None" = None
        #: bytes of the log indexed so far (always at a line boundary)
        self._log_end = 0
        #: non-blank complete lines indexed so far
        self._log_lines = 0
        #: key -> byte offset of its latest well-formed line
        self._offsets: dict[str, int] = {}

    def _sync_log(self) -> None:
        """Index the complete lines appended since the last look.

        Starts over when the log was replaced (another process's
        compact or clear) or shrank; an unreadable log reads as empty.
        """
        try:
            stat = os.stat(self.pack_path)
            if (self._log_fd is None
                    or self._log_id != (stat.st_dev, stat.st_ino)
                    or stat.st_size < self._log_end):
                self._forget_log()
                self._log_fd = os.open(self.pack_path, os.O_RDONLY)
                opened = os.fstat(self._log_fd)
                self._log_id = (opened.st_dev, opened.st_ino)
            self._index_new_lines()
        except OSError:
            self._forget_log()

    def _index_new_lines(self) -> None:
        want = _READ_CHUNK
        while True:
            data = os.pread(self._log_fd, want, self._log_end)
            cut = data.rfind(b"\n") + 1
            if not cut:
                if len(data) < want:
                    return  # nothing new, or a line still being written
                want *= 2  # one line longer than the read: widen it
                continue
            start = 0
            while start < cut:
                end = data.index(b"\n", start)
                line = data[start:end]
                if line.strip():
                    self._log_lines += 1
                    parsed = _parse_line(line, self.PAYLOAD_FIELD)
                    if parsed is not None:
                        self._offsets[parsed[0]] = self._log_end + start
                start = end + 1
            self._log_end += cut
            if len(data) < want:
                return
            want = _READ_CHUNK

    def _read_line(self, offset: int) -> bytes:
        data = b""
        while True:
            chunk = os.pread(self._log_fd, _READ_CHUNK, offset + len(data))
            end = chunk.find(b"\n")
            if end >= 0:
                return data + chunk[:end]
            if not chunk:
                return data
            data += chunk

    def _log_row(self, key: str) -> "dict | None":
        """``key``'s latest payload row in the log, or ``None``."""
        if key not in self._offsets:
            self._sync_log()
            if key not in self._offsets:
                return None
        try:
            line = self._read_line(self._offsets[key])
        except OSError:
            return None
        parsed = _parse_line(line, self.PAYLOAD_FIELD)
        if parsed is None or parsed[0] != key:
            return None  # the bytes changed under the index
        return parsed[1]

    # ------------------------------------------------------------------
    def get_key(self, key: str):
        """The stored payload, or ``None`` (missing or unreadable).

        Entry files, from older versions or from :meth:`unpack`, win
        over the log; an entry is immutable, so either copy will do.
        """
        try:
            with open(self._path_for(key), encoding="utf-8") as handle:
                return self._decode_payload(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError):
            pass
        with self._lock:
            row = self._log_row(key)
        if row is None:
            return None
        try:
            return self._decode_payload(row)
        except (ValueError, KeyError, TypeError):
            return None

    def put_key(self, key: str, payload) -> None:
        """Append one payload to the log as one complete line."""
        line = self._encode_line(key, self._encode_payload(payload))
        try:
            fd = os.open(self.pack_path, _APPEND_FLAGS, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:
            # a read-only, full or vanished store degrades to a cache
            # miss, never a failed evaluation
            pass

    # ------------------------------------------------------------------
    # Maintenance: legacy entry files, compaction
    # ------------------------------------------------------------------
    def _entry_files(self) -> list[str]:
        """Store-shaped entry filenames only: foreign ``.json`` files in
        the directory are invisible — never counted, packed, or
        deleted."""
        try:
            return sorted(
                name
                for name in os.listdir(self.path)
                if self.ENTRY_RE.match(name)
            )
        except OSError:
            return []

    def _log_keys(self) -> set[str]:
        with self._lock:
            self._sync_log()
            return set(self._offsets)

    def pack(self) -> int:
        """Fold every entry file into the log; return how many.

        Appends each entry as a log line (later lines win on read), then
        deletes its file — crash-safe in that order: a death between
        append and unlink leaves both copies, which agree.  Only files
        that carry the store's key naming *and* decode as payloads are
        folded; torn or foreign files are left exactly where they are.
        """
        packed = 0
        fd = os.open(self.pack_path, _APPEND_FLAGS, 0o644)
        try:
            for name in self._entry_files():
                entry = os.path.join(self.path, name)
                try:
                    with open(entry, encoding="utf-8") as source:
                        row = json.load(source)
                    self._decode_payload(row)  # must decode as a payload
                except (OSError, ValueError, KeyError, TypeError):
                    continue  # torn or foreign: leave the file alone
                os.write(fd, self._encode_line(name[: -len(".json")], row))
                try:
                    os.unlink(entry)
                except OSError:
                    pass
                packed += 1
        finally:
            os.close(fd)
        with self._lock:
            self._sync_log()  # folded lines now shadow indexed ones
        return packed

    def compact(self) -> int:
        """Rewrite the log without dead lines; return how many died.

        Appends never overwrite, so a key written twice leaves its
        shadowed older line in the log — harmless for correctness, but
        the log grows with every re-evaluation and pack cycle.
        Compaction rewrites it with exactly one line per live key
        (torn/foreign lines are dropped too — the reader already
        ignores them) through a temp file + atomic replace, so a crash
        mid-compact leaves the previous log intact.  Idempotent: a
        second run removes 0.  Lines other processes append while it
        runs may be lost to the replace (see the module doc).
        """
        with self._lock:
            self._sync_log()
            if self._log_fd is None:
                return 0  # no log: nothing to compact
            torn_tail = os.fstat(self._log_fd).st_size > self._log_end
            removed = self._log_lines + torn_tail - len(self._offsets)
            if removed <= 0:
                return 0
            temp = f"{self.pack_path}.tmp-{os.getpid()}"
            try:
                with open(temp, "wb") as handle:
                    for offset in self._offsets.values():
                        handle.write(self._read_line(offset) + b"\n")
                os.replace(temp, self.pack_path)
            except OSError:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise
            self._forget_log()
        return removed

    def unpack(self) -> int:
        """Write the log out as entry files again; return how many.

        Existing files win (they are read first anyway); the log is
        removed only once every entry has a file again — a partial
        restore (disk full, permissions) keeps the log, so no entry is
        ever lost to an interrupted unpack.
        """
        with self._lock:
            self._sync_log()
            rows = {key: self._log_row(key) for key in list(self._offsets)}
        restored = 0
        failed = 0
        for key, row in rows.items():
            target = self._path_for(key)
            if os.path.exists(target):
                continue
            if row is None:
                failed += 1
                continue
            temp = f"{target}.tmp-{os.getpid()}"
            try:
                with open(temp, "w", encoding="utf-8") as handle:
                    json.dump(row, handle)
                os.replace(temp, target)
                restored += 1
            except OSError:
                failed += 1
                try:
                    os.unlink(temp)
                except OSError:
                    pass
        if failed == 0:
            try:
                os.unlink(self.pack_path)
            except OSError:
                pass
            with self._lock:
                self._forget_log()
        return restored

    # ------------------------------------------------------------------
    def keys(self) -> set[str]:
        """Every distinct entry key (files and log combined)."""
        file_keys = {name[: -len(".json")] for name in self._entry_files()}
        return file_keys | self._log_keys()

    def __len__(self) -> int:
        return len(self.keys())

    def stats(self) -> dict:
        """Entry counts by storage form (the CLI ``store info`` view)."""
        files = len(self._entry_files())
        packed = len(self._log_keys())
        return {
            "entries": len(self),
            "files": files,
            "packed": packed,
            "pack_file": self.pack_path if packed else None,
        }

    def clear(self) -> int:
        """Delete every stored entry; returns how many were removed.

        The count reflects what actually disappeared: a key that
        survives — its file would not unlink, or it lives in a log that
        would not unlink — is not counted as removed.
        """
        file_keys = {name[: -len(".json")] for name in self._entry_files()}
        packed_keys = self._log_keys()
        surviving: set[str] = set()
        for key in file_keys:
            try:
                os.unlink(self._path_for(key))
            except OSError:
                surviving.add(key)
        try:
            os.unlink(self.pack_path)
        except FileNotFoundError:
            pass
        except OSError:
            surviving |= packed_keys  # the log (and its keys) remain
        with self._lock:
            self._forget_log()
        return len(file_keys | packed_keys) - len(surviving)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r}, entries={len(self)})"


class CompileSimCache(KeyedJsonStore):
    """On-disk ``source hash -> compiled-sim plan`` cache.

    Lives in a ``simcache/`` subdirectory next to a
    :class:`VerdictStore`'s verdict log.  A plan is the JSON summary
    from :meth:`repro.verilog.codegen.CompiledEngine.plan`; a hit lets
    the evaluator rebuild the engine without re-running the two-state
    proof and counts into ``sim_compile_cache_hits_total``.
    """

    ENTRY_RE = _SIM_ENTRY_RE
    PAYLOAD_FIELD = "plan"

    @staticmethod
    def _key(source_hash: int) -> str:
        return f"s_{source_hash & (2 ** 64 - 1):016x}"

    def get(self, source_hash: int) -> dict | None:
        return self.get_key(self._key(source_hash))

    def put(self, source_hash: int, plan: dict) -> None:
        self.put_key(self._key(source_hash), plan)


class VerdictStore(KeyedJsonStore):
    """Directory-backed map of ``(problem, completion-hash) -> verdict``."""

    ENTRY_RE = _ENTRY_RE
    PAYLOAD_FIELD = "verdict"

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._sim_cache: "CompileSimCache | None" = None

    @staticmethod
    def _encode_payload(payload) -> dict:
        return evaluation_to_dict(payload)

    @staticmethod
    def _decode_payload(row: dict):
        return evaluation_from_dict(row)

    # ------------------------------------------------------------------
    @staticmethod
    def _key(problem: int, completion_hash: int) -> str:
        return f"p{problem:02d}_{completion_hash:016x}"

    @classmethod
    def _filename(cls, problem: int, completion_hash: int) -> str:
        return f"{cls._key(problem, completion_hash)}.json"

    def _entry_path(self, problem: int, completion_hash: int) -> str:
        return os.path.join(self.path, self._filename(problem, completion_hash))

    def get(self, problem: int, completion_hash: int):
        return self.get_key(self._key(problem, completion_hash))

    def put(self, problem: int, completion_hash: int, evaluation) -> None:
        self.put_key(self._key(problem, completion_hash), evaluation)

    # ------------------------------------------------------------------
    # Attached compiled-sim plan cache
    # ------------------------------------------------------------------
    @property
    def sim_cache_path(self) -> str:
        return os.path.join(self.path, SIM_CACHE_DIRNAME)

    def sim_cache(self, create: bool = True) -> "CompileSimCache | None":
        """The store's compiled-sim plan cache (``simcache/`` subdir).

        With ``create=False``, returns ``None`` unless the subdirectory
        already exists — the read-only view ``store info`` and the
        maintenance commands use, so inspecting a store never mutates
        it.
        """
        if not create and not os.path.isdir(self.sim_cache_path):
            return None
        if self._sim_cache is None:
            try:
                self._sim_cache = CompileSimCache(self.sim_cache_path)
            except OSError:
                return None
        return self._sim_cache


def resolve_store(store: "VerdictStore | str | None") -> "VerdictStore | None":
    """Coerce a store argument: instance passes through, a string is a
    directory path, ``None`` stays ``None`` (no cross-process cache)."""
    if store is None or isinstance(store, VerdictStore):
        return store
    return VerdictStore(store)


__all__ = [
    "PACK_FILENAME",
    "SIM_CACHE_DIRNAME",
    "CompileSimCache",
    "KeyedJsonStore",
    "VerdictStore",
    "resolve_store",
]
