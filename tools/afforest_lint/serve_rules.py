"""Serving-tier discipline rules (S1-S5) and the include-layering rule.

The serving tier (src/serve) relies on a handful of hand-enforced
invariants — single-writer mutation, RCU snapshot publication, and the
WAL -> checkpoint -> manifest durability ordering — that a one-line diff
can silently break without any test noticing until a crash sweep happens
to hit it.  These rules make the disciplines mechanically checkable:

  S1 afforest-serve-writer-discipline
      Public mutating (non-const) methods of the engine classes must
      construct WriterLock, delegate to a locked writer entry point, or
      carry a '// lint: single-writer(<reason>)' waiver.  Const methods
      (the wait-free read path) must not reference members annotated
      `writer-only` in a trailing comment.
  S2 afforest-serve-rcu-publication
      Reader-visible label/forest state is published only through the
      EpochPublisher swap (SnapshotStore and ShardedEngine both publish
      through it): no roll-your-own std::atomic<T*> published pointers
      and no direct stores into published snapshot labels outside
      snapshot_store.hpp.
  S3 afforest-serve-durability-order
      Intra-function ordering dataflow over the posix_file/wal/
      checkpoint/manifest vocabulary: WAL append before apply, file
      write -> fsync -> rename -> parent-dir fsync, manifest replace
      strictly after the checkpoint it names is durable.  Waive a
      deliberate deviation with '// lint: durability-order(<reason>)'.
  S4 afforest-serve-raw-posix
      No raw ::open/::write/::fsync/::rename/... outside posix_file.hpp;
      everything goes through the checked wrappers so IoError taxonomy
      and failpoint hooks stay centralized.
  S5 afforest-serve-failpoint-coverage
      Every durability site (write/fsync/rename wrapper call) must sit in
      a function that evaluates a registered failpoint, or carry a
      '// lint: failpoint(<reason>)' waiver — keeping the crash sweep
      exhaustive by construction.

  afforest-include-layering
      `#include "..."` edges must respect LAYER_ALLOWED: src/cc and
      src/graph never include src/serve; src/serve never includes
      bench/ or apps/.  Corpus fixtures opt in via '// lint-layer: <x>'.

Scope: a file is serve-scope when its path contains src/serve/ or
src/shard/ (the sharded coordinator obeys the same single-writer + RCU
disciplines) or it carries a '// lint-scope: serve' marker (fixtures).
posix_file.hpp is the wrapper layer itself and is exempt from S3/S4/S5;
snapshot_store.hpp holds EpochPublisher, the one publication mechanism,
and is exempt from S2.
"""

from __future__ import annotations

import os
import re

from . import diagnostics as diag

# The serving-tier engine classes under the single-writer protocol.  A
# class also opts in structurally by declaring the writer flag member.
SERVE_ENGINE_CLASSES = frozenset(
    {"QueryEngine", "DynamicCC", "DurableEngine", "WindowedStream",
     "ShardedEngine", "IngestPipeline", "MembershipCache"}
)
_WRITER_FLAG_RE = re.compile(r"\bstd::atomic<\s*bool\s*>\s+writer_active_")

# Methods that are themselves checked (or waived) writer entry points;
# a public mutator that funnels through one of these inherits the lock.
WRITER_ENTRY_METHODS = frozenset(
    {
        "apply_inserts",
        "apply_deletes",
        "apply_batch",
        "apply_and_publish",
        "publish",
        "restore_state",
        "restore_ring",
        "push",
        "expire_oldest",
        "drain",
        "insert",
        "erase",
        "tick",
        "checkpoint",
        "mutate",
        "apply",
        # Ingestion pipeline: pump() holds WriterLock (the single-consumer
        # guard); enqueue/enqueue_to are the waived producer-plane entries.
        "pump",
        "enqueue",
        "enqueue_to",
    }
)
_WRITER_ENTRY_RE = re.compile(
    r"\b(?:" + "|".join(sorted(WRITER_ENTRY_METHODS)) + r")\s*\("
)
_WRITER_LOCK_RE = re.compile(r"\bWriterLock\b")

# S2: roll-your-own RCU publication patterns.
_ATOMIC_PTR_RE = re.compile(r"\bstd::atomic\s*<[^;<>()]*\*\s*>")
_PUBLISHED_IDENT_RE = re.compile(r"\bpublished_(?!\w)")
_VIEW_LABEL_STORE_RE = re.compile(r"\.labels\(\)\s*\[[^\]]*\]\s*=(?!=)")
_VIEW_LABEL_ATOMIC_RE = re.compile(
    r"\b(?:atomic_store|compare_and_swap|fetch_and_add|atomic_fetch_min)"
    r"\s*\(\s*[\w.\->]*\.labels\(\)\s*\["
)

# S3: the call-sequence vocabulary, in source-offset order per function.
# atomic_write_file is a blessed composite (it owns the full
# write->fsync->rename->dirsync chain internally) and is deliberately
# absent from the write/rename categories.
_SEQ_PATTERNS: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("write", re.compile(r"\b(?:fd_write_all|fd_truncate)\s*\(")),
    ("sync", re.compile(r"\bfd_sync\s*\(")),
    ("dirsync", re.compile(r"\bfsync_parent_dir\s*\(")),
    (
        "rename",
        re.compile(r"\brename_into_place\s*\(|(?<![\w)])::\s*rename\s*\("),
    ),
    ("ckpt", re.compile(r"\bwrite_checkpoint\s*\(")),
    ("manifest", re.compile(r"\bwrite_manifest\s*\(")),
    ("append", re.compile(r"\b\w*wal\w*\s*(?:\.|->)\s*append\s*\(")),
    ("apply", re.compile(r"\bapply(?:_inserts|_deletes|_batch)?\s*\(")),
)

# S4: raw POSIX entry points that must stay behind posix_file.hpp.  The
# lookbehind keeps qualified names (WalReader::open) out of scope: a raw
# call is written with a global-scope `::` preceded by nothing.
_RAW_POSIX_RE = re.compile(
    r"(?<![\w)])::\s*(open|openat|close|read|pread|write|pwrite|fsync|"
    r"fdatasync|ftruncate|truncate|rename|renameat|unlink|unlinkat|"
    r"mkdir|rmdir|lseek|stat|fstat|opendir|readdir|closedir)\s*\("
)

# S5: durability sites — the checked wrapper calls a crash can interrupt.
_S5_SITE_RE = re.compile(
    r"\b(fd_write_all|fd_sync|fd_truncate|fsync_parent_dir|"
    r"rename_into_place|atomic_write_file)\s*\("
)
_FAILPOINT_CALL_RE = re.compile(
    r"\bfailpoint_(?:maybe_fail|triggered)\s*\("
)

# Declared layer map: layer -> include segments it may depend on.  Edges
# the tentpole hardens: serve is absent from cc/graph/analysis, and
# bench/apps are absent from serve.
LAYER_ALLOWED: dict[str, frozenset[str]] = {
    "util": frozenset({"util"}),
    "graph": frozenset({"graph", "util"}),
    "analysis": frozenset({"analysis", "cc", "graph", "util"}),
    "cc": frozenset({"cc", "analysis", "graph", "util"}),
    "dist": frozenset({"dist", "cc", "analysis", "graph", "util"}),
    "serve": frozenset({"serve", "cc", "analysis", "graph", "util"}),
    # The sharded coordinator composes serve engines with the dist layer's
    # partition map and quotient structures; it sits above both.
    "shard": frozenset(
        {"shard", "serve", "dist", "cc", "analysis", "graph", "util"}
    ),
    "bench": frozenset(
        {"bench", "shard", "dist", "serve", "cc", "analysis", "graph",
         "util"}
    ),
    "apps": frozenset(
        {"apps", "bench", "shard", "dist", "serve", "cc", "analysis",
         "graph", "util"}
    ),
}

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
_SRC_LAYER_RE = re.compile(
    r"/src/(util|graph|analysis|cc|dist|serve|shard)/"
)


def _norm(path: str) -> str:
    return "/" + path.replace(os.sep, "/")


def is_serve_scope(path: str, fa) -> bool:
    norm = _norm(path)
    return ("/src/serve/" in norm or "/src/shard/" in norm
            or fa.serve_scope_marker)


def _exempt(path: str, suffix: str) -> bool:
    return _norm(path).endswith(suffix)


def file_layer(path: str, marker: str | None) -> str | None:
    """Layer a file belongs to: by path for real sources, by the
    '// lint-layer: <x>' marker for fixtures; None = not layered."""
    norm = _norm(path)
    m = _SRC_LAYER_RE.search(norm)
    if m:
        return m.group(1)
    if "/apps/" in norm:
        return "apps"
    if "/bench/" in norm:
        return "bench"
    return marker


def call_sequence(code: str, base: int = 0) -> list[tuple[int, str]]:
    """The S3 ordering model: (offset, category) events for every
    durability-vocabulary call in `code`, sorted by source offset.
    Categories: write, sync, dirsync, rename, ckpt, manifest, append,
    apply.  Exposed as a plain function so unit tests can drive it on
    synthetic token streams."""
    events: list[tuple[int, str]] = []
    for category, rx in _SEQ_PATTERNS:
        for m in rx.finditer(code):
            events.append((base + m.start(), category))
    events.sort()
    return events


def ordering_violations(
    events: list[tuple[int, str]]
) -> list[tuple[int, str]]:
    """(offset, message) for every S3 ordering violation in one
    function's event sequence."""
    out: list[tuple[int, str]] = []
    offsets = {cat: [o for o, c in events if c == cat]
               for cat in ("write", "sync", "dirsync", "rename", "ckpt",
                           "manifest", "append", "apply")}
    for r in offsets["rename"]:
        prior_writes = [w for w in offsets["write"] if w < r]
        if prior_writes:
            last_write = max(prior_writes)
            if not any(last_write < s < r for s in offsets["sync"]):
                out.append(
                    (r, "rename-into-place before the written bytes are "
                        "fsynced; order is write -> fsync -> rename")
                )
        if not any(d > r for d in offsets["dirsync"]):
            out.append(
                (r, "renamed entry is not durable: fsync_parent_dir must "
                    "follow the rename")
            )
    if offsets["manifest"] and offsets["ckpt"]:
        first_manifest = min(offsets["manifest"])
        if first_manifest < max(offsets["ckpt"]):
            out.append(
                (first_manifest,
                 "manifest replaced before the checkpoint it names is "
                 "durable; write and fsync the checkpoint first")
            )
    if offsets["append"] and offsets["apply"]:
        first_apply = min(offsets["apply"])
        if first_apply < min(offsets["append"]):
            out.append(
                (first_apply,
                 "state applied before the WAL record is journaled; the "
                 "discipline is journal-then-apply")
            )
    out.sort()
    return out


def _is_engine_class(fa, cls) -> bool:
    if cls.name in SERVE_ENGINE_CLASSES:
        return True
    return bool(_WRITER_FLAG_RE.search(fa.code[cls.body_start:cls.body_end]))


def _waiver_reason(fa, table: dict[int, tuple[int, str]], func,
                   empty_message: str) -> str | None:
    """Reason of the function-level waiver covering `func`, or None when
    there is no waiver.  An empty reason reports W1 (once) and still
    counts as a waiver — matching the `lint: bounded` behaviour."""
    entry = table.get(func.sig_start)
    if entry is None:
        return None
    marker_line, reason = entry
    if not reason:
        fa._emit(marker_line, diag.WAIVER_MISSING_REASON, empty_message,
                 is_line=True)
        # only report once per marker even if re-queried
        table[func.sig_start] = (marker_line, " ")
        return " "
    return reason


def check_writer_discipline(fa, path: str) -> None:
    """S1: public mutators hold the writer lock; const methods stay off
    writer-only state."""
    if _exempt(path, "serve/writer_lock.hpp"):
        return
    engine_classes = [c for c in fa.classes if _is_engine_class(fa, c)]
    for f in fa.functions:
        owner = fa.class_of(f.sig_start)
        if owner is None or owner not in engine_classes:
            continue
        if f.is_const or f.is_static:
            continue
        if f.name == owner.name:
            continue  # constructor/destructor
        if owner.access_at(f.sig_start) != "public":
            continue
        body = fa.code[f.body_start:f.body_end]
        if _WRITER_LOCK_RE.search(body) or _WRITER_ENTRY_RE.search(body):
            continue
        if _waiver_reason(
            fa, fa.single_writer_by_func, f,
            "'lint: single-writer()' waiver needs a reason explaining why "
            "this mutator is safe without the writer lock",
        ) is not None:
            continue
        fa._emit(
            f.sig_start,
            diag.SERVE_WRITER_DISCIPLINE,
            f"public mutating method '{owner.name}::{f.name}' does not "
            f"hold the writer lock; construct WriterLock, delegate to a "
            f"locked entry point, or waive with "
            f"'// lint: single-writer(<reason>)'",
        )
    # Reader half: const methods must not reference writer-only members.
    for cls in fa.classes:
        if not cls.writer_only_members:
            continue
        for f in fa.functions:
            if not f.is_const or fa.class_of(f.sig_start) is not cls:
                continue
            body = fa.code[f.body_start:f.body_end]
            for member in cls.writer_only_members:
                m = re.search(r"\b" + re.escape(member) + r"\b", body)
                if m:
                    fa._emit(
                        f.body_start + m.start(),
                        diag.SERVE_WRITER_DISCIPLINE,
                        f"const (reader-path) method '{cls.name}::{f.name}'"
                        f" touches writer-only member '{member}'; "
                        f"writer-plane state must stay off the read path",
                    )


def check_rcu_publication(fa, path: str) -> None:
    """S2: publication of reader-visible state only via EpochPublisher."""
    if _exempt(path, "serve/snapshot_store.hpp"):
        return
    for m in _ATOMIC_PTR_RE.finditer(fa.code):
        fa._emit(
            m.start(),
            diag.SERVE_RCU_PUBLICATION,
            "roll-your-own std::atomic<T*> publication; reader-visible "
            "snapshots are published only through EpochPublisher's swap",
        )
    for m in _PUBLISHED_IDENT_RE.finditer(fa.code):
        fa._emit(
            m.start(),
            diag.SERVE_RCU_PUBLICATION,
            "direct access to a published-snapshot field outside "
            "EpochPublisher; go through acquire()/publish()",
        )
    for rx in (_VIEW_LABEL_STORE_RE, _VIEW_LABEL_ATOMIC_RE):
        for m in rx.finditer(fa.code):
            fa._emit(
                m.start(),
                diag.SERVE_RCU_PUBLICATION,
                "store into published snapshot labels; snapshots are "
                "immutable once published — mutate the writer-side copy "
                "and republish through EpochPublisher",
            )


def check_durability_order(fa, path: str) -> None:
    """S3: per-function ordering dataflow over the durability calls."""
    if _exempt(path, "serve/posix_file.hpp"):
        return  # the wrapper layer itself; callers own the ordering
    for f in fa.functions:
        events = call_sequence(fa.code[f.body_start:f.body_end],
                               base=f.body_start)
        if not events:
            continue
        violations = ordering_violations(events)
        if not violations:
            continue
        if _waiver_reason(
            fa, fa.durability_by_func, f,
            "'lint: durability-order()' waiver needs a reason explaining "
            "why the deviating order is still crash-safe",
        ) is not None:
            continue
        for offset, message in violations:
            fa._emit(offset, diag.SERVE_DURABILITY_ORDER, message)


def check_raw_posix(fa, path: str) -> None:
    """S4: raw POSIX syscalls only inside posix_file.hpp."""
    if _exempt(path, "serve/posix_file.hpp"):
        return
    for m in _RAW_POSIX_RE.finditer(fa.code):
        fa._emit(
            m.start(),
            diag.SERVE_RAW_POSIX,
            f"raw ::{m.group(1)} call outside posix_file.hpp; use the "
            f"checked wrappers so error taxonomy and failpoints stay "
            f"centralized",
        )


def check_failpoint_coverage(fa, path: str) -> None:
    """S5: every durability site is reachable by the crash sweep."""
    if _exempt(path, "serve/posix_file.hpp"):
        return
    for f in fa.functions:
        body = fa.code[f.body_start:f.body_end]
        if _FAILPOINT_CALL_RE.search(body):
            continue  # the function evaluates a registered failpoint
        sites = list(_S5_SITE_RE.finditer(body))
        if not sites:
            continue
        if _waiver_reason(
            fa, fa.failpoint_by_func, f,
            "'lint: failpoint()' waiver needs a reason explaining why "
            "this durability site needs no crash-sweep coverage",
        ) is not None:
            continue
        seen_lines: set[int] = set()
        for m in sites:
            offset = f.body_start + m.start()
            line = fa.line_of(offset)
            if line in seen_lines:
                continue
            seen_lines.add(line)
            fa._emit(
                offset,
                diag.SERVE_FAILPOINT_COVERAGE,
                f"durability site '{m.group(1)}' has no failpoint "
                f"coverage; evaluate a registered failpoint in this "
                f"function or waive with '// lint: failpoint(<reason>)'",
            )


def check_include_layering(fa, path: str) -> None:
    """Include edges must respect the declared LAYER_ALLOWED map."""
    layer = file_layer(path, fa.layer_marker)
    if layer is None:
        return
    allowed = LAYER_ALLOWED.get(layer)
    if allowed is None:
        return
    for idx, line in enumerate(fa.raw_lines):
        m = _INCLUDE_RE.match(line)
        if not m:
            continue
        target = m.group(1)
        segment = target.split("/", 1)[0]
        if segment not in LAYER_ALLOWED or segment in allowed:
            continue
        fa._emit(
            idx + 1,
            diag.INCLUDE_LAYERING,
            f"layer '{layer}' must not include \"{target}\" (allowed "
            f"layers: {', '.join(sorted(allowed))}); invert the "
            f"dependency or move the shared piece down a layer",
            is_line=True,
        )


def run(fa, path: str) -> None:
    """Entry point: apply the layering rule everywhere and the serve
    family to serve-scope files."""
    check_include_layering(fa, path)
    if not is_serve_scope(path, fa):
        return
    check_writer_discipline(fa, path)
    check_rcu_publication(fa, path)
    check_durability_order(fa, path)
    check_raw_posix(fa, path)
    check_failpoint_coverage(fa, path)
