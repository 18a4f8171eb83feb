"""Diagnostic codes and the Diagnostic record emitted by the engine."""

from __future__ import annotations

import dataclasses

# L1: atomic-access discipline inside parallel regions.
PLAIN_SHARED_ACCESS = "afforest-plain-shared-access"
# L2: convergence-guard discipline for fixpoint loops in src/cc.
UNBOUNDED_FIXPOINT = "afforest-unbounded-fixpoint"
# L3: general hygiene rules.
PVECTOR_BY_VALUE = "afforest-pvector-by-value"
ATOMIC_REF_LOCAL = "afforest-atomic-ref-local"
RNG_SEED = "afforest-rng-seed"
RAW_GETENV = "afforest-raw-getenv"
# W1: a waiver (NOLINT or lint: bounded) without a reason string.
WAIVER_MISSING_REASON = "afforest-waiver-missing-reason"
# S1: single-writer discipline for the serving-tier engine classes.
SERVE_WRITER_DISCIPLINE = "afforest-serve-writer-discipline"
# S2: reader-visible state may only be published through EpochPublisher.
SERVE_RCU_PUBLICATION = "afforest-serve-rcu-publication"
# S3: intra-function ordering over the WAL/checkpoint/manifest chain.
SERVE_DURABILITY_ORDER = "afforest-serve-durability-order"
# S4: raw POSIX calls outside the posix_file.hpp wrapper layer.
SERVE_RAW_POSIX = "afforest-serve-raw-posix"
# S5: durability sites without failpoint coverage.
SERVE_FAILPOINT_COVERAGE = "afforest-serve-failpoint-coverage"
# Layering: includes must respect the declared layer map.
INCLUDE_LAYERING = "afforest-include-layering"

ALL_CODES = (
    PLAIN_SHARED_ACCESS,
    UNBOUNDED_FIXPOINT,
    PVECTOR_BY_VALUE,
    ATOMIC_REF_LOCAL,
    RNG_SEED,
    RAW_GETENV,
    WAIVER_MISSING_REASON,
    SERVE_WRITER_DISCIPLINE,
    SERVE_RCU_PUBLICATION,
    SERVE_DURABILITY_ORDER,
    SERVE_RAW_POSIX,
    SERVE_FAILPOINT_COVERAGE,
    INCLUDE_LAYERING,
)

DESCRIPTIONS = {
    PLAIN_SHARED_ACCESS: (
        "subscript access to a shared component array inside a parallel "
        "region must go through atomic_load/atomic_store/compare_and_swap/"
        "atomic_fetch_min/fetch_and_add"
    ),
    UNBOUNDED_FIXPOINT: (
        "fixpoint loop in src/cc must call check_convergence_guard (see "
        "cc/guards.hpp) or carry a '// lint: bounded(<reason>)' waiver"
    ),
    PVECTOR_BY_VALUE: (
        "pvector taken by value copies the whole array; pass by (const) "
        "reference, or std::move it if the parameter is a sink"
    ),
    ATOMIC_REF_LOCAL: (
        "raw std::atomic_ref construction outside util/parallel.hpp; use "
        "the atomic_* helpers so lifetime and ordering stay centralized"
    ),
    RNG_SEED: (
        "non-deterministic RNG seeding outside util/rng.hpp breaks "
        "reproducible benchmarks; take seeds from util/rng.hpp or the CLI"
    ),
    RAW_GETENV: (
        "raw std::getenv call site; go through the typed accessors in "
        "util/env.hpp"
    ),
    WAIVER_MISSING_REASON: (
        "waiver without a reason string; write "
        "'// NOLINT(<code>): <why>' or '// lint: bounded(<why>)'"
    ),
    SERVE_WRITER_DISCIPLINE: (
        "public mutating methods of the serving engines must construct "
        "WriterLock, delegate to a locked entry point, or carry a "
        "'// lint: single-writer(<reason>)' waiver; const (reader-path) "
        "methods must not touch writer-only members"
    ),
    SERVE_RCU_PUBLICATION: (
        "reader-visible label/forest state may only be published through "
        "the EpochPublisher swap; no roll-your-own std::atomic<T*> "
        "publication or direct stores to published-snapshot fields"
    ),
    SERVE_DURABILITY_ORDER: (
        "durability chain out of order: WAL append before apply, file "
        "write -> fsync -> rename -> parent-dir fsync, and the manifest "
        "replaced only after the checkpoint it names is durable"
    ),
    SERVE_RAW_POSIX: (
        "raw ::open/::write/::fsync/::rename etc. in src/serve outside "
        "posix_file.hpp; go through the checked wrappers so error paths "
        "and failpoints stay centralized"
    ),
    SERVE_FAILPOINT_COVERAGE: (
        "durability site (write/fsync/rename wrapper call) without "
        "failpoint coverage in its function; declare a registered "
        "failpoint or waive with '// lint: failpoint(<reason>)' so the "
        "crash sweep stays exhaustive by construction"
    ),
    INCLUDE_LAYERING: (
        "include crosses the declared layer map (e.g. src/cc or "
        "src/graph including src/serve, or src/serve including "
        "bench/apps); invert the dependency or move the shared piece "
        "down a layer"
    ),
}


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    path: str
    line: int  # 1-based
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code}: {self.message}"
