"""afforest-lint: structural static analysis for the Afforest codebase.

Enforces the repo's concurrency disciplines at lint time:

  L1  afforest-plain-shared-access   shared component arrays must be
                                     accessed through the atomic helpers
                                     inside parallel regions
  L2  afforest-unbounded-fixpoint    fixpoint loops in src/cc must call the
                                     guards.hpp convergence ceiling or carry
                                     a `// lint: bounded(<reason>)` waiver
  L3  afforest-pvector-by-value      pvector passed by value (unless moved)
      afforest-atomic-ref-local      raw std::atomic_ref outside the
                                     util/parallel.hpp helpers
      afforest-rng-seed              non-deterministic RNG seeding outside
                                     util/rng.hpp
      afforest-raw-getenv            std::getenv outside util/env.hpp
  W1  afforest-waiver-missing-reason waiver/NOLINT without a reason string

and the serving-tier disciplines (serve_rules.py; active in src/serve and
files marked `// lint-scope: serve`):

  S1  afforest-serve-writer-discipline   public mutators of engine classes
                                         must hold WriterLock, delegate to a
                                         locked entry point, or carry a
                                         `// lint: single-writer(<reason>)`
                                         waiver; const readers must not
                                         touch `writer-only` members
  S2  afforest-serve-rcu-publication     snapshot publication only through
                                         EpochPublisher (no ad-hoc atomic
                                         pointers or label stores)
  S3  afforest-serve-durability-order    write -> fsync -> rename ->
                                         dir-fsync; journal-then-apply;
                                         checkpoint before manifest
  S4  afforest-serve-raw-posix           raw ::open/::write/... only inside
                                         posix_file.hpp
  S5  afforest-serve-failpoint-coverage  every durability site declares a
                                         failpoint or a reasoned waiver
  LY  afforest-include-layering          includes must follow the declared
                                         layer map (util < graph < cc/
                                         analysis < dist/serve <
                                         bench < apps)

The primary engine is a dependency-free lexical/structural analyzer
(engine.py) so the lint runs anywhere python3 runs.  When the clang python
bindings are importable, clang_backend.py can cross-check translation units
against compile_commands.json; it is strictly optional and auto-gated.
"""

__version__ = "1.1.0"
