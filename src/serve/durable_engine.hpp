// Crash-safe serving engine: DynamicCC (optionally windowed) behind a
// write-ahead log and periodic checkpoints, with recovery on open.
//
// Every mutating operation follows the WAL discipline:
//
//   validate → journal (wal.hpp) → apply → publish → maybe checkpoint
//
// so at any instant the durable directory determines the state exactly:
// the newest checkpoint the manifest names, plus the WAL records after its
// seq.  Opening a DurableEngine on an existing directory performs recovery
// (phases "recover.load" / "recover.replay" in telemetry, counters
// wal_records_replayed / wal_torn_tail_truncations): load the checkpoint
// via DynamicCC::restore_state, replay the WAL suffix through the same
// apply paths the live ops use, truncate any torn tail, and raise the
// snapshot epoch floor so post-recovery epochs stay monotone with what
// pre-crash readers observed.  Recovery equivalence — recovered labels ==
// a from-scratch oracle over the durable prefix — is pinned by
// tests/serve/crash_sweep_test.cpp (in-process kills at every durability
// failpoint), tests/integration/durable_crash_test.cpp (real process
// kills via AFFOREST_FAILPOINT_LETHAL), and tests/fuzz/durable_fuzz_test.cpp
// (byte-level corruption).
//
// Failure discipline: if an operation throws mid-flight (injected fault or
// real I/O error), the in-memory state and the log may disagree, so the
// engine poisons itself — every later mutation throws std::logic_error,
// and the one recovery path is to construct a fresh DurableEngine on the
// directory.  That mirrors the WAL's own torn-append poisoning and keeps
// "crashed process" and "caught exception" on the identical recovery road.
//
// Checkpoints rotate the WAL: a checkpoint at seq S writes ckpt-S.afck
// (atomic rename), starts wal-(S+1).log, atomically repoints the manifest,
// and only then garbage-collects the previous segment — a crash between
// any two steps leaves the previous manifest naming a complete pair.
// Orphan files from such crashes are swept at the next successful open or
// checkpoint; the manifest is the root of trust and unreferenced
// wal-*/ckpt-*/*.tmp files are dead by definition.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/telemetry.hpp"
#include "cc/common.hpp"
#include "graph/edge_list.hpp"
#include "graph/io_error.hpp"
#include "serve/checkpoint.hpp"
#include "serve/dynamic_cc.hpp"
#include "serve/posix_file.hpp"
#include "serve/wal.hpp"
#include "serve/windowed_stream.hpp"
#include "util/failpoint.hpp"

namespace afforest::serve {

struct DurableOptions {
  std::string dir;  ///< durable directory (created if absent)
  std::uint64_t window = 0;  ///< resident batches W; 0 = unwindowed engine
  /// Checkpoint automatically after this many WAL records (0 = only when
  /// checkpoint() is called explicitly).
  std::uint64_t checkpoint_every = 0;
  WalSync sync = WalSync::kFsync;
};

/// What recovery found when the engine opened its directory.
struct RecoveryStats {
  bool recovered = false;  ///< false = fresh directory bootstrap
  std::uint64_t checkpoint_seq = 0;    ///< 0 = no checkpoint, WAL-only
  std::uint64_t checkpoint_epoch = 0;
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t wal_torn_bytes = 0;    ///< torn tail discarded on open
  std::uint64_t last_seq = 0;          ///< durable seq after recovery
};

template <typename NodeID_ = std::int32_t>
class DurableEngine : private DynamicCC<NodeID_> {
  using Engine = DynamicCC<NodeID_>;

 public:
  using View = typename Engine::View;

  DurableEngine(std::int64_t num_nodes, DurableOptions opts)
      : Engine(num_nodes), opts_(std::move(opts)) {
    if (opts_.dir.empty())
      throw std::invalid_argument("DurableEngine: empty durable directory");
    if (opts_.window > 0)
      stream_.emplace(static_cast<Engine&>(*this),
                      static_cast<std::size_t>(opts_.window));
    ensure_dir(opts_.dir);
    if (path_exists(manifest_path(opts_.dir)))
      recover();
    else
      bootstrap();
  }

  // ---- read plane (DynamicCC's wait-free protocol) -----------------------

  using Engine::acquire;
  using Engine::answer;
  using Engine::component_count;
  using Engine::component_of;
  using Engine::component_size;
  using Engine::connected;
  using Engine::epoch;
  using Engine::labels;
  using Engine::live_labels;
  using Engine::num_nodes;

  // ---- durability introspection ------------------------------------------

  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_;
  }
  /// Seq of the last operation journaled (and applied) by this engine.
  [[nodiscard]] std::uint64_t last_seq() const { return wal_->last_seq(); }
  [[nodiscard]] bool windowed() const { return stream_.has_value(); }
  [[nodiscard]] const std::string& dir() const { return opts_.dir; }

  // ---- write plane (single writer; journal-then-apply) -------------------

  /// Inserts a batch.  In windowed mode this is a stream tick: the batch
  /// becomes resident and the oldest batch expires once the window is
  /// over capacity.
  void insert(const EdgeList<NodeID_>& batch) {
    mutate(WalRecordType::kInsert, batch);
  }

  /// Deletes a batch (each entry removes one surviving copy).
  void erase(const EdgeList<NodeID_>& batch) {
    mutate(WalRecordType::kDelete, batch);
  }

  /// Windowed mode only: expires the oldest resident batch without
  /// inserting a new one.
  void tick() {
    if (!stream_.has_value())
      throw std::logic_error("DurableEngine::tick: engine is not windowed");
    mutate(WalRecordType::kTick, EdgeList<NodeID_>{});
  }

  /// Serializes the full engine state at the current seq, rotates the WAL,
  /// repoints the manifest, and garbage-collects the superseded files.
  // lint: single-writer(checkpoint() only const-reads engine state and
  // rotates files; it inherits the caller's single-writer contract — a
  // racing mutate() would trip require_healthy on poisoned_, and the
  // crash sweep pins every interleaving of the rotation steps)
  void checkpoint() {
    require_healthy();
    poisoned_ = true;
    const std::uint64_t seq = wal_->last_seq();
    CheckpointData data;
    data.seq = seq;
    data.epoch = epoch();
    data.num_nodes = static_cast<std::uint64_t>(num_nodes());
    data.window = opts_.window;
    const ComponentLabels<NodeID_> labels = live_labels();
    data.labels.reserve(labels.size());
    for (std::size_t v = 0; v < labels.size(); ++v)
      data.labels.push_back(static_cast<std::int64_t>(labels[v]));
    for (const auto& [u, v] : Engine::forest_snapshot())
      data.forest_edges.emplace_back(u, v);
    for (const auto& entry : Engine::adjacency_snapshot())
      data.adjacency.push_back({entry.u, entry.v, entry.copies});
    if (stream_.has_value()) {
      for (const EdgeList<NodeID_>& batch : stream_->resident()) {
        std::vector<std::pair<std::int64_t, std::int64_t>> out;
        out.reserve(batch.size());
        for (const auto& [u, v] : batch) out.emplace_back(u, v);
        data.ring.push_back(std::move(out));
      }
    }

    const std::string ckpt_name = "ckpt-" + std::to_string(seq) + ".afck";
    write_checkpoint(opts_.dir + "/" + ckpt_name, data);

    const std::string wal_name = "wal-" + std::to_string(seq + 1) + ".log";
    const std::string wal_path = opts_.dir + "/" + wal_name;
    // A crash after a previous checkpoint's rename but before its manifest
    // update can leave this exact name behind; it is unreferenced garbage.
    remove_file(wal_path);
    WalHeader header;
    header.num_nodes = data.num_nodes;
    header.window = opts_.window;
    header.start_seq = seq + 1;
    WalWriter next_wal = WalWriter::create(wal_path, header, opts_.sync);

    Manifest manifest;
    manifest.num_nodes = data.num_nodes;
    manifest.window = opts_.window;
    manifest.checkpoint_file = ckpt_name;
    manifest.wal_file = wal_name;
    manifest.seq = seq;
    write_manifest(opts_.dir, manifest);

    // The new pair is durable and named; everything else is now dead.
    wal_.emplace(std::move(next_wal));
    manifest_ = manifest;
    records_since_checkpoint_ = 0;
    gc_unreferenced();
    telemetry::on_wal_checkpoint();
    poisoned_ = false;
  }

 private:
  void require_healthy() const {
    if (poisoned_)
      throw std::logic_error(
          "DurableEngine: a previous operation failed mid-flight; reopen "
          "the durable directory to recover");
  }

  /// Journal-then-apply for every mutation type.  Poisons the engine if
  /// any step throws: the log and memory may disagree, and recovery (a
  /// fresh open) is the only sound way back.
  void mutate(WalRecordType type, const EdgeList<NodeID_>& batch) {
    require_healthy();
    for (const auto& [u, v] : batch) {
      check_vertex_range("DurableEngine", u, num_nodes());
      check_vertex_range("DurableEngine", v, num_nodes());
    }
    poisoned_ = true;
    WalRecord record;
    record.type = type;
    record.seq = wal_->last_seq() + 1;
    record.epoch = epoch();
    record.edges.reserve(batch.size());
    for (const auto& [u, v] : batch)
      record.edges.emplace_back(static_cast<std::int64_t>(u),
                                static_cast<std::int64_t>(v));
    wal_->append(record);
    apply(type, batch);
    ++records_since_checkpoint_;
    poisoned_ = false;
    if (opts_.checkpoint_every > 0 &&
        records_since_checkpoint_ >= opts_.checkpoint_every)
      checkpoint();
  }

  /// The one apply path, shared verbatim by live mutations and replay —
  /// recovery equivalence depends on there being no second interpretation
  /// of a record.
  void apply(WalRecordType type, const EdgeList<NodeID_>& batch) {
    switch (type) {
      case WalRecordType::kInsert:
        if (stream_.has_value()) {
          stream_->push(batch.clone());  // the ring keeps its own copy
        } else {
          Engine::apply_inserts(batch);
          Engine::publish();
        }
        return;
      case WalRecordType::kDelete:
        Engine::apply_deletes(batch);
        Engine::publish();
        return;
      case WalRecordType::kTick:
        stream_->expire_oldest();
        return;
    }
  }

  /// Fresh directory: no manifest yet, so nothing is durable.  Any
  /// leftover wal-1.log from a bootstrap that crashed before its manifest
  /// write is dead and replaced.
  void bootstrap() {
    const std::string wal_name = "wal-1.log";
    const std::string wal_path = opts_.dir + "/" + wal_name;
    remove_file(wal_path);
    WalHeader header;
    header.num_nodes = static_cast<std::uint64_t>(num_nodes());
    header.window = opts_.window;
    header.start_seq = 1;
    wal_.emplace(WalWriter::create(wal_path, header, opts_.sync));
    Manifest manifest;
    manifest.num_nodes = header.num_nodes;
    manifest.window = opts_.window;
    manifest.wal_file = wal_name;
    manifest.seq = 0;
    write_manifest(opts_.dir, manifest);
    manifest_ = manifest;
    Engine::publish();
  }

  void recover() {
    manifest_ = read_manifest(opts_.dir);
    const std::string manifest_file = manifest_path(opts_.dir);
    if (manifest_.num_nodes !=
        static_cast<std::uint64_t>(num_nodes()))
      throw IoError(IoErrorKind::kCorruptHeader, manifest_file,
                    "manifest num_nodes " +
                        std::to_string(manifest_.num_nodes) +
                        " != engine num_nodes " +
                        std::to_string(num_nodes()));
    if (manifest_.window != opts_.window)
      throw IoError(IoErrorKind::kCorruptHeader, manifest_file,
                    "manifest window " + std::to_string(manifest_.window) +
                        " != configured window " +
                        std::to_string(opts_.window));
    recovery_.recovered = true;

    {
      const telemetry::ScopedPhase phase("recover.load");
      if (!manifest_.checkpoint_file.empty())
        load_checkpoint(opts_.dir + "/" + manifest_.checkpoint_file);
    }
    {
      const telemetry::ScopedPhase phase("recover.replay");
      replay_wal(opts_.dir + "/" + manifest_.wal_file);
    }
    Engine::publish();
    recovery_.last_seq = wal_->last_seq();
    records_since_checkpoint_ = wal_->last_seq() - manifest_.seq;
    gc_unreferenced();
  }

  void load_checkpoint(const std::string& path) {
    const CheckpointData data = read_checkpoint(path);
    if (data.num_nodes != static_cast<std::uint64_t>(num_nodes()) ||
        data.window != opts_.window || data.seq != manifest_.seq)
      throw IoError(IoErrorKind::kCorruptHeader, path,
                    "checkpoint identity (num_nodes/window/seq) disagrees "
                    "with the manifest");
    std::vector<NodeID_> labels;
    labels.reserve(data.labels.size());
    for (const std::int64_t label : data.labels)
      labels.push_back(static_cast<NodeID_>(label));
    std::vector<std::pair<NodeID_, NodeID_>> forest;
    forest.reserve(data.forest_edges.size());
    for (const auto& [u, v] : data.forest_edges)
      forest.emplace_back(static_cast<NodeID_>(u), static_cast<NodeID_>(v));
    std::vector<typename DynamicCC<NodeID_>::EdgeMultiplicity> adjacency;
    adjacency.reserve(data.adjacency.size());
    for (const auto& entry : data.adjacency)
      adjacency.push_back({static_cast<NodeID_>(entry.u),
                           static_cast<NodeID_>(entry.v),
                           entry.multiplicity});
    try {
      Engine::restore_state(labels, forest, adjacency);
    } catch (const std::invalid_argument& e) {
      // CRC-valid but semantically inconsistent state: typed rejection,
      // never a silently wrong engine.
      throw IoError(IoErrorKind::kCorruptHeader, path, e.what());
    }
    if (stream_.has_value()) {
      std::deque<EdgeList<NodeID_>> ring;
      for (const auto& batch : data.ring) {
        EdgeList<NodeID_> restored;
        restored.reserve(batch.size());
        for (const auto& [u, v] : batch)
          restored.push_back(
              {static_cast<NodeID_>(u), static_cast<NodeID_>(v)});
        ring.push_back(std::move(restored));
      }
      try {
        stream_->restore_ring(std::move(ring));
      } catch (const std::invalid_argument& e) {
        throw IoError(IoErrorKind::kCorruptHeader, path, e.what());
      }
    } else if (!data.ring.empty()) {
      throw IoError(IoErrorKind::kCorruptHeader, path,
                    "checkpoint carries a window ring but the engine is "
                    "unwindowed");
    }
    recovery_.checkpoint_seq = data.seq;
    recovery_.checkpoint_epoch = data.epoch;
    Engine::set_epoch_floor(data.epoch);
  }

  void replay_wal(const std::string& path) {
    WalScan scan;
    wal_.emplace(WalWriter::open_for_append(path, opts_.sync, &scan));
    if (scan.header.num_nodes !=
            static_cast<std::uint64_t>(num_nodes()) ||
        scan.header.window != opts_.window ||
        scan.header.start_seq != manifest_.seq + 1)
      throw IoError(IoErrorKind::kCorruptHeader, path,
                    "WAL header identity (num_nodes/window/start_seq) "
                    "disagrees with the manifest");
    recovery_.wal_torn_bytes = scan.torn_bytes;
    // Epoch floor: nothing published after recovery may reuse an epoch a
    // pre-crash reader could have seen.  Records journal the epoch as of
    // their append, so the last record's epoch bounds what was observable.
    std::uint64_t epoch_floor = recovery_.checkpoint_epoch;
    for (const WalRecord& record : scan.records)
      if (record.epoch > epoch_floor) epoch_floor = record.epoch;
    Engine::set_epoch_floor(epoch_floor);
    for (const WalRecord& record : scan.records) {
      failpoint_maybe_fail("recover.replay");
      EdgeList<NodeID_> batch;
      batch.reserve(record.edges.size());
      for (const auto& [u, v] : record.edges) {
        if (u < 0 || u >= num_nodes() || v < 0 ||
            v >= num_nodes())
          throw IoError(IoErrorKind::kOutOfRangeNeighbor, path,
                        "WAL record " + std::to_string(record.seq) +
                            " endpoint outside [0, " +
                            std::to_string(num_nodes()) + ")");
        batch.push_back({static_cast<NodeID_>(u), static_cast<NodeID_>(v)});
      }
      if (record.type == WalRecordType::kTick && !stream_.has_value())
        throw IoError(IoErrorKind::kCorruptHeader, path,
                      "tick record in an unwindowed WAL");
      apply(record.type, batch);
      ++recovery_.wal_records_replayed;
    }
    telemetry::on_wal_replay(recovery_.wal_records_replayed);
  }

  /// Removes every durability file the manifest does not reference.  Only
  /// our own naming patterns are touched (wal-*, ckpt-*, *.tmp, and the
  /// legacy-free MANIFEST name is always kept).
  void gc_unreferenced() {
    for (const std::string& name : list_dir(opts_.dir)) {
      if (name == "MANIFEST" || name == manifest_.wal_file ||
          name == manifest_.checkpoint_file)
        continue;
      const bool ours = name.rfind("wal-", 0) == 0 ||
                        name.rfind("ckpt-", 0) == 0 ||
                        (name.size() > 4 &&
                         name.compare(name.size() - 4, 4, ".tmp") == 0);
      if (ours) remove_file(opts_.dir + "/" + name);
    }
  }

  DurableOptions opts_;
  std::optional<WindowedStream<NodeID_>> stream_;
  std::optional<WalWriter> wal_;
  Manifest manifest_;
  RecoveryStats recovery_;
  std::uint64_t records_since_checkpoint_ = 0;
  bool poisoned_ = false;
};

}  // namespace afforest::serve
