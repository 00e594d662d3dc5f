// Checkpoints: the compaction point of a replica's WAL and the state it
// serves to rejoining peers.
//
// Every `interval` blocks a replica seals its committed state (chain
// head + WorldState) into its WAL as a checkpoint record and compacts
// the prefix behind it (ledger/wal.hpp). The same checkpoint stays
// resident as an O(1) copy-on-write trie handle: that is what the
// state-transfer engine (ledger/triesync.hpp) offers, votes on, and
// serves content-addressed nodes from. "What I'd serve a joiner" and
// "what I'd replay after a crash" are the same (height, tip, state).
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "ledger/state.hpp"
#include "ledger/wal.hpp"

namespace veil::ledger {

struct SnapshotConfig {
  /// Take a checkpoint every `interval` blocks; 0 disables checkpointing
  /// (the WAL grows without bound and rejoin replays every missed block).
  std::uint64_t interval = 0;
  /// Compact the WAL behind each checkpoint (fsync-ordered; see
  /// WriteAheadLog::compact). Off = checkpoint records only.
  bool compact_wal = true;
};

/// Per-replica checkpoint keeper: owns the policy, seals each checkpoint
/// into the replica's WAL, and keeps the latest one resident so the
/// replica can serve state transfer without re-serializing.
class SnapshotStore {
 public:
  /// The resident checkpoint. `state` is an O(1) copy-on-write handle
  /// onto the state as of `height`.
  struct Checkpoint {
    std::uint64_t height = 0;
    crypto::Digest tip_hash{};
    WorldState state;
  };

  explicit SnapshotStore(SnapshotConfig config = {}) : config_(config) {}

  const SnapshotConfig& config() const { return config_; }
  bool enabled() const { return config_.interval != 0; }

  /// Call after every committed block. Takes a checkpoint when `height`
  /// lands on the interval; returns true if one was taken. `aux` rides
  /// the WAL checkpoint record only (platform-private sidecar, e.g.
  /// Quorum private state) — it is never served to peers.
  bool maybe_checkpoint(WriteAheadLog& wal, std::uint64_t height,
                        const crypto::Digest& tip_hash,
                        const WorldState& state, common::BytesView aux = {});

  /// Unconditional checkpoint (rejoin installs, tests).
  void checkpoint(WriteAheadLog& wal, std::uint64_t height,
                  const crypto::Digest& tip_hash, const WorldState& state,
                  common::BytesView aux = {});

  /// Re-arm the resident checkpoint after a restart (from the WAL's
  /// recovered checkpoint) without touching the WAL.
  void restore(std::uint64_t height, const crypto::Digest& tip_hash,
               const WorldState& state);

  /// Latest checkpoint, if any was taken since construction or restore.
  /// This is what the transfer engine offers peers.
  const Checkpoint* latest() const { return latest_ ? &*latest_ : nullptr; }

  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }

 private:
  SnapshotConfig config_;
  std::optional<Checkpoint> latest_;
  std::uint64_t checkpoints_taken_ = 0;
};

}  // namespace veil::ledger
