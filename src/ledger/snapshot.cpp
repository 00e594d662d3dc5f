#include "ledger/snapshot.hpp"

namespace veil::ledger {

bool SnapshotStore::maybe_checkpoint(WriteAheadLog& wal, std::uint64_t height,
                                     const crypto::Digest& tip_hash,
                                     const WorldState& state,
                                     common::BytesView aux) {
  if (!enabled() || height == 0 || height % config_.interval != 0) {
    return false;
  }
  checkpoint(wal, height, tip_hash, state, aux);
  return true;
}

void SnapshotStore::checkpoint(WriteAheadLog& wal, std::uint64_t height,
                               const crypto::Digest& tip_hash,
                               const WorldState& state, common::BytesView aux) {
  restore(height, tip_hash, state);
  const common::Bytes record =
      wal_encode_checkpoint(height, tip_hash, state, aux);
  if (config_.compact_wal) {
    wal.compact(kWalCheckpoint, record);
  } else {
    wal.append(kWalCheckpoint, record);
  }
  ++checkpoints_taken_;
}

void SnapshotStore::restore(std::uint64_t height,
                            const crypto::Digest& tip_hash,
                            const WorldState& state) {
  latest_ = Checkpoint{height, tip_hash, state};  // O(1): shared trie
}

}  // namespace veil::ledger
