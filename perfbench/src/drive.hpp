// Helpers shared by the workload runners (not part of the output format).
#pragma once

#include <string>

#include "bench.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/sha256.hpp"
#include "ledger/mempool.hpp"
#include "net/transport.hpp"

namespace perfbench {

/// Running SHA-256 over everything a repetition must reproduce exactly.
class Fingerprint {
 public:
  void add(const std::string& s) {
    h_.update(std::string_view(std::to_string(s.size()) + ":" + s));
  }
  void add(const veil::crypto::Digest& d) {
    h_.update(veil::common::BytesView(d.data(), d.size()));
  }
  void add(double v) { add(json_number(v)); }
  std::string hex() { return veil::crypto::digest_hex(h_.finalize()); }

 private:
  veil::crypto::Sha256 h_;
};

inline double per(double num, double den) { return den > 0 ? num / den : 0; }

/// net.* counts over the measured phase, per committed operation.
inline void net_counts(RepResult& r, const veil::net::NetworkStats& before,
                       const veil::net::NetworkStats& after) {
  const double commits = static_cast<double>(r.measured_commits);
  const double msgs =
      static_cast<double>(after.messages_sent - before.messages_sent);
  const double bytes = static_cast<double>(after.bytes_sent - before.bytes_sent);
  r.counts["net.msgs_per_commit"] = per(msgs, commits);
  r.counts["net.bytes_per_commit"] = per(bytes, commits);
  r.counts["net.inbox_high_water"] =
      static_cast<double>(after.inbox_high_water);
  r.shape.msg_mean_bytes = per(bytes, msgs);
}

/// crypto.batch.* and ledger.mempool.* counts, per committed operation.
inline void batch_counts(RepResult& r,
                         const veil::crypto::BatchVerifier::Stats& b,
                         const veil::ledger::MempoolStats& m) {
  const double items = static_cast<double>(b.items);
  r.counts["crypto.batch.items_per_commit"] =
      per(items, static_cast<double>(r.measured_commits));
  r.counts["crypto.batch.mean_size"] =
      per(items, static_cast<double>(b.batches));
  r.counts["crypto.batch.key_cache_hit_ratio"] =
      per(static_cast<double>(b.key_cache_hits),
          static_cast<double>(b.key_cache_hits + b.key_cache_misses));
  r.counts["ledger.mempool.token_hit_ratio"] =
      per(static_cast<double>(m.token_hits),
          static_cast<double>(m.token_hits + m.token_misses));
  r.shape.batch_mean = r.counts["crypto.batch.mean_size"];
}

}  // namespace perfbench
