// quorum-serial: Quorum, 4 nodes, commit verification on. Private
// transactions one at a time through submit_private on an open-loop
// Poisson/Zipf schedule at a fixed sim-time rate. NodeD is quarantined
// for the middle third of the schedule, released, then rejoins. With 180
// operations in blocks of 2 it rejoins at height 60, past the checkpoint
// at 48, so the rejoin installs a snapshot and replays a 12-block delta.
#include <set>

#include "drive.hpp"
#include "ledger/snapshot.hpp"
#include "platforms/quorum/quorum.hpp"
#include "workload/openloop.hpp"

namespace perfbench {

using namespace veil;

namespace {

/// Offered load, private transactions per simulated second. Fixed: it is
/// part of the workload, not calibrated from the code under test.
constexpr double kOfferedPerS = 2.0;
constexpr std::size_t kBlockSize = 2;
constexpr std::uint64_t kCheckpointEvery = 16;
constexpr std::size_t kPayloadBytes = 256;
const std::vector<std::string> kNodes = {"NodeA", "NodeB", "NodeC", "NodeD"};
constexpr std::size_t kOutageNode = 3;  // the least popular Zipf rank

struct Op {
  common::SimTime at = 0;
  std::size_t sender = 0;
  std::size_t recipient = 0;
  std::vector<ledger::KvWrite> writes;
  common::Bytes payload;
};

/// Sender and recipient are Zipf-ranked nodes; during the outage third
/// the quarantined node takes no part, so no operation targets it.
std::vector<Op> make_ops(std::uint64_t seed, std::size_t ops) {
  workload::OpenLoopConfig load;
  load.offered_per_s = kOfferedPerS;
  load.arrivals = ops;
  load.parties = kNodes.size();
  load.zipf_s = 1.0;
  load.cross_fraction = 1.0;  // every arrival draws a counterparty
  const auto schedule = workload::OpenLoopGenerator(load, seed).generate();
  common::Rng rng(seed ^ 0x0c0ffee);
  std::vector<Op> out;
  for (const workload::Arrival& a : schedule) {
    Op op;
    op.at = a.at;
    op.sender = a.party;
    op.recipient = a.party_b;
    if (a.seq >= ops / 3 && a.seq < 2 * ops / 3) {
      const std::size_t live = kNodes.size() - 1;
      if (op.sender == kOutageNode) op.sender = a.seq % live;
      if (op.recipient == kOutageNode || op.recipient == op.sender) {
        op.recipient = (op.sender + 1) % live;
      }
    }
    op.writes.push_back(
        {"asset/" + std::to_string(a.seq), rng.next_bytes(16), false});
    op.payload = rng.next_bytes(kPayloadBytes);
    out.push_back(std::move(op));
  }
  return out;
}

}  // namespace

RepResult run_quorum_serial(std::uint64_t seed, const Size& size,
                            Tracer& tracer) {
  RepResult r;
  std::vector<Op> ops;
  {
    Span span(tracer, "workload");
    ops = make_ops(seed, size.ops);
  }

  const std::int64_t setup_start = now_ns();
  net::SimNetwork net{common::Rng(seed * 4 + 1)};
  common::Rng rng(seed * 4 + 2);
  quorum::QuorumNetwork q(net, crypto::Group::default_group(), rng, kBlockSize,
                          ledger::SnapshotConfig{.interval = kCheckpointEvery});
  for (const std::string& n : kNodes) q.add_node(n);
  q.set_verify_commits(true);
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  struct Accepted {
    std::string tx_id;
    std::set<std::string> holders;
  };
  std::vector<Accepted> accepted;
  const std::string& outage = kNodes[kOutageNode];

  const net::NetworkStats net_before = net.stats();
  const common::SimTime base = net.clock().now();
  const double cpu_begin = process_cpu_s();
  const std::int64_t measure_start = now_ns();
  std::int64_t recovery_ns = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == ops.size() / 3) net.quarantine(outage);
    if (i == 2 * ops.size() / 3) {
      net.release(outage);
      const std::uint64_t applied_before = q.blocks_applied(outage);
      const std::uint64_t chunks_before = q.transfer_stats().chunks_received;
      const std::uint64_t bytes_before = net.stats().bytes_sent;
      const common::SimTime sim_start = net.clock().now();
      const std::int64_t start = now_ns();
      {
        Span span(tracer, "rejoin");
        q.rejoin(outage);
      }
      recovery_ns = now_ns() - start;
      r.recovery_ms = static_cast<double>(recovery_ns) / 1e6;
      r.recovery_sim_ms =
          static_cast<double>(net.clock().now() - sim_start) / 1e3;
      r.counts["ledger.transfer.bytes"] =
          static_cast<double>(net.stats().bytes_sent - bytes_before);
      r.counts["ledger.transfer.chunks"] = static_cast<double>(
          q.transfer_stats().chunks_received - chunks_before);
      r.counts["ledger.recovery.blocks_replayed"] =
          static_cast<double>(q.blocks_applied(outage) - applied_before);
    }
    const Op& op = ops[i];
    const common::SimTime at = base + op.at;
    if (net.clock().now() < at) {
      net.schedule(at, [] {});
      Span span(tracer, "net");
      net.run();
    }
    r.sim_late_max_ms = std::max(
        r.sim_late_max_ms, static_cast<double>(net.clock().now() - at) / 1e3);
    const std::string& sender = kNodes[op.sender];
    const std::string& recipient = kNodes[op.recipient];
    const std::int64_t start = now_ns();
    quorum::TxResult res;
    {
      Span span(tracer, "submit");
      res = q.submit_private(sender, {recipient}, op.writes, op.payload);
    }
    r.call_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
    ++r.acct.attempted;
    if (res.accepted) {
      ++r.acct.committed;
      r.sim_latency_ms.push_back(
          static_cast<double>(net.clock().now() - at) / 1e3);
      accepted.push_back({res.tx_id, {sender, recipient}});
    } else {
      ++r.acct.unexpected;
      r.failures.push_back("quorum submission refused: " + res.reason);
    }
  }
  {
    Span span(tracer, "seal_block");
    q.seal_block();
  }
  // The rejoin is reported as recovery, not as measured throughput.
  r.measured_s =
      static_cast<double>(now_ns() - measure_start - recovery_ns) / 1e9;
  r.cpu_s = process_cpu_s() - cpu_begin;
  r.sim_span_s = static_cast<double>(net.clock().now() - base) / 1e6;
  r.measured_commits = r.acct.committed;
  net_counts(r, net_before, net.stats());
  batch_counts(r, q.batch_verify_stats(), q.mempool().stats());

  std::uint64_t wal_bytes = 0, wal_records = 0;
  for (const std::string& n : kNodes) {
    wal_bytes += q.node_wal(n).size_bytes();
    wal_records += q.node_wal(n).record_count();
  }
  const double commits = static_cast<double>(r.measured_commits);
  r.counts["ledger.wal.bytes_per_commit"] =
      per(static_cast<double>(wal_bytes), commits);
  r.counts["ledger.wal.records_per_commit"] =
      per(static_cast<double>(wal_records), commits);
  r.counts["ledger.txs_per_block"] =
      per(commits, static_cast<double>(q.sealed_height()));
  r.shape.wal_record_bytes =
      per(static_cast<double>(wal_bytes), static_cast<double>(wal_records));
  r.shape.payload_bytes = kPayloadBytes;

  {
    Span span(tracer, "checks");
    const crypto::Digest root = q.public_state(kNodes[0]).digest();
    Fingerprint fp;
    fp.add(root);
    for (const std::string& n : kNodes) {
      if (q.public_state(n).digest() != root) {
        r.failures.push_back("quorum: " + n + " public state digest differs");
      }
      if (q.public_chain(n).height() != q.sealed_height()) {
        r.failures.push_back("quorum: " + n + " chain height " +
                             std::to_string(q.public_chain(n).height()) +
                             " != sealed " + std::to_string(q.sealed_height()));
      }
      fp.add(q.private_state(n).digest());
      r.shape.state_keys = std::max(r.shape.state_keys, q.private_state(n).size());
    }
    const ledger::Chain& chain = q.public_chain(kNodes[0]);
    std::uint64_t on_chain = 0;
    for (std::uint64_t h = 0; h < chain.height(); ++h) {
      const auto block = chain.block_at(h);
      if (!block) {
        r.failures.push_back("quorum: NodeA misses block " + std::to_string(h));
        continue;
      }
      on_chain += block->transactions.size();
      if (h == 0) r.shape.tx_body_bytes = block->transactions[0].body_encoding().size();
    }
    if (on_chain != accepted.size()) {
      r.failures.push_back("quorum: chain holds " + std::to_string(on_chain) +
                           " txs, " + std::to_string(accepted.size()) +
                           " accepted");
    }
    for (const Accepted& a : accepted) {
      for (const std::string& n : kNodes) {
        const bool readable = q.private_payload(n, a.tx_id).has_value();
        if (readable != a.holders.contains(n)) {
          r.failures.push_back("quorum: " + n +
                               (readable ? " can read " : " cannot read ") +
                               "private payload of " + a.tx_id);
        }
      }
    }
    fp.add(r.sim_span_s);
    fp.add(r.recovery_sim_ms);
    for (const double v : r.sim_latency_ms) fp.add(v);
    for (const auto& [name, value] : r.counts) fp.add(name + "=" + json_number(value));
    r.fingerprint = fp.hex();
  }
  return r;
}

}  // namespace perfbench
