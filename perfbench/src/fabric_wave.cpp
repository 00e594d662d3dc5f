// fabric-wave: Fabric, 2 orgs, shared orderer, Validate mode. One client
// sends 128-request waves through submit_many on the pool, one wave at a
// time (closed loop): each wave leaves as soon as the previous one returns.
#include <algorithm>

#include "drive.hpp"
#include "platforms/fabric/fabric.hpp"

namespace perfbench {

using namespace veil;

namespace {

constexpr std::size_t kWave = 128;
constexpr std::size_t kOrgs = 2;
const std::string kChannel = "ch";

/// The simulated network, as SimNetwork builds it (Transport with its
/// in-process wire and the default LatencyModel), plus a record of when
/// each block reaches each peer, which is when the peer commits it. The
/// record reads only the delivery time send() has already drawn, so the
/// run is exactly the one SimNetwork gives. The orderer's own clock steps
/// in whole retransmit timeouts, because delivery runs the network until
/// every timer has fired; the arrival times carry the seeded jitter.
class BlockTapNetwork final : public net::Transport {
 public:
  explicit BlockTapNetwork(common::Rng rng)
      : Transport(rng, net::LatencyModel{}) {}
  std::vector<common::SimTime> block_arrivals;  // in send order

 protected:
  WireResult wire_transmit(Pending& pending) override {
    if (pending.message.topic == "fabric.block") {
      block_arrivals.push_back(pending.deliver_at);
    }
    return WireResult::Local;
  }
};

std::shared_ptr<contracts::FunctionContract> put_contract() {
  return std::make_shared<contracts::FunctionContract>(
      "cc", 1, [](contracts::ContractContext& ctx, const std::string& a) {
        ctx.put("k/" + a, common::Bytes(ctx.args().begin(), ctx.args().end()));
        return contracts::InvokeStatus::Ok;
      });
}

using Wave = std::vector<fabric::FabricNetwork::SubmitRequest>;

std::vector<Wave> make_waves(std::uint64_t seed, std::size_t ops) {
  common::Rng rng(seed ^ 0xfab1c0de);
  std::vector<Wave> waves(ops / kWave);
  std::size_t seq = 0;
  for (Wave& wave : waves) {
    for (std::size_t i = 0; i < kWave; ++i, ++seq) {
      std::string action = "a";
      action += std::to_string(seq);
      wave.push_back(
          {kChannel, "OrgA", "cc", std::move(action), rng.next_bytes(32), {}});
    }
  }
  return waves;
}

std::uint64_t chain_txs(const ledger::Chain& chain) {
  std::uint64_t n = 0;
  for (std::uint64_t h = 0; h < chain.height(); ++h) {
    if (const auto block = chain.block_at(h)) n += block->transactions.size();
  }
  return n;
}

}  // namespace

RepResult run_fabric_wave(std::uint64_t seed, const Size& size,
                          Tracer& tracer) {
  RepResult r;
  std::vector<Wave> waves;
  {
    Span span(tracer, "workload");
    waves = make_waves(seed, size.ops + size.tail_ops);
  }

  const std::int64_t setup_start = now_ns();
  BlockTapNetwork net{common::Rng(seed * 4 + 1)};
  common::Rng rng(seed * 4 + 2);
  fabric::FabricConfig config;
  config.block_size = 8;
  config.mempool.capacity = 4096;
  fabric::FabricNetwork fab(net, crypto::Group::default_group(), rng, config);
  fab.add_org("OrgA");
  fab.add_org("OrgB");
  fab.create_channel(kChannel, {"OrgA", "OrgB"});
  fab.install_chaincode(kChannel, "OrgA", put_contract(),
                        contracts::EndorsementPolicy::require("OrgA"));
  fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Validate);
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  std::uint64_t committed_total = 0;
  // Per measured wave: when it left, and where its blocks start on the
  // chain and in the block-arrival record.
  struct Sent {
    common::SimTime at;
    std::uint64_t from_height, to_height;
    std::size_t from_arrival, to_arrival;
  };
  std::vector<Sent> sent;
  const auto submit_wave = [&](std::size_t w, bool measured) {
    const common::SimTime at = net.clock().now();
    const std::uint64_t from_height = fab.chain(kChannel, "OrgA").height();
    const std::size_t from_arrival = net.block_arrivals.size();
    const std::int64_t start = now_ns();
    std::vector<fabric::TxReceipt> receipts;
    {
      Span span(tracer, "submit");
      receipts = fab.submit_many(waves[w], kWave);
    }
    if (measured) {
      r.call_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
      sent.push_back({at, from_height, fab.chain(kChannel, "OrgA").height(),
                      from_arrival, net.block_arrivals.size()});
    }
    for (const fabric::TxReceipt& receipt : receipts) {
      if (receipt.committed) {
        ++committed_total;
      } else {
        r.failures.push_back("fabric receipt not committed: " + receipt.reason);
      }
      if (!measured) continue;
      ++r.acct.attempted;
      if (receipt.committed) {
        ++r.acct.committed;
      } else {
        ++r.acct.unexpected;
      }
    }
  };

  // ---- Measured phase -------------------------------------------------------
  const std::size_t measured_waves = size.ops / kWave;
  const net::NetworkStats net_before = net.stats();
  const double cpu_begin = process_cpu_s();
  const std::int64_t measure_start = now_ns();
  for (std::size_t w = 0; w < measured_waves; ++w) submit_wave(w, true);
  r.measured_s = static_cast<double>(now_ns() - measure_start) / 1e9;
  r.cpu_s = process_cpu_s() - cpu_begin;
  r.measured_commits = r.acct.committed;
  // A request's sim latency runs from when its wave left to when the
  // block that carries it reached the last peer. The span runs from the
  // first wave to the last block's arrival.
  common::SimTime last_commit = sent.front().at;
  for (const Sent& s : sent) {
    const std::size_t arrivals = s.to_arrival - s.from_arrival;
    if (arrivals != kOrgs * (s.to_height - s.from_height)) {
      r.failures.push_back("fabric: a wave cut " +
                           std::to_string(s.to_height - s.from_height) +
                           " blocks but sent " + std::to_string(arrivals) +
                           " to " + std::to_string(kOrgs) + " peers");
      continue;
    }
    for (std::uint64_t h = s.from_height; h < s.to_height; ++h) {
      const std::size_t i = s.from_arrival + kOrgs * (h - s.from_height);
      const common::SimTime committed_at =
          *std::max_element(net.block_arrivals.begin() + i,
                            net.block_arrivals.begin() + i + kOrgs);
      last_commit = std::max(last_commit, committed_at);
      const auto block = fab.chain(kChannel, "OrgA").block_at(h);
      const std::size_t txs = block ? block->transactions.size() : 0;
      r.sim_latency_ms.insert(r.sim_latency_ms.end(), txs,
                              static_cast<double>(committed_at - s.at) / 1e3);
    }
  }
  r.sim_span_s = static_cast<double>(last_commit - sent.front().at) / 1e6;
  if (r.sim_latency_ms.size() != r.measured_commits) {
    r.failures.push_back("fabric: measured blocks carry " +
                         std::to_string(r.sim_latency_ms.size()) + " txs, " +
                         std::to_string(r.measured_commits) + " committed");
  }
  net_counts(r, net_before, net.stats());
  batch_counts(r, fab.batch_verify_stats(), fab.mempool().stats());

  std::uint64_t wal_bytes = 0, wal_records = 0;
  for (const char* org : {"OrgA", "OrgB"}) {
    wal_bytes += fab.peer_wal(kChannel, org).size_bytes();
    wal_records += fab.peer_wal(kChannel, org).record_count();
  }
  const double commits = static_cast<double>(r.measured_commits);
  r.counts["ledger.wal.bytes_per_commit"] =
      per(static_cast<double>(wal_bytes), commits);
  r.counts["ledger.wal.records_per_commit"] =
      per(static_cast<double>(wal_records), commits);
  r.counts["ledger.txs_per_block"] = per(
      commits, static_cast<double>(fab.chain(kChannel, "OrgA").height()));
  r.shape.wal_record_bytes =
      per(static_cast<double>(wal_bytes), static_cast<double>(wal_records));

  // ---- Recovery: OrgB's peer misses some waves, then rejoins ----------------
  net.quarantine("peer.OrgB");
  for (std::size_t w = measured_waves; w < waves.size(); ++w) {
    submit_wave(w, false);
  }
  net.release("peer.OrgB");
  const std::uint64_t applied_before = fab.blocks_applied(kChannel, "OrgB");
  const std::uint64_t chunks_before = fab.transfer_stats().chunks_received;
  const std::uint64_t bytes_before = net.stats().bytes_sent;
  const common::SimTime sim_rejoin = net.clock().now();
  const std::int64_t rejoin_start = now_ns();
  {
    Span span(tracer, "rejoin");
    fab.rejoin(kChannel, "OrgB");
  }
  r.recovery_ms = static_cast<double>(now_ns() - rejoin_start) / 1e6;
  r.recovery_sim_ms =
      static_cast<double>(net.clock().now() - sim_rejoin) / 1e3;
  r.counts["ledger.transfer.bytes"] =
      static_cast<double>(net.stats().bytes_sent - bytes_before);
  r.counts["ledger.transfer.chunks"] = static_cast<double>(
      fab.transfer_stats().chunks_received - chunks_before);
  r.counts["ledger.recovery.blocks_replayed"] =
      static_cast<double>(fab.blocks_applied(kChannel, "OrgB") - applied_before);

  // ---- Checks ---------------------------------------------------------------
  {
    Span span(tracer, "checks");
    const crypto::Digest root_a = fab.state_root(kChannel, "OrgA");
    if (root_a != fab.state_root(kChannel, "OrgB")) {
      r.failures.push_back("fabric: OrgA and OrgB state roots differ");
    }
    for (const char* org : {"OrgA", "OrgB"}) {
      const std::uint64_t on_chain = chain_txs(fab.chain(kChannel, org));
      if (on_chain != committed_total) {
        r.failures.push_back(std::string("fabric: ") + org + " chain holds " +
                             std::to_string(on_chain) + " txs, " +
                             std::to_string(committed_total) + " committed");
      }
    }
    const ledger::WorldState& state = fab.state(kChannel, "OrgA");
    if (state.size() != committed_total) {
      r.failures.push_back("fabric: state holds " +
                           std::to_string(state.size()) + " keys, expected " +
                           std::to_string(committed_total));
    }
    if (const auto block = fab.chain(kChannel, "OrgA").block_at(0);
        block && !block->transactions.empty()) {
      r.shape.tx_body_bytes = block->transactions[0].body_encoding().size();
    }
    r.shape.state_keys = state.size();
    Fingerprint fp;
    fp.add(root_a);
    fp.add(static_cast<double>(committed_total));
    fp.add(r.sim_span_s);
    fp.add(r.recovery_sim_ms);
    for (const double v : r.sim_latency_ms) fp.add(v);
    for (const auto& [name, value] : r.counts) fp.add(name + "=" + json_number(value));
    r.fingerprint = fp.hex();
  }
  return r;
}

}  // namespace perfbench
