// shard-local and shard-2pc: a ShardMap of 4 shards x 3 nodes (primary
// plus two replicas) fed by an open-loop Poisson schedule at 4000/s with
// Zipf keys over 10^5 accounts; 0% or 10% of arrivals touch a second
// account and go through the CrossShardCoordinator when the two keys
// live on different shards.
#include <functional>

#include "drive.hpp"
#include "ledger/shard.hpp"
#include "ledger/xshard.hpp"
#include "workload/openloop.hpp"

namespace perfbench {

using namespace veil;

namespace {

constexpr std::uint64_t kShards = 4;
constexpr std::size_t kReplicas = 2;  // followers per shard, plus a primary
constexpr double kOfferedPerS = 4'000.0;
constexpr std::size_t kAccounts = 100'000;
/// Sim-time period at which the benchmark looks for sealed blocks and
/// decided cross-shard transactions (bounds the latency quantization).
constexpr common::SimTime kPollUs = 100;
/// Finer period for timing the restarted replica back into sync.
constexpr common::SimTime kSyncPollUs = 1;
/// Give up on undecided cross-shard transactions this long after the
/// last arrival (they then count as unexpected failures).
constexpr common::SimTime kDrainLimitUs = 5'000'000;
/// The replica of `shard` that the recovery phase crashes and restarts.
std::string crashed_replica(std::uint64_t shard) {
  return "shard-" + std::to_string(shard) + "-r1";
}

struct Rig {
  net::SimNetwork net;
  net::ReliableChannel channel;
  common::Rng rng;
  ledger::ShardMap shards;
  ledger::CrossShardCoordinator coord;

  Rig(std::uint64_t seed, ledger::ShardConfig cfg)
      : net(common::Rng(seed * 4 + 1)),
        channel(net),
        rng(seed * 4 + 2),
        shards(net, channel, crypto::Group::default_group(), rng, cfg),
        coord(net, channel, shards, crypto::Group::default_group(), rng) {}
};

struct Op {
  common::SimTime at = 0;
  std::vector<std::string> keys;  // one, or two for the cross mix
  common::Bytes value;
};

/// Arrival times and accounts come from the seeded open-loop generator.
/// With a cross mix, exactly every (1/cross)-th arrival also writes a
/// counterparty account on another shard, so each repetition runs the
/// same number of two-phase commits whatever the seed.
std::vector<Op> make_ops(std::uint64_t seed, std::size_t ops, double cross) {
  workload::OpenLoopConfig load;
  load.offered_per_s = kOfferedPerS;
  load.arrivals = ops;
  load.parties = kAccounts;
  load.zipf_s = 1.0;
  load.cross_fraction = cross > 0 ? 1.0 : 0.0;  // draw every counterparty
  const std::uint64_t every =
      cross > 0 ? static_cast<std::uint64_t>(1.0 / cross + 0.5) : 0;
  const auto schedule = workload::OpenLoopGenerator(load, seed).generate();
  common::Rng rng(seed ^ 0x5a4dc0de);
  const auto account = [](std::size_t party) {
    return "acct/" + std::to_string(party);
  };
  std::vector<Op> out;
  for (const workload::Arrival& a : schedule) {
    Op op;
    op.at = a.at;
    op.keys.push_back(account(a.party));
    if (every != 0 && a.seq % every == every - 1) {
      std::size_t b = a.party_b;
      while (ledger::shard_of(account(b), kShards) ==
             ledger::shard_of(op.keys[0], kShards)) {
        b = (b + 1) % kAccounts;
      }
      op.keys.push_back(account(b));
    }
    op.value = rng.next_bytes(8);
    out.push_back(std::move(op));
  }
  return out;
}

ledger::Transaction make_tx(const Op& op, std::uint64_t seq) {
  ledger::Transaction tx;
  tx.channel = "bench";
  tx.timestamp = static_cast<common::SimTime>(seq + 1);
  for (const std::string& key : op.keys) {
    tx.writes.push_back({key, op.value, false});
  }
  return tx;
}

RepResult run_sharded(std::uint64_t seed, const Size& size, double cross,
                      Tracer& tracer) {
  RepResult r;
  std::vector<Op> ops;
  {
    Span span(tracer, "workload");
    ops = make_ops(seed, size.ops, cross);
  }

  const std::int64_t setup_start = now_ns();
  ledger::ShardConfig cfg;
  cfg.shard_count = kShards;
  cfg.replicas_per_shard = kReplicas;
  cfg.block_size = 8;
  Rig rig(seed, cfg);
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  net::SimNetwork& net = rig.net;
  ledger::ShardMap& shards = rig.shards;

  // Outstanding work the benchmark watches for: local transactions waiting
  // for their shard's next block, and undecided cross-shard ones.
  struct Waiting {
    common::SimTime at;
    std::vector<std::string> keys;
  };
  struct Cross {
    std::string xid;
    common::SimTime at;
    std::vector<std::string> keys;
    std::vector<std::uint64_t> participants;
  };
  std::vector<std::vector<Waiting>> waiting(kShards);
  std::vector<std::uint64_t> seen_height(kShards, 0);
  std::vector<Cross> open_cross;
  std::vector<Cross> decided_cross;
  std::map<std::string, std::uint64_t> expected_version;
  std::uint64_t aborted = 0;
  bool measuring = true;
  common::SimTime last_commit = 0;

  const auto commit = [&](const std::vector<std::string>& keys,
                          common::SimTime at) {
    for (const std::string& key : keys) ++expected_version[key];
    if (!measuring) return;
    ++r.acct.committed;
    last_commit = net.clock().now();
    r.sim_latency_ms.push_back(
        static_cast<double>(net.clock().now() - at) / 1e3);
  };
  // Any seal on a shard takes every buffered local transaction with it.
  const auto poll = [&] {
    for (std::uint64_t s = 0; s < kShards; ++s) {
      const std::uint64_t h = shards.height(s);
      if (h == seen_height[s]) continue;
      seen_height[s] = h;
      for (const Waiting& w : waiting[s]) commit(w.keys, w.at);
      waiting[s].clear();
    }
    std::erase_if(open_cross, [&](const Cross& c) {
      const auto outcome = rig.coord.outcome(c.xid);
      if (outcome == ledger::CrossShardCoordinator::Outcome::Pending) {
        return false;
      }
      if (outcome == ledger::CrossShardCoordinator::Outcome::Committed) {
        commit(c.keys, c.at);
      } else {
        ++aborted;
      }
      decided_cross.push_back(c);
      return true;
    });
  };
  const auto submit_local = [&](const ledger::Transaction& tx,
                                const std::vector<std::string>& keys,
                                common::SimTime at) {
    const std::uint64_t s = shards.shard_for_key(keys.front());
    ledger::SubmitReceipt rc;
    {
      Span span(tracer, "submit");
      rc = shards.submit(tx);
    }
    if (rc.accepted) {
      waiting[s].push_back({at, keys});
    } else if (rc.reason.find("locked") != std::string::npos) {
      ++r.acct.refused_locked;
    } else if (rc.reason.find("shed") != std::string::npos) {
      ++r.acct.refused_shed;
    } else {
      ++r.acct.unexpected;
      r.failures.push_back("shard submission refused: " + rc.reason);
    }
  };

  // ---- Measured phase: the whole schedule in one network run ---------------
  const net::NetworkStats net_before = net.stats();
  const ledger::XShardStats x_before = rig.coord.stats();
  const common::SimTime base = net.clock().now() + 1'000;
  const common::SimTime last_at = base + (ops.empty() ? 0 : ops.back().at);
  std::vector<std::int64_t> call_start(ops.size(), 0);
  std::size_t arrived = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    net.schedule(base + ops[i].at, [&, i] {
      call_start[i] = now_ns();
      ++arrived;
      ++r.acct.attempted;
      const Op& op = ops[i];
      const common::SimTime at = base + op.at;
      const ledger::Transaction tx = make_tx(op, i);
      if (op.keys.size() == 2) {
        Cross c{"", at, op.keys,
                {shards.shard_for_key(op.keys[0]),
                 shards.shard_for_key(op.keys[1])}};
        {
          Span span(tracer, "submit");
          c.xid = rig.coord.begin(tx);
        }
        open_cross.push_back(std::move(c));
      } else {
        submit_local(tx, op.keys, at);
      }
      poll();
    });
  }
  // Seal the last partial blocks shortly after the final arrival.
  net.schedule(last_at + 1'000, [&] {
    {
      Span span(tracer, "flush_all");
      shards.flush_all();
    }
    poll();
  });
  std::function<void()> poll_timer = [&] {
    poll();
    const bool pending = arrived < ops.size() || !open_cross.empty() ||
                         std::any_of(waiting.begin(), waiting.end(),
                                     [](const auto& w) { return !w.empty(); });
    if (pending && net.clock().now() < last_at + kDrainLimitUs) {
      net.schedule(net.clock().now() + kPollUs, poll_timer);
    }
  };
  net.schedule(base, poll_timer);

  const double cpu_begin = process_cpu_s();
  const std::int64_t measure_start = now_ns();
  {
    Span span(tracer, "net");
    net.run();
  }
  // Replicas drop blocks that arrive ahead of a gap; the shard's catch-up
  // from its ordered log fills them, as an operator would after traffic.
  const std::uint64_t gapped = shards.stats().replica_gapped;
  {
    Span span(tracer, "resync");
    shards.resync_all();
    net.run();
  }
  const std::int64_t measure_end = now_ns();
  r.measured_s = static_cast<double>(measure_end - measure_start) / 1e9;
  r.cpu_s = process_cpu_s() - cpu_begin;
  // Wall time per arrival: from its callback to the next arrival's, so
  // each slice holds the arrival plus the network work that followed it.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::int64_t next =
        i + 1 < ops.size() ? call_start[i + 1] : measure_end;
    r.call_ms.push_back(static_cast<double>(next - call_start[i]) / 1e6);
  }
  r.sim_span_s = static_cast<double>(last_commit - base) / 1e6;
  r.measured_commits = r.acct.committed;
  const ledger::XShardStats& x = rig.coord.stats();
  r.acct.aborted_voteno = x.aborts_voteno - x_before.aborts_voteno;
  r.acct.aborted_timeout = x.aborts_timeout - x_before.aborts_timeout;
  r.acct.unexpected += open_cross.size();
  if (aborted != r.acct.aborted_voteno + r.acct.aborted_timeout) {
    r.failures.push_back("xshard: " + std::to_string(aborted) +
                         " aborts seen, coordinator reports " +
                         std::to_string(r.acct.aborted_voteno +
                                        r.acct.aborted_timeout));
  }
  for (const Cross& c : open_cross) {
    r.failures.push_back("xshard: " + c.xid + " never decided");
  }

  net_counts(r, net_before, net.stats());
  crypto::BatchVerifier::Stats no_batches;  // no batch verifier on this path
  ledger::MempoolStats mempool;
  std::uint64_t wal_bytes = 0, wal_records = 0, blocks = 0;
  for (std::uint64_t s = 0; s < kShards; ++s) {
    mempool.token_hits += shards.mempool(s).stats().token_hits;
    mempool.token_misses += shards.mempool(s).stats().token_misses;
    wal_bytes += shards.primary_wal(s).size_bytes();
    wal_records += shards.primary_wal(s).record_count();
    blocks += shards.height(s);
  }
  batch_counts(r, no_batches, mempool);
  const double commits = static_cast<double>(r.measured_commits);
  r.counts["ledger.wal.bytes_per_commit"] =
      per(static_cast<double>(wal_bytes), commits);
  r.counts["ledger.wal.records_per_commit"] =
      per(static_cast<double>(wal_records), commits);
  r.counts["ledger.txs_per_block"] =
      per(static_cast<double>(shards.stats().committed),
          static_cast<double>(blocks));
  r.counts["ledger.shard.replica_gapped"] = static_cast<double>(gapped);
  r.counts["ledger.shard.rejected_locked"] =
      static_cast<double>(shards.stats().rejected_locked);
  const double begun = static_cast<double>(x.begun - x_before.begun);
  r.counts["xshard.commit_ratio"] =
      per(static_cast<double>(x.commits - x_before.commits), begun);
  r.counts["xshard.prepares_per_cross"] =
      per(static_cast<double>(x.prepares_sent - x_before.prepares_sent), begun);
  r.counts["xshard.aborts_voteno"] = static_cast<double>(r.acct.aborted_voteno);
  r.counts["xshard.aborts_timeout"] =
      static_cast<double>(r.acct.aborted_timeout);
  r.shape.wal_record_bytes =
      per(static_cast<double>(wal_bytes), static_cast<double>(wal_records));
  if (!ops.empty()) r.shape.tx_body_bytes = make_tx(ops[0], 0).body_encoding().size();

  // ---- Recovery: one replica per shard crashes, misses traffic, restarts ---
  measuring = false;
  std::vector<std::uint64_t> height_at_crash(kShards);
  for (std::uint64_t s = 0; s < kShards; ++s) {
    net.crash(crashed_replica(s));
    height_at_crash[s] = shards.height(s);
  }
  common::Rng tail_rng(seed ^ 0x7a11);
  std::uint64_t tail_key = 0;
  const auto tail_op = [&](std::uint64_t shard) {
    Op op;
    do {
      op.keys = {"tail/" + std::to_string(tail_key++)};
    } while (shards.shard_for_key(op.keys[0]) != shard);
    op.value = tail_rng.next_bytes(8);
    return op;
  };
  for (std::size_t j = 0; j < size.tail_ops; ++j) {
    const Op op = tail_op(j % kShards);
    const common::SimTime at = net.clock().now() + 250;
    net.schedule(at, [&, op, at, seq = ops.size() + tail_key] {
      submit_local(make_tx(op, seq), op.keys, at);
    });
    net.run();
  }
  shards.flush_all();
  net.run();
  poll();
  const std::uint64_t bytes_before = net.stats().bytes_sent;
  const common::SimTime sim_restart = net.clock().now();
  const std::int64_t restart_start = now_ns();
  {
    Span span(tracer, "rejoin");
    for (std::uint64_t s = 0; s < kShards; ++s) net.restart(crashed_replica(s));
    net.run();
  }
  r.recovery_ms = static_cast<double>(now_ns() - restart_start) / 1e6;
  r.counts["ledger.transfer.bytes"] =
      static_cast<double>(net.stats().bytes_sent - bytes_before);
  r.counts["ledger.transfer.chunks"] = 0;  // shards catch up by block replay
  double replayed = 0;
  for (std::uint64_t s = 0; s < kShards; ++s) {
    replayed += static_cast<double>(shards.height(s) - height_at_crash[s]);
  }
  r.counts["ledger.recovery.blocks_replayed"] = replayed;
  // Catch-up from a shard's log is local, so the sim-time recovery is the
  // time until each restarted replica holds its primary's state again
  // after the next block (one full block per shard, submitted at restart
  // time); reported as the mean over shards.
  std::vector<common::SimTime> in_sync_at(kShards, 0);
  for (std::uint64_t s = 0; s < kShards; ++s) {
    for (std::size_t j = 0; j < cfg.block_size; ++j) {
      const Op op = tail_op(s);
      submit_local(make_tx(op, ops.size() + tail_key), op.keys, sim_restart);
    }
  }
  std::function<void()> sync_timer = [&] {
    bool all = true;
    for (std::uint64_t s = 0; s < kShards; ++s) {
      if (in_sync_at[s] == 0 && shards.height(s) > seen_height[s] &&
          shards.replica_root(s, 1) == shards.shard_root(s)) {
        in_sync_at[s] = net.clock().now();
      }
      all = all && in_sync_at[s] != 0;
    }
    if (!all && net.clock().now() < sim_restart + kDrainLimitUs) {
      net.schedule(net.clock().now() + kSyncPollUs, sync_timer);
    }
  };
  net.schedule(net.clock().now(), sync_timer);
  net.run();
  poll();
  for (std::uint64_t s = 0; s < kShards; ++s) {
    if (in_sync_at[s] == 0) {
      r.failures.push_back("restarted replica " + crashed_replica(s) +
                           " never caught up");
    }
    r.recovery_sim_ms += static_cast<double>(in_sync_at[s] - sim_restart) /
                         1e3 / static_cast<double>(kShards);
  }

  // ---- Checks ---------------------------------------------------------------
  {
    Span span(tracer, "checks");
    Fingerprint fp;
    for (std::uint64_t s = 0; s < kShards; ++s) {
      const crypto::Digest root = shards.shard_root(s);
      fp.add(root);
      for (std::size_t rep = 0; rep < kReplicas; ++rep) {
        if (shards.replica_root(s, rep) != root) {
          r.failures.push_back("shard " + std::to_string(s) + " replica " +
                               std::to_string(rep) + " root differs");
        }
      }
    }
    try {
      fp.add(shards.verified_composite_root());
    } catch (const std::exception& e) {
      r.failures.push_back(std::string("verified_composite_root: ") + e.what());
    }
    for (const auto& [key, version] : expected_version) {
      const auto got = shards.get(key);
      if (!got || got->version != version) {
        r.failures.push_back("key " + key + " at version " +
                             std::to_string(got ? got->version : 0) +
                             ", expected " + std::to_string(version));
      }
    }
    // A committed xid is committed on every participant. An aborted one
    // is applied nowhere: aborted where the shard had prepared, unknown
    // where it voted no and so never prepared.
    for (const Cross& c : decided_cross) {
      const bool committed = rig.coord.outcome(c.xid) ==
                             ledger::CrossShardCoordinator::Outcome::Committed;
      for (const std::uint64_t s : c.participants) {
        const auto got = shards.outcome(s, c.xid);
        const bool agrees =
            committed ? got == ledger::ShardMap::Outcome::Committed
                      : got == ledger::ShardMap::Outcome::Aborted ||
                            got == ledger::ShardMap::Outcome::Unknown;
        if (!agrees) {
          r.failures.push_back("xshard: " + c.xid + " outcome on shard " +
                               std::to_string(s) + " disagrees");
        }
      }
    }
    r.shape.state_keys = expected_version.size() / kShards + 1;
    fp.add(r.sim_span_s);
    fp.add(r.recovery_sim_ms);
    for (const double v : r.sim_latency_ms) fp.add(v);
    for (const auto& [name, value] : r.counts) fp.add(name + "=" + json_number(value));
    r.fingerprint = fp.hex();
  }
  return r;
}

}  // namespace

RepResult run_shard_local(std::uint64_t seed, const Size& size,
                          Tracer& tracer) {
  return run_sharded(seed, size, 0.0, tracer);
}

RepResult run_shard_2pc(std::uint64_t seed, const Size& size,
                        Tracer& tracer) {
  return run_sharded(seed, size, 0.10, tracer);
}

}  // namespace perfbench
