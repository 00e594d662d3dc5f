// Recovery-tier cost study: what verified checkpoints buy a rejoining
// replica.
//
//   * BM_QuorumRejoinVsLag — rejoin cost (simulated time + blocks
//     replayed) as the laggard's deficit grows, snapshots off vs on
//     (args: lag, snapshots). Off = replay every missed block. On =
//     trie-node transfer up to the nearest checkpoint + the blocks after.
//   * BM_QuorumRejoinVsChainLength — the headline property: with
//     snapshots on and the LAG held fixed, rejoin cost stays flat as the
//     chain grows (args: chain length).
//   * BM_QuorumRejoinUnderLoss — state transfer to convergence at
//     0-30% uniform message loss, resume loop included (arg: loss %).
//     Sim time under loss is heavy-tailed (retransmit backoff), so each
//     iteration runs the same rejoin on a fixed set of network seeds and
//     the counters are means over all of them.
#include <benchmark/benchmark.h>

#include "ledger/snapshot.hpp"
#include "platforms/quorum/quorum.hpp"

namespace {

using namespace veil;
using common::to_bytes;

struct Fixture {
  net::SimNetwork net;
  common::Rng rng;
  quorum::QuorumNetwork quorum;
  int counter = 0;

  explicit Fixture(std::uint64_t interval, std::uint64_t net_seed = 61)
      : net(common::Rng(net_seed)),
        rng(62),
        quorum(net, crypto::Group::test_group(), rng, /*block_size=*/1,
               ledger::SnapshotConfig{.interval = interval}) {
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);
  }

  void advance(std::uint64_t blocks) {
    for (std::uint64_t i = 0; i < blocks; ++i) {
      quorum.submit_public("NodeA", {{"bench/" + std::to_string(counter++),
                                      to_bytes("v"), false}});
    }
  }

  /// Grow the chain to `chain_len` with NodeC missing the last `lag`
  /// blocks, then release it, ready to rejoin.
  void lag_node_c(std::uint64_t chain_len, std::uint64_t lag) {
    advance(chain_len - lag);
    net.quarantine("NodeC");
    advance(lag);
    net.release("NodeC");
  }
};

void BM_QuorumRejoinVsLag(benchmark::State& state) {
  const auto lag = static_cast<std::uint64_t>(state.range(0));
  const bool snapshots = state.range(1) != 0;
  // Deliberately NOT a multiple of the interval: the nearest checkpoint
  // sits below the sealed height, so snapshot rejoins still replay a
  // real (bounded) delta instead of a degenerate zero.
  constexpr std::uint64_t kChainLen = 94;
  constexpr std::uint64_t kInterval = 8;
  std::uint64_t blocks_replayed = 0;
  std::uint64_t sim_us = 0;
  std::uint64_t rejoins = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Fixture f(snapshots ? kInterval : 0);
    f.lag_node_c(kChainLen, lag);
    const std::uint64_t applied_before = f.quorum.blocks_applied("NodeC");
    const std::uint64_t t0 = f.net.clock().now();
    state.ResumeTiming();
    f.quorum.rejoin("NodeC");
    state.PauseTiming();
    blocks_replayed += f.quorum.blocks_applied("NodeC") - applied_before;
    sim_us += f.net.clock().now() - t0;
    ++rejoins;
    state.ResumeTiming();
  }
  state.counters["lag_blocks"] = static_cast<double>(lag);
  state.counters["snapshots"] = snapshots ? 1.0 : 0.0;
  state.counters["blocks_replayed_per_rejoin"] =
      static_cast<double>(blocks_replayed) / static_cast<double>(rejoins);
  state.counters["sim_us_per_rejoin"] =
      static_cast<double>(sim_us) / static_cast<double>(rejoins);
}
BENCHMARK(BM_QuorumRejoinVsLag)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Unit(benchmark::kMillisecond);

void BM_QuorumRejoinVsChainLength(benchmark::State& state) {
  const auto chain_len = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kLag = 8;
  constexpr std::uint64_t kInterval = 8;
  std::uint64_t blocks_replayed = 0;
  std::uint64_t sim_us = 0;
  std::uint64_t rejoins = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Fixture f(kInterval);
    f.lag_node_c(chain_len, kLag);
    const std::uint64_t applied_before = f.quorum.blocks_applied("NodeC");
    const std::uint64_t t0 = f.net.clock().now();
    state.ResumeTiming();
    f.quorum.rejoin("NodeC");
    state.PauseTiming();
    blocks_replayed += f.quorum.blocks_applied("NodeC") - applied_before;
    sim_us += f.net.clock().now() - t0;
    ++rejoins;
    state.ResumeTiming();
  }
  state.counters["chain_blocks"] = static_cast<double>(chain_len);
  state.counters["blocks_replayed_per_rejoin"] =
      static_cast<double>(blocks_replayed) / static_cast<double>(rejoins);
  state.counters["sim_us_per_rejoin"] =
      static_cast<double>(sim_us) / static_cast<double>(rejoins);
}
// Chain lengths chosen off the interval grid (see above).
BENCHMARK(BM_QuorumRejoinVsChainLength)
    ->Arg(30)
    ->Arg(62)
    ->Arg(126)
    ->Unit(benchmark::kMillisecond);

void BM_QuorumRejoinUnderLoss(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  constexpr std::uint64_t kChainLen = 48;
  constexpr std::uint64_t kLag = 16;
  constexpr std::uint64_t kInterval = 8;
  constexpr std::uint64_t kFirstSeed = 61;
  constexpr std::uint64_t kSeeds = 8;
  std::uint64_t resumes = 0;
  std::uint64_t sim_us = 0;
  std::uint64_t rejoins = 0;
  for (auto _ : state) {
    for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
      state.PauseTiming();
      Fixture f(kInterval, seed);
      f.lag_node_c(kChainLen, kLag);
      f.net.set_drop_probability(loss);
      const std::uint64_t t0 = f.net.clock().now();
      state.ResumeTiming();
      f.quorum.rejoin("NodeC");
      // Loss past the retry budget stalls the transfer; re-drive it. The
      // resume count is part of the measured cost.
      int rounds = 0;
      while (f.quorum.public_chain("NodeC").height() <
                 f.quorum.sealed_height() &&
             rounds < 100) {
        f.quorum.resume_rejoin("NodeC");
        ++rounds;
      }
      state.PauseTiming();
      resumes += static_cast<std::uint64_t>(rounds);
      sim_us += f.net.clock().now() - t0;
      ++rejoins;
      state.ResumeTiming();
    }
  }
  state.counters["loss_pct"] = static_cast<double>(state.range(0));
  state.counters["seeds"] = static_cast<double>(kSeeds);
  state.counters["resumes_per_rejoin"] =
      static_cast<double>(resumes) / static_cast<double>(rejoins);
  state.counters["sim_us_per_rejoin"] =
      static_cast<double>(sim_us) / static_cast<double>(rejoins);
}
BENCHMARK(BM_QuorumRejoinUnderLoss)
    ->Arg(0)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
