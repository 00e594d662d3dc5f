// The workload table and the benchmark's checks of its own logic.
#include <cmath>
#include <thread>

#include "bench.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  // Operation counts are constants: every repetition does the same work.
  static const std::vector<Workload> table = {
      {"fabric-wave", {1024, 128}, {256, 128}, run_fabric_wave},
      {"quorum-serial", {180, 0}, {30, 0}, run_quorum_serial},
      {"shard-local", {4000, 32}, {400, 16}, run_shard_local},
      {"shard-2pc", {200, 32}, {200, 16}, run_shard_2pc},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

void expect(std::vector<std::string>& failures, bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

std::vector<double> range(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the rules must sort
}

}  // namespace

std::vector<std::string> self_test() {
  std::vector<std::string> f;

  // Tail rule: the value with exactly kTailBeyond samples above it.
  const Tail t100 = tail(range(100));
  expect(f, t100.valid && t100.value == 90 && t100.percentile == 90 &&
                t100.samples == 100,
         "tail of 1..100 is p90 = 90");
  const Tail t1000 = tail(range(1000));
  expect(f, t1000.valid && t1000.value == 990 && t1000.percentile == 99,
         "tail of 1..1000 is p99 = 990");
  const Tail t11 = tail(range(11));
  expect(f, t11.valid && t11.value == 1, "tail of 11 samples is the minimum");
  const Tail t10 = tail(range(10));
  expect(f, !t10.valid && t10.value == 10 && t10.percentile == 100,
         "10 samples are too few for the tail rule: report the maximum");
  expect(f, percentile(range(100), 50) == 50, "p50 of 1..100 is 50");
  // 8 samples per repetition pool 13 repetitions into a 104-sample window;
  // 30 repetitions make two full windows and drop the partial third.
  std::vector<std::vector<double>> reps(30);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      reps[i].push_back(static_cast<double>(i < 13 ? 1 : 3));
    }
  }
  const Tail wt = windowed_tail(reps, 100);
  expect(f, wt.windows == 2 && wt.samples == 104 && wt.value == 2 &&
                wt.by_window == std::vector<double>{1, 3} &&
                std::abs(wt.percentile - 100.0 * 94 / 104) < 1e-9,
         "windowed tail: median over full windows");
  const Tail one = windowed_tail({{1, 2, 3}}, 100);
  expect(f, one.windows == 1 && one.samples == 3 && !one.valid,
         "windowed tail keeps a lone partial window");
  expect(f, median(range(4)) == 2.5 && median(range(5)) == 3, "median");

  // Failure accounting.
  Accounting a;
  a.attempted = 10;
  a.committed = 6;
  a.refused_locked = 2;
  a.aborted_voteno = 1;
  a.aborted_timeout = 1;
  expect(f, a.balanced() && std::abs(a.failed_frac() - 0.4) < 1e-12,
         "failed_frac counts refusals and aborts over attempted");
  a.refused_shed = 1;
  expect(f, !a.balanced(), "an operation in two buckets is unbalanced");

  // Spans: nested time is the child's, not the parent's.
  Tracer tracer(true);
  {
    Span outer(tracer, "outer");
    Span inner(tracer, "inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto& stats = tracer.stats();
  expect(f, stats.at("outer").count == 1 && stats.at("inner").count == 1 &&
                stats.at("outer").child_ns == stats.at("inner").total_ns &&
                stats.at("inner").total_ns >= 2'000'000,
         "span self time excludes nested spans");

  // Smoke: every workload at a small size, twice, passes its checks and
  // reproduces its deterministic results.
  for (const Workload& w : workloads()) {
    Tracer off(false);
    const RepResult r1 = w.run(7, w.smoke, off);
    const RepResult r2 = w.run(7, w.smoke, off);
    const std::string name = w.name;
    for (const std::string& failure : r1.failures) f.push_back(name + ": " + failure);
    expect(f, r1.acct.balanced() && r1.measured_commits > 0,
           name + ": accounting balances and something commits");
    expect(f, r1.acct.unexpected == 0, name + ": no unexpected failures");
    expect(f, r1.fingerprint == r2.fingerprint,
           name + ": same seed, same deterministic results");
    expect(f, r1.recovery_ms > 0 && r1.recovery_sim_ms > 0,
           name + ": recovery measured");
    if (name == "shard-2pc") {
      expect(f, r1.acct.not_committed() > 0,
             name + ": contention refuses or aborts some operations");
    }
  }
  return f;
}

}  // namespace perfbench
