// Veil end-to-end benchmark: shared types for the workload runners, the
// span tracer, the statistics rules and the JSON output.
//
// Every workload runs in repetitions. One repetition builds a fresh
// deployment from the seed (timed as set-up), drives a fixed number of
// operations through the platform or ledger (the measured phase), then
// checks the result. Repetitions repeat until the measuring time is
// spent, so the work per repetition, and therefore the state size, never
// depends on how fast the host is.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds. The only clock the benchmark reads.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU seconds (user + system, all threads).
double process_cpu_s();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();

// ---- Spans ------------------------------------------------------------------

/// Named spans around the calls the benchmark makes. Nested spans subtract
/// from their parent, so each span's self time is its own. Disabled
/// tracers never read the clock.
class Tracer {
 public:
  struct Stat {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void begin(const char* name);
  void end();
  const std::map<std::string, Stat>& stats() const { return stats_; }

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  bool enabled_;
  std::vector<Open> stack_;
  std::map<std::string, Stat> stats_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name) : tracer_(tracer) {
    if (tracer_.enabled()) tracer_.begin(name);
  }
  ~Span() {
    if (tracer_.enabled()) tracer_.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

// ---- Statistics rules -------------------------------------------------------

/// Median of a sample (mean of the two middle values for even sizes).
double median(std::vector<double> values);

/// Nearest-rank percentile in [0, 100] of a sample.
double percentile(std::vector<double> values, double p);

/// The tail rule: the highest percentile that still has at least
/// `kTailBeyond` samples strictly above it. With n samples that is the
/// (n - kTailBeyond)-th smallest value, at percentile 100 (n - 10) / n.
/// Samples too few for the rule (n <= kTailBeyond) yield the maximum and
/// `valid = false`.
inline constexpr std::size_t kTailBeyond = 10;
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;  // per window
  bool valid = false;
  std::size_t windows = 1;
  std::vector<double> by_window;  // the rule's value in each window
};
Tail tail(std::vector<double> values);

/// The tail rule over repetitions: consecutive repetitions are pooled
/// into windows of at least `min_samples` samples (one repetition when it
/// has that many), the rule is applied per window, and the value is the
/// median over windows (`by_window` keeps them all). The percentile then depends only on the fixed
/// per-repetition sample count, not on how many repetitions fit in the
/// measuring time. A trailing partial window is dropped unless it is the
/// only one.
inline constexpr std::size_t kTailWindow = 100;
Tail windowed_tail(const std::vector<std::vector<double>>& per_rep,
                   std::size_t min_samples = kTailWindow);

/// Outcome accounting for one repetition. Every attempted operation ends
/// in exactly one bucket. Refusals and aborts are outcomes the protocol
/// is allowed to return (lock contention, a no-vote); `unexpected` counts
/// operations that ended in any other way, which the workloads are built
/// never to produce.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t refused_locked = 0;
  std::uint64_t refused_shed = 0;
  std::uint64_t aborted_voteno = 0;
  std::uint64_t aborted_timeout = 0;
  std::uint64_t unexpected = 0;

  std::uint64_t not_committed() const {
    return refused_locked + refused_shed + aborted_voteno + aborted_timeout +
           unexpected;
  }
  /// Refused, shed, lock-rejected and aborted operations over attempted.
  double failed_frac() const;
  /// True when the buckets sum to the attempted count.
  bool balanced() const { return committed + not_committed() == attempted; }
  Accounting& operator+=(const Accounting& o);
};

// ---- Workloads --------------------------------------------------------------

/// Input shapes the timed probes reuse, taken from the run.
struct Shape {
  double batch_mean = 0;      // mean batch-verifier batch size
  double msg_mean_bytes = 0;  // mean network message size
  std::size_t tx_body_bytes = 0;
  std::size_t payload_bytes = 0;  // private payload (0 when none)
  std::size_t state_keys = 0;     // distinct keys in the largest replica
  double wal_record_bytes = 0;
};

/// Operation counts of one repetition, per workload.
struct Size {
  std::size_t ops = 0;       // operations in the measured phase
  std::size_t tail_ops = 0;  // operations while a replica is cut off
};

struct RepResult {
  double setup_s = 0;
  double measured_s = 0;  // wall time of the measured phase
  double cpu_s = 0;       // process CPU over the measured phase
  std::vector<double> call_ms;        // wall time per call into the system
  std::vector<double> sim_latency_ms;  // arrival -> commit, per commit
  double sim_span_s = 0;  // sim time from first arrival to last commit
  /// How late, in sim time, the open-loop generator issued its latest
  /// arrival (0 when every arrival went out on schedule).
  double sim_late_max_ms = 0;
  std::uint64_t measured_commits = 0;
  Accounting acct;  // measured phase
  double recovery_ms = 0;
  double recovery_sim_ms = 0;
  /// Exact per-layer counts, keyed by metric name.
  std::map<std::string, double> counts;
  /// Digest of everything deterministic (state roots, sim metrics):
  /// equal for every repetition with the same seed.
  std::string fingerprint;
  std::vector<std::string> failures;  // correctness-check failures
  Shape shape;
};

struct Workload {
  const char* name;
  Size full;
  Size smoke;  // the size --self-test runs
  RepResult (*run)(std::uint64_t seed, const Size& size, Tracer& tracer);
};

RepResult run_fabric_wave(std::uint64_t seed, const Size& size,
                          Tracer& tracer);
RepResult run_quorum_serial(std::uint64_t seed, const Size& size,
                            Tracer& tracer);
RepResult run_shard_local(std::uint64_t seed, const Size& size,
                          Tracer& tracer);
RepResult run_shard_2pc(std::uint64_t seed, const Size& size,
                        Tracer& tracer);

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Timed probes of each layer's public functions, on inputs shaped by the
/// run. Returns metric name -> value.
std::map<std::string, double> run_probes(const Shape& shape,
                                         std::uint64_t seed);

/// Self-checks of the benchmark's own logic; returns failures.
std::vector<std::string> self_test();

// ---- JSON -------------------------------------------------------------------

std::string json_escape(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench
