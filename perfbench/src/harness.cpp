#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Tracer::begin(const char* name) {
  stack_.push_back(Open{name, now_ns(), 0});
}

void Tracer::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t elapsed = now_ns() - open.start_ns;
  Stat& s = stats_[open.name];
  ++s.count;
  s.total_ns += elapsed;
  s.child_ns += open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += elapsed;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= kTailBeyond) {
    t.value = values.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = values[n - kTailBeyond - 1];
  t.percentile = 100.0 * static_cast<double>(n - kTailBeyond) /
                 static_cast<double>(n);
  t.valid = true;
  return t;
}

Tail windowed_tail(const std::vector<std::vector<double>>& per_rep,
                   std::size_t min_samples) {
  std::vector<std::vector<double>> windows(1);
  for (const std::vector<double>& rep : per_rep) {
    if (windows.back().size() >= min_samples) windows.emplace_back();
    windows.back().insert(windows.back().end(), rep.begin(), rep.end());
  }
  if (windows.size() > 1 && windows.back().size() < min_samples) {
    windows.pop_back();
  }
  std::vector<double> values;
  Tail out;
  for (const std::vector<double>& w : windows) {
    out = tail(w);
    values.push_back(out.value);
  }
  out.value = median(values);
  out.by_window = std::move(values);
  out.windows = windows.size();
  return out;
}

Accounting& Accounting::operator+=(const Accounting& o) {
  attempted += o.attempted;
  committed += o.committed;
  refused_locked += o.refused_locked;
  refused_shed += o.refused_shed;
  aborted_voteno += o.aborted_voteno;
  aborted_timeout += o.aborted_timeout;
  unexpected += o.unexpected;
  return *this;
}

double Accounting::failed_frac() const {
  if (attempted == 0) return 0;
  return static_cast<double>(not_committed()) / static_cast<double>(attempted);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
