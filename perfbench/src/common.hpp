#pragma once

/// \file common.hpp
/// Shared plumbing for genfv_perfbench: options, the seeded input
/// generator, order statistics, and the per-run result every workload fills.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";  ///< checkout root (tests/corpus lives under it)
};

/// The seed a run uses when none is given, and one seed kept out of all
/// tuning so a later claim can be re-checked on inputs it was not tuned on.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7919;

/// Input generator (SplitMix64). Kept in the benchmark's own files so the
/// inputs a seed produces never change with the program under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Derive an independent seed from a parent seed and a stream tag.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  return Rng(seed ^ (tag * 0xD1B54A32D192ED03ULL)).next();
}

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Interquartile range as a share of the median (0 when the median is 0).
inline double relative_iqr(const std::vector<double>& values) {
  const double m = median(values);
  return m == 0.0 ? 0.0 : (quantile(values, 0.75) - quantile(values, 0.25)) / m;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end metrics on an
/// untraced run and the per-layer metrics on a traced run.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;  ///< one line per failed operation

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Per-job row printed before the result: one per (design, flow or engine)
/// or (design, exact/edit) class, aggregated over every pass.
struct JobRow {
  std::string design;
  std::string kind;
  std::string verdict;  ///< last verdict seen ("proven", "unknown", ...)
  std::string note;     ///< remark ("pinned proven", cache outcomes, ...)
  std::uint64_t runs = 0;
  std::uint64_t decided = 0;
  std::uint64_t wrong = 0;
  std::uint64_t conflicts = 0;  ///< summed over runs
  std::vector<double> ms;

  void add(const std::string& v, double elapsed_ms, std::uint64_t c, bool is_decided,
           bool is_wrong) {
    verdict = v;
    ++runs;
    decided += is_decided ? 1 : 0;
    wrong += is_wrong ? 1 : 0;
    conflicts += c;
    ms.push_back(elapsed_ms);
  }
};

/// Print rows as an aligned table (median and p90 time over the runs).
void print_rows(const std::string& title, const std::map<std::string, JobRow>& rows);

/// Each workload. `tracer` is null on an untraced run.
RunResult run_paper_flow(const Options& options, Tracer* tracer);
RunResult run_engine_matrix(const Options& options, Tracer* tracer);
RunResult run_serve_resubmit(const Options& options, Tracer* tracer);

}  // namespace perfbench
