#pragma once

/// \file tracer.hpp
/// The traced run's span recorder. The benchmark records its own spans
/// around every call it makes into a layer (parse, elaborate, LLM round
/// trip, flow, engine, server request), each with its parent span and the
/// request it serves. At every pass boundary `fold` merges them with the
/// spans the program records itself (util::trace_snapshot) and with the
/// metrics-registry deltas, and charges each span's self time — its
/// duration minus the part its child spans cover — to its layer.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Everything the traced passes accumulated.
struct LayerTotals {
  std::size_t passes = 0;
  std::map<std::string, double> self_ns;    ///< layer -> self time
  std::map<std::string, double> engine_ns;  ///< "bmc"/"kind"/"pdr" -> outermost engine time
  std::map<std::string, double> span_ns;    ///< "layer/name" -> total duration
  std::map<std::string, double> span_count;
  std::map<std::string, std::vector<double>> span_ms;  ///< durations of sampled spans
  std::map<std::string, double> registry;   ///< registry counter deltas
  std::uint64_t dropped_events = 0;

  /// `from[key] * scale` per traced pass (0 when absent).
  double per_pass(const std::map<std::string, double>& from, const std::string& key,
                  double scale = 1.0) const;
};

class Tracer {
 public:
  /// Spans whose individual durations are kept (for medians).
  static const std::vector<std::string>& sampled_spans();

  /// Switch the program's telemetry to span recording and start a pass.
  void start();
  /// Switch the program's telemetry off again.
  void stop();

  /// Mark the start of a pass: registry values are read as deltas from here.
  void begin_pass();
  /// Merge the pass's spans and registry deltas into `totals()` and clear
  /// the buffers. Every thread that records spans must be idle.
  void fold();

  /// True between start() and stop(): spans and layer counters are taken.
  bool recording() const { return recording_; }

  const LayerTotals& totals() const { return totals_; }

  /// Write the last folded pass as a Chrome trace-format file.
  bool write_last_pass(const std::string& path) const;

  /// RAII span around one call into `layer`. A null tracer records nothing,
  /// so untraced runs pay one branch.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer, const char* name, std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

 private:
  struct OwnSpan {
    const char* layer;
    const char* name;
    int thread;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    long parent;  ///< index into own_, -1 for a root span
    std::uint64_t request;
  };
  struct Event {
    std::string layer;
    std::string name;
    int thread;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    bool own;
    long parent;            ///< own spans: parent's index among own spans
    std::uint64_t request;  ///< own spans: request served (0 = none)
  };

  bool recording_ = false;
  std::vector<OwnSpan> own_;
  std::vector<std::size_t> open_;  ///< stack of open own spans (one thread)
  std::map<std::string, std::int64_t> registry_before_;
  std::vector<Event> last_pass_;
  LayerTotals totals_;
};

}  // namespace perfbench
