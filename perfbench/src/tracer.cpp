#include "tracer.hpp"

#include <algorithm>
#include <fstream>

#include "util/telemetry.hpp"

namespace perfbench {
namespace {

/// Layer of a span the program records, by its trace category.
std::string program_layer(const std::string& category) {
  if (category == "pdr" || category == "portfolio") return "mc";
  return category;
}

/// Engine a span runs, or "" when it is no engine entry point. Nested engine
/// spans are charged to the outermost one only.
std::string engine_tag(const std::string& layer, const std::string& name) {
  if (layer != "mc") return "";
  if (name == "bmc" || name == "bmc_check") return "bmc";
  if (name == "k-induction" || name == "kinduction_prove") return "kind";
  if (name == "pdr" || name == "prove_all") return "pdr";
  return "";
}

}  // namespace

double LayerTotals::per_pass(const std::map<std::string, double>& from, const std::string& key,
                             double scale) const {
  const auto it = from.find(key);
  if (it == from.end() || passes == 0) return 0.0;
  return it->second * scale / static_cast<double>(passes);
}

const std::vector<std::string>& Tracer::sampled_spans() {
  static const std::vector<std::string> names = {"serve/recertify", "serve/cache_lookup"};
  return names;
}

void Tracer::start() {
  genfv::util::set_telemetry_level(genfv::util::TelemetryLevel::Tracing);
  genfv::util::trace_reset();
  own_.clear();
  open_.clear();
  recording_ = true;
  begin_pass();
}

void Tracer::stop() {
  genfv::util::set_telemetry_level(genfv::util::TelemetryLevel::Off);
  recording_ = false;
}

void Tracer::begin_pass() { registry_before_ = genfv::util::metrics().snapshot_values(); }

Tracer::Span::Span(Tracer* tracer, const char* layer, const char* name, std::uint64_t request)
    : tracer_(tracer != nullptr && tracer->recording() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  const long parent = tracer_->open_.empty() ? -1 : static_cast<long>(tracer_->open_.back());
  index_ = tracer_->own_.size();
  tracer_->own_.push_back(OwnSpan{layer, name, genfv::util::telemetry_thread_id(),
                                  genfv::util::telemetry_now_ns(), 0, parent, request});
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->own_[index_].end_ns = genfv::util::telemetry_now_ns();
  tracer_->open_.pop_back();
}

void Tracer::fold() {
  std::vector<Event> events;
  events.reserve(own_.size());
  for (const OwnSpan& s : own_) {
    events.push_back(Event{s.layer, s.name, s.thread, s.start_ns, s.end_ns - s.start_ns, true,
                           s.parent, s.request});
  }
  for (const auto& e : genfv::util::trace_snapshot()) {
    if (e.instant) continue;
    events.push_back(Event{program_layer(e.category), e.name, e.thread, e.start_ns, e.dur_ns,
                           false, -1, 0});
  }
  // Per thread, in start order; an enclosing span sorts before the spans it
  // contains (longer first on a tie, the benchmark's own span first).
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
    return a.own && !b.own;
  });

  struct Open {
    const Event* event;
    std::uint64_t end_ns;
    std::uint64_t child_ns;
    bool in_engine;
  };
  std::vector<Open> stack;
  const auto close_top = [&] {
    const Open& top = stack.back();
    const std::uint64_t dur = top.event->dur_ns;
    totals_.self_ns[top.event->layer] +=
        static_cast<double>(dur - std::min(dur, top.child_ns));
    stack.pop_back();
  };
  const auto& sampled = sampled_spans();
  int thread = -1;
  for (const Event& e : events) {
    if (e.thread != thread) {
      while (!stack.empty()) close_top();
      thread = e.thread;
    }
    const std::uint64_t end = e.start_ns + e.dur_ns;
    while (!stack.empty() && stack.back().end_ns < end) close_top();
    bool in_engine = !stack.empty() && stack.back().in_engine;
    if (!stack.empty()) stack.back().child_ns += e.dur_ns;
    const std::string tag = engine_tag(e.layer, e.name);
    if (!tag.empty() && !in_engine) {
      totals_.engine_ns[tag] += static_cast<double>(e.dur_ns);
      in_engine = true;
    }
    const std::string key = e.layer + "/" + e.name;
    totals_.span_ns[key] += static_cast<double>(e.dur_ns);
    ++totals_.span_count[key];
    if (std::find(sampled.begin(), sampled.end(), key) != sampled.end()) {
      totals_.span_ms[key].push_back(static_cast<double>(e.dur_ns) / 1e6);
    }
    stack.push_back(Open{&e, end, 0, in_engine});
  }
  while (!stack.empty()) close_top();

  const auto after = genfv::util::metrics().snapshot_values();
  for (const auto& [name, value] : after) {
    const auto before = registry_before_.find(name);
    const std::int64_t base = before == registry_before_.end() ? 0 : before->second;
    totals_.registry[name] += static_cast<double>(value - base);
  }
  totals_.dropped_events += genfv::util::trace_dropped_events();
  ++totals_.passes;

  last_pass_ = std::move(events);
  genfv::util::trace_reset();
  own_.clear();
  begin_pass();
}

bool Tracer::write_last_pass(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < last_pass_.size(); ++i) {
    const Event& e = last_pass_[i];
    if (i != 0) out << ",";
    out << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.layer << "\"";
    if (e.own) {
      out << ",\"args\":{\"recorder\":\"benchmark\",\"parent\":" << e.parent
          << ",\"request\":" << e.request << "}";
    }
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.thread
        << ",\"ts\":" << static_cast<double>(e.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3 << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
