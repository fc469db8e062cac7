#include "util/log.hpp"

#include <atomic>
#include <cstdio>

#include "util/telemetry.hpp"
#include "util/thread_safety.hpp"

namespace genfv::util {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::Warn)};

// Serializes emission so concurrent portfolio members never interleave
// partial lines on stderr.
Mutex& emit_mutex() {
  static Mutex* mu = new Mutex("log.emit");  // immortal
  return *mu;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::Error: return "ERROR";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Silent: break;
  }
  return "     ";
}
}  // namespace

void set_log_level(LogLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() noexcept {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void log_line(LogLevel level, const std::string& component, const std::string& message) {
  if (static_cast<int>(level) > static_cast<int>(log_level())) return;
  // Timestamps share the telemetry epoch, and the thread id is the trace
  // tid, so a log line correlates directly with spans in a trace file.
  const double seconds = static_cast<double>(telemetry_now_ns()) / 1e9;
  const int tid = telemetry_thread_id();
  MutexLock lock(emit_mutex());
  std::fprintf(stderr, "[%10.3f][T%02d][%s][%s] %s\n", seconds, tid, level_tag(level),
               component.c_str(), message.c_str());
}

}  // namespace genfv::util
