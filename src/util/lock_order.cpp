#include "util/lock_order.hpp"

#include "util/thread_safety.hpp"

#if defined(GENFV_LOCK_ORDER)

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "util/log.hpp"

namespace genfv::util::lockdep {

namespace {

// All global lockdep state lives behind one raw std::mutex. It is deliberately
// NOT a util::Mutex — instrumenting the instrumenter would recurse. Nothing is
// ever logged while g_mu is held (log_line takes an instrumented mutex, which
// would re-enter on_acquire and deadlock on g_mu); reports are built under the
// lock and emitted after release.
//
// Fast path: on_acquire only touches g_mu when the thread already holds some
// other lock (nested acquire). Leaf acquisitions — the overwhelming majority —
// only push onto the thread-local held stack.

struct Graph {
  std::mutex mu;
  // Lock classes keyed by *name content*, not literal address: a header-inline
  // `Mutex mu_{"mc.mailbox"}` materializes the literal in several TUs, and
  // all instances must share one node for cross-TU cycles to be visible.
  std::map<std::string, int> class_ids;
  std::vector<std::string> class_names;
  // edges[a] = classes acquired while holding a.
  std::vector<std::set<int>> edges;
  std::vector<std::string> cycles;
};

Graph& graph() {
  static Graph* g = new Graph();  // immortal: threads may lock during exit
  return *g;
}

// Per-thread held stack. Trivially-destructible POD so late accesses during
// thread teardown (e.g. a logging mutex in a thread_local destructor) stay
// well-defined — there is no destructor to have run.
constexpr int kMaxHeld = 64;
struct HeldEntry {
  const void* mutex;
  const char* site;
};
struct HeldStack {
  HeldEntry entries[kMaxHeld];
  int n;
  int overflow;
};
thread_local HeldStack t_held;  // zero-initialized

int class_id_locked(Graph& g, const char* site) {
  auto [it, inserted] = g.class_ids.emplace(site, static_cast<int>(g.class_names.size()));
  if (inserted) {
    g.class_names.emplace_back(site);
    g.edges.emplace_back();
  }
  return it->second;
}

// Is `target` reachable from `from` in the edge graph? Iterative DFS; the
// graph has one node per lock *class* (a handful), so no visited-set reuse
// tricks are needed. Fills `path` with the class chain from -> ... -> target
// when found.
bool find_path_locked(const Graph& g, int from, int target, std::vector<int>& path) {
  std::vector<int> stack{from};
  std::vector<int> parent(g.class_names.size(), -1);
  std::vector<char> seen(g.class_names.size(), 0);
  seen[static_cast<std::size_t>(from)] = 1;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    if (node == target) {
      for (int v = target; v != -1; v = parent[static_cast<std::size_t>(v)]) {
        path.push_back(v);
      }
      std::reverse(path.begin(), path.end());
      return true;
    }
    for (const int next : g.edges[static_cast<std::size_t>(node)]) {
      if (!seen[static_cast<std::size_t>(next)]) {
        seen[static_cast<std::size_t>(next)] = 1;
        parent[static_cast<std::size_t>(next)] = node;
        stack.push_back(next);
      }
    }
  }
  return false;
}

}  // namespace

void on_acquire(const void* mutex, const char* site) noexcept {
  HeldStack& held = t_held;
  std::vector<std::string> new_cycles;
  if (held.n > 0) {
    // Nested acquire: record edges held-class -> new-class, checking each new
    // edge for a cycle before inserting it.
    Graph& g = graph();
    std::lock_guard<std::mutex> lock(g.mu);
    const int to = class_id_locked(g, site);
    for (int i = 0; i < held.n; ++i) {
      const HeldEntry& h = held.entries[i];
      const int from = class_id_locked(g, h.site);
      if (from == to) {
        // Same class nested inside itself. For the same instance this is a
        // guaranteed self-deadlock; for two instances of one class it is an
        // ABBA waiting to happen unless an (undeclared) intra-class order
        // exists. genfv has no such pattern, so both are violations.
        std::string report = "lock-order cycle: ";
        report += g.class_names[static_cast<std::size_t>(to)];
        report += h.mutex == mutex ? " acquired recursively (self-deadlock)"
                                   : " nested within its own class";
        if (g.edges[static_cast<std::size_t>(to)].insert(to).second) {
          g.cycles.push_back(report);
          new_cycles.push_back(std::move(report));
        }
        continue;
      }
      if (g.edges[static_cast<std::size_t>(from)].count(to) != 0) continue;
      // New edge from -> to. If `from` is already reachable from `to`, the
      // combined graph has a cycle: to -> ... -> from -> to.
      std::vector<int> path;
      if (find_path_locked(g, to, from, path)) {
        std::string report = "lock-order cycle: ";
        for (const int cls : path) {
          report += g.class_names[static_cast<std::size_t>(cls)];
          report += " -> ";
        }
        report += g.class_names[static_cast<std::size_t>(to)];
        g.cycles.push_back(report);
        new_cycles.push_back(std::move(report));
      }
      g.edges[static_cast<std::size_t>(from)].insert(to);
    }
  }
  if (held.n < kMaxHeld) {
    held.entries[held.n] = HeldEntry{mutex, site};
    ++held.n;
  } else {
    ++held.overflow;
  }
  for (const std::string& report : new_cycles) {
    log_line(LogLevel::Error, "lockdep", report);
  }
}

void on_release(const void* mutex, const char* /*site*/) noexcept {
  HeldStack& held = t_held;
  // Locks are almost always released LIFO, but std::mutex permits any order;
  // scan from the top for the matching entry.
  for (int i = held.n - 1; i >= 0; --i) {
    if (held.entries[i].mutex == mutex) {
      for (int j = i; j + 1 < held.n; ++j) {
        held.entries[j] = held.entries[j + 1];
      }
      --held.n;
      return;
    }
  }
  if (held.overflow > 0) --held.overflow;
}

bool enabled() noexcept { return true; }

std::size_t cycle_count() noexcept {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.cycles.size();
}

std::vector<std::string> cycle_reports() {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.cycles;
}

std::size_t held_by_this_thread() noexcept {
  return static_cast<std::size_t>(t_held.n + t_held.overflow);
}

void reset() {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  g.class_ids.clear();
  g.class_names.clear();
  g.edges.clear();
  g.cycles.clear();
}

}  // namespace genfv::util::lockdep

#else  // !GENFV_LOCK_ORDER — zero/empty stubs so callers link in any config.

namespace genfv::util::lockdep {

bool enabled() noexcept { return false; }
std::size_t cycle_count() noexcept { return 0; }
std::vector<std::string> cycle_reports() { return {}; }
std::size_t held_by_this_thread() noexcept { return 0; }
void reset() {}

}  // namespace genfv::util::lockdep

#endif  // GENFV_LOCK_ORDER
