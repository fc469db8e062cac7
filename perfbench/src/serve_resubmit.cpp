/// serve_resubmit: regression-farm traffic against an in-process
/// serve::Server (shipped defaults, two workers). Set-up fills the proof
/// cache with one cold submission of each PDR-provable design. The timed
/// phase is a closed loop — one client thread keeping two requests
/// outstanding — in which 90% of requests resubmit a design by name (an
/// exact cache hit, answered by recertification) and 10% submit its RTL with
/// one independent 8-bit register added (a near miss: seeded PDR, then a
/// cache store). The order of the requests and every register increment are
/// drawn from the seed.

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "designs/design.hpp"
#include "harness.hpp"
#include "known_answers.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace genfv;
using serve::Json;

/// The designs PDR proves, at the proof-cache experiment's budgets.
struct Design {
  const char* name;
  int max_k;
};
constexpr Design kDesigns[] = {
    {"sequencer", 32},   {"token_ring", 32}, {"updown_pair", 32},      {"lfsr16", 16},
    {"gray_counter", 16}, {"fifo_ctrl", 24}, {"dual_accumulator", 6},
};
constexpr std::size_t kOutstanding = 2;
/// A deck holds every design kExactPerEdit times by name and once edited
/// (the 90/10 mix, exactly), in seeded order; a pass is kDecksPerPass decks.
/// Every pass thus carries the same work, and its time varies only with the
/// order and the host, not with how often the draw hit the slow designs.
constexpr std::size_t kExactPerEdit = 9;
constexpr std::size_t kDecksPerPass = 3;

/// Collects response lines from the server's worker threads.
class Inbox {
 public:
  serve::Server::Sink sink() {
    return [this](const std::string& line) {
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      lines_.emplace_back(line, now);
      cv_.notify_one();
    };
  }
  std::pair<std::string, Clock::time_point> wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !lines_.empty(); });
    auto front = std::move(lines_.front());
    lines_.pop_front();
    return front;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<std::string, Clock::time_point>> lines_;
};

/// The design's RTL with one independent 8-bit register stepping by
/// `increment` inserted before `endmodule`: the targets and every existing
/// state are unchanged, so the cached clauses still apply.
std::string edited_rtl(const designs::DesignInfo& info, unsigned increment) {
  std::string rtl = info.rtl;
  const std::size_t at = rtl.rfind("endmodule");
  rtl.insert(at, "  logic [7:0] bench_pad;\n"
                 "  always_ff @(posedge clk) begin\n"
                 "    if (rst) bench_pad <= 8'd0;\n"
                 "    else bench_pad <= bench_pad + 8'd" +
                     std::to_string(increment) +
                     ";\n"
                     "  end\n");
  return rtl;
}

Json verify_request(std::uint64_t id, const Design& design, const std::string* rtl) {
  Json request;
  request.set("id", id);
  request.set("op", "verify");
  request.set("max_k", design.max_k);
  if (rtl == nullptr) {
    request.set("design", design.name);
    return request;
  }
  request.set("rtl", *rtl);
  serve::JsonArray properties;
  for (const flow::TargetSpec& target : designs::design_by_name(design.name).targets) {
    Json p;
    p.set("name", target.name);
    p.set("sva", target.sva);
    properties.push_back(p);
  }
  request.set("properties", Json(properties));
  return request;
}

double number(const Json& response, const char* key) {
  const Json* field = response.get(key);
  return field != nullptr && field->is_number() ? field->as_number() : 0.0;
}

std::string text(const Json& response, const char* key) {
  const Json* field = response.get(key);
  return field != nullptr && field->is_string() ? field->as_string() : "";
}

/// One in-process server plus the client that drives it. The inbox is
/// declared first so it outlives the server, whose destructor drains jobs
/// into the sink.
struct Farm {
  struct Pending {
    std::size_t design;
    bool edit;
    Clock::time_point sent;
  };

  Inbox inbox;
  std::unique_ptr<serve::Server> server;
  std::map<std::uint64_t, Pending> pending;
  std::uint64_t next_id = 1;

  Farm() {
    serve::ServerOptions options;
    options.workers = 2;
    server = std::make_unique<serve::Server>(options);
  }

  void send(std::size_t design, const std::string* rtl, Tracer* tracer) {
    const std::uint64_t id = next_id++;
    const std::string line = verify_request(id, kDesigns[design], rtl).dump();
    pending[id] = Pending{design, rtl != nullptr, Clock::now()};
    Tracer::Span span(tracer, "serve", "handle_line", id);
    server->handle_line(line, inbox.sink());
  }

  struct Reply {
    Json response;
    Pending request;
    double latency_ms;
  };
  Reply receive() {
    auto [line, at] = inbox.wait();
    Json response = Json::parse(line);
    const auto id = static_cast<std::uint64_t>(number(response, "id"));
    const Pending request = pending.at(id);
    pending.erase(id);
    return {std::move(response), request,
            std::chrono::duration<double, std::milli>(at - request.sent).count()};
  }

  /// Block until the workers are idle (every answered job retired), so the
  /// trace buffers can be read and cleared.
  void quiesce() const {
    for (;;) {
      const auto stats = server->pool().stats();
      if (stats.queued == 0 && stats.active == 0 &&
          stats.completed >= server->jobs_answered()) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
};

}  // namespace

RunResult run_serve_resubmit(const Options& options, Tracer* tracer) {
  RunResult result;
  const std::size_t design_count = std::size(kDesigns);

  /// Judge one response; returns whether it carried the known answer. A
  /// response carries no trace to replay, and every target of these designs
  /// holds, so any conclusive verdict but "proven" is wrong.
  const auto check = [&](const Json& response, const char* design, const std::string& what) {
    ++result.attempted;
    const Json* ok = response.get("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      result.fail(what + ": error response " + response.dump());
      return false;
    }
    const std::string verdict = text(response, "verdict");
    if (verdict == "proven" && targets_hold(design)) return true;
    if (verdict != "unknown") result.fail(what + ": verdict " + verdict + " is wrong");
    return false;
  };

  // Set-up: a fresh server and a cold submission of every design, answered.
  EndToEnd e2e;
  const auto build = [&] {
    auto built = std::make_unique<Farm>();
    for (std::size_t d = 0; d < design_count; ++d) built->send(d, nullptr, nullptr);
    for (std::size_t d = 0; d < design_count; ++d) {
      const Farm::Reply reply = built->receive();
      const char* name = kDesigns[reply.request.design].name;
      check(reply.response, name, std::string("set-up ") + name);
    }
    return built;
  };
  const auto farm = run_setups(e2e.setup_s, build);
  const SetupResampler setups{[&] { timed_setup(e2e.setup_s, build); }, &e2e.setup_s};
  LayerInputs layer;
  std::map<std::string, JobRow> rows;
  Rng mix(mix_seed(options.seed, 0x5e7e));
  std::vector<double> hit_ms, near_ms, queue_ms;
  double traced_requests = 0, hits = 0, nears = 0, seeded = 0, graduated = 0;

  const std::size_t deck_size = design_count * (kExactPerEdit + 1);
  const std::size_t requests_per_pass = deck_size * kDecksPerPass;
  const auto pass = [&](std::uint64_t) {
    const bool traced = tracer != nullptr && tracer->recording();
    std::vector<std::size_t> order;  // request slot: design * (kExactPerEdit + 1) + copy
    for (std::size_t deck = 0; deck < kDecksPerPass; ++deck) {
      std::vector<std::size_t> slots(deck_size);
      for (std::size_t i = 0; i < deck_size; ++i) slots[i] = i;
      mix.shuffle(slots);
      order.insert(order.end(), slots.begin(), slots.end());
    }
    std::size_t sent = 0;
    std::size_t received = 0;
    while (received < requests_per_pass) {
      while (sent < requests_per_pass && farm->pending.size() < kOutstanding) {
        const std::size_t design = order[sent] / (kExactPerEdit + 1);
        if (order[sent] % (kExactPerEdit + 1) == kExactPerEdit) {
          const unsigned increment = 1 + static_cast<unsigned>(mix.below(255));
          const std::string rtl =
              edited_rtl(designs::design_by_name(kDesigns[design].name), increment);
          farm->send(design, &rtl, tracer);
        } else {
          farm->send(design, nullptr, tracer);
        }
        ++sent;
      }
      const Farm::Reply reply = farm->receive();
      ++received;
      const char* name = kDesigns[reply.request.design].name;
      const char* kind = reply.request.edit ? "edit" : "exact";
      const bool decided = check(reply.response, name, std::string(name) + "/" + kind);
      const std::string cache = text(reply.response, "cache");
      JobRow& row = rows[std::string(name) + "/" + kind];
      row.design = name;
      row.kind = kind;
      if (row.note.find(cache) == std::string::npos) {
        row.note += (row.note.empty() ? "cache " : ",") + cache;
      }
      row.add(text(reply.response, "verdict"), reply.latency_ms,
              static_cast<std::uint64_t>(number(reply.response, "conflicts")), decided,
              !decided && text(reply.response, "verdict") != "unknown");
      if (!traced) {
        e2e.request_ms.push_back(reply.latency_ms);
        e2e.decided += decided ? 1 : 0;
        ++e2e.judged;
        continue;
      }
      ++traced_requests;
      queue_ms.push_back(reply.latency_ms - number(reply.response, "wall_ms"));
      if (cache == "hit") {
        ++hits;
        hit_ms.push_back(reply.latency_ms);
      } else if (cache == "near") {
        ++nears;
        near_ms.push_back(reply.latency_ms);
        seeded += number(reply.response, "candidates_seeded");
        graduated += number(reply.response, "candidates_graduated");
      } else if (cache == "rejected") {
        ++layer.rejected;
      }
    }
  };

  const PhaseTimes times = run_passes(options, tracer, pass, setups, [&] { farm->quiesce(); });
  print_rows("serve_resubmit requests (design / exact or edit)", rows);
  if (tracer == nullptr) {
    e2e.pass_s = times.untraced;
    set_end_to_end(result, e2e);
  } else {
    layer.divide_counts(static_cast<double>(times.traced.size()));
    layer.eliminated_vars = tracer->totals().per_pass(tracer->totals().registry,
                                                        "serve.job.eliminated_vars");
    layer.hit_ms = median(hit_ms);
    layer.near_ms = median(near_ms);
    layer.queue_ms = median(queue_ms);
    layer.hit_share = traced_requests > 0 ? hits / traced_requests : 0.0;
    layer.near_share = traced_requests > 0 ? nears / traced_requests : 0.0;
    layer.seed_yield = seeded > 0 ? graduated / seeded : 0.0;
    layer.cache_entries = static_cast<double>(farm->server->cache().size());
    layer.requests_per_pass = static_cast<double>(requests_per_pass);
    set_layer_metrics(result, *tracer, layer, times);
  }
  return result;
}

}  // namespace perfbench
