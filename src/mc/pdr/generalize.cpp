#include "mc/pdr/generalize.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/telemetry.hpp"

namespace genfv::mc::pdr {

void repair_initiation(QueryContext& ctx, Cube& g, const Cube& full) {
  if (!ctx.may_intersect_init(g)) return;
  for (const StateLit& l : full) {
    if (std::binary_search(g.begin(), g.end(), l)) continue;
    g.insert(std::lower_bound(g.begin(), g.end(), l), l);
    if (!ctx.may_intersect_init(g)) return;
  }
}

Cube generalize(QueryContext& ctx, const Cube& cube, std::size_t level,
                const std::vector<sat::Lit>& core) {
  GENFV_TRACE_SPAN("pdr", "generalize");
  std::unordered_set<std::int32_t> needed;
  for (const sat::Lit p : core) needed.insert(p.code);
  Cube g;
  for (const StateLit& l : cube) {
    if (needed.count(ctx.cube_lit(1, l).code) != 0) g.push_back(l);
  }
  if (g.empty()) g = cube;
  repair_initiation(ctx, g, cube);

  for (std::size_t i = 0; i < g.size() && g.size() > 1;) {
    Cube cand = g;
    cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
    if (!ctx.may_intersect_init(cand) &&
        ctx.relative_query(cand, level, /*assume_not_cube=*/true, nullptr) ==
            sat::LBool::False) {
      g = std::move(cand);
    } else {
      ++i;
    }
  }
  return g;
}

}  // namespace genfv::mc::pdr
