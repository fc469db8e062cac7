#include "sat/backend.hpp"

#include "sat/solver.hpp"
#include "util/status.hpp"

namespace genfv::sat {

Lit Backend::true_lit() {
  if (true_var_ == kUndefVar) {
    true_var_ = new_var(/*decision=*/false);
    freeze(true_var_);
    const bool ok = add_clause(mk_lit(true_var_));
    GENFV_ASSERT(ok, "asserting the constant-true literal cannot fail");
  }
  return mk_lit(true_var_);
}

std::unique_ptr<Backend> make_backend(const SolverConfig& config) {
  std::unique_ptr<Backend> solver = std::make_unique<Solver>();
  solver->set_conflict_budget(config.conflict_budget);
  solver->set_stop_flag(config.stop);
  solver->set_inprocessing(config.inprocess);
  // Proof logging must start on a pristine solver.
  if (!config.drat_path.empty()) solver->start_proof(config.drat_path);
  return solver;
}

}  // namespace genfv::sat
