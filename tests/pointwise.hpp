#pragma once

// Numerics check shared by the engine tests: an engine's f64 result against
// the independent per-point evaluator (exec::run_pointwise), judged by the
// conformance harness's own criterion (check::compare_runs) at its default
// ULP budget.  Engine-vs-engine checks stay bit-exact; this one is what ties
// their shared numerics to ground truth.

#include <gtest/gtest.h>

#include <cstdint>

#include "check/conform.hpp"
#include "check/oracles.hpp"
#include "exec/executor.hpp"

namespace msc::exec {

/// `result` was stepped over 1..steps under `bc` from `seeded`; compares
/// its final interior with run_pointwise over the same range.
inline ::testing::AssertionResult matches_pointwise(const ir::StencilDef& st,
                                                    const GridStorage<double>& seeded,
                                                    const GridStorage<double>& result,
                                                    std::int64_t steps,
                                                    Boundary bc = Boundary::ZeroHalo,
                                                    const Bindings& bindings = {}) {
  GridStorage<double> gp(seeded);
  run_pointwise(st, gp, 1, steps, bc, bindings);
  const check::Comparison cmp =
      check::compare_runs(check::run_from_grid(gp, steps), check::run_from_grid(result, steps),
                          check::ConformOptions{}.max_ulps);
  if (cmp.match) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "diverges from run_pointwise: " << cmp.detail;
}

}  // namespace msc::exec
