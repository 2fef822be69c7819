// Unit tests of the execution engine: grid storage, linearization, the
// generic evaluator, and reference-vs-scheduled executor agreement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "dsl/program.hpp"
#include "exec/eval.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "exec/linearize.hpp"
#include "support/error.hpp"

namespace msc::exec {
namespace {

TEST(GridStorage, GeometryAndSlots) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 6}, 2, 3);
  GridStorage<double> g(t);
  EXPECT_EQ(g.ndim(), 2);
  EXPECT_EQ(g.slots(), 3);
  EXPECT_EQ(g.halo(), 2);
  EXPECT_EQ(g.padded_points(), 8 * 10);
  EXPECT_EQ(g.stride(0), 10);
  EXPECT_EQ(g.stride(1), 1);
}

TEST(GridStorage, ElementTypeMustMatchDtype) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 1);
  EXPECT_THROW(GridStorage<float>{t}, Error);
}

TEST(GridStorage, SlotForTimeWrapsNegatives) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 1, 3);
  GridStorage<double> g(t);
  EXPECT_EQ(g.slot_for_time(0), 0);
  EXPECT_EQ(g.slot_for_time(-1), 2);
  EXPECT_EQ(g.slot_for_time(-2), 1);
  EXPECT_EQ(g.slot_for_time(3), 0);
}

TEST(GridStorage, HaloAndInteriorAddressingDisjoint) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 1);
  GridStorage<double> g(t);
  g.at(0, {0, 0, 0}) = 5.0;
  g.at(0, {-1, -1, 0}) = 7.0;  // halo corner
  EXPECT_DOUBLE_EQ(g.at(0, {0, 0, 0}), 5.0);
  EXPECT_DOUBLE_EQ(g.at(0, {-1, -1, 0}), 7.0);
}

TEST(GridStorage, ZeroHaloClearsOnlyHalo) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {3, 3}, 1);
  GridStorage<double> g(t);
  g.for_each_interior([&](std::array<std::int64_t, 3> c) { g.at(0, c) = 1.0; });
  g.at(0, {-1, 0, 0}) = 9.0;
  g.fill_halo(0, Boundary::ZeroHalo);
  EXPECT_DOUBLE_EQ(g.at(0, {-1, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(g.at(0, {1, 1, 0}), 1.0);
}

TEST(GridStorage, PeriodicHaloWraps) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 1);
  GridStorage<double> g(t);
  g.for_each_interior([&](std::array<std::int64_t, 3> c) {
    g.at(0, c) = static_cast<double>(10 * c[0] + c[1]);
  });
  g.fill_halo(0, Boundary::Periodic);
  EXPECT_DOUBLE_EQ(g.at(0, {-1, 0, 0}), 30.0);  // wraps to row 3
  EXPECT_DOUBLE_EQ(g.at(0, {0, -1, 0}), 3.0);   // wraps to col 3
  EXPECT_DOUBLE_EQ(g.at(0, {4, 4, 0}), 0.0);    // wraps to (0,0)
  EXPECT_DOUBLE_EQ(g.at(0, {-1, -1, 0}), 33.0); // corner wrap
}

TEST(GridStorage, ExternalBoundaryLeavesHaloUntouched) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {3, 3}, 1);
  GridStorage<double> g(t);
  g.at(0, {-1, 0, 0}) = 4.0;
  g.fill_halo(0, Boundary::External);
  EXPECT_DOUBLE_EQ(g.at(0, {-1, 0, 0}), 4.0);
}

TEST(GridStorage, FillRandomDeterministic) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1);
  GridStorage<double> a(t), b(t);
  a.fill_random(0, 42);
  b.fill_random(0, 42);
  EXPECT_DOUBLE_EQ(a.at(0, {3, 3, 0}), b.at(0, {3, 3, 0}));
  b.fill_random(0, 43);
  EXPECT_NE(a.at(0, {3, 3, 0}), b.at(0, {3, 3, 0}));
}

TEST(GridStorage, LargeGridIsZeroEverywhereAndSlotsAreDisjoint) {
  // 130³ f64 slots (128³ plus halos) are on the mapped, pre-faulted path.
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {128, 128, 128}, 1, 3);
  GridStorage<double> g(t);
  ASSERT_EQ(g.padded_points(), 130 * 130 * 130);
  const auto bytes = static_cast<std::size_t>(g.padded_points()) * sizeof(double);
  for (int s = 0; s < g.slots(); ++s) {
    const double* d = g.slot_data(s);
    EXPECT_TRUE(std::all_of(d, d + g.padded_points(), [](double v) { return v == 0.0; }))
        << "slot " << s;
    const auto lo = reinterpret_cast<std::uintptr_t>(d);
    for (int o = 0; o < s; ++o) {
      const auto other = reinterpret_cast<std::uintptr_t>(g.slot_data(o));
      EXPECT_TRUE(lo + bytes <= other || other + bytes <= lo) << "slots " << o << " and " << s;
    }
  }
}

TEST(MaxRelativeError, DetectsDifference) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 0);
  GridStorage<double> a(t), b(t);
  a.for_each_interior([&](std::array<std::int64_t, 3> c) { a.at(0, c) = 2.0; });
  b.for_each_interior([&](std::array<std::int64_t, 3> c) { b.at(0, c) = 2.0; });
  EXPECT_DOUBLE_EQ(max_relative_error(a, 0, b, 0), 0.0);
  a.at(0, {1, 1, 0}) = 2.2;
  EXPECT_NEAR(max_relative_error(a, 0, b, 0), 0.1, 1e-12);
}

// ---- linearization --------------------------------------------------------

TEST(Linearize, AffineSumOfProducts) {
  auto B = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 3);
  auto acc = [&](std::int64_t dj, std::int64_t di) {
    return ir::make_access(B, {{"j", dj}, {"i", di}});
  };
  // 0.5*B[j,i-1] - 2*B[j+1,i] + B[j,i]
  auto rhs = ir::make_binary(
      ir::BinaryOp::Add,
      ir::make_binary(ir::BinaryOp::Sub,
                      ir::make_binary(ir::BinaryOp::Mul, ir::make_float(0.5), acc(0, -1)),
                      ir::make_binary(ir::BinaryOp::Mul, ir::make_float(2.0), acc(1, 0))),
      acc(0, 0));
  auto k = ir::make_kernel("k", ir::make_te_tensor("o", B), ir::default_axes(B), rhs);
  const auto lin = linearize(*k, {});
  ASSERT_TRUE(lin.has_value());
  ASSERT_EQ(lin->terms.size(), 3u);
  EXPECT_DOUBLE_EQ(lin->terms[0].coeff, 0.5);
  EXPECT_EQ(lin->terms[0].offset[1], -1);
  EXPECT_DOUBLE_EQ(lin->terms[1].coeff, -2.0);
  EXPECT_EQ(lin->terms[1].offset[0], 1);
  EXPECT_DOUBLE_EQ(lin->terms[2].coeff, 1.0);
}

TEST(Linearize, HandlesNegationAndVarBindings) {
  auto B = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 3);
  auto acc = ir::make_access(B, {{"j", 0}, {"i", 0}});
  auto rhs = ir::make_unary(ir::UnaryOp::Neg,
                            ir::make_binary(ir::BinaryOp::Mul,
                                            ir::make_var("c", ir::DataType::f64), acc));
  auto k = ir::make_kernel("k", ir::make_te_tensor("o", B), ir::default_axes(B), rhs);
  EXPECT_FALSE(linearize(*k, {}).has_value());  // unbound var
  const auto lin = linearize(*k, {{"c", 3.0}});
  ASSERT_TRUE(lin.has_value());
  EXPECT_DOUBLE_EQ(lin->terms[0].coeff, -3.0);
}

TEST(Linearize, RejectsDivision) {
  auto B = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 3);
  auto acc = ir::make_access(B, {{"j", 0}, {"i", 0}});
  auto rhs = ir::make_binary(ir::BinaryOp::Div, acc, ir::make_float(2.0));
  auto k = ir::make_kernel("k", ir::make_te_tensor("o", B), ir::default_axes(B), rhs);
  EXPECT_FALSE(linearize(*k, {}).has_value());
}

// ---- generic evaluator -----------------------------------------------------

TEST(Eval, ArithmeticAndCalls) {
  EvalEnv env;
  env.axis_values["i"] = 4;
  auto e = ir::make_binary(ir::BinaryOp::Max, ir::make_float(2.0),
                           ir::make_call("sqrt", {ir::make_var("i", ir::DataType::f64)},
                                         ir::DataType::f64));
  EXPECT_DOUBLE_EQ(eval_expr(e, env), 2.0);
  env.axis_values["i"] = 16;
  auto e2 = ir::make_call("sqrt", {ir::make_var("i", ir::DataType::f64)}, ir::DataType::f64);
  EXPECT_DOUBLE_EQ(eval_expr(e2, env), 4.0);
}

TEST(Eval, DivisionByZeroThrows) {
  EvalEnv env;
  auto e = ir::make_binary(ir::BinaryOp::Div, ir::make_float(1.0), ir::make_float(0.0));
  EXPECT_THROW(eval_expr(e, env), Error);
}

TEST(Eval, UnboundVariableThrows) {
  EvalEnv env;
  EXPECT_THROW(eval_expr(ir::make_var("ghost", ir::DataType::f64), env), Error);
}

// ---- executors --------------------------------------------------------

/// Builds a 2-time-dep 2-D star stencil program for executor tests.
struct ExecProgram {
  std::unique_ptr<dsl::Program> prog;
  ExecProgram(std::int64_t n, bool with_schedule) {
    prog = std::make_unique<dsl::Program>("exec_test");
    dsl::Var j = prog->var("j"), i = prog->var("i");
    dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, ir::DataType::f64, n, n);
    auto& k = prog->kernel("k", {j, i},
                           dsl::ExprH(0.3) * B(j, i) + dsl::ExprH(0.15) * B(j, i - 1) +
                               dsl::ExprH(0.15) * B(j, i + 1) + dsl::ExprH(0.2) * B(j - 1, i) +
                               dsl::ExprH(0.2) * B(j + 1, i));
    if (with_schedule) {
      k.tile({8, 8})
          .reorder({"j_outer", "i_outer", "j_inner", "i_inner"})
          .cache_read("B", "rbuf")
          .cache_write("wbuf")
          .compute_at("rbuf", "i_outer")
          .compute_at("wbuf", "i_outer")
          .parallel("j_outer", 4);
    }
    prog->def_stencil("st", B, 0.7 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2]);
  }
};

TEST(Executor, ScheduledMatchesReferenceBitExact) {
  ExecProgram ep(30, /*with_schedule=*/true);  // 30 % 8 != 0: remainder tiles
  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {30, 30}, 1, 3);
  GridStorage<double> a(grid), b(grid);
  for (int s = 0; s < 3; ++s) {
    a.fill_random(s, 11 + static_cast<std::uint64_t>(s));
    b.fill_random(s, 11 + static_cast<std::uint64_t>(s));
  }
  ExecStats stats;
  run_scheduled(ep.prog->stencil(), ep.prog->primary_schedule(), a, 1, 6,
                Boundary::ZeroHalo, {}, &stats);
  run_reference(ep.prog->stencil(), b, 1, 6, Boundary::ZeroHalo);
  // Identical term order -> identical floating-point result.
  EXPECT_EQ(max_relative_error(a, a.slot_for_time(6), b, b.slot_for_time(6)), 0.0);
  EXPECT_EQ(stats.timesteps, 6);
  EXPECT_EQ(stats.points_updated, 6 * 30 * 30);
  EXPECT_GT(stats.tiles_executed, 0);
  EXPECT_GT(stats.staged_bytes_in, 0);
}

TEST(Executor, PeriodicBoundaryMatches) {
  ExecProgram ep(16, true);
  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {16, 16}, 1, 3);
  GridStorage<double> a(grid), b(grid);
  for (int s = 0; s < 3; ++s) {
    a.fill_random(s, 5 + static_cast<std::uint64_t>(s));
    b.fill_random(s, 5 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(ep.prog->stencil(), ep.prog->primary_schedule(), a, 1, 4, Boundary::Periodic);
  run_reference(ep.prog->stencil(), b, 1, 4, Boundary::Periodic);
  EXPECT_EQ(max_relative_error(a, a.slot_for_time(4), b, b.slot_for_time(4)), 0.0);
}

TEST(Executor, LoopPlanValidatesCoverage) {
  ExecProgram ep(16, true);
  const auto plan = build_loop_plan(ep.prog->primary_schedule());
  EXPECT_EQ(plan.ndim, 2);
  EXPECT_EQ(plan.levels.size(), 4u);
  EXPECT_EQ(plan.parallel_depth, 0);
  EXPECT_EQ(plan.read_stage_depth, 1);
  EXPECT_GT(plan.tiles_per_step, 0);
  EXPECT_GT(plan.tile_bytes_read, 0);
}

TEST(Executor, StencilLinearizationCombinesWeights) {
  ExecProgram ep(16, false);
  const auto lin = linearize_stencil(ep.prog->stencil(), {});
  ASSERT_TRUE(lin.has_value());
  // 5 spatial terms x 2 time terms.
  EXPECT_EQ(lin->terms.size(), 10u);
  // First time term scaled by 0.7.
  EXPECT_NEAR(lin->terms[0].coeff, 0.3 * 0.7, 1e-15);
  EXPECT_EQ(lin->terms[0].time_offset, -1);
  EXPECT_NEAR(lin->terms[5].coeff, 0.3 * 0.3, 1e-15);
  EXPECT_EQ(lin->terms[5].time_offset, -2);
}

TEST(Executor, GenericFallbackForNonAffineStencil) {
  // A stencil with min() falls off the affine path; run_reference must
  // still execute it (and run_scheduled must refuse).
  dsl::Program prog("nonaffine");
  dsl::Var j = prog.var("j"), i = prog.var("i");
  dsl::GridRef B = prog.def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 8, 8);
  auto& k = prog.kernel("clamp", {j, i}, dsl::min(B(j, i), dsl::ExprH(0.5)));
  prog.def_stencil("st", B, k[prog.t() - 1]);
  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 2);
  GridStorage<double> g(grid);
  g.for_each_interior([&](std::array<std::int64_t, 3> c) {
    g.at(g.slot_for_time(0), c) = static_cast<double>(c[1]);
  });
  run_reference(prog.stencil(), g, 1, 1, Boundary::ZeroHalo);
  EXPECT_DOUBLE_EQ(g.at(g.slot_for_time(1), {0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(g.at(g.slot_for_time(1), {0, 3, 0}), 0.5);
  EXPECT_THROW(run_scheduled(prog.stencil(), prog.primary_schedule(), g, 1, 1,
                             Boundary::ZeroHalo),
               Error);
}

TEST(Executor, ThreeDStencilSchedulesCorrectly) {
  dsl::Program prog("exec3d");
  dsl::Var k = prog.var("k"), j = prog.var("j"), i = prog.var("i");
  dsl::GridRef B = prog.def_tensor_3d_timewin("B", 2, 1, ir::DataType::f64, 12, 10, 14);
  auto& kn = prog.kernel("lap", {k, j, i},
                         dsl::ExprH(0.4) * B(k, j, i) + dsl::ExprH(0.1) * B(k, j, i - 1) +
                             dsl::ExprH(0.1) * B(k, j, i + 1) + dsl::ExprH(0.1) * B(k, j - 1, i) +
                             dsl::ExprH(0.1) * B(k, j + 1, i) + dsl::ExprH(0.1) * B(k - 1, j, i) +
                             dsl::ExprH(0.1) * B(k + 1, j, i));
  kn.tile({4, 5, 7})
      .reorder({"k_outer", "j_outer", "i_outer", "k_inner", "j_inner", "i_inner"})
      .parallel("k_outer", 3);
  prog.def_stencil("st", B, 0.5 * kn[prog.t() - 1] + 0.5 * kn[prog.t() - 2]);

  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {12, 10, 14}, 1, 3);
  GridStorage<double> a(grid), b(grid);
  for (int s = 0; s < 3; ++s) {
    a.fill_random(s, 77 + static_cast<std::uint64_t>(s));
    b.fill_random(s, 77 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(prog.stencil(), prog.primary_schedule(), a, 1, 3, Boundary::ZeroHalo);
  run_reference(prog.stencil(), b, 1, 3, Boundary::ZeroHalo);
  EXPECT_EQ(max_relative_error(a, a.slot_for_time(3), b, b.slot_for_time(3)), 0.0);
}

TEST(Executor, RejectsEmptyTimeRange) {
  ExecProgram ep(8, false);
  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 3);
  GridStorage<double> g(grid);
  EXPECT_THROW(run_reference(ep.prog->stencil(), g, 5, 4, Boundary::ZeroHalo), Error);
}

}  // namespace
}  // namespace msc::exec
