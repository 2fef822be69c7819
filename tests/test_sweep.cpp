// Unit + differential tests of the compiled row-sweep engine (exec/sweep):
// lowering coverage/clamping, bit-exact agreement between the scheduled
// sweep and the full-tile reference sweep across random conformance cases
// (with the f64 numerics of both checked against the independent per-point
// evaluator), the wide-stencil (register-blocked) row kernel, and the
// row-based grid primitives' order guarantees.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <type_traits>
#include <vector>

#include "check/case_gen.hpp"
#include "check/golden.hpp"
#include "dsl/program.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "exec/sweep.hpp"
#include "exec/temporal_sweep.hpp"
#include "support/rng.hpp"
#include "workload/stencils.hpp"

#include "pointwise.hpp"

namespace msc::exec {
namespace {

// ---- lowering ------------------------------------------------------------

TEST(LowerSweep, TilesCoverExtentExactlyOnce) {
  auto prog = std::make_unique<dsl::Program>("cov");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 13, 17);
  auto& k = prog->kernel("k", {j, i}, dsl::ExprH(0.5) * B(j, i));
  k.tile({4, 5}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  prog->def_stencil("st", B, k[prog->t() - 1]);

  const SweepPlan plan = lower_sweep(build_loop_plan(prog->primary_schedule()));
  // 13/4 -> 4 tiles, 17/5 -> 4 tiles.
  EXPECT_EQ(plan.tiles.size(), 16u);
  std::vector<int> hits(13 * 17, 0);
  std::int64_t points = 0;
  for (const auto& t : plan.tiles) {
    EXPECT_LE(t.hi[0], 13);  // remainder clamped at lowering, not at run time
    EXPECT_LE(t.hi[1], 17);
    for (std::int64_t a = t.lo[0]; a < t.hi[0]; ++a)
      for (std::int64_t b = t.lo[1]; b < t.hi[1]; ++b, ++points)
        ++hits[static_cast<std::size_t>(a * 17 + b)];
  }
  EXPECT_EQ(points, 13 * 17);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(LowerSweep, UntiledParallelAxisSplitsIntoBlocks) {
  auto prog = std::make_unique<dsl::Program>("par");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 8, 8);
  auto& k = prog->kernel("k", {j, i}, dsl::ExprH(0.5) * B(j, i));
  k.parallel("j", 4);
  prog->def_stencil("st", B, k[prog->t() - 1]);

  const SweepPlan plan = lower_sweep(build_loop_plan(prog->primary_schedule()));
  EXPECT_TRUE(plan.parallel);
  EXPECT_EQ(plan.tiles.size(), 4u);
  std::int64_t points = 0;
  for (const auto& t : plan.tiles) points += (t.hi[0] - t.lo[0]) * (t.hi[1] - t.lo[1]);
  EXPECT_EQ(points, 8 * 8);
}

TEST(LowerSweep, ThreadsBeyondTripStillCoverEverything) {
  // 3 rows, 8 requested threads: the lowering must not produce empty or
  // overlapping tiles.
  auto prog = std::make_unique<dsl::Program>("overpar");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 3, 5);
  auto& k = prog->kernel("k", {j, i}, dsl::ExprH(0.5) * B(j, i));
  k.parallel("j", 8);
  prog->def_stencil("st", B, k[prog->t() - 1]);

  const SweepPlan plan = lower_sweep(build_loop_plan(prog->primary_schedule()));
  std::int64_t points = 0;
  for (const auto& t : plan.tiles) {
    EXPECT_GT(t.hi[0], t.lo[0]);
    points += (t.hi[0] - t.lo[0]) * (t.hi[1] - t.lo[1]);
  }
  EXPECT_EQ(points, 3 * 5);
}

// ---- scheduled vs reference, bit for bit ---------------------------------

// Runs the scheduled sweep (the schedule's tiles, remainders, parallel
// chunks) and the reference sweep (one full-interior tile) from the same
// seeded state and requires bit-identical interiors at the final step; f64
// cases also check the shared numerics against run_pointwise.
template <typename T>
void expect_paths_bit_identical(const ir::StencilDef& st, const schedule::Schedule& sched,
                                std::int64_t steps, std::uint64_t seed) {
  GridStorage<T> gr(st.state());
  for (int s = 0; s < gr.slots(); ++s) gr.fill_random(s, seed + static_cast<std::uint64_t>(s));
  const GridStorage<T> seeded(gr);
  GridStorage<T> gc(gr);
  run_reference(st, gr, 1, steps, Boundary::ZeroHalo);
  run_scheduled(st, sched, gc, 1, steps, Boundary::ZeroHalo);
  const int fs = gr.slot_for_time(steps);
  const auto vr = gr.interior_values(fs);
  const auto vc = gc.interior_values(fs);
  ASSERT_EQ(vr.size(), vc.size());
  for (std::size_t p = 0; p < vr.size(); ++p) {
    ASSERT_EQ(vr[p], vc[p]) << "first divergence at flat index " << p;
  }
  if constexpr (std::is_same_v<T, double>) {
    EXPECT_TRUE(matches_pointwise(st, seeded, gr, steps));
  }
}

TEST(SweepVsReference, RandomConformanceCasesBitIdentical) {
  int ran = 0;
  for (std::uint64_t seed = 1; seed <= 40 && ran < 12; ++seed) {
    const auto spec = check::random_case(seed);
    auto prog = check::build_program(spec);
    if (!linearize_stencil(prog->stencil(), prog->bindings()).has_value()) continue;
    SCOPED_TRACE(check::describe(spec));
    expect_paths_bit_identical<double>(prog->stencil(), prog->primary_schedule(),
                                       spec.timesteps, seed * 97 + 5);
    ++ran;
  }
  EXPECT_GE(ran, 8) << "case generator stopped producing affine cases";
}

TEST(SweepVsReference, RemainderTilesBitIdentical) {
  // Extents deliberately not divisible by the tile in any dimension.
  auto prog = std::make_unique<dsl::Program>("rem");
  auto kvar = prog->var("k"), j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_3d_timewin("B", 2, 1, ir::DataType::f64, 11, 9, 13);
  auto& k = prog->kernel("k", {kvar, j, i},
                         dsl::ExprH(0.4) * B(kvar, j, i) + dsl::ExprH(0.15) * B(kvar - 1, j, i) +
                             dsl::ExprH(0.15) * B(kvar + 1, j, i) +
                             dsl::ExprH(0.15) * B(kvar, j - 1, i) +
                             dsl::ExprH(0.15) * B(kvar, j + 1, i));
  k.tile({4, 4, 8}).reorder({"k_outer", "j_outer", "i_outer", "k_inner", "j_inner", "i_inner"});
  prog->def_stencil("st", B, 0.6 * k[prog->t() - 1] + 0.4 * k[prog->t() - 2]);
  expect_paths_bit_identical<double>(prog->stencil(), prog->primary_schedule(), 3, 11);
}

TEST(SweepVsReference, ParallelThreadsBeyondTripBitIdentical) {
  auto prog = std::make_unique<dsl::Program>("overpar2");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 3, 64);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.5) * B(j, i - 1) + dsl::ExprH(0.5) * B(j, i + 1));
  k.parallel("j", 16);
  prog->def_stencil("st", B, k[prog->t() - 1]);
  expect_paths_bit_identical<double>(prog->stencil(), prog->primary_schedule(), 4, 3);
}

TEST(SweepVsReference, DeepTimeWindowBitIdentical) {
  auto prog = std::make_unique<dsl::Program>("deep");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 3, 1, ir::DataType::f64, 12, 12);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.25) * B(j - 1, i) + dsl::ExprH(0.25) * B(j + 1, i) +
                             dsl::ExprH(0.25) * B(j, i - 1) + dsl::ExprH(0.25) * B(j, i + 1));
  k.tile({4, 4}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  prog->def_stencil("st", B,
                    0.5 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2] + 0.2 * k[prog->t() - 3]);
  expect_paths_bit_identical<double>(prog->stencil(), prog->primary_schedule(), 5, 21);
}

TEST(SweepVsReference, Fp32BitIdentical) {
  auto prog = std::make_unique<dsl::Program>("f32sweep");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, ir::DataType::f32, 18, 14);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.5) * B(j, i - 1) + dsl::ExprH(0.5) * B(j, i + 1));
  k.tile({8, 8}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  prog->def_stencil("st", B, 0.5 * k[prog->t() - 1] + 0.5 * k[prog->t() - 2]);
  expect_paths_bit_identical<float>(prog->stencil(), prog->primary_schedule(), 4, 7);
}

// ---- temporal engine pinned against committed golden checksums ------------

// The golden-matrix programs {3d7pt_star, heat2d} run through the
// per-step sweep engine from a fixed seed; their per-slot interior
// checksums are committed in tests/golden/temporal_pin.txt (hexfloat, so
// the comparison is exact).  The test then reruns both programs through
// the temporal engine at wedge depths 2 and 8 and requires bit-identical
// slots — proving the temporal engine cannot drift from the per-step
// engine's committed outputs.  Regenerate (after a reviewed numeric
// change only) with MSC_UPDATE_TEMPORAL_PIN=1.
TEST(TemporalGoldenPin, EngineMatchesCommittedChecksums) {
  const std::int64_t steps = 8;
  const std::string pin_path = std::string(MSC_GOLDEN_DIR) + "/temporal_pin.txt";

  std::vector<std::string> lines;
  for (const char* name : {"3d7pt_star", "heat2d"}) {
    auto prog = check::golden_program({name, "openmp"});
    const auto& st = prog->stencil();
    const auto& sched = prog->primary_schedule();

    GridStorage<double> base(st.state());
    for (int s = 0; s < base.slots(); ++s)
      base.fill_random(s, 4242 + static_cast<std::uint64_t>(s));
    run_scheduled(st, sched, base, 1, steps, Boundary::ZeroHalo);

    for (std::int64_t depth : {2, 8}) {
      GridStorage<double> temporal(st.state());
      for (int s = 0; s < temporal.slots(); ++s)
        temporal.fill_random(s, 4242 + static_cast<std::uint64_t>(s));
      TemporalOptions opts;
      opts.wedge_depth = depth;
      TemporalExecInfo info;
      run_scheduled_temporal(st, sched, temporal, 1, steps, Boundary::ZeroHalo, {}, nullptr,
                             &info, opts);
      ASSERT_TRUE(info.temporal) << info.fallback_reason;
      for (int s = 0; s < base.slots(); ++s)
        ASSERT_EQ(base.interior_values(s), temporal.interior_values(s))
            << name << " wedge depth " << depth << " slot " << s;
    }

    for (int s = 0; s < base.slots(); ++s) {
      std::ostringstream line;
      line << name << " slot" << s << " " << std::hexfloat << base.interior_checksum(s);
      lines.push_back(line.str());
    }
  }

  if (std::getenv("MSC_UPDATE_TEMPORAL_PIN") != nullptr) {
    std::ofstream out(pin_path);
    out << "# msc-temporal-pin-v1: per-slot interior checksums (hexfloat) of the\n"
           "# per-step sweep engine on the golden-matrix programs, seed 4242,\n"
           "# 8 timesteps.  The temporal engine must reproduce them bit for bit;\n"
           "# regenerate with MSC_UPDATE_TEMPORAL_PIN=1 after a reviewed change.\n";
    for (const auto& l : lines) out << l << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << pin_path;
    GTEST_SKIP() << "temporal pin regenerated at " << pin_path;
  }

  std::ifstream in(pin_path);
  ASSERT_TRUE(in.good()) << "missing " << pin_path
                         << "; regenerate with MSC_UPDATE_TEMPORAL_PIN=1";
  std::vector<std::string> want;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty() && line[0] != '#') want.push_back(line);
  EXPECT_EQ(want, lines) << "numeric drift against the committed temporal pin";
}

// ---- wide kernels (register-blocked formulation) -------------------------

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Past kFusedTermLimit a row runs the register-blocked kernel: blocks of
// vector accumulators, then single-vector steps, then a scalar tail.  Every
// term count and row length below (odd bases, so rows start unaligned) must
// match the per-point loop bit for bit and write nothing outside the row.
template <typename T>
void expect_wide_rows_match_point_loop() {
  Rng rng(123);
  std::vector<T> backing(2048);
  for (auto& v : backing) v = static_cast<T>(rng.next_real(-1.0, 1.0));
  const T sentinel = static_cast<T>(-7.0);

  for (std::size_t nt : {1u, 7u, 16u, 17u, 18u, 31u, 32u, 33u, 40u, 121u, 242u}) {
    std::vector<detail::ResolvedTerm<T>> terms;
    for (std::size_t k = 0; k < nt; ++k)
      terms.push_back({rng.next_real(-1.0, 1.0), static_cast<std::int64_t>(k % 11) - 5,
                       backing.data() + 64 + 13 * static_cast<std::int64_t>(k % 9)});
    for (std::int64_t n : {1, 3, 4, 5, 15, 16, 17, 31, 33, 300}) {
      for (std::int64_t base : {7, 13}) {
        std::vector<T> a(512, sentinel), b(512, sentinel);
        detail::sweep_row(a.data(), base, n, terms);
        for (std::int64_t i = 0; i < n; ++i) detail::sweep_point_linear(b.data(), base + i, terms);
        ASSERT_TRUE(same_bits(a, b)) << "nt=" << nt << " n=" << n << " base=" << base;
        ASSERT_EQ(a[static_cast<std::size_t>(base + n)], sentinel) << "wrote past n";
      }
    }
  }
}

TEST(SweepRow, WideTermCountsMatchPointLoopBitwise) {
  expect_wide_rows_match_point_loop<double>();
  expect_wide_rows_match_point_loop<float>();
}

// 2d121pt_box (242 terms) on an odd 37x53 extent, so every 53-point row
// runs a full block, single-vector steps and a scalar tail: the parallel
// sweep and the wedge engine must both reproduce the reference sweep bit
// for bit, and its numerics must match the per-point evaluator.
TEST(SweepVsReference, BigBoxOddExtentBitIdentical) {
  auto prog = workload::make_program(workload::benchmark("2d121pt_box"), ir::DataType::f64,
                                     {37, 53, 0});
  prog->primary_kernel().parallel("j", 4);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();
  ASSERT_STREQ(sweep_route(linearize_stencil(st, prog->bindings())->terms.size()), "blocked");

  const std::int64_t steps = 3;
  GridStorage<double> gr(st.state());
  for (int s = 0; s < gr.slots(); ++s) gr.fill_random(s, 77 + static_cast<std::uint64_t>(s));
  const GridStorage<double> seeded(gr);
  GridStorage<double> gs(gr), gt(gr);
  run_reference(st, gr, 1, steps, Boundary::ZeroHalo, prog->bindings());
  run_scheduled(st, sched, gs, 1, steps, Boundary::ZeroHalo, prog->bindings());
  TemporalOptions opts;
  opts.wedge_depth = 2;
  TemporalExecInfo info;
  run_scheduled_temporal(st, sched, gt, 1, steps, Boundary::ZeroHalo, prog->bindings(), nullptr,
                         &info, opts);
  ASSERT_TRUE(info.temporal) << info.fallback_reason;
  for (int s = 0; s < gr.slots(); ++s) {
    EXPECT_TRUE(same_bits(gr.interior_values(s), gs.interior_values(s))) << "sweep slot " << s;
    EXPECT_TRUE(same_bits(gr.interior_values(s), gt.interior_values(s))) << "wedge slot " << s;
  }
  EXPECT_TRUE(matches_pointwise(st, seeded, gr, steps, Boundary::ZeroHalo, prog->bindings()));
}

// ---- non-affine fallback -------------------------------------------------

TEST(RunReference, NonAffineStencilUsesEvalFallback) {
  auto prog = std::make_unique<dsl::Program>("sq");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 6, 6);
  auto& k = prog->kernel("k", {j, i}, B(j, i) * B(j, i));  // non-linear read
  prog->def_stencil("st", B, k[prog->t() - 1]);
  ASSERT_FALSE(linearize_stencil(prog->stencil(), prog->bindings()).has_value());

  GridStorage<double> g(prog->stencil().state());
  g.for_each_interior([&](std::array<std::int64_t, 3> c) { g.at(0, c) = 3.0; });
  run_reference(prog->stencil(), g, 1, 1, Boundary::ZeroHalo);
  const int fs = g.slot_for_time(1);
  g.for_each_interior(
      [&](std::array<std::int64_t, 3> c) { ASSERT_DOUBLE_EQ(g.at(fs, c), 9.0); });
}

// ---- row-based grid primitives -------------------------------------------

TEST(GridRows, FillRandomMatchesPerPointOrder) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {5, 7}, 2, 2);
  GridStorage<double> g(t);
  g.fill_random(0, 42);
  // Hand per-point loop consuming the Rng in for_each_interior order.
  Rng rng(42);
  g.for_each_interior([&](std::array<std::int64_t, 3> c) {
    ASSERT_EQ(g.at(0, c), rng.next_real(-1.0, 1.0));
  });
}

TEST(GridRows, ChecksumAndValuesMatchPerPointOrder) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 3, 6}, 1, 2);
  GridStorage<double> g(t);
  g.fill_random(1, 9);
  double sum = 0.0;
  std::vector<double> vals;
  g.for_each_interior([&](std::array<std::int64_t, 3> c) {
    sum += g.at(1, c);
    vals.push_back(g.at(1, c));
  });
  EXPECT_EQ(g.interior_checksum(1), sum);  // same order => same rounding
  EXPECT_EQ(g.interior_values(1), vals);
}

TEST(GridRows, ZeroHaloClearsExactlyTheHalo) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 5, 6}, 2, 1);
  GridStorage<double> g(t);
  // Poison everything (halo included), then zero the halo.
  double* d = g.slot_data(0);
  for (std::int64_t p = 0; p < g.padded_points(); ++p) d[p] = 7.0;
  g.fill_halo(0, Boundary::ZeroHalo);
  g.for_each_interior(
      [&](std::array<std::int64_t, 3> c) { ASSERT_DOUBLE_EQ(g.at(0, c), 7.0); });
  double total = 0.0;
  for (std::int64_t p = 0; p < g.padded_points(); ++p) total += d[p];
  EXPECT_DOUBLE_EQ(total, 7.0 * 4 * 5 * 6);  // every halo cell is zero
}

TEST(GridStorageCopy, CopyPreservesPayloadBitwise) {
  // Regression: slot payloads live at a page-aligned, address-dependent
  // offset; a byte-for-byte buffer copy silently shifted the data.
  // Small slots (a heap allocation each) and 2 MiB-aligned mapped ones;
  // the payload compare covers the halos.  Several live copies make it
  // likely that some land at another offset modulo the page.
  for (const std::int64_t n : {std::int64_t{9}, std::int64_t{600}}) {
    SCOPED_TRACE(n);
    auto t = ir::make_sp_tensor("B", ir::DataType::f64, {n, n + 2}, 2, 3);
    GridStorage<double> g(t);
    for (int s = 0; s < g.slots(); ++s) {
      double* d = g.slot_data(s);
      for (std::int64_t p = 0; p < g.padded_points(); ++p) d[p] = static_cast<double>(p * 3 + s);
    }
    const auto payload = [](const GridStorage<double>& grid, int s) {
      return std::vector<double>(grid.slot_data(s), grid.slot_data(s) + grid.padded_points());
    };
    std::vector<GridStorage<double>> copies(4, g);
    for (const auto& copy : copies)
      for (int s = 0; s < g.slots(); ++s) EXPECT_EQ(payload(copy, s), payload(g, s)) << "slot " << s;
    GridStorage<double> assigned(t);
    assigned = g;
    EXPECT_EQ(payload(assigned, 2), payload(g, 2));
  }
}

}  // namespace
}  // namespace msc::exec
