// Tests of the AOT dlopen host backend: term-count routing pins, the
// specialized emitter's row-kernel-only, full-unroll contract, bit-identity
// against the in-process sweep engine (including >16-term stencils the
// sweep runs through its register-blocked kernel, parallel and periodic
// runs, and time_tile schedules through the wedge engine), the compile
// cache's hit/stale/evict behavior, dlclose discipline, and the graceful
// no-compiler fallback.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/case_gen.hpp"
#include "check/oracles.hpp"
#include "codegen/aot_kernel.hpp"
#include "dsl/program.hpp"
#include "exec/aot_backend.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "exec/sweep.hpp"
#include "prof/counters.hpp"
#include "support/shell.hpp"
#include "workload/stencils.hpp"

namespace msc::exec {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const char* name) {
  const auto dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++n;
  return n;
}

// A small double-precision workload program (the paper grids are far too
// large for unit tests).
std::unique_ptr<dsl::Program> small_benchmark(const std::string& name) {
  const auto& info = workload::benchmark(name);
  const std::array<std::int64_t, 3> small{24, 24, 24};
  return workload::make_program(info, ir::DataType::f64, small);
}

// ---- routing pins --------------------------------------------------------

TEST(AotRouting, SweepRoutePinsTermLimits) {
  // Regression pin for the sweep engine's routing threshold: the fused
  // kernels stop at 16 term streams; every wider stencil runs the one
  // register-blocked kernel, whatever its term count.
  EXPECT_STREQ(sweep_route(1), "fused");
  EXPECT_STREQ(sweep_route(16), "fused");
  EXPECT_STREQ(sweep_route(17), "blocked");
  EXPECT_STREQ(sweep_route(32), "blocked");
  EXPECT_STREQ(sweep_route(33), "blocked");
  EXPECT_STREQ(sweep_route(242), "blocked");
}

TEST(AotRouting, BigBoxStencilExceedsEveryFixedTermKernel) {
  // 2d121pt_box: 121 spatial points x 2 time dependencies = 242 linear
  // terms — far past the fused cap, so the in-process engine must route it
  // to the blocked kernel while the AOT module unrolls it fully.
  auto prog = small_benchmark("2d121pt_box");
  const auto lin = linearize_stencil(prog->stencil(), prog->bindings());
  ASSERT_TRUE(lin.has_value());
  EXPECT_EQ(lin->terms.size(), 242u);
  EXPECT_STREQ(sweep_route(lin->terms.size()), "blocked");
}

TEST(AotRouting, AotOracleIsRegistered) {
  const auto& all = check::all_oracles();
  EXPECT_NE(std::find(all.begin(), all.end(), check::Oracle::Aot), all.end());
  const auto parsed = check::oracle_from_name("aot");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, check::Oracle::Aot);
  EXPECT_STREQ(check::oracle_name(check::Oracle::Aot), "aot");
  EXPECT_TRUE(check::oracle_needs_cc(check::Oracle::Aot));
}

// ---- emitter -------------------------------------------------------------

TEST(AotEmitter, EmitsOneRowKernelWithEveryTermUnrolled) {
  auto prog = small_benchmark("2d121pt_box");
  const auto lin = linearize_stencil(prog->stencil(), prog->bindings());
  ASSERT_TRUE(lin.has_value());
  const std::string src = codegen::gen_aot_kernel(codegen::make_aot_spec(prog->stencil(), *lin));

  // One straight-line accumulation statement per linear term — no term
  // loop, no 16/32 cap.  (The banner comment also says "acc +=", so count
  // the load pattern only term statements contain.)
  EXPECT_EQ(count_occurrences(src, "* (double)in_m"), lin->terms.size());
  // The module is a row kernel with the sweep's RowFn signature and no
  // driver of its own: one loop (the row), no time loop, no slot rotation.
  EXPECT_NE(src.find("void msc_aot_row(double *restrict out, int64_t base, int64_t n, "
                     "const struct msc_term *restrict terms)"),
            std::string::npos);
  EXPECT_EQ(count_occurrences(src, "for ("), 1u);
  EXPECT_EQ(src.find("msc_aot_run"), std::string::npos);
  EXPECT_EQ(src.find("msc_aot_window"), std::string::npos);
  EXPECT_EQ(src.find("MSC_SLOT"), std::string::npos);
  EXPECT_EQ(count_occurrences(src, "\nMSC_EXPORT "), 3u) << "row, padded_points, abi";
  EXPECT_NE(src.find("msc_aot_padded_points"), std::string::npos);
  EXPECT_NE(src.find("msc_aot_abi"), std::string::npos);
  // Geometry is baked in: the corner term (-5, -5) of the 121-point box is
  // a constant delta over the padded row stride.
  const std::int64_t halo = prog->stencil().state()->halo();
  const std::int64_t row = 24 + 2 * halo;
  EXPECT_NE(src.find("[i - " + std::to_string(5 * row + 5) + "]"), std::string::npos);
  EXPECT_NE(src.find("return " + std::to_string(row * row) + "L;"), std::string::npos);
}

TEST(AotEmitter, ModuleIsScheduleIndependent) {
  // The schedule reaches the drivers, not the module: every schedule of a
  // stencil on one grid shares one compiled object.
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  auto plain = small_benchmark("3d7pt_star");
  auto tiled = small_benchmark("3d7pt_star");
  tiled->primary_kernel().time_tile(4);
  AotOptions opts;
  opts.cache_dir = scratch_dir("msc_aot_test_sched");
  AotExecInfo a, b;
  std::string why;
  auto ma = detail::load_aot_module(plain->stencil(), plain->primary_schedule(),
                                    plain->bindings(), opts, &a, &why);
  ASSERT_NE(ma, nullptr) << why;
  auto mb = detail::load_aot_module(tiled->stencil(), tiled->primary_schedule(),
                                    tiled->bindings(), opts, &b, &why);
  ASSERT_NE(mb, nullptr) << why;
  EXPECT_EQ(a.plan_hash, b.plan_hash);
  EXPECT_TRUE(b.cache_hit);
}

// ---- bit-identity against the sweep engine -------------------------------

// Runs the sweep engine and the AOT module from identically seeded twins
// and requires every ring slot, halos included, to be bit-identical.
void expect_aot_matches_sweep(const dsl::Program& prog, std::int64_t steps,
                              const std::string& cache_dir,
                              Boundary bc = Boundary::ZeroHalo) {
  const auto& st = prog.stencil();
  const auto& sched = prog.primary_schedule();

  GridStorage<double> gs(st.state());
  GridStorage<double> ga(st.state());
  for (int s = 0; s < gs.slots(); ++s) {
    gs.fill_random(s, 42 + static_cast<std::uint64_t>(s));
    ga.fill_random(s, 42 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(st, sched, gs, 1, steps, bc, prog.bindings());

  AotOptions opts;
  opts.cache_dir = cache_dir;
  AotExecInfo info;
  run_scheduled_aot(st, sched, ga, 1, steps, bc, prog.bindings(), nullptr, &info, opts);
  ASSERT_TRUE(info.aot) << "unexpected fallback: " << info.fallback_reason;

  const auto per_slot = static_cast<std::size_t>(gs.padded_points());
  for (int s = 0; s < gs.slots(); ++s)
    ASSERT_EQ(std::memcmp(gs.slot_data(s), ga.slot_data(s), per_slot * sizeof(double)), 0)
        << st.name() << ": slot " << s << " differs";
}

TEST(AotBackend, BitIdenticalToSweepAcrossRoutingBands) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_bits");
  // Both sweep routing bands: fused (<=16 terms) and blocked, at a modest
  // and at the largest term count of the standard workloads.
  expect_aot_matches_sweep(*small_benchmark("3d7pt_star"), 4, dir);   // 14 terms  -> fused
  expect_aot_matches_sweep(*small_benchmark("3d13pt_star"), 4, dir);  // 26 terms  -> blocked
  expect_aot_matches_sweep(*small_benchmark("2d121pt_box"), 3, dir);  // 242 terms -> blocked
}

TEST(AotBackend, TimeTiledScheduleRunsThroughWedgeEngineBitIdentically) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  auto prog = small_benchmark("2d9pt_box");
  prog->primary_kernel().time_tile(3);
  auto& blocks = prof::counter("sweep.temporal.blocks");
  auto& steps = prof::counter("exec.timesteps");
  const std::int64_t blocks_before = blocks.value();
  const std::int64_t steps_before = steps.value();
  // 7 steps: two full depth-3 blocks plus a remainder step.  The sweep
  // twin runs per step, so every block counted here is the AOT run's.
  expect_aot_matches_sweep(*prog, 7, scratch_dir("msc_aot_test_tt"));
  EXPECT_EQ(blocks.value() - blocks_before, 3);
  EXPECT_EQ(steps.value() - steps_before, 14);
}

TEST(AotBackend, ParallelScheduleBitIdentical) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  // The "cpu" schedule marks the outermost tile loop parallel, so the tile
  // list is chunked over the process pool with the AOT row kernel.
  for (const char* bench : {"3d7pt_star", "2d121pt_box"}) {
    SCOPED_TRACE(bench);
    auto prog = small_benchmark(bench);
    workload::apply_msc_schedule(*prog, workload::benchmark(bench), "cpu", {4, 8, 0});
    ASSERT_TRUE(lower_sweep(build_loop_plan(prog->primary_schedule())).parallel);
    expect_aot_matches_sweep(*prog, 3, scratch_dir("msc_aot_test_par"));
  }
}

TEST(AotBackend, PeriodicBoundaryBitIdentical) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  // The driver refills wrapped halos after every step, so a periodic run
  // uses the compiled kernel instead of falling back.
  for (const char* bench : {"2d9pt_box", "3d13pt_star"}) {
    SCOPED_TRACE(bench);
    expect_aot_matches_sweep(*small_benchmark(bench), 4, scratch_dir("msc_aot_test_periodic"),
                             Boundary::Periodic);
  }
}

// Marks every point it is asked to compute, so a test can see which rows a
// driver handed to an injected row kernel.
void marker_row(double* out, std::int64_t base, std::int64_t n,
                const detail::ResolvedTerm<double>* /*terms*/) {
  for (std::int64_t i = 0; i < n; ++i) out[base + i] = 7.0;
}

TEST(AotBackend, BothDriversRunAnInjectedRowKernelOnEveryPoint) {
  // The row-kernel parameter must reach sweep_tile from the per-step
  // driver (parallel chunks included) and from the wedge engine.
  for (const std::int64_t depth : {1, 3}) {
    SCOPED_TRACE("time_tile depth " + std::to_string(depth));
    auto prog = small_benchmark("3d7pt_star");
    workload::apply_msc_schedule(*prog, workload::benchmark("3d7pt_star"), "cpu", {4, 8, 0});
    if (depth > 1) prog->primary_kernel().time_tile(depth);
    const auto& st = prog->stencil();
    GridStorage<double> g(st.state());
    for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 5);
    if (depth > 1)
      detail::run_scheduled_temporal_rows(st, prog->primary_schedule(), g, 1, 4,
                                          Boundary::ZeroHalo, prog->bindings(), nullptr,
                                          nullptr, {}, nullptr, &marker_row);
    else
      detail::run_scheduled_rows(st, prog->primary_schedule(), g, 1, 4, Boundary::ZeroHalo,
                                 prog->bindings(), nullptr, nullptr, &marker_row);
    for (std::int64_t t = 1; t <= 4; ++t)
      for (const double v : g.interior_values(g.slot_for_time(t))) ASSERT_EQ(v, 7.0) << t;
  }
}

TEST(AotBackend, ModuleRowKernelMatchesSweepRowOnOddSpans) {
  // msc_aot_row called directly with the sweep's ResolvedTerm array: every
  // (base, n) split of a row, including n not a multiple of the vector
  // width, must match the built-in kernels bit for bit and write nothing
  // outside [base, base + n).
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  auto prog = small_benchmark("3d13pt_star");
  const auto& st = prog->stencil();
  AotOptions opts;
  opts.cache_dir = scratch_dir("msc_aot_test_row");
  std::string why;
  auto mod = detail::load_aot_module(st, prog->primary_schedule(), prog->bindings(), opts,
                                     nullptr, &why);
  ASSERT_NE(mod, nullptr) << why;
  const auto row = reinterpret_cast<detail::RowFn<double>>(mod->row);

  GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 17 + static_cast<std::uint64_t>(s));
  const auto lin = linearize_stencil(st, prog->bindings());
  ASSERT_TRUE(lin.has_value());
  const auto terms = resolve_terms(*lin, g, 1);
  const std::int64_t first = g.index({10, 11, 0});
  const auto per_slot = static_cast<std::size_t>(g.padded_points());
  for (const std::int64_t off : {0, 1, 3, 7}) {
    for (const std::int64_t n : std::initializer_list<std::int64_t>{1, 3, 4, 5, 13, 24 - off}) {
      std::vector<double> want(per_slot, -1.0), got(per_slot, -1.0);
      detail::sweep_row(want.data(), first + off, n, terms);
      row(got.data(), first + off, n, terms.data());
      ASSERT_EQ(std::memcmp(want.data(), got.data(), per_slot * sizeof(double)), 0)
          << "off " << off << " n " << n;
    }
  }
}

TEST(AotBackend, ProgramRunDispatchesThroughBackendSelector) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  auto sweep_prog = small_benchmark("2d9pt_star");
  auto aot_prog = small_benchmark("2d9pt_star");
  aot_prog->set_backend(dsl::HostBackend::Aot);
  sweep_prog->input(dsl::GridRef(sweep_prog->stencil().state()), 42);
  aot_prog->input(dsl::GridRef(aot_prog->stencil().state()), 42);
  sweep_prog->run(1, 5);
  aot_prog->run(1, 5);
  ASSERT_TRUE(aot_prog->last_aot_info().aot)
      << aot_prog->last_aot_info().fallback_reason;
  EXPECT_FALSE(aot_prog->last_aot_info().plan_hash.empty());
  for (std::int64_t j = 0; j < 24; ++j)
    for (std::int64_t i = 0; i < 24; ++i)
      ASSERT_EQ(sweep_prog->value_at(5, {j, i, 0}), aot_prog->value_at(5, {j, i, 0}));
}

// ---- compile cache lifecycle ---------------------------------------------

TEST(AotBackend, CacheHitsInMemoryOnDiskAndAcrossPlans) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_cache");
  auto prog = small_benchmark("3d7pt_star");
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();
  AotOptions opts;
  opts.cache_dir = dir;

  // Cold: compiles and dlopens.
  AotExecInfo first;
  std::string why;
  auto mod1 = detail::load_aot_module(st, sched, prog->bindings(), opts, &first, &why);
  ASSERT_NE(mod1, nullptr) << why;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.plan_hash.size(), 16u);
  EXPECT_TRUE(fs::exists(first.module_path));

  // Same plan while the module is live: in-memory hit, same handle.
  AotExecInfo mem;
  auto mod2 = detail::load_aot_module(st, sched, prog->bindings(), opts, &mem, &why);
  ASSERT_EQ(mod2, mod1);
  EXPECT_TRUE(mem.cache_hit);
  EXPECT_EQ(mem.plan_hash, first.plan_hash);

  // Release every handle, reload: on-disk hit (no recompile), fresh dlopen.
  mod1.reset();
  mod2.reset();
  AotExecInfo disk;
  auto mod3 = detail::load_aot_module(st, sched, prog->bindings(), opts, &disk, &why);
  ASSERT_NE(mod3, nullptr) << why;
  EXPECT_TRUE(disk.cache_hit);
  EXPECT_EQ(disk.plan_hash, first.plan_hash);

  // A different plan (different grid -> different baked extents) must land
  // on a different key and compile its own object.
  auto other = workload::make_program(workload::benchmark("3d7pt_star"), ir::DataType::f64,
                                      {20, 20, 20});
  AotExecInfo o;
  auto mod4 = detail::load_aot_module(other->stencil(), other->primary_schedule(),
                                      other->bindings(), opts, &o, &why);
  ASSERT_NE(mod4, nullptr) << why;
  EXPECT_FALSE(o.cache_hit);
  EXPECT_NE(o.plan_hash, first.plan_hash);
}

TEST(AotBackend, StaleCachedObjectIsEvictedAndRebuilt) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_stale");
  auto prog = small_benchmark("2d9pt_star");
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();
  AotOptions opts;
  opts.cache_dir = dir;

  AotExecInfo first;
  std::string why;
  auto mod = detail::load_aot_module(st, sched, prog->bindings(), opts, &first, &why);
  ASSERT_NE(mod, nullptr) << why;
  const std::string so = first.module_path;
  mod.reset();  // release the in-memory handle so the disk path is exercised

  {
    // Corrupt the cached object in place (a truncated/garbage .so stands in
    // for "produced by an older emitter / interrupted write").
    std::ofstream out(so, std::ios::trunc | std::ios::binary);
    out << "not an ELF object";
  }

  AotExecInfo rebuilt;
  auto mod2 = detail::load_aot_module(st, sched, prog->bindings(), opts, &rebuilt, &why);
  ASSERT_NE(mod2, nullptr) << "stale object must be evicted and rebuilt: " << why;
  EXPECT_FALSE(rebuilt.cache_hit) << "a corrupt cache entry must not count as a hit";
  EXPECT_EQ(rebuilt.plan_hash, first.plan_hash);

  // And the rebuilt module still computes the right thing.
  GridStorage<double> gs(st.state());
  GridStorage<double> ga(st.state());
  for (int s = 0; s < gs.slots(); ++s) {
    gs.fill_random(s, 9 + static_cast<std::uint64_t>(s));
    ga.fill_random(s, 9 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(st, sched, gs, 1, 3, Boundary::ZeroHalo, prog->bindings());
  mod2.reset();
  AotExecInfo info;
  run_scheduled_aot(st, sched, ga, 1, 3, Boundary::ZeroHalo, prog->bindings(), nullptr,
                    &info, opts);
  ASSERT_TRUE(info.aot) << info.fallback_reason;
  const int fs_slot = gs.slot_for_time(3);
  EXPECT_EQ(gs.interior_values(fs_slot), ga.interior_values(fs_slot));
}

TEST(AotBackend, ForceRecompileBypassesBothCaches) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_force");
  auto prog = small_benchmark("2d9pt_star");
  AotOptions opts;
  opts.cache_dir = dir;
  std::string why;
  AotExecInfo a;
  auto mod = detail::load_aot_module(prog->stencil(), prog->primary_schedule(),
                                     prog->bindings(), opts, &a, &why);
  ASSERT_NE(mod, nullptr) << why;
  opts.force_recompile = true;
  AotExecInfo b;
  auto mod2 = detail::load_aot_module(prog->stencil(), prog->primary_schedule(),
                                      prog->bindings(), opts, &b, &why);
  ASSERT_NE(mod2, nullptr) << why;
  EXPECT_FALSE(b.cache_hit);
  EXPECT_NE(mod2, mod);
}

TEST(AotBackend, ModulesAreDlclosedAtTeardown) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_close");
  const int before = detail::AotModule::live();
  {
    auto prog = small_benchmark("2d9pt_star");
    GridStorage<double> g(prog->stencil().state());
    for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 1);
    AotOptions opts;
    opts.cache_dir = dir;
    AotExecInfo info;
    run_scheduled_aot(prog->stencil(), prog->primary_schedule(), g, 1, 2,
                      Boundary::ZeroHalo, prog->bindings(), nullptr, &info, opts);
    ASSERT_TRUE(info.aot) << info.fallback_reason;
  }
  // run_scheduled_aot holds the module only for the run; nothing else
  // pins it, so the handle count must return to where it started.
  EXPECT_EQ(detail::AotModule::live(), before);
}

// ---- fallback + oracle behavior ------------------------------------------

TEST(AotBackend, FallsBackToSweepWithoutCompiler) {
  auto prog = small_benchmark("2d9pt_star");
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();
  GridStorage<double> gs(st.state());
  GridStorage<double> ga(st.state());
  for (int s = 0; s < gs.slots(); ++s) {
    gs.fill_random(s, 3 + static_cast<std::uint64_t>(s));
    ga.fill_random(s, 3 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(st, sched, gs, 1, 4, Boundary::ZeroHalo, prog->bindings());

  AotOptions opts;
  opts.cc = "msc-no-such-compiler";
  AotExecInfo info;
  run_scheduled_aot(st, sched, ga, 1, 4, Boundary::ZeroHalo, prog->bindings(), nullptr,
                    &info, opts);
  EXPECT_FALSE(info.aot);
  EXPECT_NE(info.fallback_reason.find("no host C compiler"), std::string::npos)
      << info.fallback_reason;
  // The fallback still computes the right answer through run_scheduled.
  const int fs_slot = gs.slot_for_time(4);
  EXPECT_EQ(gs.interior_values(fs_slot), ga.interior_values(fs_slot));
}

TEST(AotBackend, OracleSkipsWithoutCompilerAndFailsOnFallback) {
  const auto spec = check::random_case(1);
  check::OracleOptions opts;
  opts.cc = "msc-no-such-compiler";
  const auto run = check::run_oracle(spec, check::Oracle::Aot, opts);
  EXPECT_TRUE(run.skipped);
  EXPECT_FALSE(run.ok);
}

TEST(AotBackend, OracleMatchesReferenceBitwise) {
  if (!check::compiler_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  check::OracleOptions opts;
  opts.work_dir = scratch_dir("msc_aot_test_oracle");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto spec = check::random_case(seed);
    const auto ref = check::run_oracle(spec, check::Oracle::Reference, opts);
    ASSERT_TRUE(ref.ok) << ref.note;
    const auto aot = check::run_oracle(spec, check::Oracle::Aot, opts);
    ASSERT_TRUE(aot.ok) << "seed " << seed << ": " << aot.note;
    const auto cmp = check::compare_runs(ref, aot, /*max_ulps=*/0);
    EXPECT_TRUE(cmp.match) << "seed " << seed << ": " << cmp.detail;
  }
}

}  // namespace
}  // namespace msc::exec
