// Host-executor throughput ledger: the scheduled row sweep (run_scheduled,
// the schedule's tiles and parallel chunks) and the reference sweep
// (run_reference, one full-interior tile on the calling thread) on the
// *real* execution paths, wall-clock on the build host.  The gated metrics
// are each arm's absolute rate, `compiled_gflops` and `reference_gflops`
// (2 flops per linear term per point over the arm's best interleaved
// repetition), so neither arm serves as the other's denominator; points/s
// rows ride along as informational context.  The pool width and the build
// type are part of the config, so a ledger seeded on one core never judges
// a multi-core run and Release runs never judge a RelWithDebInfo build (the
// two compile the fused row kernels several-fold apart).
//
// The run also asserts that both paths produce bit-identical grids before
// timing anything; a perf number for a wrong kernel is worthless.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "verify.hpp"

#include "exec/executor.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr std::int64_t kSteps = 4;   // timesteps per measured repetition
constexpr int kReps = 5;             // best-of per arm to shed scheduler noise

struct Measured {
  double compiled_pps = 0.0;
  double reference_pps = 0.0;
  double compiled_gflops = 0.0;
  double reference_gflops = 0.0;
};

std::string fmt_rate(double pps) {
  char buf[32];
  if (pps >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f Gpt/s", pps / 1e9);
  } else if (pps >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f Mpt/s", pps / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f Kpt/s", pps / 1e3);
  }
  return buf;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `fn` once and keeps the faster of its time and `best`.
template <typename Fn>
void time_into(double& best, Fn&& fn) {
  const double t0 = now_seconds();
  fn();
  best = std::min(best, now_seconds() - t0);
}

Measured measure(const workload::BenchmarkInfo& info, std::array<std::int64_t, 3> grid,
                 std::array<std::int64_t, 3> tile) {
  auto prog = workload::make_program(info, ir::DataType::f64, grid);
  workload::apply_msc_schedule(*prog, info, "sunway", tile);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  // Equality check first, once, before any timing (bench/verify.hpp).
  bench::require_bit_identical<double>(
      st,
      [&](exec::GridStorage<double>& g) {
        exec::run_reference(st, g, 1, kSteps, exec::Boundary::ZeroHalo);
      },
      [&](exec::GridStorage<double>& g) {
        exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo);
      },
      info.name.c_str());

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 1);
  const double points =
      static_cast<double>(st.state()->interior_points()) * static_cast<double>(kSteps);
  const double flops_per_point =
      2.0 * static_cast<double>(exec::linearize_stencil(st, {})->terms.size());

  // Warm-up one step per path (page faults, pool spin-up).
  exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo);
  exec::run_reference(st, g, 1, 1, exec::Boundary::ZeroHalo);

  // Interleaved arms: every rep runs compiled -> reference, so a noisy
  // neighbour or a clock change lands on both alike instead of on whichever
  // arm happened to be timing; each arm keeps its best rep.
  Measured m;
  double tc = 1e300, tr = 1e300;
  for (int r = 0; r < kReps; ++r) {
    time_into(tc,
              [&] { exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo); });
    time_into(tr, [&] { exec::run_reference(st, g, 1, kSteps, exec::Boundary::ZeroHalo); });
  }
  m.compiled_pps = points / tc;
  m.reference_pps = points / tr;
  m.compiled_gflops = m.compiled_pps * flops_per_point / 1e9;
  m.reference_gflops = m.reference_pps * flops_per_point / 1e9;
  return m;
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner(
      "Host executor — scheduled row sweep and full-tile reference sweep",
      "same numerics (bit-checked); gated on each arm's absolute GF/s");

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("host_executor", "3d7pt_star,2d9pt_star");
  report.set_config("steps", kSteps);
  report.set_config("dtype", "f64");
  report.set_config("grid_3d", "64x64x64");
  report.set_config("grid_2d", "512x512");
  report.set_config("reps", kReps);
  report.set_config("threads", static_cast<long long>(global_pool().size()));
  report.set_config("metric", "per_arm_gflops");
  report.set_config("build", MSC_BUILD_TYPE);

  struct Row {
    const char* name;
    std::array<std::int64_t, 3> grid;
    std::array<std::int64_t, 3> tile;
  };
  // Tiles are the workloads' own Table-5 Sunway settings (unit-stride dim
  // spans a full 64-element row).
  const Row rows[] = {
      {"3d7pt_star", {64, 64, 64}, {2, 8, 64}},
      {"2d9pt_star", {512, 512, 0}, {32, 64, 0}},
  };

  TextTable t({"benchmark", "compiled pt/s", "reference pt/s", "compiled GF/s",
               "reference GF/s"});
  for (const auto& r : rows) {
    const auto& info = workload::benchmark(r.name);
    const Measured m = measure(info, r.grid, r.tile);
    t.add_row({r.name, fmt_rate(m.compiled_pps), fmt_rate(m.reference_pps),
               strprintf("%.2f", m.compiled_gflops), strprintf("%.2f", m.reference_gflops)});

    workload::Json row = workload::Json::object();
    row["benchmark"] = workload::Json::string(r.name);
    row["compiled_gflops"] = workload::Json::number(m.compiled_gflops);
    row["reference_gflops"] = workload::Json::number(m.reference_gflops);
    row["compiled_points_per_s"] = workload::Json::number(m.compiled_pps);
    row["reference_points_per_s"] = workload::Json::number(m.reference_pps);
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("compiled runs the schedule's tiles (chunked over the pool when parallel);\n"
              "reference sweeps one full-interior tile on the calling thread.\n");

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
