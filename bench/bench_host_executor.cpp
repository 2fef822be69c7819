// Host-executor throughput ledger: the interpreted per-point loop nest vs
// the compiled row-sweep engine (exec/sweep.hpp) on the *real* execution
// paths, wall-clock on the build host.  The gated metric is the
// interpreter→compiled `speedup` ratio — a pure ratio of two runs on the
// same machine, so the bench-history gate stays meaningful across hosts —
// while absolute points/s rows ride along as informational context.
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
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr std::int64_t kSteps = 4;   // timesteps per measured repetition
constexpr int kReps = 5;             // best-of per arm to shed scheduler noise

struct Measured {
  double interpreted_pps = 0.0;
  double compiled_pps = 0.0;
  double reference_pps = 0.0;
  double speedup = 0.0;
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
        exec::run_scheduled_interpreted(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo);
      },
      [&](exec::GridStorage<double>& g) {
        exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo);
      },
      info.name.c_str());

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 1);
  const double points =
      static_cast<double>(st.state()->interior_points()) * static_cast<double>(kSteps);

  // Warm-up one step per path (page faults, pool spin-up).
  exec::run_scheduled_interpreted(st, sched, g, 1, 1, exec::Boundary::ZeroHalo);
  exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo);
  exec::run_reference(st, g, 1, 1, exec::Boundary::ZeroHalo);

  // Interleaved arms: every rep runs interpreter -> compiled -> reference,
  // so a noisy neighbour or a clock change lands on all three alike instead
  // of on whichever arm happened to be timing; each arm keeps its best rep.
  Measured m;
  double ti = 1e300, tc = 1e300, tr = 1e300;
  for (int r = 0; r < kReps; ++r) {
    time_into(ti, [&] {
      exec::run_scheduled_interpreted(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo);
    });
    time_into(tc,
              [&] { exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo); });
    time_into(tr, [&] { exec::run_reference(st, g, 1, kSteps, exec::Boundary::ZeroHalo); });
  }
  m.interpreted_pps = points / ti;
  m.compiled_pps = points / tc;
  m.reference_pps = points / tr;
  m.speedup = ti / tc;
  return m;
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner(
      "Host executor — interpreted loop nest vs compiled row sweep",
      "same schedule, same numerics (bit-checked); rows are stride-1 pointer loops");

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("host_executor", "3d7pt_star,2d9pt_star");
  report.set_config("steps", kSteps);
  report.set_config("dtype", "f64");
  report.set_config("grid_3d", "64x64x64");
  report.set_config("grid_2d", "512x512");

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

  TextTable t({"benchmark", "interpreted pt/s", "compiled pt/s", "reference pt/s", "speedup"});
  for (const auto& r : rows) {
    const auto& info = workload::benchmark(r.name);
    const Measured m = measure(info, r.grid, r.tile);
    t.add_row({r.name, fmt_rate(m.interpreted_pps), fmt_rate(m.compiled_pps),
               fmt_rate(m.reference_pps), workload::fmt_ratio(m.speedup)});

    workload::Json row = workload::Json::object();
    row["benchmark"] = workload::Json::string(r.name);
    row["speedup"] = workload::Json::number(m.speedup);
    row["interpreted_points_per_s"] = workload::Json::number(m.interpreted_pps);
    row["compiled_points_per_s"] = workload::Json::number(m.compiled_pps);
    row["reference_points_per_s"] = workload::Json::number(m.reference_pps);
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("the speedup is the whole point of compiling the sweep: the interpreter pays a\n"
              "closure call and an index rebuild per point, the row loop pays them per row.\n");

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
