// AOT dlopen backend ledger: the specialized compiled kernel
// (exec/aot_backend.hpp) and the in-process row sweep, wall-clock on the
// build host.  The interesting band is >16 linear terms, where the sweep
// engine leaves its fused kernels for the register-blocked one (3d13pt_star,
// 26 terms; 2d121pt_box, 242 terms), while the AOT module unrolls every term
// as a constant-offset load the host cc schedules globally.
//
// The gated metrics are each arm's absolute throughput, `aot_gflops` and
// `sweep_gflops` (2 flops per term per point over the median of interleaved
// repetitions), so a faster sweep can no longer read as an AOT regression.
// `aot_vs_sweep`, the median of per-rep sweep/AOT time ratios, is reported
// for information only.  Both paths are bit-checked against each other
// before any timing, and the run aborts if the AOT backend silently fell
// back to the sweep, so this ledger can never gate the wrong kernel.  Hosts
// without a C compiler exit 0 with a note — there is nothing to measure,
// not a failure.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "verify.hpp"

#include "exec/aot_backend.hpp"
#include "exec/executor.hpp"
#include "exec/sweep.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "support/shell.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr int kReps = 7;  // interleaved repetitions, median-of-ratios

struct Row {
  const char* label;
  const char* benchmark;
  std::array<std::int64_t, 3> grid;
  std::int64_t steps;
};

struct Measured {
  double aot_vs_sweep = 0.0;
  double sweep_gflops = 0.0;
  double aot_gflops = 0.0;
  double sweep_pps = 0.0;
  double aot_pps = 0.0;
  std::size_t terms = 0;
  const char* route = "";
  bool cache_hit = false;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

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

Measured measure(const Row& r) {
  const auto& info = workload::benchmark(r.benchmark);
  // No apply_msc_schedule: a plain serial schedule on both sides, so the
  // ratio isolates kernel quality (term dispatch) from threading.
  auto prog = workload::make_program(info, ir::DataType::f64, r.grid);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  const auto lin = exec::linearize_stencil(st, prog->bindings());
  MSC_CHECK(lin.has_value()) << r.label << ": workload must be affine";

  exec::AotOptions aopts;  // default shared cache dir
  exec::AotExecInfo ainfo;

  // Correctness first, once: AOT vs the sweep engine, bit for bit.
  bench::require_bit_identical<double>(
      st,
      [&](exec::GridStorage<double>& g) {
        exec::run_scheduled(st, sched, g, 1, r.steps, exec::Boundary::ZeroHalo,
                            prog->bindings());
      },
      [&](exec::GridStorage<double>& g) {
        exec::run_scheduled_aot(st, sched, g, 1, r.steps, exec::Boundary::ZeroHalo,
                                prog->bindings(), nullptr, &ainfo, aopts);
      },
      r.label);
  MSC_CHECK(ainfo.aot) << r.label << ": AOT backend fell back ("
                       << ainfo.fallback_reason << "); nothing to measure";

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 1);
  const double points =
      static_cast<double>(st.state()->interior_points()) * static_cast<double>(r.steps);

  // Warm-up one pass per engine (page faults; the AOT module is already
  // compiled and dlopen'd by the bit-check above).
  exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo, prog->bindings());
  exec::run_scheduled_aot(st, sched, g, 1, 1, exec::Boundary::ZeroHalo, prog->bindings(),
                          nullptr, nullptr, aopts);

  std::vector<double> ratios, sweep_t, aot_t;
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = now_seconds();
    exec::run_scheduled(st, sched, g, 1, r.steps, exec::Boundary::ZeroHalo,
                        prog->bindings());
    const double ts = now_seconds() - t0;
    t0 = now_seconds();
    exec::run_scheduled_aot(st, sched, g, 1, r.steps, exec::Boundary::ZeroHalo,
                            prog->bindings(), nullptr, nullptr, aopts);
    const double ta = now_seconds() - t0;
    ratios.push_back(ts / ta);
    sweep_t.push_back(ts);
    aot_t.push_back(ta);
  }

  Measured m;
  m.aot_vs_sweep = median(ratios);
  m.sweep_pps = points / median(sweep_t);
  m.aot_pps = points / median(aot_t);
  m.terms = lin->terms.size();
  const double flops_per_point = 2.0 * static_cast<double>(m.terms);
  m.sweep_gflops = m.sweep_pps * flops_per_point / 1e9;
  m.aot_gflops = m.aot_pps * flops_per_point / 1e9;
  m.route = exec::sweep_route(lin->terms.size());
  m.cache_hit = ainfo.cache_hit;
  return m;
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner(
      "AOT dlopen backend — in-process row sweep vs cc-specialized kernel",
      "same plan, same numerics (bit-checked); per-arm GF/s from interleaved repetitions");

  if (!host_cc_available()) {
    std::printf("no host C compiler ('cc') on PATH — nothing to measure, skipping\n");
    return 0;
  }

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("aot", "sweep_vs_aot");
  report.set_config("reps", kReps);
  report.set_config("dtype", "f64");
  report.set_config("schedule", "serial");
  report.set_config("metric", "per_arm_gflops");

  // The 14-term star the fused kernels cover, and two stencils on the
  // blocked kernel: the 26-term star and the 242-term box.
  const Row rows[] = {
      {"3d7pt_star", "3d7pt_star", {64, 64, 64}, 8},
      {"3d13pt_star", "3d13pt_star", {64, 64, 64}, 8},
      {"2d121pt_box", "2d121pt_box", {512, 512, 0}, 4},
  };

  TextTable t({"benchmark", "terms", "sweep route", "sweep pt/s", "aot pt/s", "sweep GF/s",
               "aot GF/s", "sweep/aot time"});
  for (const auto& r : rows) {
    const Measured m = measure(r);
    t.add_row({r.label, std::to_string(m.terms), m.route, fmt_rate(m.sweep_pps),
               fmt_rate(m.aot_pps), strprintf("%.2f", m.sweep_gflops),
               strprintf("%.2f", m.aot_gflops), workload::fmt_ratio(m.aot_vs_sweep)});

    workload::Json row = workload::Json::object();
    row["benchmark"] = workload::Json::string(r.label);
    row["sweep_gflops"] = workload::Json::number(m.sweep_gflops);
    row["aot_gflops"] = workload::Json::number(m.aot_gflops);
    row["aot_vs_sweep"] = workload::Json::number(m.aot_vs_sweep);
    row["sweep_points_per_s"] = workload::Json::number(m.sweep_pps);
    row["aot_points_per_s"] = workload::Json::number(m.aot_pps);
    row["terms"] = workload::Json::number(static_cast<double>(m.terms));
    row["sweep_route"] = workload::Json::string(m.route);
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("the sweep engine runs <=16 terms through fused compile-time kernels and wider\n"
              "stencils through one register-blocked SIMD kernel; the AOT module bakes extents,\n"
              "strides and all coefficients into one cc-compiled translation unit.\n");

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
