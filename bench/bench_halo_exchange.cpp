// Halo exchanger ledger: the 26-direction plan exchange (persistent
// arenas, preposted receives, single phase covering faces, edges and
// corners) over the simulated-MPI transport.
//
// The gated metric is `plan_round_seconds` — the wall time of one pure
// exchange round, from the fastest of the timed bursts, so the number
// isolates the communication path from stencil compute.  It is an absolute per-arm
// rate, not a ratio against another exchanger, and the pool width and the
// build type are part of the config, so each build has its own baseline.
// Before any timing a short distributed stepping must leave every rank's
// padded ring (halos and corners included) bit-identical to the matching
// window of a single-grid run on the global domain; a wrong exchanger is
// never timed.  An overlap section reruns the workload through
// the comm/compute-overlapped driver with the phase timeline on and reports
// the median measured overlap efficiency (hidden comm / total comm).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
#include "comm/simmpi.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "prof/timeline.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr int kReps = 7;     // timed bursts (fastest) and overlap runs (median)
constexpr int kRounds = 40;  // exchange rounds per timed burst

struct Row {
  const char* label;
  const char* benchmark;
  std::array<std::int64_t, 3> grid;
  std::vector<int> proc;
  bool periodic;
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

struct Workload {
  std::unique_ptr<dsl::Program> prog;
  comm::CartDecomp dec;
};

Workload make_workload(const Row& r) {
  const auto& info = workload::benchmark(r.benchmark);
  auto prog = workload::make_program(info, ir::DataType::f64, r.grid);
  const auto& st = prog->stencil();
  const int ndim = st.state()->ndim();
  std::vector<std::int64_t> global_ext;
  for (int d = 0; d < ndim; ++d) global_ext.push_back(st.state()->extent(d));
  comm::CartDecomp dec(r.proc, global_ext,
                       std::vector<bool>(static_cast<std::size_t>(ndim), r.periodic));
  return {std::move(prog), std::move(dec)};
}

/// Short distributed stepping, checked against a single-grid run on the
/// global domain: every rank's padded ring (all slots, halos and corners)
/// must equal the global grid's window at the rank's offset bit for bit.
void require_matches_global(const Row& r, const Workload& w) {
  const auto& st = w.prog->stencil();
  const auto& dec = w.dec;
  const int ndim = st.state()->ndim();
  constexpr std::int64_t kCheckSteps = 2;

  exec::GridStorage<double> global(st.state());
  for (int s = 0; s < global.slots(); ++s) global.fill_random(s, 7 + static_cast<std::uint64_t>(s));
  const exec::GridStorage<double> seeded(global);
  exec::run_reference(st, global, 1, kCheckSteps,
                      r.periodic ? exec::Boundary::Periodic : exec::Boundary::ZeroHalo);

  std::vector<char> agree(static_cast<std::size_t>(dec.size()), 0);
  comm::SimWorld world(dec.size());
  world.run([&](comm::RankCtx& ctx) {
    const int rank = ctx.rank();
    std::vector<std::int64_t> local_ext;
    std::array<std::int64_t, 3> off{0, 0, 0}, lo{0, 0, 0}, hi{1, 1, 1};
    for (int d = 0; d < ndim; ++d) {
      local_ext.push_back(dec.local_extent(rank, d));
      off[static_cast<std::size_t>(d)] = dec.local_offset(rank, d);
    }
    auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, local_ext, st.state()->halo(),
                                     st.state()->time_window());
    exec::GridStorage<double> local(tensor);
    const std::int64_t h = local.halo();
    for (int d = 0; d < ndim; ++d) {
      lo[static_cast<std::size_t>(d)] = -h;
      hi[static_cast<std::size_t>(d)] = local.extent(d) + h;
    }
    const auto global_of = [&](std::array<std::int64_t, 3> c) {
      return std::array<std::int64_t, 3>{c[0] + off[0], c[1] + off[1], c[2] + off[2]};
    };
    for (int s = 0; s < local.slots(); ++s)
      local.for_each_interior(
          [&](std::array<std::int64_t, 3> c) { local.at(s, c) = seeded.at(s, global_of(c)); });
    comm::run_distributed(ctx, dec, st, local, 1, kCheckSteps);

    bool same = true;
    std::array<std::int64_t, 3> c{};
    for (int s = 0; s < local.slots(); ++s)
      for (c[0] = lo[0]; c[0] < hi[0]; ++c[0])
        for (c[1] = lo[1]; c[1] < hi[1]; ++c[1])
          for (c[2] = lo[2]; c[2] < hi[2]; ++c[2]) {
            const double a = local.at(s, c), b = global.at(s, global_of(c));
            same &= std::memcmp(&a, &b, sizeof a) == 0;
          }
    agree[static_cast<std::size_t>(rank)] = same;
  });
  for (int rank = 0; rank < dec.size(); ++rank)
    MSC_CHECK(agree[static_cast<std::size_t>(rank)] != 0)
        << r.label << ": distributed run diverges from the single-grid run on rank " << rank
        << "; refusing to time a wrong exchanger";
}

/// Wall time of one burst of `kRounds` pure plan-exchange rounds, measured
/// on rank 0 between barriers (thread spawn and the warm-up round that
/// sizes the arenas stay outside it).
double time_burst(const Workload& w) {
  const auto& st = w.prog->stencil();
  const auto& dec = w.dec;
  const int ndim = st.state()->ndim();
  comm::SimWorld world(dec.size());
  double seconds = 0.0;
  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    std::vector<std::int64_t> local_ext;
    for (int d = 0; d < ndim; ++d) local_ext.push_back(dec.local_extent(r, d));
    auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, local_ext, st.state()->halo(),
                                     st.state()->time_window());
    exec::GridStorage<double> local(tensor);
    local.fill_random(0, 7 + static_cast<std::uint64_t>(r));
    local.fill_halo(0, exec::Boundary::ZeroHalo);
    comm::ExchangePlan plan(dec, r, local.halo());
    comm::PlanWorkspace<double> pws;
    comm::exchange_halo_plan(ctx, plan, pws, local, 0);  // warm-up: size the arenas
    ctx.barrier();
    const double t0 = now_seconds();
    for (int round = 0; round < kRounds; ++round)
      comm::exchange_halo_plan(ctx, plan, pws, local, 0);
    ctx.barrier();
    if (r == 0) seconds = now_seconds() - t0;
  });
  return seconds;
}

struct Measured {
  double plan_round_seconds = 0.0;
  int plan_messages = 0;   ///< busiest rank, per round
  double overlap_efficiency = 0.0;
};

Measured measure(const Row& r) {
  const Workload w = make_workload(r);
  require_matches_global(r, w);

  std::vector<double> bursts;
  for (int rep = 0; rep < kReps; ++rep) bursts.push_back(time_burst(w));

  Measured m;
  // The fastest burst: 8 rank threads share the host's cores, so a slow
  // burst measures the scheduler, not the exchanger.
  m.plan_round_seconds = *std::min_element(bursts.begin(), bursts.end()) / kRounds;

  const auto& dec = w.dec;
  const int ndim = w.prog->stencil().state()->ndim();
  int busiest = 0;
  for (int rank = 0; rank < dec.size(); ++rank) {
    comm::ExchangePlan plan(dec, rank, w.prog->stencil().state()->halo());
    busiest = std::max(busiest, plan.active_count());
  }
  m.plan_messages = busiest;

  // Overlap section: the overlapped driver with the phase timeline on; the
  // efficiency is how much of the comm-span union hides under compute.  A
  // 3-step run hides only microseconds, so one run is at the mercy of the
  // scheduler: report the median over kReps runs.
  auto& tl = prof::global_timeline();
  const auto& st = w.prog->stencil();
  std::vector<double> efficiencies;
  for (int rep = 0; rep < kReps; ++rep) {
    tl.clear();
    tl.set_enabled(true);
    comm::SimWorld world(dec.size());
    world.run([&](comm::RankCtx& ctx) {
      const int rank = ctx.rank();
      std::vector<std::int64_t> local_ext;
      for (int d = 0; d < ndim; ++d) local_ext.push_back(dec.local_extent(rank, d));
      auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, local_ext,
                                       st.state()->halo(), st.state()->time_window());
      exec::GridStorage<double> local(tensor);
      for (int s = 0; s < local.slots(); ++s)
        local.fill_random(s, 7 + static_cast<std::uint64_t>(rank * local.slots() + s));
      comm::run_distributed_overlapped(ctx, dec, st, local, 1, 3);
    });
    tl.set_enabled(false);
    efficiencies.push_back(prof::critical_path(tl.spans()).overlap_efficiency);
  }
  tl.clear();
  m.overlap_efficiency = median(efficiencies);
  return m;
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner(
      "halo exchange — 26-direction plan exchanger",
      "bit-checked against a single-grid run; gated on seconds per exchange round");

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("halo_exchange", "plan_exchange");
  report.set_config("reps", kReps);
  report.set_config("rounds", kRounds);
  report.set_config("dtype", "f64");
  report.set_config("threads", static_cast<long long>(global_pool().size()));
  report.set_config("metric", "plan_round_seconds");
  report.set_config("build", MSC_BUILD_TYPE);

  const Row rows[] = {
      // 3-D brick over 8 ranks: 26 directions.
      {"3d7pt_star.r8", "3d7pt_star", {24, 24, 24}, {2, 2, 2}, false},
      // Planar 9-rank grid, the interesting corner-heavy 2-D shape.
      {"2d9pt_box.r9", "2d9pt_box", {96, 96, 0}, {3, 3}, false},
      // Periodic wrap: self/coincident neighbors ride the same plan.
      {"2d9pt_star.r4.periodic", "2d9pt_star", {64, 64, 0}, {2, 2}, true},
  };

  TextTable t({"case", "msgs/round", "us/round", "overlap eff"});
  for (const auto& r : rows) {
    const Measured m = measure(r);
    t.add_row({r.label, std::to_string(m.plan_messages),
               strprintf("%.1f", m.plan_round_seconds * 1e6),
               strprintf("%.2f", m.overlap_efficiency)});

    workload::Json row = workload::Json::object();
    row["benchmark"] = workload::Json::string(r.label);
    row["plan_round_seconds"] = workload::Json::number(m.plan_round_seconds);
    row["plan_messages"] = workload::Json::number(static_cast<double>(m.plan_messages));
    row["overlap_efficiency"] = workload::Json::number(m.overlap_efficiency);
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("the plan exchanger posts every receive up front, packs all directions as\n"
              "strided memcpy rows into one persistent arena, and needs no inter-dimension\n"
              "barriers; corner data arrives in the same phase as faces.\n");

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
