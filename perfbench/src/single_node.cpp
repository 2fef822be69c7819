// The single-node workloads: stream3d-aot and box2d-sweep.
//
// A user writes a spec, MSC builds the program, the grid is seeded, and the
// program is stepped through the AOT backend or the sweep engine.  Every
// call into MSC below is a public entry point and is wrapped in a span.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "dsl/program.hpp"
#include "exec/aot_backend.hpp"
#include "exec/executor.hpp"
#include "frontend/spec.hpp"
#include "prof/attribution.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using Grid = msc::exec::GridStorage<double>;
constexpr auto kZero = msc::exec::Boundary::ZeroHalo;

enum class Engine { Aot, Sweep };

msc::exec::AotOptions aot_options(const Options& opts, bool cold) {
  msc::exec::AotOptions o;
  o.cache_dir = opts.aot_cache;
  o.force_recompile = cold;
  return o;
}

/// One op is one output interval of this many steps.
constexpr std::int64_t kStepsPerOp = 1;

/// One built, seeded program.  `module` keeps the AOT cache entry loaded
/// in the process, as a long-running user of one plan would.
struct Problem {
  std::unique_ptr<msc::dsl::Program> prog;
  std::unique_ptr<Grid> grid;
  std::shared_ptr<msc::exec::detail::AotModule> module;
  std::string module_path;
  std::int64_t t = 0;  ///< last completed step
};

/// AOT runs of an arm, and how many of them found their module cached.
struct AotHits {
  std::int64_t hits = 0, runs = 0;
};

/// Spec text -> program -> grid -> seed (-> AOT module, compiled afresh
/// when `cold`).
Problem set_up(const StencilTable& tab, std::uint64_t seed, Engine engine, bool cold,
               const Options& opts, Tracer* tr) {
  Problem p;
  {
    msc::frontend::StencilSpec spec;
    {
      Scope s(tr, 0, "frontend.parse_spec");
      spec = msc::frontend::parse_spec(tab.spec_text());
    }
    Scope s(tr, 0, "dsl.build_program");
    p.prog = msc::frontend::build_program(spec);
  }
  {
    Scope s(tr, 0, "grid.alloc");
    p.grid = std::make_unique<Grid>(p.prog->stencil().state());
  }
  {
    Scope s(tr, 0, "grid.seed");
    seed_grid(*p.grid, tab, seed);
  }
  if (engine == Engine::Aot) {
    Scope s(tr, 0, cold ? "aot.load_cold" : "aot.load_warm");
    msc::exec::AotExecInfo info;
    std::string why;
    p.module = msc::exec::detail::load_aot_module(p.prog->stencil(), p.prog->primary_schedule(),
                                                  p.prog->bindings(), aot_options(opts, cold),
                                                  &info, &why);
    if (p.module == nullptr) throw std::runtime_error("AOT module load failed: " + why);
    p.module_path = info.module_path;
  }
  return p;
}

/// Advances `p` by `steps`, counting AOT runs in `aot` when given; false
/// when the AOT backend fell back or was quarantined (the op then measured
/// another engine).
bool advance(Problem& p, std::int64_t steps, Engine engine, const Options& opts, Tracer* tr,
             AotHits* aot = nullptr) {
  const auto& st = p.prog->stencil();
  const auto& sched = p.prog->primary_schedule();
  bool ok = true;
  if (engine == Engine::Aot) {
    msc::exec::AotExecInfo info;
    Scope s(tr, 0, "aot.run_scheduled_aot");
    msc::exec::run_scheduled_aot(st, sched, *p.grid, p.t + 1, p.t + steps, kZero,
                                 p.prog->bindings(), nullptr, &info, aot_options(opts, false));
    ok = info.aot && !info.quarantined;
    if (aot != nullptr) {
      ++aot->runs;
      aot->hits += info.cache_hit ? 1 : 0;
    }
  } else {
    Scope s(tr, 0, "exec.run_scheduled");
    msc::exec::run_scheduled(st, sched, *p.grid, p.t + 1, p.t + steps, kZero, p.prog->bindings());
  }
  p.t += steps;
  return ok;
}

std::string grid_str(const StencilTable& tab) {
  std::string g;
  for (auto e : tab.grid) {
    if (!g.empty()) g += 'x';
    g += std::to_string(e);
  }
  return g;
}

/// Runs the program on a reduced grid for `steps` and compares every point
/// of the last step with the naive recomputation; also shows that a
/// corrupted grid is rejected.
void reduced_check(const StencilTable& small, std::int64_t steps, Engine engine,
                   const Options& opts, Result& r) {
  Problem p = set_up(small, opts.seed, engine, false, opts, nullptr);
  while (p.t < steps)
    if (!advance(p, std::min(kStepsPerOp, steps - p.t), engine, opts, nullptr))
      r.fail("reduced-grid run fell back from the AOT backend");
  NaiveRun ref(small, opts.seed);
  while (ref.steps() < steps) ref.step();
  const double err = full_error(small, p.t, ref, grid_reader(*p.grid));
  char buf[160];
  std::snprintf(buf, sizeof buf, "reduced-grid check: %s over %lld steps, max rel err %.3g",
                grid_str(small).c_str(), static_cast<long long>(steps), err);
  r.note(buf);
  if (!(err <= kTolerance)) r.fail("reduced-grid result differs from the naive recomputation");
  if (!corruption_rejected(*p.grid, p.t, {0, 0, 0},
                           [&] { return full_error(small, p.t, ref, grid_reader(*p.grid)); }))
    r.fail("a corrupted reduced grid was not rejected");
}

/// Sampled check of the last step on the full grid, plus the corruption test.
void final_check(const StencilTable& tab, Problem& p, const Options& opts, Result& r) {
  const auto samples = region_samples(tab.extent(), tab.ndim(), opts.seed ^ 0x5a5a, 1000);
  const double err = sampled_error(tab, p.t, samples, grid_reader(*p.grid));
  char buf[120];
  std::snprintf(buf, sizeof buf,
                "full-grid check: %zu sampled points of step %lld, max rel err %.3g",
                samples.size(), static_cast<long long>(p.t), err);
  r.note(buf);
  if (!(err <= kTolerance)) r.fail("full-grid sample differs from the naive recomputation");
  if (!corruption_rejected(*p.grid, p.t, samples.back(),
                           [&] { return sampled_error(tab, p.t, samples, grid_reader(*p.grid)); }))
    r.fail("a corrupted full grid was not rejected");
}

/// A single-node workload: each op advances the last set-up's grid by one
/// output interval.
struct NodeWorkload {
  StencilTable tab, small;
  Engine engine = Engine::Aot;
  std::int64_t check_steps = 0;  ///< reduced-grid check length
};

/// The set-ups and ops of one run; `aot` counts the traced arm's AOT runs.
void run_node_arms(const NodeWorkload& w, const Options& opts, Arm<Problem>& plain,
                   Arm<Problem>* traced, AotHits* aot, Result& r) {
  run_arms(
      opts, kStepsPerOp * w.tab.interior_points(), plain, traced,
      [&](Arm<Problem>& a) { return set_up(w.tab, opts.seed, w.engine, true, opts, a.tr); },
      [&](Arm<Problem>& a) {
        return advance(a.state, kStepsPerOp, w.engine, opts, a.tr, a.tr != nullptr ? aot : nullptr);
      },
      r);
}

double working_set_bytes(const Grid& g) {
  return static_cast<double>(g.slots()) * static_cast<double>(g.padded_points()) * sizeof(double);
}

void describe(const NodeWorkload& w, const Grid& g, Result& r) {
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "\"stencil\":\"%s\",\"grid\":\"%s\",\"engine\":\"%s\",\"vcpus\":1,"
                "\"steps_per_op\":%lld,\"working_set_bytes\":%.0f",
                w.tab.name.c_str(), grid_str(w.tab).c_str(),
                w.engine == Engine::Aot ? "aot" : "sweep", static_cast<long long>(kStepsPerOp),
                working_set_bytes(g));
  r.config_json = buf;
}

/// Median of the spans called `name`, in ms.
double median_ms(const Tracer& tr, const char* name) { return median(tr.durations(name)) * 1e3; }

/// Unattributed share of the op spans: op wall time not covered by a call
/// into MSC, over op wall time.
double unattributed_pct(const Tracer& tr) {
  double wall = 0.0, covered = 0.0;
  const auto& spans = tr.spans(0);
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "bench.op")
      wall += s.seconds();
    else if (s.parent >= 0 &&
             std::string_view(spans[static_cast<std::size_t>(s.parent)].name) == "bench.op")
      covered += s.seconds();
  }
  return wall > 0 ? 100.0 * (wall - covered) / wall : 0.0;
}

/// Per-layer metrics of the traced arm.
void report_layers(const NodeWorkload& w, const Options& opts, Tracer& tr,
                   const Arm<Problem>& traced, const Arm<Problem>& plain, const AotHits& cache,
                   Result& r) {
  const Problem& p = traced.state;
  const auto& st = p.prog->stencil();
  const auto& sched = p.prog->primary_schedule();
  const bool aot = w.engine == Engine::Aot;
  if (aot) {
    for (int i = 0; i < 20; ++i) {
      msc::exec::AotExecInfo info;
      std::string why;
      Scope s(&tr, 0, "aot.load_hit");
      auto mod = msc::exec::detail::load_aot_module(st, sched, p.prog->bindings(),
                                                    aot_options(opts, false), &info, &why);
      if (mod == nullptr || !info.cache_hit) r.fail("warm AOT load missed the cache");
    }
    std::error_code ec;
    r.metric("aot.compile_ms", median_ms(tr, "aot.load_cold"), "ms");
    r.metric("aot.so_bytes",
             static_cast<double>(std::filesystem::file_size(p.module_path, ec)), "B");
    r.metric("aot.load_hit_ms", median_ms(tr, "aot.load_hit"), "ms");
    r.metric("aot.cache_hit_ratio",
             static_cast<double>(cache.hits) /
                 static_cast<double>(std::max<std::int64_t>(1, cache.runs)),
             "ratio");
  }

  // Serial baseline: a plain single-threaded run_reference of the same problem.
  const std::int64_t serial_steps = 2;
  const double t0 = now_s();
  msc::exec::run_reference(st, *p.grid, p.t + 1, p.t + serial_steps, kZero, p.prog->bindings());
  const double serial_s = now_s() - t0;
  r.metric("exec.serial_mlups",
           static_cast<double>(serial_steps * w.tab.interior_points()) / serial_s / 1e6, "Mpt/s");

  const auto cost = msc::prof::attribute_plan(
      st, sched, aot ? msc::prof::AttrBackend::Aot : msc::prof::AttrBackend::Sweep,
      static_cast<int>(sizeof(double)), 1, kStepsPerOp, p.prog->bindings());
  report_roof(r, static_cast<double>(cost.flops),
              median(tr.durations(aot ? "aot.run_scheduled_aot" : "exec.run_scheduled")),
              cost.oi, working_set_bytes(*p.grid));
  r.metric("frontend.parse_ms", median_ms(tr, "frontend.parse_spec"), "ms");
  r.metric("dsl.build_ms", median_ms(tr, "dsl.build_program"), "ms");
  r.metric("grid.alloc_ms", median_ms(tr, "grid.alloc"), "ms");
  r.metric("grid.seed_ms", median_ms(tr, "grid.seed"), "ms");
  r.metric("trace.overhead_pct", overhead_pct(plain.log, traced.log, r), "%");
  report_unattributed(r, unattributed_pct(tr));
  note_self_times(r, tr, static_cast<double>(traced.log.op_s.size()));
}

void run_node_workload(const NodeWorkload& w, const Options& opts, Result& r) {
  reduced_check(w.small, w.check_steps, w.engine, opts, r);
  Arm<Problem> plain;
  if (!opts.trace) {
    run_node_arms(w, opts, plain, nullptr, nullptr, r);
    describe(w, *plain.state.grid, r);
    final_check(w.tab, plain.state, opts, r);
    plain.log.report(r);
    return;
  }

  // Traced run: untraced and traced arms interleaved on the same inputs.
  // Their final grids must be bit-identical; their solve times give the
  // tracing overhead.
  Tracer tr(1);
  Arm<Problem> traced;
  traced.tr = &tr;
  AotHits aot;
  run_node_arms(w, opts, plain, &traced, &aot, r);
  if (grid_hash(*traced.state.grid) != grid_hash(*plain.state.grid))
    r.fail("traced arm's final grids differ from the untraced arm");
  plain.state = Problem{};
  describe(w, *traced.state.grid, r);
  final_check(w.tab, traced.state, opts, r);
  report_layers(w, opts, tr, traced, plain, aot, r);
  write_trace(tr, opts, r);
}

}  // namespace

void run_stream3d_aot(const Options& opts, Result& r) {
  NodeWorkload w{star3d7({256, 256, 256}), star3d7({20, 24, 28})};
  w.check_steps = 64;
  run_node_workload(w, opts, r);
}

void run_box2d_sweep(const Options& opts, Result& r) {
  // Before the pool's first use, so that its nproc workers share the vCPU,
  // and the host roofs of this run are measured on it too.
  const OneCpu pin;
  NodeWorkload w{box2d121({1024, 1024}), box2d121({40, 56}), Engine::Sweep};
  w.tab.parallel = w.small.parallel = opts.threads;
  w.check_steps = 48;
  run_node_workload(w, opts, r);
}

}  // namespace bench
