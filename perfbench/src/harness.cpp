#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "machine/probe.hpp"

namespace bench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

OneCpu::OneCpu() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &saved_)) {
      CPU_SET(c, &one);
      break;
    }
  if (sched_setaffinity(0, sizeof one, &one) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

OneCpu::~OneCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }

void release_heap() { malloc_trim(0); }

void seed_grid(msc::exec::GridStorage<double>& g, const StencilTable& tab, std::uint64_t seed,
               const Coord& origin) {
  const int nd = g.ndim();  // 2 or 3
  const std::int64_t outer = nd == 3 ? g.extent(0) : 1;
  const std::int64_t rows = g.extent(nd - 2);
  const std::int64_t len = g.extent(nd - 1);
  for (int level = 0; level < tab.deps(); ++level) {
    double* data = g.slot_data(g.slot_for_time(-level));
    for (std::int64_t k = 0; k < outer; ++k)
      for (std::int64_t j = 0; j < rows; ++j) {
        const Coord c = nd == 3 ? Coord{k, j, 0} : Coord{j, 0, 0};
        Coord gc = c;
        for (std::size_t d = 0; d < static_cast<std::size_t>(nd); ++d) gc[d] += origin[d];
        double* row = data + g.index(c);
        const std::uint64_t base = global_index(tab, gc);
        for (std::int64_t i = 0; i < len; ++i)
          row[i] = seed_value(seed, level, base + static_cast<std::uint64_t>(i));
      }
  }
}

std::uint64_t grid_hash(const msc::exec::GridStorage<double>& g, std::uint64_t h) {
  for (int s = 0; s < g.slots(); ++s) {
    const double* data = g.slot_data(s);
    g.for_each_interior_row([&](std::int64_t base, std::int64_t len) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(data + base);
      for (std::size_t b = 0; b < static_cast<std::size_t>(len) * sizeof(double); ++b) {
        h ^= bytes[b];
        h *= 0x100000001b3ULL;
      }
    });
  }
  return h;
}

double OpLog::solve_s() const {
  double total = 0.0;
  for (double s : op_s) total += s;
  const double ops = static_cast<double>(op_s.size());
  return median(setup_s) + (ops > 0 ? total / ops * static_cast<double>(kSolveOps) : 0.0);
}

void OpLog::report(Result& r) const {
  double total = 0.0;
  for (double s : op_s) total += s;
  std::vector<double> ms;
  for (double s : op_s) ms.push_back(s * 1e3);
  r.metric("setup_s", median(setup_s), "s");
  r.metric("solve_s", solve_s(), "s");
  r.metric("mlups", total > 0 ? static_cast<double>(points) / total / 1e6 : 0.0, "Mpt/s");
  r.metric("op_ms_p50", quantile(ms, 0.5), "ms");
  r.metric("op_ms_p90", quantile(ms, 0.9), "ms");
  r.metric("peak_rss_mb", solve_rss_mb > 0 ? solve_rss_mb : peak_rss_mb(), "MiB");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "samples: %zu ops (p90 has %zu beyond it), %zu set-ups; solve_s = median "
                "set-up + %lld ops at the mean op time",
                op_s.size(), op_s.size() / 10, setup_s.size(), static_cast<long long>(kSolveOps));
  r.note(buf);
}

double overhead_pct(const OpLog& plain, const OpLog& traced, Result& r) {
  const auto solve = [](const OpLog& l) {
    return median(l.setup_s) + static_cast<double>(OpLog::kSolveOps) * median(l.op_s);
  };
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "untraced vs traced arm: set-up %.4g vs %.4g s, op p50 %.4g vs %.4g ms over "
                "%zu ops each",
                median(plain.setup_s), median(traced.setup_s), median(plain.op_s) * 1e3,
                median(traced.op_s) * 1e3, traced.op_s.size());
  r.note(buf);
  return 100.0 * (solve(traced) / solve(plain) - 1.0);
}

void report_machine(Result& r) {
  const auto& probe = msc::machine::probe_host();
  r.metric("machine.triad_gbs", probe.mem_bw_gbs, "GB/s");
  r.metric("machine.peak_gflops", probe.peak_gflops_fp64, "GF/s");
}

void report_roof(Result& r, double flops_per_op, double op_compute_s, double flop_per_byte,
                 double working_set_bytes) {
  const auto& probe = msc::machine::probe_host();
  const double gflops = op_compute_s > 0 ? flops_per_op / op_compute_s / 1e9 : 0.0;
  r.metric("exec.gflops", gflops, "GF/s");
  r.metric("exec.flop_per_byte", flop_per_byte, "flop/B");
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const double mem_roof = flop_per_byte * probe.mem_bw_gbs;
  const bool compute_bound = mem_roof >= probe.peak_gflops_fp64;
  const bool out_of_cache = l3 > 0 && working_set_bytes > static_cast<double>(l3);
  const double attainable = std::min(mem_roof, probe.peak_gflops_fp64);
  if ((compute_bound || out_of_cache) && attainable > 0) {
    r.metric("exec.pct_roof", 100.0 * gflops / attainable, "%");
  } else {
    r.metric("exec.pct_roof", 0.0, "%");
    r.note("exec.pct_roof not applicable: working set fits in L3 and the kernel is "
           "memory-bound, so the DRAM roof does not bound it (reported as 0)");
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "roof: %.2f GF/s attainable (%s), flop/B computed from prof::attribute_plan",
                attainable, compute_bound ? "compute-bound" : "memory-bound");
  r.note(buf);
}

void report_unattributed(Result& r, double pct) {
  constexpr double kTolerancePct = 15.0;
  r.metric("trace.unattributed_pct", pct, "%");
  if (pct > kTolerancePct)
    r.fail("spans along the blocking path leave more than 15% of op wall time unattributed");
}

void write_trace(const Tracer& tr, const Options& opts, Result& r) {
  char name[96];
  std::snprintf(name, sizeof name, "/trace-%s-seed%llu.json", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed));
  const std::string path = opts.out_dir + name;
  if (!tr.write(path, "{" + r.config_json + "}")) r.note("could not write " + path);
}

void note_self_times(Result& r, const Tracer& tr, double per, int first_lane) {
  std::string s = first_lane == 0 ? "self time per op by layer (ms):"
                                  : "self time per op and rank by layer (ms):";
  for (const auto& [layer, sec] : tr.self_by_layer(first_lane)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s=%.3f", layer.c_str(), per > 0 ? sec * 1e3 / per : 0.0);
    s += buf;
  }
  r.note(s);
}

}  // namespace bench
