// msc_perfbench — the MSC end-to-end benchmark driver.
//
//   msc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --out <dir> --source-id <id>
//
// Runs one workload (see perfbench/README.md) and prints, as the last line
// of stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Lines
// before it are human-readable: the recorded config, every metric with its
// unit, sample counts and check results.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "support/shell.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric of the traced run, as BENCHMARK.json lists them.
/// A workload that does not exercise a layer reports 0 for it and says so
/// in the notes.
constexpr LayerMetric kLayerMetrics[] = {
    {"frontend.parse_ms", "ms"},     {"dsl.build_ms", "ms"},
    {"grid.alloc_ms", "ms"},         {"grid.seed_ms", "ms"},
    {"aot.compile_ms", "ms"},        {"aot.so_bytes", "B"},
    {"aot.load_hit_ms", "ms"},       {"aot.cache_hit_ratio", "ratio"},
    {"exec.gflops", "GF/s"},         {"exec.flop_per_byte", "flop/B"},
    {"exec.pct_roof", "%"},          {"exec.serial_mlups", "Mpt/s"},
    {"machine.triad_gbs", "GB/s"},   {"machine.peak_gflops", "GF/s"},
    {"dist.compute_ms", "ms"},       {"dist.imbalance", "ratio"},
    {"comm.begin_ms", "ms"},         {"comm.finish_ms", "ms"},
    {"comm.bytes_per_step", "B"},    {"comm.messages_per_step", "count"},
    {"comm.exchange_gbs", "GB/s"},   {"ckpt.save_ms", "ms"},
    {"ckpt.restore_ms", "ms"},       {"ckpt.bytes", "B"},
    {"trace.overhead_pct", "%"},     {"trace.unattributed_pct", "%"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "msc_perfbench: %s\nusage: msc_perfbench --workload "
               "<stream3d-aot|box2d-sweep|chain3d-dist> --seed <n> --seconds <s> "
               "--trace <0|1> --out <dir> [--source-id <id>]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string first_line(std::string s) {
  const auto nl = s.find('\n');
  return json_escape(nl == std::string::npos ? s : s.substr(0, nl));
}

/// The host and build facts recorded next to every result, so that runs
/// from different hosts or thread counts are never compared silently.
std::string config_json(const bench::Options& o, const std::string& source_id,
                        const bench::Result& r) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,\"nproc\":%d,"
                "\"pool_width\":%u,\"cxx\":\"%s\",\"cc\":\"%s\",\"l2_bytes\":%ld,"
                "\"l3_bytes\":%ld,\"source\":\"%s\"",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, o.threads, msc::global_pool().size(),
                json_escape(__VERSION__).c_str(),
                first_line(msc::run_shell("cc --version 2>/dev/null", 10000.0).output).c_str(),
                sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
                json_escape(source_id).c_str());
  std::string s = buf;
  if (!r.config_json.empty()) s += "," + r.config_json;
  return "{" + s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts;
  std::string source_id = "unknown";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") opts.workload = val;
    else if (key == "--seed") opts.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") opts.seconds = std::atof(val);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--out") opts.out_dir = val;
    else if (key == "--source-id") source_id = val;
    else return usage(("unknown option " + key).c_str());
  }
  if (argc % 2 != 1) return usage("options take one value each");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (opts.out_dir.empty()) return usage("--out is required");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");
  opts.trace = trace == 1;
  opts.aot_cache = opts.out_dir + "/aot_cache";
  opts.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  void (*run)(const bench::Options&, bench::Result&) = nullptr;
  if (opts.workload == "stream3d-aot") run = bench::run_stream3d_aot;
  else if (opts.workload == "box2d-sweep") run = bench::run_box2d_sweep;
  else if (opts.workload == "chain3d-dist") run = bench::run_chain3d_dist;
  else return usage(("unknown workload '" + opts.workload + "'").c_str());

  bench::Result r;
  try {
    run(opts, r);
    if (opts.trace) bench::report_machine(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msc_perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  if (r.attempted < 1) {
    std::fprintf(stderr, "msc_perfbench: no op was attempted\n");
    return 1;
  }
  if (opts.trace) {
    for (const auto& m : kLayerMetrics) {
      bool have = false;
      for (const auto& [name, v] : r.metrics) have = have || name == m.name;
      if (!have) {
        r.metric(m.name, 0.0, m.unit);
        r.note(std::string(m.name) + ": layer not exercised by this workload (reported as 0)");
      }
    }
  }

  std::printf("config: %s\n", config_json(opts, source_id, r).c_str());
  for (const auto& n : r.notes) std::printf("%s\n", n.c_str());
  std::printf("ops: attempted %lld, failed %lld\n", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (const auto& [name, v] : r.metrics)
    std::printf("metric %-24s %14.6g %s\n", name.c_str(), v.first, v.second.c_str());

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": ";
  json += std::to_string(r.attempted);
  json += ", \"failed\": ";
  json += std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : r.metrics) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v.first, v.second.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
