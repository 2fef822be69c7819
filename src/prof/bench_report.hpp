#pragma once

// Uniform machine-readable benchmark output: every bench target builds a
// BenchReport and writes BENCH_<name>.json next to its printf table, so
// the perf trajectory is scrapeable run to run.
//
// Schema ("msc-bench-v1"):
//   {
//     "schema": "msc-bench-v1",
//     "name": "<bench name>",
//     "workload": "<stencil/workload id>",
//     "config": { "<key>": "<value>", ... },
//     "host": { "thp": "<always|madvise|never|unavailable>" },
//     "counters": { "<counter name>": <int64>, ... },
//     "results": [ <bench-specific objects> ],
//     "wall_seconds": <double>
//   }
//
// `config` identifies the run: prof::config_hash keys the bench-history
// ledgers by it.  `host` records facts about the machine that explain a
// result without re-keying those ledgers — "thp" is the transparent huge
// page mode, which decides whether large grids get 2 MiB pages
// (support/buffer.hpp).
//
// Output directory: $MSC_BENCH_DIR when set, else the repo root compiled in
// as MSC_BENCH_DEFAULT_DIR (so reports land somewhere stable by default),
// else the current directory.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/report.hpp"

namespace msc::prof {

class BenchReport {
 public:
  BenchReport(std::string name, std::string workload);

  /// Free-form configuration key/value (grid size, dtype, tile, ...).
  void set_config(const std::string& key, const std::string& value);
  void set_config(const std::string& key, long long value);

  /// Records one named counter value (overwrites on repeat).
  void set_counter(const std::string& name, std::int64_t value);

  /// Copies every counter from the global registry into the report.
  void capture_global_counters();

  /// Appends a bench-specific result row (any Json shape).
  void add_result(workload::Json row);

  void set_wall_seconds(double s) { wall_seconds_ = s; }

  workload::Json to_json() const;

  /// Writes BENCH_<name>.json into $MSC_BENCH_DIR (or cwd); returns the path.
  std::string write() const;

 private:
  std::string name_;
  std::string workload_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, std::int64_t>> counters_;
  std::vector<workload::Json> results_;
  double wall_seconds_ = 0.0;
};

/// Resolved output directory for bench reports ($MSC_BENCH_DIR, else the
/// compiled-in repo root, else ".").
std::string bench_report_dir();

}  // namespace msc::prof
