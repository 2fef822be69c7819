#pragma once

// Bench-history ledger: the perf-trajectory memory behind BENCH_*.json.
//
// Every bench run produces one msc-bench-v1 report (bench_report.hpp).  This
// module flattens a report into scalar metrics, appends it as one JSON line
// (schema "msc-bench-hist-v1") to bench/history/<name>.jsonl, and compares a
// fresh run against a noise-aware baseline built from earlier entries with
// the same configuration hash:
//
//   baseline  = median of the last K runs (default 5),
//   threshold = max(min_rel, mad_mult * MAD / |baseline|),
//
// so a metric flags as a regression only when it moves beyond both a floor
// (5%) and the observed run-to-run noise (median absolute deviation).  The
// msc-bench-diff CLI drives this as a CI perf gate; the same functions are
// unit-tested against synthetic histories.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/report.hpp"

namespace msc::prof {

/// One history line: the scalar residue of a bench report.
struct HistoryEntry {
  std::string name;         ///< bench name (BENCH_<name>.json)
  std::string workload;
  std::string config_hash;  ///< hash of name/workload/config — runs only
                            ///< compare against runs of the same shape
  double wall_seconds = 0.0;
  std::vector<std::pair<std::string, double>> metrics;  ///< insertion order
};

/// FNV-1a over name, workload, and every config key=value pair (hex).  The
/// report's `host` object is not hashed: host facts explain a result but
/// must not re-key the ledgers.
std::string config_hash(const workload::Json& bench_report);

/// Flattens a msc-bench-v1 report: every numeric field of every results row
/// becomes a metric "<row>.<field>", where <row> is the row's identifying
/// string member (benchmark/label/name/oracle, or "run<N>"), else "row<i>".
/// Throws msc::Error when the schema is not msc-bench-v1.
HistoryEntry flatten_bench_report(const workload::Json& bench_report);

/// History directory: $MSC_BENCH_HISTORY_DIR, else <repo>/bench/history
/// (compiled in via MSC_BENCH_DEFAULT_DIR), else ./bench/history.
std::string history_dir();

/// <dir>/<name>.jsonl
std::string history_path(const std::string& dir, const std::string& name);

/// Serializes one entry as a msc-bench-hist-v1 JSON object.
workload::Json history_entry_json(const HistoryEntry& entry);

/// Parses one msc-bench-hist-v1 line back into an entry.
HistoryEntry parse_history_entry(const workload::Json& line);

/// Appends `entry` to <dir>/<name>.jsonl, creating the directory if needed.
void append_history(const std::string& dir, const HistoryEntry& entry);

/// Loads every line of a .jsonl ledger; a missing file yields an empty
/// history (the bootstrap case), a malformed line throws.
std::vector<HistoryEntry> load_history(const std::string& path);

/// How a metric is judged.  Inferred from the key: seconds/time/bytes/
/// latency/cycles are lower-is-better, gflops/speedup/gain/efficiency/
/// ratio/r2 higher-is-better, anything else informational (never gated).
enum class MetricDirection { LowerIsBetter, HigherIsBetter, Informational };
MetricDirection metric_direction(const std::string& key);

struct DiffOptions {
  int last_k = 5;                 ///< baseline window
  double min_rel_threshold = 0.05;
  double mad_multiplier = 3.0;
};

/// One metric's fresh-vs-baseline comparison.
struct MetricDelta {
  std::string key;
  MetricDirection direction = MetricDirection::Informational;
  double baseline = 0.0;   ///< median of the window
  double current = 0.0;
  double rel_delta = 0.0;  ///< (current - baseline) / |baseline|
  double threshold = 0.0;  ///< relative threshold this metric was judged by
  int samples = 0;         ///< window size behind the baseline
  bool regressed = false;
};

struct DiffReport {
  std::vector<MetricDelta> deltas;
  std::vector<std::string> new_metrics;  ///< present now, absent from history
  int baseline_runs = 0;  ///< history entries sharing the config hash
  bool regressed = false;
};

/// Compares `fresh` against the last-K same-config entries of `history`.
DiffReport diff_against_history(const std::vector<HistoryEntry>& history,
                                const HistoryEntry& fresh, const DiffOptions& opts = {});

/// Markdown delta table (what msc-bench-diff prints).
std::string diff_markdown(const HistoryEntry& fresh, const DiffReport& report,
                          const DiffOptions& opts);

}  // namespace msc::prof
