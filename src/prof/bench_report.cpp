#include "prof/bench_report.hpp"

#include <cstdio>
#include <cstdlib>

#include "prof/counters.hpp"
#include "support/buffer.hpp"
#include "support/strings.hpp"

namespace msc::prof {

BenchReport::BenchReport(std::string name, std::string workload)
    : name_(std::move(name)), workload_(std::move(workload)) {}

void BenchReport::set_config(const std::string& key, const std::string& value) {
  for (auto& [k, v] : config_)
    if (k == key) {
      v = value;
      return;
    }
  config_.emplace_back(key, value);
}

void BenchReport::set_config(const std::string& key, long long value) {
  set_config(key, strprintf("%lld", value));
}

void BenchReport::set_counter(const std::string& name, std::int64_t value) {
  for (auto& [k, v] : counters_)
    if (k == name) {
      v = value;
      return;
    }
  counters_.emplace_back(name, value);
}

void BenchReport::capture_global_counters() {
  for (const auto& [name, value] : global_counters().snapshot()) set_counter(name, value);
}

void BenchReport::add_result(workload::Json row) { results_.push_back(std::move(row)); }

workload::Json BenchReport::to_json() const {
  using workload::Json;
  Json root = Json::object();
  root["schema"] = Json::string("msc-bench-v1");
  root["name"] = Json::string(name_);
  root["workload"] = Json::string(workload_);
  Json& config = root["config"];
  config = Json::object();
  for (const auto& [k, v] : config_) config[k] = Json::string(v);
  Json& host = root["host"];
  host = Json::object();
  host["thp"] = Json::string(transparent_hugepage_mode());
  Json& counters = root["counters"];
  counters = Json::object();
  for (const auto& [k, v] : counters_) counters[k] = Json::integer(v);
  Json& results = root["results"];
  results = Json::array();
  for (const auto& row : results_) results.push_back(row);
  root["wall_seconds"] = Json::number(wall_seconds_);
  return root;
}

std::string BenchReport::write() const {
  const std::string path = bench_report_dir() + "/BENCH_" + name_ + ".json";
  workload::write_file(path, to_json().dump() + "\n");
  std::printf("bench report: %s\n", path.c_str());
  return path;
}

std::string bench_report_dir() {
  const char* dir = std::getenv("MSC_BENCH_DIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
#ifdef MSC_BENCH_DEFAULT_DIR
  // Default to the repo root (baked in at configure time) so bench reports
  // accumulate a trajectory even when nobody exports MSC_BENCH_DIR.
  return MSC_BENCH_DEFAULT_DIR;
#else
  return ".";
#endif
}

}  // namespace msc::prof
