#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace bench {

double now_s() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

Tracer::Tracer(int lanes) : lanes_(static_cast<std::size_t>(lanes)) {
  for (auto& l : lanes_) l.spans.reserve(1 << 12);
}

int Tracer::open(int lane, const char* name) {
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  Span s;
  s.name = name;
  s.lane = lane;
  s.parent = l.stack.empty() ? -1 : l.stack.back();
  s.op = op_;
  s.t0 = now_s();
  l.spans.push_back(s);
  const int index = static_cast<int>(l.spans.size()) - 1;
  l.stack.push_back(index);
  return index;
}

void Tracer::close(int lane, int index) {
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  l.spans[static_cast<std::size_t>(index)].t1 = now_s();
  l.stack.pop_back();
}

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (const auto& l : lanes_)
    for (const auto& s : l.spans)
      if (std::strcmp(s.name, name) == 0) out.push_back(s.seconds());
  return out;
}

std::map<std::int64_t, double> Tracer::per_op(int lane, const char* name) const {
  std::map<std::int64_t, double> out;
  for (const auto& s : lanes_[static_cast<std::size_t>(lane)].spans)
    if (std::strcmp(s.name, name) == 0) out[s.op] += s.seconds();
  return out;
}

std::map<std::string, double> Tracer::self_by_layer(int first_lane) const {
  std::map<std::string, double> out;
  for (std::size_t lane = static_cast<std::size_t>(first_lane); lane < lanes_.size(); ++lane) {
    const Lane& l = lanes_[lane];
    std::vector<double> self(l.spans.size());
    for (std::size_t i = 0; i < l.spans.size(); ++i) self[i] = l.spans[i].seconds();
    for (const auto& s : l.spans)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
    for (std::size_t i = 0; i < l.spans.size(); ++i) {
      if (l.spans[i].op < 0) continue;  // set-up and bookkeeping
      const char* dot = std::strchr(l.spans[i].name, '.');
      const std::string layer =
          dot == nullptr ? l.spans[i].name : std::string(l.spans[i].name, dot);
      out[layer] += self[i];
    }
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::string& config_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"schema\":\"msc-perfbench-trace-v1\",\"config\":%s,\"spans\":[",
               config_json.c_str());
  bool first = true;
  for (const auto& l : lanes_)
    for (const auto& s : l.spans) {
      std::fprintf(f, "%s\n{\"name\":\"%s\",\"lane\":%d,\"parent\":%d,\"op\":%lld,"
                      "\"t0_us\":%.3f,\"t1_us\":%.3f}",
                   first ? "" : ",", s.name, s.lane, s.parent, static_cast<long long>(s.op),
                   s.t0 * 1e6, s.t1 * 1e6);
      first = false;
    }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench
