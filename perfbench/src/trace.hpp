#pragma once

// In-memory span recorder for the traced benchmark run.
//
// Every public MSC call the benchmark makes is wrapped in a Scope that
// records (name, lane, parent, op, start, end).  A lane is one thread of
// control: lane 0 is the main thread, lanes 1..n are simmpi ranks 0..n-1.
// Each lane is written by one thread at a time (rank threads are joined
// before the main thread reads), so recording takes no lock.  Span names are
// "<layer>.<call>"; the layer is the MSC module the call enters.
//
// Self time of a span is its duration minus the durations of its direct
// children, so self times along one lane sum exactly to the lane's covered
// wall time.  The spans are written out as JSON when the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

/// Seconds on the steady clock since process start.
double now_s();

struct Span {
  const char* name = "";  ///< "<layer>.<call>", a string literal
  int lane = 0;
  int parent = -1;        ///< index into the same lane, -1 = root
  std::int64_t op = -1;   ///< op id, -1 = set-up / bookkeeping
  double t0 = 0.0, t1 = 0.0;
  double seconds() const { return t1 - t0; }
};

class Tracer {
 public:
  explicit Tracer(int lanes);

  /// Op id stamped on spans opened from now on (set between ops).
  void set_op(std::int64_t op) { op_ = op; }

  int open(int lane, const char* name);
  void close(int lane, int index);

  const std::vector<Span>& spans(int lane) const { return lanes_[lane].spans; }

  /// Durations (s) of every span called `name`, in recording order.
  std::vector<double> durations(const char* name) const;
  /// Sum of the durations of spans called `name` per op on `lane`.
  std::map<std::int64_t, double> per_op(int lane, const char* name) const;

  /// Self time (s) of op spans (op >= 0) summed per layer over lanes >= first_lane.
  std::map<std::string, double> self_by_layer(int first_lane = 0) const;

  /// Writes {"config":..., "spans":[...]} to `path`; returns false on I/O error.
  bool write(const std::string& path, const std::string& config_json) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<int> stack;
  };
  std::vector<Lane> lanes_;
  std::int64_t op_ = -1;
};

/// RAII span; a null tracer records nothing (the untraced run).
class Scope {
 public:
  Scope(Tracer* tr, int lane, const char* name) : tr_(tr), lane_(lane) {
    if (tr_ != nullptr) index_ = tr_->open(lane_, name);
  }
  ~Scope() {
    if (tr_ != nullptr) tr_->close(lane_, index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tr_;
  int lane_;
  int index_ = -1;
};

}  // namespace bench
