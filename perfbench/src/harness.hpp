#pragma once

// Shared plumbing of the workloads: options, the result every run prints,
// order statistics, and the glue between the engine-independent check
// (naive.hpp) and MSC grids.

#include <sched.h>

#include <cstdint>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "exec/grid.hpp"
#include "naive.hpp"
#include "trace.hpp"

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;   ///< traces and per-run records land here
  std::string aot_cache; ///< AOT compile cache directory
  int threads = 1;       ///< nproc
};

/// What one run reports.  `correct` starts true and any failed check
/// clears it, with the reason appended to `notes`.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;
  std::string config_json;  ///< workload-specific config fields, JSON members

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
  void note(const std::string& what) { notes.push_back(what); }
};

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Confines the calling thread, and every thread it starts while the guard
/// lives, to one vCPU; restores the calling thread's mask on destruction
/// (threads started meanwhile keep the one vCPU).  Workloads whose threads
/// synchronise often use it: on a shared VM, N threads on N vCPUs need all
/// N scheduled at once, so their time followed the host's load and moved
/// up to 5x within minutes.  Sharing one vCPU, an op measures the work of
/// all threads together, and its spread between runs was a few percent.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_{};
};

/// Returns the freed heap of a discarded set-up to the OS (malloc_trim),
/// so that its pages, which the kernel may back with huge pages after the
/// grid's MADV_HUGEPAGE, do not count in the run's peak RSS.  A user sets
/// up once; only the benchmark repeats set-ups.
void release_heap();

/// Writes seed_value() into the interior of the initial ring slots (steps
/// 0, -1, ...) of `g`, a block of the global field whose origin is `origin`.
void seed_grid(msc::exec::GridStorage<double>& g, const StencilTable& tab, std::uint64_t seed,
               const Coord& origin = {0, 0, 0});

/// Reader of a single-node grid's step t, for the checks in naive.hpp.
inline auto grid_reader(const msc::exec::GridStorage<double>& g) {
  return [&g](std::int64_t t, const Coord& c) { return g.at(g.slot_for_time(t), c); };
}

/// FNV-1a over the interior of every ring slot, for bit-identity checks.
std::uint64_t grid_hash(const msc::exec::GridStorage<double>& g,
                        std::uint64_t h = 0xcbf29ce484222325ULL);

/// Shows the check can fail: perturbs one sampled point of step t, expects
/// `check()` to report more than the tolerance, then restores the value.
template <typename Check>
bool corruption_rejected(msc::exec::GridStorage<double>& g, std::int64_t t, const Coord& c,
                         Check&& check) {
  double& v = g.at(g.slot_for_time(t), c);
  const double saved = v;
  v = saved + 1e-6 * (std::abs(saved) + 1e-3);
  const bool rejected = check() > kTolerance;
  v = saved;
  return rejected;
}

/// Timings of one arm's set-ups and ops.
struct OpLog {
  /// Ops that make up solve_s, and the fewest ops a run makes, so that p90
  /// has at least 10 samples beyond it.
  static constexpr std::int64_t kSolveOps = 100;
  /// Set-ups a run makes, so that setup_s is a median of many.
  static constexpr std::int64_t kSetups = 20;

  std::vector<double> op_s;     ///< wall time per op
  std::vector<double> setup_s;  ///< wall time per set-up
  std::int64_t points = 0;      ///< interior-point updates over the ops
  double solve_rss_mb = 0.0;    ///< peak RSS when the kSolveOps-th op ended

  void record(double seconds) {
    op_s.push_back(seconds);
    if (static_cast<std::int64_t>(op_s.size()) == kSolveOps) solve_rss_mb = peak_rss_mb();
  }
  bool keep_going(double started, double seconds) const {
    return static_cast<std::int64_t>(op_s.size()) < kSolveOps || now_s() - started < seconds;
  }
  /// Emits setup_s, solve_s, mlups, op_ms_p50, op_ms_p90, peak_rss_mb.
  /// Peak RSS is read when the solve window ends, so it measures a fixed
  /// amount of work however many ops the run makes.
  void report(Result& r) const;
  /// Time to set up and run a fixed kSolveOps-interval problem: median
  /// set-up plus kSolveOps ops at the run's mean op time.
  double solve_s() const;
};

/// One arm of a run: the workload's state, the timings of its set-ups and
/// ops, and its tracer (null on the untraced arm).
template <typename State>
struct Arm {
  Tracer* tr = nullptr;
  OpLog log;
  State state;
};

/// Set-ups and ops until `opts.seconds` have passed and the plain arm ran
/// at least OpLog::kSolveOps.  The OpLog::kSetups set-ups are spread over
/// the first kSolveOps ops, so that their median samples the host under the
/// same load as the ops: each replaces the arm's state, and the ops after
/// it step the new one.  With a traced arm, each set-up and op of the plain
/// arm is followed by the same one of the traced arm, on the same inputs,
/// so that host noise hits both alike.  `set_up(arm)` returns a new State;
/// `op(arm)` advances `arm.state` and returns false when the op measured
/// something else than it should (an AOT fallback).  Such an op, or one
/// that throws, counts as failed.
template <typename State, typename SetUp, typename Op>
void run_arms(const Options& opts, std::int64_t points_per_op, Arm<State>& plain,
              Arm<State>* traced, SetUp&& set_up, Op&& op, Result& r) {
  constexpr std::int64_t spacing = OpLog::kSolveOps / OpLog::kSetups;
  const double started = now_s();
  for (std::int64_t i = 0; plain.log.keep_going(started, opts.seconds); ++i)
    for (Arm<State>* a : {&plain, traced}) {
      if (a == nullptr) continue;
      if (i % spacing == 0 && i / spacing < OpLog::kSetups) {
        a->state = State{};
        release_heap();
        const double t0 = now_s();
        a->state = set_up(*a);
        a->log.setup_s.push_back(now_s() - t0);
      }
      if (a->tr != nullptr) a->tr->set_op(i);
      const double t0 = now_s();
      bool ok = true;
      try {
        Scope s(a->tr, 0, "bench.op");
        ok = op(*a);
      } catch (const std::exception& e) {
        ok = false;
        r.note(std::string("op threw: ") + e.what());
      }
      a->log.record(now_s() - t0);
      if (a->tr != nullptr) a->tr->set_op(-1);
      ++r.attempted;
      if (!ok) ++r.failed;
    }
  for (Arm<State>* a : {&plain, traced})
    if (a != nullptr) a->log.points = static_cast<std::int64_t>(a->log.op_s.size()) * points_per_op;
}

/// Tracing overhead in %: traced against untraced solve time, each taken
/// as median set-up + kSolveOps x median op, so that one slow op or set-up
/// does not decide it.  Notes both arms' medians.
double overhead_pct(const OpLog& plain, const OpLog& traced, Result& r);

/// machine.triad_gbs and machine.peak_gflops: the host roofs measured in
/// this run (machine::probe_host).
void report_machine(Result& r);

/// exec.gflops, exec.flop_per_byte and exec.pct_roof.  The roof share is
/// reported only where the roof applies: a working set larger than L3, or
/// a kernel the DRAM roof already calls compute-bound; elsewhere it is 0.
void report_roof(Result& r, double flops_per_op, double op_compute_s, double flop_per_byte,
                 double working_set_bytes);

/// trace.unattributed_pct: the share of op wall time that the spans along
/// the blocking path do not cover.  Above 15% the trace does not explain
/// the op, and the run is not correct.
void report_unattributed(Result& r, double pct);

/// Writes the spans to <out>/trace-<workload>-seed<n>.json.
void write_trace(const Tracer& tr, const Options& opts, Result& r);

/// Per-layer self time of the op spans over lanes >= first_lane, divided
/// by `per` (ops, or ops x ranks), as a note.
void note_self_times(Result& r, const Tracer& tr, double per, int first_lane = 0);

}  // namespace bench
