#pragma once

// Deadline-aware cooperative cancellation.
//
// Every long-running path in the library (row sweeps, temporal wedges, the
// AOT compile pipeline, simmpi waits) accepts an optional `const CancelToken*`
// and polls it at natural checkpoint boundaries.  A token is cancelled either
// explicitly (caller, watchdog) or implicitly when its Deadline expires; the
// first reason to land wins and is latched.  Checkpoints throw `Cancelled`,
// which engines translate into all-or-nothing semantics: output slots are
// restored to their pre-run contents before the exception escapes, so a
// cancelled run is indistinguishable from one that never started.
//
// The uncancelled hot path pays one relaxed atomic load per checkpoint, plus
// a steady_clock read on every 64th poll and at each coarse site (a sweep
// step's first tile, a wedge block's first wedge); checkpoints sit
// at row-chunk / wedge / pipeline-stage granularity, never inside row loops,
// and checkpoint creep is pinned by bench_cancellation's history gate
// (~2% overhead budget, gated at the measurement's noise floor).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "support/error.hpp"

namespace msc {

/// Structured error taxonomy.  Every coded failure the degradation ladder can
/// produce maps to one value; `error_code_name` gives the stable slug used in
/// logs, counters, and chaos reports.
enum class ErrorCode : int {
  Ok = 0,
  Cancelled,        ///< explicit CancelToken::cancel() by the caller
  DeadlineExpired,  ///< the token's deadline passed at a checkpoint
  WatchdogStall,    ///< the watchdog cancelled a run with no liveness progress
  CompileTimeout,   ///< AOT host-cc exceeded its compile budget (degraded)
  CompileCrashed,   ///< AOT host-cc died on a signal (degraded)
  Quarantined,      ///< plan routed around AOT by the circuit breaker
  CommTimeout,      ///< simmpi wait exhausted its retry/escalation budget
  RankFailure,      ///< a peer rank crashed or was declared failed
  InvalidConfig,    ///< rejected env knob / option value
  Internal,         ///< invariant violation / uncategorised
};

/// Stable lower_snake slug for an ErrorCode ("deadline_expired", ...).
const char* error_code_name(ErrorCode code);

/// An msc::Error carrying its taxonomy code.
class CodedError : public Error {
 public:
  CodedError(ErrorCode code, std::string message)
      : Error(std::move(message)), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Thrown by CancelToken::checkpoint().  `code()` says why the run stopped
/// (Cancelled / DeadlineExpired / WatchdogStall) and `site()` names the
/// checkpoint that observed it ("sweep.row_chunk", "aot.compile", ...).
class Cancelled : public CodedError {
 public:
  Cancelled(ErrorCode code, std::string site);
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// A wall-clock budget on std::chrono::steady_clock.  Default-constructed
/// deadlines are unarmed and never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;
  explicit Deadline(Clock::time_point when) : armed_(true), when_(when) {}

  /// Deadline `ms` milliseconds from now; ms <= 0 expires immediately.
  static Deadline after_ms(double ms);

  bool armed() const { return armed_; }
  bool expired() const { return armed_ && Clock::now() >= when_; }
  Clock::time_point when() const { return when_; }

  /// Milliseconds until expiry: +inf when unarmed, clamped at 0 when past.
  double remaining_ms() const;

 private:
  bool armed_ = false;
  Clock::time_point when_{};
};

/// Shared cancellation state.  Thread-safe: any thread may cancel(); any
/// number of workers may poll()/checkpoint() concurrently.  The deadline is
/// set before the run starts and not mutated while workers are polling.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}

  /// Arms (or clears) the deadline.  Not thread-safe against concurrent
  /// poll(); call before handing the token to a run.
  void set_deadline(Deadline deadline) { deadline_ = deadline; }
  const Deadline& deadline() const { return deadline_; }

  /// Requests cancellation.  Idempotent; the first reason latched wins.
  /// `reason` must be Cancelled, DeadlineExpired, or WatchdogStall.
  void cancel(ErrorCode reason = ErrorCode::Cancelled);

  /// Current state without a clock read: the latched reason, or Ok.
  ErrorCode state() const { return static_cast<ErrorCode>(state_.load(std::memory_order_relaxed)); }

  /// Cheap cooperative check: latched reason if any, else a deadline test
  /// (latching DeadlineExpired the first time it trips).  Ok means keep
  /// going.  A latched cancel is seen on the next poll, but the deadline's
  /// clock is read only on every 64th poll (the first included), so
  /// expiry is seen up to 63 polls late — however long each poll's work
  /// quantum takes.  Sites whose quanta can be long use
  /// checkpoint(site, first), which reads the clock once per coarse block.
  ErrorCode poll() const;

  /// Like poll(), but always performs the deadline clock read.  For coarse
  /// checkpoints (pipeline stage boundaries, per-timestep dispatch) where
  /// the clock read is negligible against the work quantum and detection
  /// must not be amortized.
  ErrorCode poll_now() const;

  /// Poll and throw Cancelled{reason, site} when the token has fired.
  /// Engines call this at every checkpoint boundary.
  void checkpoint(const char* site) const;

  /// checkpoint() on poll_now(): exact deadline detection at coarse sites.
  void checkpoint_now(const char* site) const;

  /// The checkpoint of one unit in a coarse block (a sweep step's tiles, a
  /// wedge block's wedges): the block's `first` unit reads the deadline
  /// clock, the rest poll.  A deadline is thus seen within one block,
  /// however long each unit takes.
  void checkpoint(const char* site, bool first) const {
    if (first)
      checkpoint_now(site);
    else
      checkpoint(site);
  }

  /// min(cap_ms, remaining deadline budget); cap_ms <= 0 means "no cap"
  /// (returns the deadline budget alone, +inf when unarmed).  Used by
  /// simmpi to map the remaining budget onto its per-wait timeouts.
  double budget_ms(double cap_ms) const;

  /// Number of poll()/checkpoint() calls observed (relaxed; for tests and
  /// the overhead bench, not for synchronization).
  std::int64_t polls() const { return polls_.load(std::memory_order_relaxed); }

 private:
  ErrorCode latch_if_expired() const;
  mutable std::atomic<int> state_{static_cast<int>(ErrorCode::Ok)};
  mutable std::atomic<std::int64_t> polls_{0};
  Deadline deadline_;
};

/// True for the three codes a CancelToken can latch.
inline bool is_cancellation_code(ErrorCode code) {
  return code == ErrorCode::Cancelled || code == ErrorCode::DeadlineExpired ||
         code == ErrorCode::WatchdogStall;
}

}  // namespace msc
