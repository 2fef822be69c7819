#pragma once

// The AOT dlopen host backend: per stencil and grid geometry, emit a
// specialized C row kernel (codegen/aot_kernel.hpp), compile it with the
// host cc into a shared object, dlopen it, and hand its row kernel to the
// same drivers every host engine uses.  The pipeline is
//
//   linearize -> make_aot_spec -> gen_aot_kernel     (emit)
//   -> <cache_dir>/<hash>.c -> cc -shared -> <hash>.so  (compile, cached)
//   -> dlopen + symbol/ABI checks                    (load)
//   -> run_scheduled / run_scheduled_temporal with msc_aot_row as the
//      row kernel                                    (execute)
//
// The module holds no time loop: steps, halo fills, parallel tile chunks,
// time_tile wedges, cancellation and flight spans all come from the
// drivers, so AOT runs are bit-identical to the sweep engine under every
// schedule and boundary.
//
// The compile cache is keyed by an FNV-1a hash over the *generated source
// text*, the compile command flags, and the emitter ABI version — so any
// change to the codegen output, the flags, or the ABI lands on a new key
// and stale shared objects are never reused.  A cached .so that fails to
// dlopen or fails its ABI checks is deleted and rebuilt once.
//
// A missing host cc, a non-affine stencil, or a failed or quarantined
// compile falls back to the built-in sweep kernels under the same driver
// and reports why through AotExecInfo — never silently.

#include <cstdint>
#include <memory>
#include <string>

#include "exec/aot_info.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "ir/stencil.hpp"
#include "schedule/schedule.hpp"

namespace msc::exec {

/// Stable slug classifying a fallback reason string — the suffix of the
/// labelled counter `aot.fallback.<slug>` (no_cc, not_affine,
/// compile_failed, compile_timeout, quarantined, dlopen_failed,
/// missing_symbols, abi_mismatch, cache_io, other).  msc-conform prints
/// these counters when an AOT oracle fails.
const char* aot_fallback_slug(const std::string& reason);

/// Circuit breaker over the AOT pipeline, keyed by plan hash.  A plan whose
/// compile crashed or exceeded its time budget is quarantined: every later
/// attempt skips the pipeline entirely and degrades to the sweep engine
/// with a counted `aot.fallback.quarantined` reason (re-running a compiler
/// that just hung would stall every request touching the plan).
/// Returns the quarantine reason, or empty when the plan is clear.
std::string aot_quarantine_reason(const std::string& plan_hash);

/// Number of quarantined plans (tests / ops visibility).
int aot_quarantined_count();

/// Clears the breaker (tests; a fixed compiler deserves a fresh chance).
void aot_breaker_reset();

namespace detail {

/// RAII over one dlopen'd kernel module; dlclose on destruction.  The
/// live() count exists so tests can pin the teardown contract (no handle
/// leaks across runs).
class AotModule {
 public:
  AotModule(void* handle, std::string path);
  ~AotModule();
  AotModule(const AotModule&) = delete;
  AotModule& operator=(const AotModule&) = delete;

  /// msc_aot_row, typed for the stencil's element type at emission; the
  /// caller casts it to detail::RowFn<T> of that type.
  using RowSym = void (*)();
  RowSym row = nullptr;
  std::int64_t padded_points = 0;
  const std::string& path() const { return path_; }

  /// Number of AotModule instances currently holding a dlopen handle.
  static int live();

 private:
  void* handle_ = nullptr;
  std::string path_;
};

/// Emits, compiles (or reuses), and loads the module for one stencil.  The
/// module depends only on the stencil and its grid geometry, so `sched` does
/// not enter it: every schedule of a plan shares one compiled object.
/// Returns nullptr with `why` set on any failure — callers
/// decide whether that means skip, fallback, or error.  `cancel` is polled
/// between pipeline stages (probe / emit / compile / dlopen); the compile
/// itself runs under min(compile budget, remaining deadline) so a hung cc
/// cannot outlive either.  A fired token throws Cancelled.
std::shared_ptr<AotModule> load_aot_module(const ir::StencilDef& st,
                                           const schedule::Schedule& sched,
                                           const Bindings& bindings, const AotOptions& opts,
                                           AotExecInfo* info, std::string* why,
                                           const CancelToken* cancel = nullptr);

}  // namespace detail

/// AOT executor: same numerics as run_scheduled — bit-identical for every
/// dtype, schedule and boundary — with the dlopen'd kernel as the row
/// kernel of run_scheduled, or of run_scheduled_temporal when the schedule
/// has time_tile() depth > 1.  Those drivers supply halos, parallelism,
/// cancellation (row-chunk or wedge granularity, all-or-nothing) and stats.
/// A missing cc, a compile failure, or a quarantined plan falls back to
/// the same driver with the built-in sweep kernels and reports it via
/// `info` (and the aot.fallback counter).
template <typename T>
void run_scheduled_aot(const ir::StencilDef& st, const schedule::Schedule& sched,
                       GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end,
                       Boundary bc, const Bindings& bindings = {}, ExecStats* stats = nullptr,
                       AotExecInfo* info = nullptr, const AotOptions& opts = {},
                       const CancelToken* cancel = nullptr);

extern template void run_scheduled_aot<float>(const ir::StencilDef&, const schedule::Schedule&,
                                              GridStorage<float>&, std::int64_t, std::int64_t,
                                              Boundary, const Bindings&, ExecStats*,
                                              AotExecInfo*, const AotOptions&,
                                              const CancelToken*);
extern template void run_scheduled_aot<double>(const ir::StencilDef&,
                                               const schedule::Schedule&, GridStorage<double>&,
                                               std::int64_t, std::int64_t, Boundary,
                                               const Bindings&, ExecStats*, AotExecInfo*,
                                               const AotOptions&, const CancelToken*);

}  // namespace msc::exec
