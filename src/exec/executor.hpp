#pragma once

// Host executors for stencil programs.
//
//  * run_pointwise — serial, definition-order walk of the IR through the
//    per-point expression evaluator (exec/eval).  It shares no lowering
//    with the engines (no linearization, no term resolution, no row
//    kernel), which makes it the independent ground truth: paper §5.1
//    measures relative error of generated code against exactly such a
//    serial version, and the conformance `reference` oracle runs it.
//  * run_reference — the same serial semantics at engine speed: affine
//    stencils run the row-sweep engine on one full-interior tile, anything
//    else falls back to run_pointwise.  The distributed and checkpointed
//    drivers call it once per rank per step.
//  * run_scheduled — executes the kernel's Schedule through the compiled
//    row-sweep engine (sweep.hpp): the loop nest is lowered once to a flat
//    clamped tile list and every tile's innermost dimension runs as a
//    stride-1 row loop; a parallel schedule chunks whole tiles over the
//    process thread pool.
//  * run_scheduled_temporal — the same numerics through time-skewed wedges
//    (temporal_sweep.hpp).
//
// All compute timesteps t_begin..t_end (inclusive) of a StencilDef,
// writing the output of step t into the state grid's ring slot for t and
// reading the slots of t-1, t-2, ... per the stencil's time terms.  The
// caller seeds the initial slots (t_begin-1 .. t_begin-window+1).

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "exec/eval.hpp"
#include "exec/grid.hpp"
#include "exec/linearize.hpp"
#include "exec/sweep.hpp"
#include "exec/temporal_sweep.hpp"
#include "ir/stencil.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "prof/trace.hpp"
#include "schedule/schedule.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"

namespace msc::exec {

/// Observable work counters filled by the executors (used by tests and by
/// the simulators' traffic accounting).
struct ExecStats {
  std::int64_t timesteps = 0;
  std::int64_t points_updated = 0;
  std::int64_t flops = 0;          ///< 2 per linear term (mul + add)
  std::int64_t tiles_executed = 0; ///< entries into the read buffer's compute_at level
  std::int64_t staged_bytes_in = 0;
  std::int64_t staged_bytes_out = 0;
};

/// The stencil's combined affine form: every (kernel, time term) pair
/// flattened to weighted linear terms against the single state grid.
/// nullopt when any member kernel leaves the affine fragment.
std::optional<LinearKernel> linearize_stencil(const ir::StencilDef& st,
                                              const Bindings& bindings);

/// Read-only auxiliary grids (coefficient fields etc.) keyed by tensor
/// name; the caller owns them and has filled their halos.
template <typename T>
using AuxGrids = std::map<std::string, const GridStorage<T>*>;

namespace detail {

/// All-or-nothing cancellation guard: snapshots every ring slot (halos
/// included) once at run entry, and restore() puts them back so a cancelled
/// run leaves the grid bit-identical to its pre-run state.  Armed only when
/// a CancelToken is attached — uncancellable runs pay a single null test.
/// One snapshot per run (not per step) keeps the armed-token overhead
/// amortized across the whole time range, inside the <=2% hot-path budget.
template <typename T>
class CancelGuard {
 public:
  CancelGuard(GridStorage<T>& state, const CancelToken* cancel) {
    if (cancel == nullptr) return;
    state_ = &state;
    // Append-copy rather than resize-then-copy: resize would zero-fill the
    // whole snapshot first, a second pass over it on every armed run.
    const auto per_slot = static_cast<std::size_t>(state.padded_points());
    backup_.reserve(static_cast<std::size_t>(state.slots()) * per_slot);
    for (int s = 0; s < state.slots(); ++s)
      backup_.insert(backup_.end(), state.slot_data(s), state.slot_data(s) + per_slot);
  }

  /// Restores every slot from the entry snapshot.  No-op when unarmed.
  void restore() {
    if (state_ == nullptr) return;
    const auto per_slot = static_cast<std::size_t>(state_->padded_points());
    for (int s = 0; s < state_->slots(); ++s)
      std::copy_n(backup_.data() + static_cast<std::size_t>(s) * per_slot, per_slot,
                  state_->slot_data(s));
  }

 private:
  GridStorage<T>* state_ = nullptr;
  std::vector<T> backup_;
};

}  // namespace detail

namespace detail {

/// The serial driver behind run_pointwise and run_reference.  A null `lin`
/// evaluates every point through the IR evaluator; otherwise the affine
/// form runs through the row-sweep engine on one full-interior tile.
template <typename T>
void run_serial(const ir::StencilDef& st, const LinearKernel* lin, GridStorage<T>& state,
                std::int64_t t_begin, std::int64_t t_end, Boundary bc, const Bindings& bindings,
                ExecStats* stats, const AuxGrids<T>& aux, const CancelToken* cancel) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  MSC_CHECK(state.tensor()->name() == st.state()->name())
      << "grid '" << state.tensor()->name() << "' is not the stencil state '"
      << st.state()->name() << "'";

  CancelGuard<T> guard(state, cancel);
  try {
  // Seed halos of the initial window slots.
  for (int back = 1; back < st.time_window(); ++back)
    state.fill_halo(state.slot_for_time(t_begin - back), bc);

  std::array<std::int64_t, 3> extent{1, 1, 1};
  for (int d = 0; d < state.ndim(); ++d) extent[static_cast<std::size_t>(d)] = state.extent(d);
  const SweepPlan plan = full_sweep(state.ndim(), extent);
  // One evaluation environment per time term, rebuilt per step (its reader
  // binds the term's absolute time) and re-pointed per point.
  std::vector<EvalEnv> envs(lin == nullptr ? st.terms().size() : 0);

  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    const int out_slot = state.slot_for_time(t);
    T* out = state.slot_data(out_slot);
    if (lin != nullptr) {
      const auto terms = resolve_terms(*lin, state, t);
      const SweepStats swept = run_sweep(plan, state, out, terms, cancel);
      if (stats != nullptr)
        stats->flops += 2 * static_cast<std::int64_t>(terms.size()) * swept.points;
    } else {
      // The evaluator has no tile structure; step granularity is the
      // checkpoint unit.
      if (cancel != nullptr) cancel->checkpoint_now("reference.step");
      for (std::size_t n = 0; n < envs.size(); ++n) {
        const std::int64_t term_time = t + st.terms()[n].time_offset;
        envs[n].bindings = &bindings;
        envs[n].read = [&state, &aux, term_time](const std::string& name, int toff,
                                                 std::array<std::int64_t, 3> coord) -> double {
          if (name == state.tensor()->name())
            return static_cast<double>(state.at(state.slot_for_time(term_time + toff), coord));
          const auto it = aux.find(name);
          MSC_CHECK(it != aux.end())
              << "stencil reads tensor '" << name << "' but no grid was supplied for it";
          return static_cast<double>(it->second->at(0, coord));
        };
      }
      state.for_each_interior([&](std::array<std::int64_t, 3> c) {
        double acc = 0.0;
        for (std::size_t n = 0; n < envs.size(); ++n) {
          const auto& term = st.terms()[n];
          const auto& axes = term.kernel->axes();
          for (std::size_t d = 0; d < axes.size(); ++d)
            envs[n].axis_values[axes[d].id_var] = c[d];
          acc += term.weight * eval_expr(term.kernel->rhs(), envs[n]);
        }
        out[state.index(c)] = static_cast<T>(acc);
      });
    }

    state.fill_halo(out_slot, bc);
    if (stats != nullptr) {
      ++stats->timesteps;
      stats->points_updated += state.tensor()->interior_points();
    }
  }
  } catch (const Cancelled&) {
    guard.restore();
    throw;
  }
}

}  // namespace detail

/// Per-point IR evaluator (the independent ground truth).  Every interior
/// point of every step evaluates each time term's kernel RHS with
/// eval_expr, accumulates the weighted terms in double in definition order
/// and rounds once to T.  Works for any stencil, affine or not; stencils
/// whose kernels read auxiliary grids supply them via `aux`.
template <typename T>
void run_pointwise(const ir::StencilDef& st, GridStorage<T>& state, std::int64_t t_begin,
                   std::int64_t t_end, Boundary bc, const Bindings& bindings = {},
                   ExecStats* stats = nullptr, const AuxGrids<T>& aux = {},
                   const CancelToken* cancel = nullptr) {
  detail::run_serial(st, nullptr, state, t_begin, t_end, bc, bindings, stats, aux, cancel);
}

/// Serial reference executor.  Affine stencils run through the row-sweep
/// engine on a single full-interior tile; stencils outside the affine
/// fragment fall back to run_pointwise.  Stencils whose kernels read
/// auxiliary grids supply them via `aux`.
template <typename T>
void run_reference(const ir::StencilDef& st, GridStorage<T>& state, std::int64_t t_begin,
                   std::int64_t t_end, Boundary bc, const Bindings& bindings = {},
                   ExecStats* stats = nullptr, const AuxGrids<T>& aux = {},
                   const CancelToken* cancel = nullptr) {
  const auto lin = linearize_stencil(st, bindings);
  detail::run_serial(st, lin.has_value() ? &*lin : nullptr, state, t_begin, t_end, bc, bindings,
                     stats, aux, cancel);
}

namespace detail {

/// run_scheduled's driver with its row kernel explicit: nullptr runs the
/// built-in sweep kernels, the AOT backend passes its compiled one.
template <typename T>
void run_scheduled_rows(const ir::StencilDef& st, const schedule::Schedule& sched,
                        GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end,
                        Boundary bc, const Bindings& bindings, ExecStats* stats,
                        const CancelToken* cancel, RowFn<T> row) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  const auto lin = linearize_stencil(st, bindings);
  MSC_CHECK(lin.has_value())
      << "run_scheduled requires an affine stencil (use run_reference for the generic fragment)";

  const LoopPlan plan = build_loop_plan(sched);
  MSC_CHECK(plan.ndim == state.ndim()) << "plan rank mismatch";
  for (int d = 0; d < plan.ndim; ++d)
    MSC_CHECK(plan.extent[static_cast<std::size_t>(d)] == state.extent(d))
        << "schedule extent mismatch in dim " << d;
  const SweepPlan sweep = lower_sweep(plan);
  const prof::FlightPlanScope flight_plan(prof::plan_fingerprint(
      static_cast<std::uint64_t>(plan.extent[0]), static_cast<std::uint64_t>(plan.extent[1]),
      static_cast<std::uint64_t>(plan.extent[2]), lin->terms.size(),
      static_cast<std::uint64_t>(plan.tiles_per_step)));

  CancelGuard<T> guard(state, cancel);
  try {
  for (int back = 1; back < st.time_window(); ++back)
    state.fill_halo(state.slot_for_time(t_begin - back), bc);

  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    prof::TraceScope step_scope("run_scheduled.step", "exec");
    step_scope.arg("t", static_cast<double>(t));
    prof::FlightScope flight_step(prof::FlightKind::Step, 0,
                                  static_cast<std::int64_t>(lin->terms.size()));
    const int out_slot = state.slot_for_time(t);
    T* out = state.slot_data(out_slot);

    const auto terms = resolve_terms(*lin, state, t);
    const SweepStats swept = run_sweep(sweep, state, out, terms, cancel, row);
    flight_step.set_a(swept.points);

    state.fill_halo(out_slot, bc);
    const std::int64_t step_points = swept.points;
    const std::int64_t step_flops = 2 * static_cast<std::int64_t>(terms.size()) * step_points;
    prof::counter("exec.points_updated").add(step_points);
    prof::counter("exec.flops").add(step_flops);
    prof::counter("exec.timesteps").add(1);
    if (stats != nullptr) {
      ++stats->timesteps;
      stats->points_updated += step_points;
      stats->flops += step_flops;
      stats->tiles_executed += plan.tiles_per_step;
      stats->staged_bytes_in += plan.tiles_per_step * plan.tile_bytes_read;
      stats->staged_bytes_out += plan.tiles_per_step * plan.tile_bytes_write;
    }
  }
  } catch (const Cancelled&) {
    guard.restore();
    throw;
  }
}

}  // namespace detail

/// Scheduled executor: same numerics as run_reference, loop structure and
/// parallelism from `sched`, lowered once to the compiled row sweep.
template <typename T>
void run_scheduled(const ir::StencilDef& st, const schedule::Schedule& sched,
                   GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end, Boundary bc,
                   const Bindings& bindings = {}, ExecStats* stats = nullptr,
                   const CancelToken* cancel = nullptr) {
  detail::run_scheduled_rows(st, sched, state, t_begin, t_end, bc, bindings, stats, cancel,
                             detail::RowFn<T>{});
}

/// What run_scheduled_temporal actually executed: either the wedge
/// decomposition it ran, or — when the boundary condition needs a per-step
/// halo exchange — the reason it fell back to the per-step engine.  A
/// fallback is never silent: `fallback_reason` says why and the
/// sweep.temporal.fallback counter ticks.
struct TemporalExecInfo {
  bool temporal = false;          ///< wedge engine ran (vs reported fallback)
  std::string fallback_reason;    ///< non-empty iff temporal == false
  std::int64_t blocks = 0;        ///< time blocks executed (incl. remainder)
  std::int64_t wedges = 0;        ///< wedge count of a full-depth block
  std::int64_t wedge_depth = 0;   ///< timesteps fused per full block
  std::int64_t wedge_width = 0;   ///< dim-0 rows per wedge
  std::int64_t dep_span = 0;      ///< wedges a step may read behind itself
};

namespace detail {

/// run_scheduled_temporal's driver with its row kernel explicit (see
/// run_scheduled_rows).
template <typename T>
void run_scheduled_temporal_rows(const ir::StencilDef& st, const schedule::Schedule& sched,
                                 GridStorage<T>& state, std::int64_t t_begin,
                                 std::int64_t t_end, Boundary bc, const Bindings& bindings,
                                 ExecStats* stats, TemporalExecInfo* info,
                                 const TemporalOptions& topts, const CancelToken* cancel,
                                 RowFn<T> row) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  if (bc != Boundary::ZeroHalo) {
    if (info != nullptr) {
      info->temporal = false;
      info->fallback_reason = std::string("boundary '") + boundary_name(bc) +
                              "' needs a per-step halo exchange";
    }
    prof::counter("sweep.temporal.fallback").add(1);
    // run_scheduled carries its own CancelGuard, so the all-or-nothing
    // contract holds on the fallback path too.
    run_scheduled_rows(st, sched, state, t_begin, t_end, bc, bindings, stats, cancel, row);
    return;
  }

  const auto lin = linearize_stencil(st, bindings);
  MSC_CHECK(lin.has_value())
      << "run_scheduled_temporal requires an affine stencil (use run_reference otherwise)";

  const LoopPlan plan = build_loop_plan(sched);
  MSC_CHECK(plan.ndim == state.ndim()) << "plan rank mismatch";
  for (int d = 0; d < plan.ndim; ++d)
    MSC_CHECK(plan.extent[static_cast<std::size_t>(d)] == state.extent(d))
        << "schedule extent mismatch in dim " << d;

  const TemporalPlan tplan =
      lower_temporal(plan, st.time_window(), st.max_radius(), t_begin, t_end, topts);
  if (info != nullptr) {
    info->temporal = true;
    info->fallback_reason.clear();
    info->blocks = tplan.blocks();
    info->wedges = static_cast<std::int64_t>(tplan.full.wedges.size());
    info->wedge_depth = tplan.wedge_depth;
    info->wedge_width = tplan.wedge_width;
    info->dep_span = tplan.dep_span;
  }

  CancelGuard<T> guard(state, cancel);
  SweepStats swept;
  try {
    // Zero halos are idempotent: zero every ring slot's halo once up front.
    // Sweeps never write halo cells, so every read — and the final grid,
    // halos included — sees exactly the halo state the per-step engines
    // produce with their per-step fill.
    for (int s = 0; s < state.slots(); ++s) state.fill_halo(s, bc);

    prof::TraceScope scope("run_scheduled_temporal", "exec");
    scope.arg("t_begin", static_cast<double>(t_begin));
    scope.arg("t_end", static_cast<double>(t_end));
    const prof::FlightPlanScope flight_plan(prof::plan_fingerprint(
        static_cast<std::uint64_t>(plan.extent[0]), static_cast<std::uint64_t>(plan.extent[1]),
        static_cast<std::uint64_t>(plan.extent[2]), lin->terms.size(),
        static_cast<std::uint64_t>(plan.tiles_per_step),
        static_cast<std::uint64_t>(tplan.wedge_depth)));
    swept = run_temporal_sweep(tplan, *lin, state, topts.pool, cancel, row);
  } catch (const Cancelled&) {
    guard.restore();
    throw;
  }

  const std::int64_t nsteps = t_end - t_begin + 1;
  const std::int64_t flops = 2 * static_cast<std::int64_t>(lin->terms.size()) * swept.points;
  prof::counter("exec.points_updated").add(swept.points);
  prof::counter("exec.flops").add(flops);
  prof::counter("exec.timesteps").add(nsteps);
  if (stats != nullptr) {
    stats->timesteps += nsteps;
    stats->points_updated += swept.points;
    stats->flops += flops;
    stats->tiles_executed += plan.tiles_per_step * nsteps;
    stats->staged_bytes_in += plan.tiles_per_step * plan.tile_bytes_read * nsteps;
    stats->staged_bytes_out += plan.tiles_per_step * plan.tile_bytes_write * nsteps;
  }
}

}  // namespace detail

/// Temporal executor: same numerics as run_scheduled — bit-identical for
/// every dtype and time depth — but sweeps time-skewed wedges of
/// time_tile() timesteps per pass (temporal_sweep.hpp) so a wedge's rows
/// stay cache-resident across the whole time window.  Boundaries other
/// than ZeroHalo need a fresh halo every step, which a multi-step wedge
/// cannot see: those fall back to run_scheduled and report it via `info`.
template <typename T>
void run_scheduled_temporal(const ir::StencilDef& st, const schedule::Schedule& sched,
                            GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end,
                            Boundary bc, const Bindings& bindings = {},
                            ExecStats* stats = nullptr, TemporalExecInfo* info = nullptr,
                            const TemporalOptions& topts = {},
                            const CancelToken* cancel = nullptr) {
  detail::run_scheduled_temporal_rows(st, sched, state, t_begin, t_end, bc, bindings, stats,
                                      info, topts, cancel, detail::RowFn<T>{});
}

}  // namespace msc::exec
