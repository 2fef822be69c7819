#pragma once

// Distributed stencil runners over the simulated MPI runtime (paper §4.4,
// Fig. 6b/c).  Halos move through the plan-based single-phase exchanger
// (exchange_plan.hpp): all 26/8 directions including diagonals in one
// phase, persistent coalesced buffers, strided memcpy pack/unpack.
//
// run_distributed ties it together: every rank owns a sub-grid with halo,
// steps the stencil locally, and exchanges the freshly written slot after
// each step.  Global-boundary halos stay zero (Dirichlet), matching the
// single-node ZeroHalo runs so tests can compare distributed against
// single-grid execution point for point.

#include <array>
#include <cstdint>
#include <vector>

#include "comm/decompose.hpp"
#include "comm/exchange_plan.hpp"
#include "comm/simmpi.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "prof/counters.hpp"
#include "prof/timeline.hpp"
#include "prof/trace.hpp"
#include "support/error.hpp"

namespace msc::comm {

/// Result of a distributed run on one rank.
struct DistRunStats {
  ExchangeStats exchange;
  std::int64_t timesteps = 0;
  std::int64_t interior_points_overlapped = 0;  ///< computed while comm in flight
};

/// Runs timesteps t_begin..t_end of `st` on this rank's `local` sub-grid.
/// The caller seeds the initial slots (interior); global-edge halos are
/// zero-filled here, neighbor halos come from plan exchanges.
template <typename T>
DistRunStats run_distributed(RankCtx& ctx, const CartDecomp& dec, const ir::StencilDef& st,
                             exec::GridStorage<T>& local, std::int64_t t_begin,
                             std::int64_t t_end, const exec::Bindings& bindings = {}) {
  DistRunStats stats;
  const ExchangePlan plan(dec, ctx.rank(), local.halo());
  PlanWorkspace<T> pws;

  // Zero all halos once (covers global edges), then fill the initial
  // window slots' neighbor halos by exchange.
  for (int slot = 0; slot < local.slots(); ++slot)
    local.fill_halo(slot, exec::Boundary::ZeroHalo);
  for (int back = 1; back < st.time_window(); ++back)
    stats.exchange.messages_sent +=
        exchange_halo_plan(ctx, plan, pws, local, local.slot_for_time(t_begin - back))
            .messages_sent;

  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    {
      prof::TimelineScope compute_span(ctx.rank(), prof::Phase::Compute);
      exec::run_reference(st, local, t, t, exec::Boundary::External, bindings);
    }
    const auto ex = exchange_halo_plan(ctx, plan, pws, local, local.slot_for_time(t));
    stats.exchange.messages_sent += ex.messages_sent;
    stats.exchange.bytes_sent += ex.bytes_sent;
    ++stats.timesteps;
  }
  return stats;
}

/// Communication/computation-overlapped distributed run.  Per step: the
/// freshest slot's exchange is posted (the plan's single phase covers
/// faces, edges, and corners, so box stencils overlap too), the sub-domain
/// *interior* (cells at distance >= radius from the local boundary, which
/// read no halo) computes while the messages fly, then the exchange
/// completes and the boundary shell finishes the step.
template <typename T>
DistRunStats run_distributed_overlapped(RankCtx& ctx, const CartDecomp& dec,
                                        const ir::StencilDef& st, exec::GridStorage<T>& local,
                                        std::int64_t t_begin, std::int64_t t_end,
                                        const exec::Bindings& bindings = {}) {
  const auto lin = exec::linearize_stencil(st, bindings);
  MSC_CHECK(lin.has_value()) << "overlapped distributed run requires an affine stencil";
  const std::int64_t r = st.max_radius();
  const int nd = local.ndim();

  ExchangePlan plan(dec, ctx.rank(), local.halo());
  PlanWorkspace<T> pws;

  DistRunStats stats;
  for (int slot = 0; slot < local.slots(); ++slot)
    local.fill_halo(slot, exec::Boundary::ZeroHalo);
  for (int back = 1; back < st.time_window(); ++back)
    exchange_halo_plan(ctx, plan, pws, local, local.slot_for_time(t_begin - back));

  // Region sweep over [lo, hi) of interior coordinates: contiguous last-dim
  // rows through the compiled row kernels (same per-point term order as the
  // full-grid sweep, so region decomposition cannot change any value).
  const auto sweep_region = [&](std::int64_t t, std::array<std::int64_t, 3> lo,
                                std::array<std::int64_t, 3> hi) {
    T* out = local.slot_data(local.slot_for_time(t));
    const auto terms = exec::resolve_terms(*lin, local, t);
    const auto last = static_cast<std::size_t>(nd - 1);
    const std::int64_t n = hi[last] - lo[last];
    if (n <= 0) return std::int64_t{0};
    std::int64_t points = 0;
    auto row = [&](std::array<std::int64_t, 3> c) {
      c[last] = lo[last];
      exec::detail::sweep_row(out, local.index(c), n, terms);
      points += n;
    };
    std::array<std::int64_t, 3> c = lo;
    if (nd == 1) {
      row(c);
    } else if (nd == 2) {
      for (c[0] = lo[0]; c[0] < hi[0]; ++c[0]) row(c);
    } else {
      for (c[0] = lo[0]; c[0] < hi[0]; ++c[0])
        for (c[1] = lo[1]; c[1] < hi[1]; ++c[1]) row(c);
    }
    return points;
  };

  auto& timeline = prof::global_timeline();
  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    const int newest = local.slot_for_time(t - 1);
    const auto pending_stats = begin_exchange_plan(ctx, plan, pws, local, newest);
    // Messages are in flight from here until the finish wait; the "send"
    // span is the window the async exchange offers for hiding comm, and
    // its intersection with compute spans is the overlap-efficiency
    // numerator (critical_path()).
    const bool tl_on = timeline.enabled();
    const double flight0 = tl_on ? timeline.now() : 0.0;

    // Interior: needs no halo of the in-flight slot.
    std::array<std::int64_t, 3> ilo{0, 0, 0}, ihi{1, 1, 1};
    bool has_interior = true;
    for (int d = 0; d < nd; ++d) {
      ilo[static_cast<std::size_t>(d)] = r;
      ihi[static_cast<std::size_t>(d)] = local.extent(d) - r;
      has_interior &= ihi[static_cast<std::size_t>(d)] > ilo[static_cast<std::size_t>(d)];
    }
    if (has_interior) {
      // The overlap window: interior cells compute while halo messages fly.
      prof::TraceScope overlap("overlap.interior_compute", "comm");
      prof::TimelineScope compute_span(ctx.rank(), prof::Phase::Compute);
      const std::int64_t pts = sweep_region(t, ilo, ihi);
      overlap.arg("points", static_cast<double>(pts));
      stats.interior_points_overlapped += pts;
      prof::counter("comm.overlap.interior_points").add(pts);
    }
    if (tl_on) timeline.record(ctx.rank(), prof::Phase::Send, flight0, timeline.now());

    {
      prof::TraceScope finish("halo_exchange.finish", "comm");
      finish_exchange_plan(ctx, plan, pws, local, newest);
    }
    stats.exchange.messages_sent += pending_stats.messages_sent;
    stats.exchange.bytes_sent += pending_stats.bytes_sent;

    // Boundary shell: one slab pair per dimension, shrinking the earlier
    // dimensions' ranges so no cell is swept twice.
    std::array<std::int64_t, 3> lo{0, 0, 0}, hi{1, 1, 1};
    for (int d = 0; d < nd; ++d) {
      lo[static_cast<std::size_t>(d)] = 0;
      hi[static_cast<std::size_t>(d)] = local.extent(d);
    }
    for (int d = 0; d < nd; ++d) {
      const std::int64_t e = local.extent(d);
      const std::int64_t cut = std::min(r, e);
      auto slab_lo = lo, slab_hi = hi;
      // Low slab.
      slab_lo[static_cast<std::size_t>(d)] = 0;
      slab_hi[static_cast<std::size_t>(d)] = cut;
      sweep_region(t, slab_lo, slab_hi);
      // High slab (guard against tiny extents where the slabs collide).
      slab_lo[static_cast<std::size_t>(d)] = std::max(cut, e - r);
      slab_hi[static_cast<std::size_t>(d)] = e;
      sweep_region(t, slab_lo, slab_hi);
      // Later dimensions only sweep the strip this dimension left.
      lo[static_cast<std::size_t>(d)] = cut;
      hi[static_cast<std::size_t>(d)] = std::max(cut, e - r);
    }

    local.fill_halo(local.slot_for_time(t), exec::Boundary::External);
    ++stats.timesteps;
  }
  return stats;
}

}  // namespace msc::comm
