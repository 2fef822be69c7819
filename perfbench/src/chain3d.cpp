// chain3d-dist: a walltime-limited chain of restart jobs.
//
// 3d7pt_star is decomposed over 2x2x1 simmpi ranks.  Each op is one call of
// resilience::run_distributed_checkpointed that restores the previous op's
// checkpoint, advances one output interval with the plan exchanger, and
// ends with a new checkpoint.  The traced run drives the checkpointed
// driver's own per-step sequence of public calls (run_reference,
// begin/finish exchange, snapshot + save, restore) with a span per call per
// rank, and its final grids must be bit-identical to the untraced driver
// run.  The ranks share one vCPU (OneCpu in harness.hpp).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "comm/exchange_plan.hpp"
#include "comm/simmpi.hpp"
#include "dsl/program.hpp"
#include "exec/executor.hpp"
#include "frontend/spec.hpp"
#include "prof/attribution.hpp"
#include "resilience/driver.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using Grid = msc::exec::GridStorage<double>;

constexpr std::int64_t kStepsPerOp = 16;

struct Chain {
  StencilTable tab;
  std::unique_ptr<msc::dsl::Program> prog;
  std::unique_ptr<msc::comm::CartDecomp> dec;
  std::unique_ptr<msc::comm::SimWorld> world;
  std::vector<std::unique_ptr<Grid>> local;
  std::vector<Coord> origin;
  std::unique_ptr<msc::resilience::CheckpointStore> store;
  std::int64_t t = 0;  ///< last completed step

  int ranks() const { return static_cast<int>(local.size()); }
};

Chain set_up(const StencilTable& tab, std::uint64_t seed, Tracer* tr) {
  Chain c;
  c.tab = tab;
  {
    msc::frontend::StencilSpec spec;
    {
      Scope s(tr, 0, "frontend.parse_spec");
      spec = msc::frontend::parse_spec(tab.spec_text());
    }
    Scope s(tr, 0, "dsl.build_program");
    c.prog = msc::frontend::build_program(spec);
  }
  const auto& state = c.prog->stencil().state();
  const int nranks = c.prog->mpi_shape().processes();
  {
    Scope s(tr, 0, "comm.world");
    c.dec = std::make_unique<msc::comm::CartDecomp>(c.prog->mpi_shape().dims, tab.grid);
    c.world = std::make_unique<msc::comm::SimWorld>(nranks);
    c.store = std::make_unique<msc::resilience::CheckpointStore>();
  }
  {
    Scope s(tr, 0, "grid.alloc");
    for (int r = 0; r < nranks; ++r) {
      std::vector<std::int64_t> ext;
      Coord origin{0, 0, 0};
      for (int d = 0; d < tab.ndim(); ++d) {
        ext.push_back(c.dec->local_extent(r, d));
        origin[static_cast<std::size_t>(d)] = c.dec->local_offset(r, d);
      }
      c.local.push_back(std::make_unique<Grid>(msc::ir::make_sp_tensor(
          state->name(), state->dtype(), ext, state->halo(), state->time_window())));
      c.origin.push_back(origin);
    }
  }
  {
    Scope s(tr, 0, "grid.seed");
    for (std::size_t r = 0; r < c.local.size(); ++r) seed_grid(*c.local[r], tab, seed, c.origin[r]);
  }
  return c;
}

/// One restart job through the checkpointed driver.
void driver_op(Chain& c) {
  const std::int64_t t_end = c.t + kStepsPerOp;
  const auto& st = c.prog->stencil();
  c.world->run([&](msc::comm::RankCtx& ctx) {
    msc::resilience::run_distributed_checkpointed(ctx, *c.dec, st,
                                                  *c.local[static_cast<std::size_t>(ctx.rank())],
                                                  1, t_end, *c.store, kStepsPerOp,
                                                  c.prog->bindings());
  });
  c.t = t_end;
}

struct CommCounts {
  std::vector<std::int64_t> bytes, messages;  ///< per rank, over the traced ops
};

/// The same restart job, driving the checkpointed driver's per-step
/// sequence of public calls itself so that each call is timed per rank
/// (lane = rank + 1).
void traced_op(Chain& c, Tracer& tr, CommCounts& counts) {
  const std::int64_t t_end = c.t + kStepsPerOp;
  const auto& st = c.prog->stencil();
  const auto zero = msc::exec::Boundary::ZeroHalo;
  c.world->run([&](msc::comm::RankCtx& ctx) {
    const int rank = ctx.rank();
    const int lane = rank + 1;
    Grid& local = *c.local[static_cast<std::size_t>(rank)];
    Scope op(&tr, lane, "bench.rank_op");
    msc::comm::ExchangePlan plan;
    {
      Scope s(&tr, lane, "comm.plan");
      plan = msc::comm::ExchangePlan(*c.dec, rank, local.halo());
    }
    msc::comm::PlanWorkspace<double> ws;
    const auto exchange = [&](int slot) {
      msc::comm::ExchangeStats ex;
      {
        Scope s(&tr, lane, "comm.begin_exchange");
        ex = msc::comm::begin_exchange_plan(ctx, plan, ws, local, slot);
      }
      Scope s(&tr, lane, "comm.finish_exchange");
      msc::comm::finish_exchange_plan(ctx, plan, ws, local, slot);
      counts.bytes[static_cast<std::size_t>(rank)] += ex.bytes_sent;
      counts.messages[static_cast<std::size_t>(rank)] += ex.messages_sent;
    };

    std::int64_t cut;
    {
      Scope s(&tr, lane, "comm.barrier");
      ctx.barrier();
    }
    {
      Scope s(&tr, lane, "ckpt.consistent_step");
      cut = c.store->consistent_step(ctx.size());
    }
    {
      Scope s(&tr, lane, "comm.barrier");
      ctx.barrier();
    }
    std::int64_t t_start = 1;
    if (cut >= 0) {
      Scope s(&tr, lane, "ckpt.restore");
      const auto ck = c.store->load(rank, cut);
      if (!ck.has_value()) throw std::runtime_error("consistent cut missing a rank");
      msc::resilience::restore_grid(*ck, local);
      t_start = cut + 1;
    } else {
      {
        Scope s(&tr, lane, "grid.fill_halo");
        for (int slot = 0; slot < local.slots(); ++slot) local.fill_halo(slot, zero);
      }
      for (int back = 1; back < st.time_window(); ++back) exchange(local.slot_for_time(1 - back));
    }
    for (std::int64_t t = t_start; t <= t_end; ++t) {
      ctx.fault_hook(t);
      {
        Scope s(&tr, lane, "exec.run_reference");
        msc::exec::run_reference(st, local, t, t, msc::exec::Boundary::External,
                                 c.prog->bindings());
      }
      exchange(local.slot_for_time(t));
      if (t % kStepsPerOp == 0) {
        Scope s(&tr, lane, "ckpt.save");
        c.store->save(msc::resilience::snapshot_grid(rank, t, local));
      }
    }
  });
  c.t = t_end;
}

/// Global-coordinate read of step t from whichever rank owns `g`.
double global_at(const Chain& c, std::int64_t t, const Coord& g) {
  for (int r = 0; r < c.ranks(); ++r) {
    const Grid& l = *c.local[static_cast<std::size_t>(r)];
    const Coord& o = c.origin[static_cast<std::size_t>(r)];
    Coord lc{0, 0, 0};
    bool inside = true;
    for (int d = 0; d < l.ndim(); ++d) {
      const auto i = static_cast<std::size_t>(d);
      lc[i] = g[i] - o[i];
      inside = inside && lc[i] >= 0 && lc[i] < l.extent(d);
    }
    if (inside) return l.at(l.slot_for_time(t), lc);
  }
  throw std::runtime_error("global coordinate outside every rank");
}

/// Samples covering every face, edge and corner region of each rank's
/// sub-grid, in global coordinates.  The check reads neighbours from their
/// owner rank, so a stale or misplaced halo shows as an error.
std::vector<Coord> rank_region_samples(const Chain& c, std::uint64_t seed) {
  std::vector<Coord> out;
  for (int r = 0; r < c.ranks(); ++r) {
    const Grid& l = *c.local[static_cast<std::size_t>(r)];
    const Coord& o = c.origin[static_cast<std::size_t>(r)];
    for (const Coord& s : region_samples({l.extent(0), l.extent(1), l.extent(2)}, 3,
                                         seed + static_cast<std::uint64_t>(r), 20))
      out.push_back({s[0] + o[0], s[1] + o[1], s[2] + o[2]});
  }
  return out;
}

auto chain_reader(const Chain& c) {
  return [&c](std::int64_t t, const Coord& g) { return global_at(c, t, g); };
}

std::uint64_t chain_hash(const Chain& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& l : c.local) h = grid_hash(*l, h);
  return h;
}

void reduced_check(const StencilTable& small, const Options& opts, Result& r) {
  constexpr int kOps = 10;
  Chain c = set_up(small, opts.seed, nullptr);
  for (int op = 0; op < kOps; ++op) driver_op(c);
  NaiveRun ref(small, opts.seed);
  while (ref.steps() < c.t) ref.step();
  const double err = full_error(small, c.t, ref, chain_reader(c));
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "reduced-grid check: %lldx%lldx%lld on 2x2x1 ranks, %d restart jobs of %lld "
                "steps, max rel err %.3g",
                static_cast<long long>(small.grid[0]), static_cast<long long>(small.grid[1]),
                static_cast<long long>(small.grid[2]), kOps,
                static_cast<long long>(kStepsPerOp), err);
  r.note(buf);
  if (!(err <= kTolerance)) r.fail("reduced-grid result differs from the naive recomputation");
  Grid& victim = *c.local[1];
  if (!corruption_rejected(victim, c.t, {0, 0, 0},
                           [&] { return full_error(small, c.t, ref, chain_reader(c)); }))
    r.fail("a corrupted reduced grid was not rejected");
}

void final_check(Chain& c, const Options& opts, Result& r) {
  const auto samples = rank_region_samples(c, opts.seed);
  const auto check = [&] { return sampled_error(c.tab, c.t, samples, chain_reader(c)); };
  const double err = check();
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "full-grid check: every face/edge/corner region of each rank's sub-grid at "
                "step %lld, max rel err %.3g",
                static_cast<long long>(c.t), err);
  r.note(buf);
  if (!(err <= kTolerance)) r.fail("full-grid sample differs from the naive recomputation");
  Grid& victim = *c.local[static_cast<std::size_t>(c.ranks() - 1)];
  if (!corruption_rejected(victim, c.t, {0, 0, 0}, check))
    r.fail("a corrupted full grid was not rejected");
}

/// The set-ups and ops of one run.  The untraced arm calls the checkpointed
/// driver; the traced arm drives the replica with spans.
void run_chain_arms(const StencilTable& tab, const Options& opts, Arm<Chain>& plain,
                    Arm<Chain>* traced, CommCounts* counts, Result& r) {
  run_arms(
      opts, kStepsPerOp * tab.interior_points(), plain, traced,
      [&](Arm<Chain>& a) { return set_up(tab, opts.seed, a.tr); },
      [&](Arm<Chain>& a) {
        if (a.tr != nullptr)
          traced_op(a.state, *a.tr, *counts);
        else
          driver_op(a.state);
        return true;
      },
      r);
}

double working_set_bytes(const Chain& c) {
  double bytes = 0.0;
  for (const auto& l : c.local)
    bytes += static_cast<double>(l->slots()) * static_cast<double>(l->padded_points()) * 8.0;
  return bytes;
}

void describe(const Chain& c, Result& r) {
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "\"stencil\":\"%s\",\"grid\":\"%lldx%lldx%lld\",\"ranks\":\"2x2x1\","
                "\"vcpus\":1,\"engine\":\"reference+plan exchanger\",\"steps_per_op\":%lld,"
                "\"working_set_bytes\":%.0f",
                c.tab.name.c_str(), static_cast<long long>(c.tab.grid[0]),
                static_cast<long long>(c.tab.grid[1]), static_cast<long long>(c.tab.grid[2]),
                static_cast<long long>(kStepsPerOp), working_set_bytes(c));
  r.config_json = buf;
}

/// Per op, the per-rank totals of span `name` (ms), one vector per op.
std::vector<std::vector<double>> rank_totals(const Tracer& tr, const char* name, int ranks) {
  std::map<std::int64_t, std::vector<double>> by_op;
  for (int r = 0; r < ranks; ++r)
    for (const auto& [op, s] : tr.per_op(r + 1, name)) {
      auto& v = by_op[op];
      v.resize(static_cast<std::size_t>(ranks));
      v[static_cast<std::size_t>(r)] = s * 1e3;
    }
  std::vector<std::vector<double>> out;
  for (auto& [op, v] : by_op)
    if (op >= 0) out.push_back(v);
  return out;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Median over ops of the rank-mean per-op total of span `name` (ms).
double median_rank_mean(const Tracer& tr, const char* name, int ranks) {
  std::vector<double> per_op;
  for (const auto& v : rank_totals(tr, name, ranks)) per_op.push_back(mean(v));
  return median(per_op);
}

/// Share of op wall time that the spans of the rank ending last do not cover.
double unattributed_pct(const Tracer& tr, int ranks) {
  const auto wall = tr.per_op(0, "bench.op");
  std::map<std::int64_t, double> blocking;  // op -> covered time of the rank ending last
  std::map<std::int64_t, double> last_end;
  for (int r = 0; r < ranks; ++r) {
    const auto& spans = tr.spans(r + 1);
    std::map<std::int64_t, double> covered, end;
    for (const auto& s : spans) {
      if (s.parent < 0) end[s.op] = std::max(end[s.op], s.t1);
      else if (std::string_view(spans[static_cast<std::size_t>(s.parent)].name) == "bench.rank_op")
        covered[s.op] += s.seconds();
    }
    for (const auto& [op, e] : end)
      if (!last_end.count(op) || e > last_end[op]) {
        last_end[op] = e;
        blocking[op] = covered[op];
      }
  }
  double w = 0.0, cov = 0.0;
  for (const auto& [op, s] : wall) {
    if (op < 0) continue;
    w += s;
    cov += blocking[op];
  }
  return w > 0 ? 100.0 * (w - cov) / w : 0.0;
}

}  // namespace

void run_chain3d_dist(const Options& opts, Result& r) {
  const OneCpu pin;
  const StencilTable tab = [] {
    StencilTable t = star3d7({64, 64, 32});
    t.mpi = {2, 2, 1};
    t.tile.clear();
    return t;
  }();
  reduced_check(tab.with_grid({12, 10, 8}), opts, r);
  Arm<Chain> plain;
  if (!opts.trace) {
    run_chain_arms(tab, opts, plain, nullptr, nullptr, r);
    describe(plain.state, r);
    final_check(plain.state, opts, r);
    plain.log.report(r);
    return;
  }

  // The checkpointed-driver arm and the traced replica arm, interleaved on
  // the same inputs: their final grids must be bit-identical.
  const int ranks = tab.mpi[0] * tab.mpi[1] * tab.mpi[2];
  Tracer tr(ranks + 1);
  CommCounts counts{std::vector<std::int64_t>(static_cast<std::size_t>(ranks)),
                    std::vector<std::int64_t>(static_cast<std::size_t>(ranks))};
  Arm<Chain> traced;
  traced.tr = &tr;
  run_chain_arms(tab, opts, plain, &traced, &counts, r);
  const auto ops = static_cast<std::int64_t>(traced.log.op_s.size());
  if (chain_hash(traced.state) != chain_hash(plain.state))
    r.fail("traced replica's final grids differ from the untraced driver run");
  else
    r.note("traced replica: final grids bit-identical to the untraced driver run");
  plain.state = Chain{};
  describe(traced.state, r);
  final_check(traced.state, opts, r);

  // The ranks share one vCPU, so an op's compute time is the sum over ranks.
  std::vector<double> op_compute, imbalance;
  for (const auto& v : rank_totals(tr, "exec.run_reference", ranks)) {
    op_compute.push_back(mean(v) * static_cast<double>(v.size()));
    imbalance.push_back(*std::max_element(v.begin(), v.end()) / std::max(1e-12, mean(v)));
  }
  r.metric("dist.compute_ms", median_rank_mean(tr, "exec.run_reference", ranks), "ms");
  r.metric("dist.imbalance", median(imbalance), "ratio");

  const double steps = static_cast<double>(ops * kStepsPerOp);
  double bytes = 0.0, msgs = 0.0;
  for (int i = 0; i < ranks; ++i) {
    bytes += static_cast<double>(counts.bytes[static_cast<std::size_t>(i)]);
    msgs += static_cast<double>(counts.messages[static_cast<std::size_t>(i)]);
  }
  const double begin_ms = median_rank_mean(tr, "comm.begin_exchange", ranks);
  const double finish_ms = median_rank_mean(tr, "comm.finish_exchange", ranks);
  double exchange_s = 0.0;
  for (const char* name : {"comm.begin_exchange", "comm.finish_exchange"})
    for (double d : tr.durations(name)) exchange_s += d;
  r.metric("comm.begin_ms", begin_ms, "ms");
  r.metric("comm.finish_ms", finish_ms, "ms");
  r.metric("comm.bytes_per_step", bytes / steps, "B");
  r.metric("comm.messages_per_step", msgs / steps, "count");
  r.metric("comm.exchange_gbs", exchange_s > 0 ? bytes / exchange_s / 1e9 : 0.0, "GB/s");
  r.metric("ckpt.save_ms", median_rank_mean(tr, "ckpt.save", ranks), "ms");
  r.metric("ckpt.restore_ms", median_rank_mean(tr, "ckpt.restore", ranks), "ms");
  // The store is the last set-up's: it holds the checkpoints of the ops since.
  r.metric("ckpt.bytes",
           static_cast<double>(traced.state.store->bytes_written()) /
               static_cast<double>(std::max<std::int64_t>(1, traced.state.t / kStepsPerOp)),
           "B");

  const auto cost = msc::prof::attribute_plan(traced.state.prog->stencil(),
                                              traced.state.prog->primary_schedule(),
                                              msc::prof::AttrBackend::Sweep, 8, 1, kStepsPerOp,
                                              traced.state.prog->bindings());
  report_roof(r, static_cast<double>(cost.flops), median(op_compute) / 1e3, cost.oi,
              working_set_bytes(traced.state));

  const auto ms = [&](const char* name) { return median(tr.durations(name)) * 1e3; };
  r.metric("frontend.parse_ms", ms("frontend.parse_spec"), "ms");
  r.metric("dsl.build_ms", ms("dsl.build_program"), "ms");
  r.metric("grid.alloc_ms", ms("grid.alloc"), "ms");
  r.metric("grid.seed_ms", ms("grid.seed"), "ms");
  r.metric("trace.overhead_pct", overhead_pct(plain.log, traced.log, r), "%");
  report_unattributed(r, unattributed_pct(tr, ranks));
  note_self_times(r, tr, static_cast<double>(ops * ranks), 1);
  write_trace(tr, opts, r);
}

}  // namespace bench
