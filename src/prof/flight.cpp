#include "prof/flight.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>

namespace msc::prof {

namespace {

std::chrono::steady_clock::time_point flight_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::atomic<std::uint64_t> g_current_plan{0};

// Ring slots are read by drains while their owner may be rewriting them,
// so every field access is a relaxed atomic one (plain moves on x86).
template <typename F>
void relaxed_store(F& field, F value) {
  std::atomic_ref<F>(field).store(value, std::memory_order_relaxed);
}
template <typename F>
F relaxed_load(const F& field) {
  return std::atomic_ref<F>(const_cast<F&>(field)).load(std::memory_order_relaxed);
}

// Ids of the recorders still alive.  An exiting thread releases its rings
// only into recorders listed here, holding this mutex, so it never writes
// into a destroyed recorder (tests create short-lived local ones).  Leaked
// so thread exits during static destruction still find them.
std::mutex& live_mutex() {
  static auto* m = new std::mutex;
  return *m;
}
std::set<std::uint64_t>& live_recorders() {
  static auto* ids = new std::set<std::uint64_t>;
  return *ids;
}

}  // namespace

const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::None: return "none";
    case FlightKind::Step: return "step";
    case FlightKind::RowChunk: return "row_chunk";
    case FlightKind::WedgeBlock: return "wedge_block";
    case FlightKind::Wedge: return "wedge";
    case FlightKind::WedgeWait: return "wedge_wait";
    case FlightKind::AotCacheProbe: return "aot_cache_probe";
    case FlightKind::AotCompile: return "aot_compile";
    case FlightKind::AotDlopen: return "aot_dlopen";
    case FlightKind::Crash: return "crash";
  }
  return "unknown";
}

std::uint64_t flight_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - flight_epoch())
                                        .count());
}

std::uint64_t FlightRecorder::next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

FlightRecorder::FlightRecorder() {
  std::lock_guard<std::mutex> lock(live_mutex());
  live_recorders().insert(id_);
}

FlightRecorder::~FlightRecorder() {
  std::lock_guard<std::mutex> lock(live_mutex());
  live_recorders().erase(id_);
}

FlightRecorder::ThreadRing& FlightRecorder::ring_for_current_thread() {
  // One claim per (thread, recorder); the owned pairs make the steady-state
  // record() path a thread-local scan of (almost always) one entry.  Keyed
  // by a process-unique recorder id, not the address — tests instantiate
  // short-lived local recorders and a reused address must not resolve to a
  // freed ring.
  struct Owned {
    std::vector<std::pair<std::uint64_t, ThreadRing*>> rings;
    ~Owned() {
      // Thread exit: hand each ring back for the next new thread.  The
      // release store publishes this thread's last count to the claimer.
      std::lock_guard<std::mutex> lock(live_mutex());
      for (const auto& [owner, ring] : rings)
        if (live_recorders().count(owner) != 0)
          ring->released.store(true, std::memory_order_release);
    }
  };
  thread_local Owned owned;
  for (const auto& [owner, ring] : owned.rings)
    if (owner == id_) return *ring;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  ThreadRing* ring = nullptr;
  for (const auto& r : rings_)
    if (r->released.load(std::memory_order_acquire)) {
      // Claims are serialized by registry_mutex_; the count stays monotonic
      // so drains keep validating sequence numbers across owners.
      r->released.store(false, std::memory_order_relaxed);
      ring = r.get();
      break;
    }
  if (ring == nullptr) {
    rings_.push_back(std::make_unique<ThreadRing>());
    ring = rings_.back().get();
    ring->tid = static_cast<int>(rings_.size()) - 1;
  }
  owned.rings.emplace_back(id_, ring);
  return *ring;
}

void FlightRecorder::record(FlightKind kind, std::uint64_t start_ns, std::uint64_t end_ns,
                            std::int64_t a, std::int64_t b) {
  if (!enabled()) return;
  ThreadRing& ring = ring_for_current_thread();
  const std::uint64_t n = ring.count.load(std::memory_order_relaxed);
  FlightEvent& ev = ring.events[n % kRingCapacity];
  // The new sequence number goes in first; the release fence orders it
  // before the payload, so a drain that sees any of this payload also sees
  // the slot's seq change and drops the slot (drain() pairs the fence).
  relaxed_store(ev.seq, static_cast<std::uint32_t>(n));
  std::atomic_thread_fence(std::memory_order_release);
  relaxed_store(ev.start_ns, start_ns);
  relaxed_store(ev.dur_ns, end_ns >= start_ns ? end_ns - start_ns : std::uint64_t{0});
  relaxed_store(ev.plan, g_current_plan.load(std::memory_order_relaxed));
  relaxed_store(ev.a, a);
  relaxed_store(ev.b, b);
  relaxed_store(ev.kind, kind);
  // Release: a drain that acquires count >= n+1 sees this event's stores.
  ring.count.store(n + 1, std::memory_order_release);
}

std::vector<FlightThreadDump> FlightRecorder::drain(std::size_t last_n) const {
  std::vector<FlightThreadDump> out;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  out.reserve(rings_.size());
  for (const auto& ring : rings_) {
    FlightThreadDump dump;
    dump.tid = ring->tid;
    const std::uint64_t n1 = ring->count.load(std::memory_order_acquire);
    dump.recorded = n1;
    if (n1 == 0) {
      out.push_back(std::move(dump));
      continue;
    }
    const std::uint64_t window = std::min<std::uint64_t>(
        {n1, kRingCapacity, static_cast<std::uint64_t>(last_n)});
    // Fields are copied with relaxed atomic loads (a concurrent writer
    // may be overwriting the slot); the acquire fence before the seq load
    // pairs with record()'s release fence, so a slot whose payload was
    // (partly) overwritten shows the overwriter's seq and is dropped.
    std::vector<std::pair<std::uint64_t, FlightEvent>> copied;
    copied.reserve(static_cast<std::size_t>(window));
    for (std::uint64_t i = n1 - window; i < n1; ++i) {
      const FlightEvent& slot = ring->events[i % kRingCapacity];
      FlightEvent ev;
      ev.start_ns = relaxed_load(slot.start_ns);
      ev.dur_ns = relaxed_load(slot.dur_ns);
      ev.plan = relaxed_load(slot.plan);
      ev.a = relaxed_load(slot.a);
      ev.b = relaxed_load(slot.b);
      ev.kind = relaxed_load(slot.kind);
      std::atomic_thread_fence(std::memory_order_acquire);
      ev.seq = relaxed_load(slot.seq);
      if (ev.seq == static_cast<std::uint32_t>(i)) copied.emplace_back(i, ev);  // else torn
    }
    // Seqlock-lite validity: slots with seq < n2 - capacity were (or may
    // have been) rewritten by a concurrent writer while we copied, so those
    // entries are dropped and the survivors form a consecutive suffix.  A
    // quiescent ring keeps the full window.
    const std::uint64_t n2 = ring->count.load(std::memory_order_acquire);
    const std::uint64_t oldest_valid = n2 > kRingCapacity ? n2 - kRingCapacity : 0;
    for (const auto& [index, ev] : copied)
      if (index >= oldest_valid) dump.events.push_back(ev);
    out.push_back(std::move(dump));
  }
  return out;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (auto& ring : rings_) ring->count.store(0, std::memory_order_release);
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->count.load(std::memory_order_acquire);
  return total;
}

FlightRecorder& global_flight() {
  static FlightRecorder recorder;
  return recorder;
}

std::uint64_t current_flight_plan() { return g_current_plan.load(std::memory_order_relaxed); }

FlightPlanScope::FlightPlanScope(std::uint64_t plan)
    : prev_(g_current_plan.exchange(plan, std::memory_order_relaxed)) {}

FlightPlanScope::~FlightPlanScope() { g_current_plan.store(prev_, std::memory_order_relaxed); }

std::uint64_t plan_fingerprint(std::uint64_t extent0, std::uint64_t extent1,
                               std::uint64_t extent2, std::uint64_t nterms,
                               std::uint64_t tiles, std::uint64_t extra) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t v : {extent0, extent1, extent2, nterms, tiles, extra}) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

workload::Json flight_dump_json(std::size_t last_n) {
  const auto dumps = global_flight().drain(last_n);
  workload::Json doc = workload::Json::object();
  doc["schema"] = workload::Json::string("msc-flight-v1");
  doc["ring_capacity"] =
      workload::Json::integer(static_cast<long long>(FlightRecorder::kRingCapacity));
  workload::Json threads = workload::Json::array();
  for (const auto& dump : dumps) {
    if (dump.recorded == 0) continue;  // registered but idle threads add noise
    workload::Json th = workload::Json::object();
    th["tid"] = workload::Json::integer(dump.tid);
    th["recorded"] = workload::Json::integer(static_cast<long long>(dump.recorded));
    workload::Json events = workload::Json::array();
    for (const auto& ev : dump.events) {
      workload::Json e = workload::Json::object();
      e["kind"] = workload::Json::string(flight_kind_name(ev.kind));
      e["start_ns"] = workload::Json::integer(static_cast<long long>(ev.start_ns));
      e["dur_ns"] = workload::Json::integer(static_cast<long long>(ev.dur_ns));
      e["plan"] = workload::Json::string(
          [&] {
            char buf[20];
            std::snprintf(buf, sizeof buf, "%016llx",
                          static_cast<unsigned long long>(ev.plan));
            return std::string(buf);
          }());
      e["seq"] = workload::Json::integer(static_cast<long long>(ev.seq));
      e["a"] = workload::Json::integer(static_cast<long long>(ev.a));
      e["b"] = workload::Json::integer(static_cast<long long>(ev.b));
      events.push_back(std::move(e));
    }
    th["events"] = std::move(events);
    threads.push_back(std::move(th));
  }
  doc["threads"] = std::move(threads);
  return doc;
}

}  // namespace msc::prof
