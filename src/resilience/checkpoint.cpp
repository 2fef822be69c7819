#include "resilience/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "prof/counters.hpp"
#include "support/error.hpp"

namespace msc::resilience {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// One FNV-1a step: a bijection of `h` for fixed `v`, injective in `v`.
constexpr std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) { return (h ^ v) * kFnvPrime; }

/// MurmurHash3's fmix64 finalizer: a bijection that lets every input bit
/// reach every output bit (a plain FNV chain only carries differences
/// upwards, so two top-bit flips in chained slots could cancel).
constexpr std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t checksum64(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t words = bytes / 8;
  const auto word = [p](std::size_t i) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + 8 * i, sizeof w);
    return w;
  };
  std::uint64_t lane[4] = {seed, seed ^ 0x9e3779b97f4a7c15ULL, seed ^ 0x3c6ef372fe94f82aULL,
                           seed ^ 0xdaa66d2c7ddf743fULL};
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    lane[0] = fnv_step(lane[0], word(i));
    lane[1] = fnv_step(lane[1], word(i + 1));
    lane[2] = fnv_step(lane[2], word(i + 2));
    lane[3] = fnv_step(lane[3], word(i + 3));
  }
  for (; i < words; ++i) lane[i % 4] = fnv_step(lane[i % 4], word(i));
  std::uint64_t h = seed;
  for (const std::uint64_t l : lane) h = fnv_step(h, l);
  for (std::size_t b = 8 * words; b < bytes; ++b) h = fnv_step(h, p[b]);
  return fmix64(fnv_step(h, bytes));
}

std::int64_t Checkpoint::total_bytes() const {
  std::int64_t total = 0;
  for (const auto& s : slots) total += static_cast<std::int64_t>(s.size());
  return total;
}

std::uint64_t Checkpoint::compute_checksum() const {
  // Chained: each slot's length is folded in, so swapping slots or moving
  // bytes across a slot boundary changes the result.
  std::uint64_t h = kChecksumSeed;
  for (const auto& s : slots) h = checksum64(s.data(), s.size(), h);
  return h;
}

CheckpointStore::CheckpointStore(int keep_per_rank) : keep_per_rank_(keep_per_rank) {
  MSC_CHECK(keep_per_rank >= 1) << "checkpoint store must retain at least one image";
}

void CheckpointStore::save(Checkpoint ck) {
  MSC_CHECK(ck.step >= 0) << "checkpoint needs a completed step";
  MSC_CHECK(ck.checksum == ck.compute_checksum())
      << "checkpoint image for rank " << ck.rank << " step " << ck.step
      << " fails its own checksum";
  const std::int64_t bytes = ck.total_bytes();
  std::lock_guard lock(mutex_);
  auto& per_rank = by_rank_[ck.rank];
  per_rank[ck.step] = std::move(ck);
  while (static_cast<int>(per_rank.size()) > keep_per_rank_)
    per_rank.erase(per_rank.begin());
  checkpoints_written_ += 1;
  bytes_written_ += bytes;
  prof::counter("resilience.checkpoints").add(1);
  prof::counter("resilience.checkpoint_bytes").add(bytes);
}

std::optional<Checkpoint> CheckpointStore::load(int rank, std::int64_t step) const {
  std::lock_guard lock(mutex_);
  const auto rit = by_rank_.find(rank);
  if (rit == by_rank_.end()) return std::nullopt;
  const auto sit = rit->second.find(step);
  if (sit == rit->second.end()) return std::nullopt;
  return sit->second;
}

std::int64_t CheckpointStore::consistent_step(int nranks) const {
  std::lock_guard lock(mutex_);
  std::int64_t cut = -1;
  for (int r = 0; r < nranks; ++r) {
    const auto rit = by_rank_.find(r);
    if (rit == by_rank_.end() || rit->second.empty()) return -1;
  }
  // Candidate cuts are rank 0's retained steps, newest first; a cut is
  // consistent when every rank holds that step.
  const auto& first = by_rank_.at(0);
  for (auto it = first.rbegin(); it != first.rend(); ++it) {
    bool all = true;
    for (int r = 1; r < nranks && all; ++r)
      all = by_rank_.at(r).count(it->first) > 0;
    if (all) {
      cut = it->first;
      break;
    }
  }
  return cut;
}

void CheckpointStore::clear() {
  std::lock_guard lock(mutex_);
  by_rank_.clear();
  checkpoints_written_ = 0;
  bytes_written_ = 0;
}

std::int64_t CheckpointStore::checkpoints_written() const {
  std::lock_guard lock(mutex_);
  return checkpoints_written_;
}

std::int64_t CheckpointStore::bytes_written() const {
  std::lock_guard lock(mutex_);
  return bytes_written_;
}

namespace {
// v2: payload checksum is checksum64.  v1 files (byte-serial FNV-1a) carry
// checksums this build cannot verify, so they are rejected by name.
constexpr char kMagic[8] = {'M', 'S', 'C', 'C', 'K', 'P', 'T', '2'};
constexpr char kMagicV1[8] = {'M', 'S', 'C', 'C', 'K', 'P', 'T', '1'};
}

void write_checkpoint_file(const std::string& path, const Checkpoint& ck) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MSC_CHECK(out.good()) << "cannot write checkpoint '" << path << "'";
  const auto put_i64 = [&out](std::int64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  out.write(kMagic, sizeof kMagic);
  put_i64(ck.rank);
  put_i64(ck.step);
  put_i64(static_cast<std::int64_t>(ck.slots.size()));
  put_i64(static_cast<std::int64_t>(ck.checksum));
  for (const auto& s : ck.slots) {
    put_i64(static_cast<std::int64_t>(s.size()));
    out.write(reinterpret_cast<const char*>(s.data()), static_cast<std::streamsize>(s.size()));
  }
  MSC_CHECK(out.good()) << "short write on checkpoint '" << path << "'";
}

Checkpoint read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MSC_CHECK(in.good()) << "cannot read checkpoint '" << path << "'";
  char magic[8];
  in.read(magic, sizeof magic);
  MSC_CHECK(in.good()) << "'" << path << "' is not an MSC checkpoint";
  MSC_CHECK(!std::equal(magic, magic + 8, kMagicV1))
      << "'" << path << "' is a v1 MSC checkpoint (MSCCKPT1, FNV-1a checksum); this build "
      << "reads v2 (MSCCKPT2) only";
  MSC_CHECK(std::equal(magic, magic + 8, kMagic)) << "'" << path << "' is not an MSC checkpoint";
  const auto get_i64 = [&in, &path]() {
    std::int64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof v);
    MSC_CHECK(in.good()) << "truncated checkpoint '" << path << "'";
    return v;
  };
  Checkpoint ck;
  ck.rank = static_cast<int>(get_i64());
  ck.step = get_i64();
  const std::int64_t slots = get_i64();
  MSC_CHECK(slots >= 0 && slots < 64) << "implausible slot count in '" << path << "'";
  ck.checksum = static_cast<std::uint64_t>(get_i64());
  for (std::int64_t s = 0; s < slots; ++s) {
    const std::int64_t bytes = get_i64();
    MSC_CHECK(bytes >= 0) << "negative slot size in '" << path << "'";
    std::vector<std::byte> buf(static_cast<std::size_t>(bytes));
    in.read(reinterpret_cast<char*>(buf.data()), bytes);
    MSC_CHECK(in.good()) << "truncated checkpoint '" << path << "'";
    ck.slots.push_back(std::move(buf));
  }
  MSC_CHECK(ck.checksum == ck.compute_checksum())
      << "checkpoint '" << path << "' fails its checksum (bit rot or truncation)";
  return ck;
}

}  // namespace msc::resilience
