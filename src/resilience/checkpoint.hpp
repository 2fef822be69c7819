#pragma once

// Checkpoint/restart state for the distributed time-stepping driver.
//
// A checkpoint is the raw byte image of one rank's grid ring (every time
// slot, halos included) plus the step it was taken at and its checksum64
// (below), which detects any change confined to one 8-byte word,
// so every single-bit and single-byte flip.  save(), restore_grid() and
// read_checkpoint_file() all verify it.  Because the distributed stepping
// is deterministic, restoring the ring at step s and replaying s+1..T
// reproduces the fault-free run bit for bit — which the conformance
// oracles then verify.
//
// The in-memory CheckpointStore is shared by every rank thread of a
// SimWorld and *survives world restarts*: after a crash takes the world
// down, the chaos driver spins up a fresh world whose ranks restore from
// the latest step that every rank managed to checkpoint (the consistent
// cut).  write_file/read_file round-trip a checkpoint through disk for
// durable restart; the round-trip is bit-exact by construction.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace msc::resilience {

/// Default seed of checksum64 (the FNV-1a 64-bit offset basis).
inline constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ULL;

/// Payload checksum of checkpoints and resilient envelopes.  Four
/// independent lanes each apply the FNV-1a step (xor, then multiply by the
/// FNV prime) to successive native-endian 64-bit words (word i feeds lane
/// i % 4), so the multiply chains overlap and the hash runs at memory
/// speed.  The lanes are then folded in order, then the trailing bytes%8
/// bytes one at a time, then the byte length, and a final bijective mix
/// spreads every bit.  Each step is a bijection of the state and injective
/// in its input word, so any change confined to one 8-byte word (any
/// single-bit or single-byte flip) changes the result.  Word order is
/// native, so values differ across endianness; the result is part of the
/// checkpoint file format (see kMagic in checkpoint.cpp).
std::uint64_t checksum64(const void* data, std::size_t bytes,
                         std::uint64_t seed = kChecksumSeed);

struct Checkpoint {
  int rank = 0;
  std::int64_t step = -1;          ///< last completed timestep in the image
  std::vector<std::vector<std::byte>> slots;  ///< padded ring buffers, in slot order
  std::uint64_t checksum = 0;      ///< checksum64 chained over the slots, in order

  std::int64_t total_bytes() const;
  /// Recomputes the checksum from `slots` (what save/read verify against).
  std::uint64_t compute_checksum() const;
};

class CheckpointStore {
 public:
  /// Retained checkpoints per rank; older steps are evicted FIFO.
  explicit CheckpointStore(int keep_per_rank = 2);

  /// Validates the checksum and retains the image (any thread).
  void save(Checkpoint ck);

  /// Copy of rank's image at `step`; nullopt when absent.
  std::optional<Checkpoint> load(int rank, std::int64_t step) const;

  /// Latest step for which all of ranks 0..nranks-1 hold a checkpoint
  /// (the consistent recovery cut); -1 when there is none.
  std::int64_t consistent_step(int nranks) const;

  void clear();

  std::int64_t checkpoints_written() const;
  std::int64_t bytes_written() const;

 private:
  int keep_per_rank_;
  mutable std::mutex mutex_;
  std::map<int, std::map<std::int64_t, Checkpoint>> by_rank_;  // rank -> step -> image
  std::int64_t checkpoints_written_ = 0;
  std::int64_t bytes_written_ = 0;
};

/// Writes `ck` to `path` (binary, versioned header); throws on I/O failure.
void write_checkpoint_file(const std::string& path, const Checkpoint& ck);

/// Reads a checkpoint back; throws on a short/corrupt file, a bad checksum,
/// or a file of an older format version (v1 used byte-serial FNV-1a).
Checkpoint read_checkpoint_file(const std::string& path);

}  // namespace msc::resilience
