#pragma once

// 64-byte aligned raw buffers used as grid storage by the executor,
// simulators, and baselines.  Alignment matches the widest SIMD unit the
// generated code may target and keeps tile starts cache-line aligned.
//
// Page policy.  This is the one place that decides how a buffer's pages
// are backed, and it decides before the first byte is touched:
//
//   - Buffers of kHugePageBytes (2 MiB) or more get their own anonymous
//     mapping with a 2 MiB-aligned base.  The whole 2 MiB pages inside
//     [data, data + size) are advised MADV_HUGEPAGE, then every page is
//     pre-faulted (MADV_POPULATE_WRITE, or a memset where the kernel lacks
//     it).  A sweep streams several planes from every ring slot at once,
//     and on 4 KiB pages the page walks cost ~25% of its throughput; the
//     pre-fault keeps first touch in set-up instead of in the first op.
//     The partial tail page is not advised, so resident memory is not
//     rounded up to 2 MiB.  Advice that fails (THP disabled, old kernel)
//     is ignored: the buffer is then backed by 4 KiB pages.
//   - Smaller buffers (staging planes, small grids) come from
//     std::aligned_alloc plus a memset.

#include <cstddef>
#include <cstdint>

#include <span>
#include <string>

namespace msc {

/// Owning, 64-byte aligned, zero-initialized byte buffer.
class AlignedBuffer {
 public:
  static constexpr std::size_t kAlignment = 64;
  /// Size from which a buffer is mapped on its own, 2 MiB aligned, and
  /// advised to use transparent huge pages.
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t bytes);
  AlignedBuffer(const AlignedBuffer& other);
  AlignedBuffer& operator=(const AlignedBuffer& other);
  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;
  ~AlignedBuffer();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }

  /// Typed view over the whole buffer; size() must be a multiple of sizeof(T).
  template <typename T>
  std::span<T> as() {
    return {reinterpret_cast<T*>(data_), size_ / sizeof(T)};
  }
  template <typename T>
  std::span<const T> as() const {
    return {reinterpret_cast<const T*>(data_), size_ / sizeof(T)};
  }

  void fill_zero();

 private:
  void release() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// The host's transparent-huge-page mode: the bracketed word of
/// /sys/kernel/mm/transparent_hugepage/enabled ("always", "madvise",
/// "never"), or "unavailable" where that file cannot be read.
std::string transparent_hugepage_mode();

}  // namespace msc
