#include "support/buffer.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <utility>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23  // kernel ≥ 5.14; absent from older glibc headers
#endif
#endif

#include "support/error.hpp"

namespace msc {

namespace {

#ifdef __linux__
bool is_mapped(std::size_t bytes) { return bytes >= AlignedBuffer::kHugePageBytes; }

/// Length of the mapping that backs a `bytes` buffer: whole base pages, so
/// the tail never spans a huge-page-sized range of its own.
std::size_t mapped_bytes(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

/// Maps `bytes` at a 2 MiB-aligned base: over-map by one huge page, then
/// unmap the misaligned head and the unused tail.  Advises the whole huge
/// pages inside [base, base + bytes), then faults in every page.  Fresh
/// anonymous pages are zero, so only the fallback needs the memset.
std::byte* map_huge(std::size_t bytes) {
  constexpr std::size_t huge = AlignedBuffer::kHugePageBytes;
  const std::size_t len = mapped_bytes(bytes);
  void* raw = ::mmap(nullptr, len + huge, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto lo = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t base = (lo + huge - 1) & ~(huge - 1);
  const std::size_t head = base - lo;  // < huge, so the tail is never empty
  if (head != 0) ::munmap(raw, head);
  ::munmap(reinterpret_cast<void*>(base + len), huge - head);
  auto* data = reinterpret_cast<std::byte*>(base);
  (void)::madvise(data, bytes / huge * huge, MADV_HUGEPAGE);
  if (::madvise(data, len, MADV_POPULATE_WRITE) != 0) std::memset(data, 0, bytes);
  return data;
}

void unmap_huge(std::byte* data, std::size_t bytes) { ::munmap(data, mapped_bytes(bytes)); }
#else
bool is_mapped(std::size_t) { return false; }
std::byte* map_huge(std::size_t) { return nullptr; }
void unmap_huge(std::byte*, std::size_t) {}
#endif

}  // namespace

AlignedBuffer::AlignedBuffer(std::size_t bytes) : size_(bytes) {
  if (bytes == 0) return;
  if (is_mapped(bytes)) {
    data_ = map_huge(bytes);
    return;
  }
  // Round the allocation up to a multiple of the alignment as required by
  // std::aligned_alloc.
  const std::size_t rounded = (bytes + kAlignment - 1) / kAlignment * kAlignment;
  data_ = static_cast<std::byte*>(std::aligned_alloc(kAlignment, rounded));
  if (data_ == nullptr) throw std::bad_alloc();
  std::memset(data_, 0, rounded);
}

AlignedBuffer::AlignedBuffer(const AlignedBuffer& other) : AlignedBuffer(other.size_) {
  if (size_ != 0) std::memcpy(data_, other.data_, size_);
}

AlignedBuffer& AlignedBuffer::operator=(const AlignedBuffer& other) {
  if (this == &other) return *this;
  AlignedBuffer copy(other);
  *this = std::move(copy);
  return *this;
}

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this == &other) return *this;
  release();
  data_ = std::exchange(other.data_, nullptr);
  size_ = std::exchange(other.size_, 0);
  return *this;
}

AlignedBuffer::~AlignedBuffer() { release(); }

void AlignedBuffer::release() noexcept {
  if (data_ == nullptr) return;
  if (is_mapped(size_)) {
    unmap_huge(data_, size_);
  } else {
    std::free(data_);
  }
}

void AlignedBuffer::fill_zero() {
  if (size_ != 0) std::memset(data_, 0, size_);
}

std::string transparent_hugepage_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) return "unavailable";
  const auto open = line.find('[');
  const auto close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return "unavailable";
  return line.substr(open + 1, close - open - 1);
}

}  // namespace msc
