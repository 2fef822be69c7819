#pragma once

// Runtime grid storage: one aligned, halo-padded buffer per sliding-window
// slot of a tensor.  Rank-generic (1-3 D) via precomputed strides; the hot
// sweep loops in the executors use raw pointers + these strides.
// Page backing of the slots is AlignedBuffer's policy (support/buffer.hpp).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/tensor.hpp"
#include "support/buffer.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace msc::exec {

/// Halo boundary handling between timesteps.
enum class Boundary {
  ZeroHalo,  ///< Dirichlet zero: halo cells stay 0
  Periodic,  ///< wrap-around copy from the opposite interior face
  External,  ///< halos are managed externally (distributed halo exchange)
};

template <typename T>
class GridStorage {
 public:
  /// Per-slot base-address stagger: ring slots of the same tensor must not
  /// be congruent modulo the 4 KiB page, or every term's load stream and
  /// the output store stream of a sweep land in the same L1 cache sets
  /// (4K aliasing) and throughput halves.  Five cache lines keeps 64-byte
  /// alignment while decorrelating the page offsets.  Slot bases are
  /// rounded up to a page boundary first so the page offsets are exactly
  /// `slot * kSlotStaggerBytes` — deterministic, not at the mercy of
  /// whatever the allocator hands back after earlier churn.
  static constexpr std::size_t kSlotStaggerBytes = 320;
  static constexpr std::size_t kPageBytes = 4096;
  explicit GridStorage(ir::Tensor tensor) : tensor_(std::move(tensor)) {
    MSC_CHECK(tensor_ != nullptr) << "GridStorage needs a tensor";
    MSC_CHECK(sizeof(T) == ir::dtype_size(tensor_->dtype()))
        << "GridStorage element type does not match tensor dtype "
        << ir::dtype_name(tensor_->dtype());
    ndim_ = tensor_->ndim();
    halo_ = tensor_->halo();
    std::int64_t padded = 1;
    for (int d = ndim_ - 1; d >= 0; --d) {
      extent_[static_cast<std::size_t>(d)] = tensor_->extent(d);
      stride_[static_cast<std::size_t>(d)] = padded;
      padded *= tensor_->extent(d) + 2 * halo_;
    }
    padded_points_ = padded;
    slots_.reserve(static_cast<std::size_t>(tensor_->time_window()));
    for (int s = 0; s < tensor_->time_window(); ++s)
      slots_.emplace_back(static_cast<std::size_t>(padded) * sizeof(T) +
                          static_cast<std::size_t>(s) * kSlotStaggerBytes +
                          kPageBytes);
  }

  // Payload lives at a page-aligned offset that depends on each buffer's
  // own address, so a byte-for-byte buffer copy would land the data at the
  // wrong offset in the new allocation — copy slot payloads explicitly.
  GridStorage(const GridStorage& other)
      : tensor_(other.tensor_),
        ndim_(other.ndim_),
        halo_(other.halo_),
        extent_(other.extent_),
        stride_(other.stride_),
        padded_points_(other.padded_points_) {
    slots_.reserve(other.slots_.size());
    for (const auto& buf : other.slots_) slots_.emplace_back(buf.size());
    for (int s = 0; s < slots(); ++s)
      std::copy_n(other.slot_data(s), padded_points_, slot_data(s));
  }
  GridStorage& operator=(const GridStorage& other) {
    if (this != &other) {
      GridStorage tmp(other);
      *this = std::move(tmp);
    }
    return *this;
  }
  GridStorage(GridStorage&&) noexcept = default;
  GridStorage& operator=(GridStorage&&) noexcept = default;

  const ir::Tensor& tensor() const { return tensor_; }
  int ndim() const { return ndim_; }
  std::int64_t halo() const { return halo_; }
  int slots() const { return static_cast<int>(slots_.size()); }
  std::int64_t extent(int d) const { return extent_[static_cast<std::size_t>(d)]; }
  std::int64_t stride(int d) const { return stride_[static_cast<std::size_t>(d)]; }
  std::int64_t padded_points() const { return padded_points_; }

  /// Ring slot that holds timestep `t` (t may be negative for initial data).
  int slot_for_time(std::int64_t t) const {
    const auto w = static_cast<std::int64_t>(slots_.size());
    return static_cast<int>(((t % w) + w) % w);
  }

  T* slot_data(int slot) {
    MSC_CHECK(slot >= 0 && slot < slots()) << "bad slot " << slot;
    return reinterpret_cast<T*>(slot_base(slot));
  }
  const T* slot_data(int slot) const {
    MSC_CHECK(slot >= 0 && slot < slots()) << "bad slot " << slot;
    return reinterpret_cast<const T*>(slot_base(slot));
  }

  /// Linear index of interior coordinate (coords exclude the halo shift).
  std::int64_t index(std::array<std::int64_t, 3> coord) const {
    std::int64_t idx = 0;
    for (int d = 0; d < ndim_; ++d)
      idx += (coord[static_cast<std::size_t>(d)] + halo_) * stride_[static_cast<std::size_t>(d)];
    return idx;
  }

  T& at(int slot, std::array<std::int64_t, 3> coord) { return slot_data(slot)[index(coord)]; }
  const T& at(int slot, std::array<std::int64_t, 3> coord) const {
    return slot_data(slot)[index(coord)];
  }

  /// Fills the interior of `slot` with deterministic pseudo-random values
  /// in [-1, 1] (substitute for the paper's /data/rand.data).  Row-based:
  /// rows are visited row-major, so the Rng consumes draws in exactly the
  /// per-point order and the values stay bit-identical.
  void fill_random(int slot, std::uint64_t seed) {
    Rng rng(seed);
    T* data = slot_data(slot);
    for_each_interior_row([&](std::int64_t base, std::int64_t len) {
      T* row = data + base;
      for (std::int64_t i = 0; i < len; ++i) row[i] = static_cast<T>(rng.next_real(-1.0, 1.0));
    });
  }

  /// Applies the boundary policy to the halo cells of `slot`.
  void fill_halo(int slot, Boundary bc) {
    if (halo_ == 0 || bc == Boundary::External) return;
    if (bc == Boundary::ZeroHalo) {
      zero_halo(slot);
    } else {
      periodic_halo(slot);
    }
  }

  /// Interior values of `slot` as doubles, row-major (last dim fastest) —
  /// the canonical layout the conformance oracles compare element-wise and
  /// the generated mains dump/checksum in.
  std::vector<double> interior_values(int slot) const {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(tensor_->interior_points()));
    const T* data = slot_data(slot);
    for_each_interior_row([&](std::int64_t base, std::int64_t len) {
      const T* row = data + base;
      for (std::int64_t i = 0; i < len; ++i) out.push_back(static_cast<double>(row[i]));
    });
    return out;
  }

  /// Row-major interior sum of `slot` — matches the checksum accumulation
  /// order of the generated backends bit for bit (row sweep preserves the
  /// exact per-point summation order).
  double interior_checksum(int slot) const {
    double sum = 0.0;
    const T* data = slot_data(slot);
    for_each_interior_row([&](std::int64_t base, std::int64_t len) {
      const T* row = data + base;
      for (std::int64_t i = 0; i < len; ++i) sum += static_cast<double>(row[i]);
    });
    return sum;
  }

  /// Invokes fn(base, len) on every contiguous interior row: `base` is the
  /// linear index of the row's first element, `len` the last-dim extent.
  /// Rows are visited row-major, so a per-element loop inside fn touches
  /// the interior in exactly for_each_interior order (stride(ndim-1) == 1).
  template <typename Fn>
  void for_each_interior_row(Fn&& fn) const {
    const std::int64_t len = extent_[static_cast<std::size_t>(ndim_ - 1)];
    std::array<std::int64_t, 3> c{0, 0, 0};
    if (ndim_ == 1) {
      fn(index(c), len);
    } else if (ndim_ == 2) {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0]) fn(index(c), len);
    } else {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0])
        for (c[1] = 0; c[1] < extent_[1]; ++c[1]) fn(index(c), len);
    }
  }

  /// Invokes fn on every interior coordinate (row-major, last dim fastest).
  template <typename Fn>
  void for_each_interior(Fn&& fn) const {
    std::array<std::int64_t, 3> c{0, 0, 0};
    if (ndim_ == 1) {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0]) fn(c);
    } else if (ndim_ == 2) {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0])
        for (c[1] = 0; c[1] < extent_[1]; ++c[1]) fn(c);
    } else {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0])
        for (c[1] = 0; c[1] < extent_[1]; ++c[1])
          for (c[2] = 0; c[2] < extent_[2]; ++c[2]) fn(c);
    }
  }

 private:
  std::byte* slot_base(int slot) const {
    const auto s = static_cast<std::size_t>(slot);
    auto base = reinterpret_cast<std::uintptr_t>(slots_[s].data());
    base = (base + kPageBytes - 1) & ~(kPageBytes - 1);
    return reinterpret_cast<std::byte*>(base + s * kSlotStaggerBytes);
  }

  void zero_halo(int slot) {
    // Row-based: rows whose outer coordinates lie in the halo shell are
    // zeroed whole; interior rows only zero their last-dim edge cells.
    // (The old padded-box point scan visited every cell per step and cost
    // as much as the sweep it framed.)
    T* data = slot_data(slot);
    const auto lastd = static_cast<std::size_t>(ndim_ - 1);
    const std::int64_t row = extent_[lastd] + 2 * halo_;
    const auto edges = [&](std::int64_t base) {
      std::fill_n(data + base, halo_, T{});
      std::fill_n(data + base + halo_ + extent_[lastd], halo_, T{});
    };
    const auto full = [&](std::int64_t base) { std::fill_n(data + base, row, T{}); };
    const auto is_halo = [&](std::int64_t p, int d) {
      return p < halo_ || p >= extent_[static_cast<std::size_t>(d)] + halo_;
    };
    if (ndim_ == 1) {
      edges(0);
    } else if (ndim_ == 2) {
      for (std::int64_t p0 = 0; p0 < extent_[0] + 2 * halo_; ++p0) {
        const std::int64_t base = p0 * stride_[0];
        is_halo(p0, 0) ? full(base) : edges(base);
      }
    } else {
      for (std::int64_t p0 = 0; p0 < extent_[0] + 2 * halo_; ++p0)
        for (std::int64_t p1 = 0; p1 < extent_[1] + 2 * halo_; ++p1) {
          const std::int64_t base = p0 * stride_[0] + p1 * stride_[1];
          is_halo(p0, 0) || is_halo(p1, 1) ? full(base) : edges(base);
        }
    }
  }

  void periodic_halo(int slot) {
    T* data = slot_data(slot);
    iterate_padded([&](std::array<std::int64_t, 3> pc) {
      bool is_halo = false;
      std::array<std::int64_t, 3> src = pc;
      for (int d = 0; d < ndim_; ++d) {
        const auto e = extent_[static_cast<std::size_t>(d)];
        auto& v = src[static_cast<std::size_t>(d)];
        if (pc[static_cast<std::size_t>(d)] < halo_) {
          v = pc[static_cast<std::size_t>(d)] + e;
          is_halo = true;
        } else if (pc[static_cast<std::size_t>(d)] >= e + halo_) {
          v = pc[static_cast<std::size_t>(d)] - e;
          is_halo = true;
        }
      }
      if (!is_halo) return;
      std::int64_t dst_idx = 0, src_idx = 0;
      for (int d = 0; d < ndim_; ++d) {
        dst_idx += pc[static_cast<std::size_t>(d)] * stride_[static_cast<std::size_t>(d)];
        src_idx += src[static_cast<std::size_t>(d)] * stride_[static_cast<std::size_t>(d)];
      }
      data[dst_idx] = data[src_idx];
    });
  }

  template <typename Fn>
  void iterate_padded(Fn&& fn) const {
    std::array<std::int64_t, 3> p{0, 0, 0};
    const auto pe = [&](int d) { return extent_[static_cast<std::size_t>(d)] + 2 * halo_; };
    if (ndim_ == 1) {
      for (p[0] = 0; p[0] < pe(0); ++p[0]) fn(p);
    } else if (ndim_ == 2) {
      for (p[0] = 0; p[0] < pe(0); ++p[0])
        for (p[1] = 0; p[1] < pe(1); ++p[1]) fn(p);
    } else {
      for (p[0] = 0; p[0] < pe(0); ++p[0])
        for (p[1] = 0; p[1] < pe(1); ++p[1])
          for (p[2] = 0; p[2] < pe(2); ++p[2]) fn(p);
    }
  }

  ir::Tensor tensor_;
  int ndim_ = 0;
  std::int64_t halo_ = 0;
  std::array<std::int64_t, 3> extent_{1, 1, 1};
  std::array<std::int64_t, 3> stride_{0, 0, 0};
  std::int64_t padded_points_ = 0;
  std::vector<AlignedBuffer> slots_;
};

/// Maximum relative error between the interiors of two grids' slots, the
/// correctness metric of paper §5.1 (|a-b| / max(|b|, eps)).
template <typename T>
double max_relative_error(const GridStorage<T>& a, int slot_a, const GridStorage<T>& b,
                          int slot_b) {
  MSC_CHECK(a.ndim() == b.ndim()) << "rank mismatch";
  double worst = 0.0;
  a.for_each_interior([&](std::array<std::int64_t, 3> c) {
    const double va = static_cast<double>(a.at(slot_a, c));
    const double vb = static_cast<double>(b.at(slot_b, c));
    const double denom = std::max(std::abs(vb), 1e-30);
    worst = std::max(worst, std::abs(va - vb) / denom);
  });
  return worst;
}

/// "zero-halo" / "periodic", for logs and bench output.
std::string boundary_name(Boundary bc);

}  // namespace msc::exec
