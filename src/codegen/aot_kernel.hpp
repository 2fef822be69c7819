#pragma once

// AOT-specialized host row kernel emission (the paper's core promise,
// closed for the host path): per stencil and grid geometry we emit one C
// translation unit holding a single row kernel with every constant baked
// in — each term's coefficient and its linear delta over the padded
// strides — and the stencil's full linear term list unrolled as straight-
// line accumulation statements.  The in-process sweep engine compiles a
// fused kernel per term count only up to kFusedTermLimit and runs wider
// stencils through one register-blocked kernel with a runtime term count;
// the emitted kernel instead bakes in every term: a 242-term 2d121pt_box
// becomes 242 constant-offset loads the host cc can schedule with full
// knowledge of the deltas.
//
// The kernel has the sweep engine's row signature (exec::detail::RowFn),
// so the existing drivers run it: tiles, parallel chunks, wedges, halo
// fills, cancellation and instrumentation all come from run_scheduled /
// run_scheduled_temporal.  The module holds no loop over time or tiles.
//
// Numerics contract (bit-identity with exec::detail::sweep_point_linear):
// each output element starts from `double acc = 0.0`, accumulates its
// terms in LinearKernel order as `acc += coeff * (double)src[...]`, and is
// stored through one final cast — compiled with -ffp-contract=off so no
// FMA contraction can change a value.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/linearize.hpp"
#include "ir/stencil.hpp"

namespace msc::codegen {

/// Everything the specialized emitter bakes into one kernel TU.  Plain
/// data, so the backend can hash it (via the emitted source) for the
/// compile cache.
struct AotKernelSpec {
  std::string name;                    ///< program name, for the banner
  std::string elem_c_type;             ///< "double" / "float"
  int ndim = 0;
  std::array<std::int64_t, 3> extent{1, 1, 1};  ///< interior extents
  std::int64_t halo = 0;
  std::vector<exec::LinTerm> terms;    ///< full unrolled term list
};

/// Builds the spec for a stencil.  `lin` must be the stencil's
/// linearization — passed in so callers that already linearized don't pay
/// it twice.
AotKernelSpec make_aot_spec(const ir::StencilDef& st, const exec::LinearKernel& lin);

/// Emits the complete C source of the specialized kernel module.  Exported
/// ABI (all C, default visibility):
///
///   void msc_aot_row(T *out, int64_t base, int64_t n,
///                    const struct msc_term *terms);  /* exec::detail::RowFn<T> */
///   long msc_aot_padded_points(void);   /* per-slot element count */
///   int  msc_aot_abi(void);             /* kMscAotAbiVersion */
///
/// msc_aot_row writes out[base .. base+n) of one row.  `terms` is the
/// exec::detail::ResolvedTerm<T> array of the output step (layout pinned
/// by static_asserts in aot_kernel.cpp); only each term's `src` slot
/// pointer is read, coefficients and deltas are compile-time constants.
std::string gen_aot_kernel(const AotKernelSpec& spec);

/// Bumped whenever the emitted ABI or numerics contract changes; baked
/// into the module and into the backend's cache key so stale shared
/// objects from older emitters can never be dlopen'd.
inline constexpr int kMscAotAbiVersion = 2;

}  // namespace msc::codegen
