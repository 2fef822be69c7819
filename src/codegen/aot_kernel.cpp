#include "codegen/aot_kernel.hpp"

#include <cstddef>
#include <functional>
#include <map>
#include <type_traits>

#include "codegen/emitter.hpp"
#include "exec/sweep.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc::codegen {

namespace {

// The emitted `struct msc_term` is exec::detail::ResolvedTerm<T> seen from
// C: { double coeff; int64_t delta; const T *src; }.  The kernel reads
// `src` at this offset, so any change to ResolvedTerm is an ABI change.
template <typename T>
constexpr bool kResolvedTermIsMscTerm =
    std::is_standard_layout_v<exec::detail::ResolvedTerm<T>> &&
    sizeof(exec::detail::ResolvedTerm<T>) == 24 &&
    offsetof(exec::detail::ResolvedTerm<T>, coeff) == 0 &&
    offsetof(exec::detail::ResolvedTerm<T>, delta) == 8 &&
    offsetof(exec::detail::ResolvedTerm<T>, src) == 16;
static_assert(kResolvedTermIsMscTerm<double>, "ResolvedTerm<double> no longer matches msc_term");
static_assert(kResolvedTermIsMscTerm<float>, "ResolvedTerm<float> no longer matches msc_term");

std::string in_name(int toff) { return "in_m" + std::to_string(-toff); }

/// "i - 4231" / "i + 17" / "i" — the term's constant linear delta applied
/// to the row index variable.
std::string index_expr(std::int64_t delta) {
  if (delta == 0) return "i";
  if (delta < 0) return strprintf("i - %lld", static_cast<long long>(-delta));
  return strprintf("i + %lld", static_cast<long long>(delta));
}

}  // namespace

AotKernelSpec make_aot_spec(const ir::StencilDef& st, const exec::LinearKernel& lin) {
  AotKernelSpec spec;
  spec.name = st.name();
  spec.elem_c_type = ir::dtype_c_name(st.state()->dtype());
  spec.ndim = st.state()->ndim();
  for (int d = 0; d < spec.ndim; ++d)
    spec.extent[static_cast<std::size_t>(d)] = st.state()->extent(d);
  spec.halo = st.state()->halo();
  spec.terms = lin.terms;
  MSC_CHECK(!spec.terms.empty()) << "AOT kernel spec needs at least one linear term";
  return spec;
}

std::string gen_aot_kernel(const AotKernelSpec& spec) {
  MSC_CHECK(spec.ndim >= 1 && spec.ndim <= 3) << "AOT kernels are rank 1-3";
  const std::string& ty = spec.elem_c_type;

  // Compile-time padded row-major strides, identical to GridStorage's.
  std::array<std::int64_t, 3> stride{0, 0, 0};
  std::int64_t padded = 1;
  for (int d = spec.ndim - 1; d >= 0; --d) {
    stride[static_cast<std::size_t>(d)] = padded;
    padded *= spec.extent[static_cast<std::size_t>(d)] + 2 * spec.halo;
  }
  std::string dims;
  for (int d = 0; d < spec.ndim; ++d)
    dims += strprintf("%s%lld", d > 0 ? "x" : "",
                      static_cast<long long>(spec.extent[static_cast<std::size_t>(d)]));

  // First term of each distinct time offset, most recent first: terms of one
  // offset share their ring slot, so one `src` load serves them all.
  std::map<int, std::size_t, std::greater<>> first_term;
  for (std::size_t k = 0; k < spec.terms.size(); ++k)
    first_term.emplace(spec.terms[k].time_offset, k);

  Emitter e;
  e.line(strprintf("/* msc AOT-specialized row kernel: %s — generated, do not edit.",
                   spec.name.c_str()));
  e.line(strprintf(" * %d-D interior %s, halo %lld, %zu linear terms.  Numerics match exec",
                   spec.ndim, dims.c_str(), static_cast<long long>(spec.halo),
                   spec.terms.size()));
  e.line(" * sweep_point_linear bit for bit (ordered acc += coeff * (double)load;");
  e.line(" * compile with -ffp-contract=off). */");
  e.line();
  e.line("#include <stdint.h>");
  e.line();
  e.line("#define MSC_EXPORT __attribute__((visibility(\"default\")))");
  e.line();
  e.line("/* exec::detail::ResolvedTerm<T>; coeff and delta are baked in below. */");
  e.open("struct msc_term");
  e.line("double coeff;");
  e.line("int64_t delta;");
  e.line(strprintf("const %s *src;", ty.c_str()));
  e.close("};");
  e.line();

  e.open(strprintf("MSC_EXPORT void msc_aot_row(%s *restrict out, int64_t base, int64_t n, "
                   "const struct msc_term *restrict terms)",
                   ty.c_str()));
  for (const auto& [toff, k] : first_term)
    e.line(strprintf("const %s *restrict %s = terms[%zu].src + base;", ty.c_str(),
                     in_name(toff).c_str(), k));
  e.line("out += base;");
  e.line("#pragma GCC ivdep");
  e.open("for (int64_t i = 0; i < n; ++i)");
  e.line("double acc = 0.0;");
  for (const auto& term : spec.terms) {
    std::int64_t delta = 0;
    for (int d = 0; d < spec.ndim; ++d)
      delta += term.offset[static_cast<std::size_t>(d)] * stride[static_cast<std::size_t>(d)];
    e.line(strprintf("acc += %.17g * (double)%s[%s];", term.coeff,
                     in_name(term.time_offset).c_str(), index_expr(delta).c_str()));
  }
  e.line(strprintf("out[i] = (%s)acc;", ty.c_str()));
  e.close();  // i
  e.close();  // function
  e.line();
  e.open("MSC_EXPORT long msc_aot_padded_points(void)");
  e.line(strprintf("return %lldL;", static_cast<long long>(padded)));
  e.close();
  e.open("MSC_EXPORT int msc_aot_abi(void)");
  e.line(strprintf("return %d;", kMscAotAbiVersion));
  e.close();
  return e.str();
}

}  // namespace msc::codegen
