#include "comm/halo_exchange.hpp"

namespace msc::comm {

// run_distributed is a header template; force both element types here so
// errors surface at library build time.

template DistRunStats run_distributed<float>(RankCtx&, const CartDecomp&, const ir::StencilDef&,
                                             exec::GridStorage<float>&, std::int64_t,
                                             std::int64_t, const exec::Bindings&);
template DistRunStats run_distributed<double>(RankCtx&, const CartDecomp&, const ir::StencilDef&,
                                              exec::GridStorage<double>&, std::int64_t,
                                              std::int64_t, const exec::Bindings&);

}  // namespace msc::comm
