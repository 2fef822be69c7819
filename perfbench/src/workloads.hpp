#pragma once

#include "harness.hpp"

namespace bench {

// Each workload runs the independent check, its set-ups and its op loop,
// and fills `r` with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, opts.trace).

void run_stream3d_aot(const Options& opts, Result& r);
void run_box2d_sweep(const Options& opts, Result& r);
void run_chain3d_dist(const Options& opts, Result& r);

}  // namespace bench
