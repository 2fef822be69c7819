#pragma once

// The benchmark's own stencil description and its engine-independent check.
//
// A StencilTable is the point and coefficient table the benchmark renders
// into `.msc` spec text; the program under test is built from that text by
// the MSC frontend.  Everything else in this header recomputes results from
// the same table with plain per-point loops over dense arrays.  It uses no
// MSC type or function, so it shares no code with the engines it judges.
//
// Tolerance (paper §5.1): a point passes when
//   |got - ref| <= 1e-10 * max(|ref|, mag)
// where mag is the sum of the absolute values of the point's weighted
// terms.  The engines sum the same terms in another order, so their
// rounding error scales with mag; dividing by |ref| alone would flag points
// whose terms happen to cancel.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

using Coord = std::array<std::int64_t, 3>;

constexpr double kTolerance = 1e-10;

struct StencilTable {
  struct Point {
    Coord off{0, 0, 0};
    double coeff = 0.0;
  };
  struct Term {
    int offset = -1;  ///< time offset, negative
    double weight = 1.0;
  };

  std::string name;
  std::vector<std::int64_t> grid;  ///< interior extents, slowest first
  std::int64_t halo = 1;
  std::vector<Point> points;
  std::vector<Term> terms;
  std::vector<std::int64_t> tile;  ///< empty = unscheduled
  int parallel = 0;
  std::vector<int> mpi;

  int ndim() const { return static_cast<int>(grid.size()); }
  /// Previous time levels read (ring window minus one).
  int deps() const;
  std::int64_t interior_points() const;
  Coord extent() const;
  /// `.msc` spec text; coefficients are printed with 17 significant digits
  /// so the parsed program holds exactly these doubles.
  std::string spec_text() const;
  StencilTable with_grid(std::vector<std::int64_t> g) const;
};

/// The paper's 3d7pt_star with two time deps (Listing 1).
StencilTable star3d7(std::vector<std::int64_t> grid);
/// 2d121pt_box, radius 5: 121 positive, pairwise distinct coefficients that
/// sum to 1, two time deps, so 242 distinct linear terms.
StencilTable box2d121(std::vector<std::int64_t> grid);

/// Initial value of the interior point with global row-major index `idx`
/// at initial level `level` (0 = step 0, 1 = step -1, ...): a counter-based
/// hash of (seed, level, idx) mapped to [-1, 1), so any decomposition of
/// the domain seeds the same global field.
double seed_value(std::uint64_t seed, int level, std::uint64_t idx);

/// Row-major global index of an interior coordinate.
std::uint64_t global_index(const StencilTable& tab, const Coord& g);

/// Reference value and term magnitude of one recomputed point.
struct PointRef {
  double value = 0.0;
  double mag = 0.0;
};

/// Recomputes point `c` of the step after the levels `get` reads:
/// get(back, coord) returns the value `back` steps before (back >= 1) at an
/// in-domain coordinate; out-of-domain neighbours read zero (Dirichlet).
template <typename Get>
PointRef recompute_point(const StencilTable& tab, const Coord& c, Get&& get) {
  const Coord ext = tab.extent();
  PointRef r;
  for (const auto& term : tab.terms) {
    double acc = 0.0, mag = 0.0;
    for (const auto& p : tab.points) {
      Coord n{c[0] + p.off[0], c[1] + p.off[1], c[2] + p.off[2]};
      bool inside = true;
      for (int d = 0; d < 3; ++d) inside = inside && n[d] >= 0 && n[d] < ext[d];
      if (!inside) continue;
      const double x = get(-term.offset, n);
      acc += p.coeff * x;
      mag += std::abs(p.coeff * x);
    }
    r.value += term.weight * acc;
    r.mag += std::abs(term.weight) * mag;
  }
  return r;
}

/// Relative error of `got` against `ref` under the tolerance above.
double rel_error(double got, const PointRef& ref);

/// Dense naive time stepper over the whole interior (reduced grids only).
class NaiveRun {
 public:
  NaiveRun(const StencilTable& tab, std::uint64_t seed);
  void step();
  /// Value `back` steps before the newest level (back = 0 is the newest).
  double at(int back, const Coord& c) const;
  std::int64_t steps() const { return steps_; }

 private:
  const std::vector<double>& level(int back) const;
  StencilTable tab_;
  std::vector<std::vector<double>> levels_;  ///< ring, newest at head_
  int head_ = 0;
  std::int64_t steps_ = 0;
};

/// Worst relative error over `samples` of step t, each recomputed from the
/// steps before it.  at(step, coord) reads the program's result.
template <typename At>
double sampled_error(const StencilTable& tab, std::int64_t t, const std::vector<Coord>& samples,
                     At&& at) {
  double worst = 0.0;
  for (const Coord& c : samples) {
    const PointRef ref =
        recompute_point(tab, c, [&](int back, const Coord& n) { return at(t - back, n); });
    worst = std::max(worst, rel_error(at(t, c), ref));
  }
  return worst;
}

/// Worst relative error of every interior point of the program's step t
/// against the newest level of `ref`.
template <typename At>
double full_error(const StencilTable& tab, std::int64_t t, const NaiveRun& ref, At&& at) {
  double worst = 0.0;
  const Coord ext = tab.extent();
  for (std::int64_t k = 0; k < ext[0]; ++k)
    for (std::int64_t j = 0; j < ext[1]; ++j)
      for (std::int64_t i = 0; i < ext[2]; ++i) {
        const Coord c{k, j, i};
        // The naive level's own terms give the magnitude scale.
        const PointRef scale =
            recompute_point(tab, c, [&](int back, const Coord& n) { return ref.at(back, n); });
        worst = std::max(worst, rel_error(at(t, c), {ref.at(0, c), scale.mag}));
      }
  return worst;
}

/// Sample coordinates covering all 3^ndim boundary regions of a box of
/// extent `ext` (each corner, edge, face and the interior: per dimension
/// the low face, the high face, and a random inner index), plus `extra`
/// uniformly random points.
std::vector<Coord> region_samples(const Coord& ext, int ndim, std::uint64_t seed, int extra);

}  // namespace bench
