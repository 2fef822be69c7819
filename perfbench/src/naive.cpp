#include "naive.hpp"

#include <algorithm>
#include <cstdio>

namespace bench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

int StencilTable::deps() const {
  int d = 1;
  for (const auto& t : terms) d = std::max(d, -t.offset);
  return d;
}

std::int64_t StencilTable::interior_points() const {
  std::int64_t n = 1;
  for (auto e : grid) n *= e;
  return n;
}

Coord StencilTable::extent() const {
  Coord e{1, 1, 1};
  for (std::size_t d = 0; d < grid.size(); ++d) e[d] = grid[d];
  return e;
}

std::string StencilTable::spec_text() const {
  std::string s = "name " + name + "\ngrid";
  const auto add = [&s](std::int64_t v) {
    s += ' ';
    s += std::to_string(v);
  };
  for (auto e : grid) add(e);
  s += "\nhalo";
  add(halo);
  s += "\ndtype f64\n";
  for (const auto& p : points) {
    s += "point";
    for (int d = 0; d < ndim(); ++d) add(p.off[static_cast<std::size_t>(d)]);
    s += fmt(" %.17g\n", p.coeff);
  }
  for (const auto& t : terms) {
    s += "term";
    add(t.offset);
    s += fmt(" %.17g\n", t.weight);
  }
  if (!tile.empty()) {
    s += "tile";
    for (auto t : tile) add(t);
    s += '\n';
  }
  if (parallel > 0) {
    s += "parallel";
    add(parallel);
    s += '\n';
  }
  if (!mpi.empty()) {
    s += "mpi";
    for (int m : mpi) add(m);
    s += '\n';
  }
  return s;
}

StencilTable StencilTable::with_grid(std::vector<std::int64_t> g) const {
  StencilTable t = *this;
  t.grid = std::move(g);
  return t;
}

StencilTable star3d7(std::vector<std::int64_t> grid) {
  StencilTable t;
  t.name = "bench3d7pt";
  t.grid = std::move(grid);
  t.points = {{{0, 0, 0}, 0.4},  {{0, 0, -1}, 0.1}, {{0, 0, 1}, 0.1}, {{0, -1, 0}, 0.1},
              {{0, 1, 0}, 0.1},  {{-1, 0, 0}, 0.1}, {{1, 0, 0}, 0.1}};
  t.terms = {{-1, 0.6}, {-2, 0.4}};
  t.tile = {2, 8, 256};
  return t;
}

StencilTable box2d121(std::vector<std::int64_t> grid) {
  StencilTable t;
  t.name = "bench2d121pt";
  t.grid = std::move(grid);
  t.halo = 5;
  // Weights 1 + n/121 are pairwise distinct; normalising them to sum 1 makes
  // the operator an average, so values stay bounded over any run length.
  double total = 0.0;
  for (int n = 0; n < 121; ++n) total += 1.0 + n / 121.0;
  int n = 0;
  for (std::int64_t j = -5; j <= 5; ++j)
    for (std::int64_t i = -5; i <= 5; ++i, ++n)
      t.points.push_back({{j, i, 0}, (1.0 + n / 121.0) / total});
  t.terms = {{-1, 0.6}, {-2, 0.4}};
  t.tile = {2, 2048};
  return t;
}

double seed_value(std::uint64_t seed, int level, std::uint64_t idx) {
  const std::uint64_t stream =
      splitmix64(seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(level));
  const std::uint64_t h = splitmix64(stream ^ idx);
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

std::uint64_t global_index(const StencilTable& tab, const Coord& g) {
  std::uint64_t idx = 0;
  for (int d = 0; d < tab.ndim(); ++d)
    idx = idx * static_cast<std::uint64_t>(tab.grid[static_cast<std::size_t>(d)]) +
          static_cast<std::uint64_t>(g[static_cast<std::size_t>(d)]);
  return idx;
}

double rel_error(double got, const PointRef& ref) {
  const double scale = std::max({std::abs(ref.value), ref.mag, 1e-300});
  return std::abs(got - ref.value) / scale;
}

NaiveRun::NaiveRun(const StencilTable& tab, std::uint64_t seed) : tab_(tab) {
  const auto n = static_cast<std::size_t>(tab.interior_points());
  const int deps = tab.deps();
  levels_.assign(static_cast<std::size_t>(deps) + 1, std::vector<double>(n));
  // Level 0 (step 0) sits at head, level L (step -L) at head - L.
  head_ = deps - 1;
  for (int level = 0; level < deps; ++level) {
    auto& v = levels_[static_cast<std::size_t>(head_ - level)];
    for (std::size_t i = 0; i < n; ++i) v[i] = seed_value(seed, level, i);
  }
}

const std::vector<double>& NaiveRun::level(int back) const {
  const int w = static_cast<int>(levels_.size());
  return levels_[static_cast<std::size_t>(((head_ - back) % w + w) % w)];
}

double NaiveRun::at(int back, const Coord& c) const {
  return level(back)[global_index(tab_, c)];
}

void NaiveRun::step() {
  const int w = static_cast<int>(levels_.size());
  const int next = (head_ + 1) % w;
  std::vector<double> out(levels_[static_cast<std::size_t>(next)].size());
  const Coord ext = tab_.extent();
  for (std::int64_t k = 0; k < ext[0]; ++k)
    for (std::int64_t j = 0; j < ext[1]; ++j)
      for (std::int64_t i = 0; i < ext[2]; ++i) {
        const Coord c{k, j, i};
        // back counts from the level being computed: back 1 = newest stored.
        out[global_index(tab_, c)] =
            recompute_point(tab_, c, [&](int back, const Coord& n) { return at(back - 1, n); })
                .value;
      }
  levels_[static_cast<std::size_t>(next)] = std::move(out);
  head_ = next;
  ++steps_;
}

std::vector<Coord> region_samples(const Coord& ext, int ndim, std::uint64_t seed, int extra) {
  std::uint64_t state = seed;
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {  // uniform in [lo, hi)
    state = splitmix64(state);
    return lo + static_cast<std::int64_t>(state % static_cast<std::uint64_t>(hi - lo));
  };
  std::vector<Coord> out;
  int regions = 1;
  for (int d = 0; d < ndim; ++d) regions *= 3;
  for (int r = 0; r < regions; ++r) {
    Coord c{0, 0, 0};
    int code = r;
    for (int d = ndim - 1; d >= 0; --d, code /= 3) {
      const std::int64_t e = ext[static_cast<std::size_t>(d)];
      const int which = code % 3;  // 0 low face, 1 inner, 2 high face
      std::int64_t v = which == 0 ? 0 : e - 1;
      if (which == 1) v = e > 2 ? pick(1, e - 1) : 0;
      c[static_cast<std::size_t>(d)] = v;
    }
    out.push_back(c);
  }
  for (int n = 0; n < extra; ++n) {
    Coord c{0, 0, 0};
    for (std::size_t d = 0; d < static_cast<std::size_t>(ndim); ++d) c[d] = pick(0, ext[d]);
    out.push_back(c);
  }
  return out;
}

}  // namespace bench
