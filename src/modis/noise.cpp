#include "modis/noise.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace mfw::modis {

namespace {
// Quintic smoothstep keeps first and second derivatives continuous, which
// avoids visible lattice artifacts in the cloud textures.
double smooth(double t) { return t * t * t * (t * (t * 6.0 - 15.0) + 10.0); }
}  // namespace

double NoiseField::lattice(std::int64_t ix, std::int64_t iy) const {
  const std::uint64_t h = util::mix64(
      seed_, util::mix64(static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL,
                         static_cast<std::uint64_t>(iy)));
  // Map the top 53 bits to [-1, 1].
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

double NoiseField::at(double x, double y, Cursor::Cell& cell) const {
  const double fx = std::floor(x);
  const double fy = std::floor(y);
  const auto ix = static_cast<std::int64_t>(fx);
  const auto iy = static_cast<std::int64_t>(fy);
  const double tx = smooth(x - fx);
  const double ty = smooth(y - fy);
  if (!cell.valid || cell.ix != ix || cell.iy != iy) {
    cell.valid = true;
    cell.ix = ix;
    cell.iy = iy;
    cell.v00 = lattice(ix, iy);
    cell.v10 = lattice(ix + 1, iy);
    cell.v01 = lattice(ix, iy + 1);
    cell.v11 = lattice(ix + 1, iy + 1);
  }
  const double a = cell.v00 + (cell.v10 - cell.v00) * tx;
  const double b = cell.v01 + (cell.v11 - cell.v01) * tx;
  return a + (b - a) * ty;
}

double NoiseField::at(double x, double y) const {
  Cursor::Cell cell;
  return at(x, y, cell);
}

double NoiseField::fbm(double x, double y, int octaves, double gain,
                       double lacunarity) const {
  Cursor cursor;
  return fbm(x, y, octaves, cursor, gain, lacunarity);
}

double NoiseField::fbm(double x, double y, int octaves, Cursor& cursor,
                       double gain, double lacunarity) const {
  double sum = 0.0;
  double amplitude = 1.0;
  double norm = 0.0;
  double fx = x;
  double fy = y;
  for (int i = 0; i < octaves; ++i) {
    const double v =
        i < kCursorOctaves ? at(fx, fy, cursor.cells_[i]) : at(fx, fy);
    sum += amplitude * v;
    norm += amplitude;
    amplitude *= gain;
    fx *= lacunarity;
    fy *= lacunarity;
  }
  return norm > 0 ? sum / norm : 0.0;
}

}  // namespace mfw::modis
