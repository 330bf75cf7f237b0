// Seeded procedural noise for synthetic Earth fields.
//
// Value noise with smooth interpolation, summed over octaves (fBm), defined
// over continuous (x, y) so that cloud fields and continents are consistent
// at any sampling resolution — the same granule sampled at full resolution
// (preprocessing tests) and at coarse resolution (workload estimation for
// the discrete-event benchmarks) sees the same geography.
//
// Neighbouring samples of a swath mostly fall in the same lattice cell, so
// a sampler passes a Cursor that remembers the last cell and its four corner
// values per octave. The corners are a pure function of (seed, cell), which
// makes the reuse exact: a cursor changes the cost, never a result bit.
#pragma once

#include <array>
#include <cstdint>

namespace mfw::modis {

/// Deterministic 2-D value-noise field; cheap and allocation-free.
class NoiseField {
 public:
  /// Octaves whose lattice cell a Cursor remembers; deeper octaves are
  /// evaluated without reuse.
  static constexpr int kCursorOctaves = 8;

  /// Call-local memory of the last lattice cell visited per octave. Serves
  /// one field for one sampling pass: the corners it holds belong to that
  /// field's seed, and it is never shared between threads or kept across
  /// calls. A fresh cursor remembers nothing.
  class Cursor {
   private:
    friend class NoiseField;
    struct Cell {
      bool valid = false;
      std::int64_t ix = 0;
      std::int64_t iy = 0;
      double v00 = 0.0, v10 = 0.0, v01 = 0.0, v11 = 0.0;
    };
    std::array<Cell, kCursorOctaves> cells_{};
  };

  explicit NoiseField(std::uint64_t seed) : seed_(seed) {}

  /// Smooth noise in [-1, 1] at continuous coordinates.
  double at(double x, double y) const;

  /// Fractional Brownian motion: `octaves` layers, each at double frequency
  /// and `gain` amplitude. Result approximately in [-1, 1].
  double fbm(double x, double y, int octaves, double gain = 0.5,
             double lacunarity = 2.0) const;

  /// fbm() reusing the lattice corners `cursor` remembers from the previous
  /// sample; bitwise equal to the pointwise call.
  double fbm(double x, double y, int octaves, Cursor& cursor,
             double gain = 0.5, double lacunarity = 2.0) const;

 private:
  /// Hash of integer lattice point -> [-1, 1].
  double lattice(std::int64_t ix, std::int64_t iy) const;

  /// Noise at (x, y), taking the cell corners from `cell` when it holds
  /// the cell (x, y) falls in, and refilling it otherwise.
  double at(double x, double y, Cursor::Cell& cell) const;

  std::uint64_t seed_;
};

}  // namespace mfw::modis
