// Small numeric helpers shared across modules.
#ifndef CEWS_COMMON_MATH_UTIL_H_
#define CEWS_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/check.h"

namespace cews {

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return std::min(std::max(x, lo), hi);
}

/// Arithmetic mean; 0 for an empty vector.
inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Population variance; 0 for fewer than two elements.
inline double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

/// Population standard deviation.
inline double StdDev(const std::vector<double>& v) {
  return std::sqrt(Variance(v));
}

/// Jain's fairness index (Jain, Chiu & Hawe 1984):
///   J(x) = (Σ x_i)^2 / (n · Σ x_i^2),  in (0, 1], 1 = perfectly fair.
/// Used by the energy-efficiency metric ρ (Eqn 6). Returns 0 when all inputs
/// are zero (no data collected anywhere).
inline double JainFairness(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  double sum = 0.0, sq = 0.0;
  for (double v : x) {
    sum += v;
    sq += v * v;
  }
  if (sq <= 0.0) return 0.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sq);
}

/// True when none of the n values is NaN or +-Inf (all exponent bits set).
/// Branch-free so it vectorizes: the server runs it on every request.
inline bool AllFinite(const float* values, size_t n) {
  uint32_t non_finite = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, values + i, sizeof(bits));
    non_finite |= static_cast<uint32_t>((bits & 0x7f800000u) == 0x7f800000u);
  }
  return non_finite == 0;
}

/// True when |a - b| <= atol + rtol * |b|.
inline bool AlmostEqual(double a, double b, double atol = 1e-9,
                        double rtol = 1e-7) {
  return std::abs(a - b) <= atol + rtol * std::abs(b);
}

/// Squared Euclidean distance in 2-D.
inline double SquaredDistance(double x0, double y0, double x1, double y1) {
  const double dx = x1 - x0, dy = y1 - y0;
  return dx * dx + dy * dy;
}

/// Euclidean distance in 2-D (the paper's d(i, j), Definition 1).
inline double Distance(double x0, double y0, double x1, double y1) {
  return std::sqrt(SquaredDistance(x0, y0, x1, y1));
}

}  // namespace cews

#endif  // CEWS_COMMON_MATH_UTIL_H_
