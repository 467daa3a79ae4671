#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The p-th percentile (p in [0, 100]) of `values` by linear interpolation
/// between the two closest ranks, the same rule as Python's
/// `statistics.quantiles(..., method="inclusive")`. NaN when empty.
double Percentile(std::vector<double> values, double p);

/// Percentile(values, 50).
double Median(std::vector<double> values);

/// How many samples lie strictly above the p-th percentile: the evidence a
/// tail percentile rests on (a p99 needs at least ten).
size_t SamplesBeyond(const std::vector<double>& values, double p);

/// A ratio that keeps its base, so it is never printed without it.
struct Ratio {
  double numerator = 0.0;
  double denominator = 0.0;

  /// numerator / denominator; NaN when the base is 0.
  double value() const;
  /// "0.6120 (1234 / 2016)".
  std::string ToString() const;
};

/// 64-bit FNV-1a over `data`, continuing from `state`.
uint64_t Fnv1a64(std::string_view data, uint64_t state = 0xcbf29ce484222325ULL);

/// Sixteen lowercase hex digits.
std::string Hex64(uint64_t value);

/// Shortest round-trip decimal rendering of `value` ("0.0123", "1e-07"),
/// so printed measurements keep all their digits.
std::string FullDouble(double value);

/// JSON string literal with the quotes.
std::string JsonString(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
