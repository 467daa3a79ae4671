#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

size_t SamplesBeyond(const std::vector<double>& values, double p) {
  const double cut = Percentile(values, p);
  return static_cast<size_t>(std::count_if(
      values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

double Ratio::value() const {
  if (denominator == 0.0) return std::numeric_limits<double>::quiet_NaN();
  return numerator / denominator;
}

std::string Ratio::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.4f (%s / %s)", value(),
                FullDouble(numerator).c_str(), FullDouble(denominator).c_str());
  return buf;
}

uint64_t Fnv1a64(std::string_view data, uint64_t state) {
  for (unsigned char c : data) {
    state ^= c;
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string FullDouble(double value) {
  if (!std::isfinite(value)) return std::isnan(value) ? "nan" : "inf";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "nan";
  return std::string(buf, end);
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
