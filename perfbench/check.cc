#include "check.h"

#include <cmath>
#include <cstdio>

#include "stats.h"

namespace perfbench {

void OutputCheck::AddCell(const std::string& row, const std::string& column,
                          double value, size_t trials, double lo, double hi) {
  std::string problem;
  if (trials == 0) {
    problem = "no trials";
  } else if (!std::isfinite(value)) {
    problem = "non-finite";
  } else if (value < lo || value > hi) {
    problem = "out of range [" + FullDouble(lo) + ", " + FullDouble(hi) + "]";
  }
  std::string cell;
  if (problem.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    cell = buf;
  } else {
    cell = "n/a";
    problems_.push_back(row + " " + column + ": " + problem + " (value " +
                        FullDouble(value) + ", " + std::to_string(trials) +
                        " trials)");
  }
  rendered_ += row + " | " + column + " = " + cell + "\n";
}

void OutputCheck::AddText(const std::string& text) { rendered_ += text; }

void OutputCheck::AddProblem(const std::string& problem) {
  problems_.push_back(problem);
}

uint64_t OutputCheck::digest() const { return Fnv1a64(rendered_); }

CheckVerdict Judge(const std::vector<OutputCheck>& passes,
                   const std::string& expected_digest) {
  CheckVerdict verdict;
  if (passes.empty()) {
    verdict.correct = false;
    verdict.reasons.push_back("no pass completed");
    return verdict;
  }
  verdict.digest = Hex64(passes.front().digest());
  for (size_t i = 0; i < passes.size(); ++i) {
    for (const std::string& problem : passes[i].problems()) {
      verdict.reasons.push_back("pass " + std::to_string(i) + ": " + problem);
    }
  }
  if (!expected_digest.empty() && expected_digest != verdict.digest) {
    verdict.reasons.push_back("digest " + verdict.digest +
                              " differs from the recorded " + expected_digest);
  }
  verdict.correct = verdict.reasons.empty();
  return verdict;
}

}  // namespace perfbench
