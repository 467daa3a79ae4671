#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief The output check of one pass of a workload.
///
/// A pass renders its result as text: the Tables 2-4 cells per dataset on
/// the paper-* workloads, the top-10 token weights of every call on
/// explain-one. The digest of that text identifies the result. Independently
/// of any digest, a cell that is non-finite, out of its range or backed by
/// zero trials is a problem, and renders as "n/a" rather than as a number,
/// so an all-failed evaluation can never pass as a table of zeros.
class OutputCheck {
 public:
  /// One table cell: `value` must be finite, within [lo, hi], and backed by
  /// at least one trial.
  void AddCell(const std::string& row, const std::string& column, double value,
               size_t trials, double lo, double hi);
  /// A rendered block (e.g. an explanation's top-10 tokens).
  void AddText(const std::string& text);
  /// Records a failure the caller detected (a failed call, an error).
  void AddProblem(const std::string& problem);

  const std::string& rendered() const { return rendered_; }
  uint64_t digest() const;
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::string rendered_;
  std::vector<std::string> problems_;
};

/// Verdict over all passes of a run: every pass must be free of problems,
/// and the digest of pass 0 (the only pass whose inputs a seed alone fixes,
/// see SeedPlan) must equal `expected_digest` when one is recorded.
struct CheckVerdict {
  bool correct = true;
  std::string digest;  // hex digest of pass 0
  std::vector<std::string> reasons;
};
CheckVerdict Judge(const std::vector<OutputCheck>& passes,
                   const std::string& expected_digest);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
