// Self-tests of the benchmark's own arithmetic: percentiles and their sample
// counts, span self time, ratios with their base, and the output check.
// Run with `landmark_perfbench --self-test` (perfbench/run.py runs them
// before every measurement).

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "check.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "self-test FAILED: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void TestPercentiles() {
  // statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
  // == [1.75, 2.5, 3.25].
  const std::vector<double> four = {4, 1, 3, 2};
  Expect(Near(Percentile(four, 25), 1.75), "p25 of 1..4 is 1.75");
  Expect(Near(Median(four), 2.5), "median of 1..4 is 2.5");
  Expect(Near(Percentile(four, 75), 3.25), "p75 of 1..4 is 3.25");
  Expect(Near(Percentile({7.0}, 99), 7.0), "any percentile of one sample");
  Expect(std::isnan(Percentile({}, 50)), "percentile of nothing is NaN");

  std::vector<double> calls;
  for (int i = 1; i <= 1010; ++i) calls.push_back(i);
  // rank 0.99 * 1009 = 998.91 -> 999 + 0.91.
  Expect(Near(Percentile(calls, 99), 999.91), "p99 of 1..1010 is 999.91");
  Expect(SamplesBeyond(calls, 99) == 11, "1010 calls leave 11 beyond p99");
  calls.resize(1000);
  Expect(SamplesBeyond(calls, 99) == 10, "1000 calls leave 10 beyond p99");
  calls.resize(500);
  Expect(SamplesBeyond(calls, 99) == 5, "500 calls leave 5 beyond p99");
}

void TestSelfTime() {
  // pass [0,100] > dataset [10,40] > train [20,30]; eval [50,90].
  std::vector<Span> spans = {
      {"pass", 0, 100, -1},
      {"dataset", 10, 40, 0},
      {"train", 20, 30, 1},
      {"eval", 50, 90, 0},
  };
  std::vector<uint64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 30, "parent self time excludes both children");
  Expect(self[1] == 20, "child self time excludes the grandchild");
  Expect(self[2] == 10 && self[3] == 40, "leaves keep their duration");

  // Overlapping children count once; a child running past its parent is
  // clipped to the parent.
  spans = {{"root", 0, 100, -1},
           {"a", 10, 40, 0},
           {"b", 30, 60, 0},
           {"late", 90, 120, 0}};
  self = SelfTimesNs(spans);
  Expect(self[0] == 100 - 50 - 10, "union of children, clipped to parent");

  SpanRecorder recorder(true);
  const int outer = recorder.Begin("outer");
  const int inner = recorder.Begin("inner");
  recorder.End(inner);
  const int sibling = recorder.Begin("sibling");
  recorder.End(sibling);
  recorder.End(outer);
  const auto& recorded = recorder.spans();
  Expect(recorded.size() == 3 && recorded[1].parent == outer &&
             recorded[2].parent == outer && recorded[0].parent == -1,
         "recorder nests spans under the innermost open span");
  SpanRecorder off(false);
  Expect(off.Begin("x") == -1 && off.spans().empty(),
         "a disabled recorder records nothing");
}

void TestRatios() {
  const Ratio hit{3, 4};
  Expect(Near(hit.value(), 0.75), "ratio value");
  Expect(hit.ToString() == "0.7500 (3 / 4)", "ratio prints with its base, got " +
                                                 hit.ToString());
  const Ratio none{1, 0};
  Expect(std::isnan(none.value()), "ratio over a zero base is NaN");
  Expect(none.ToString() == "nan (1 / 0)",
         "ratio over a zero base still prints its base, got " +
             none.ToString());
}

OutputCheck Table(double acc, size_t trials) {
  OutputCheck check;
  check.AddCell("S-BR match", "Single token_acc", acc, trials, 0.0, 1.0);
  check.AddCell("S-BR match", "Single w_kendall", 0.5, trials, -1.0, 1.0);
  return check;
}

void TestOutputCheck() {
  const OutputCheck good = Table(0.95, 40);
  const CheckVerdict ok = Judge({good}, "");
  Expect(ok.correct, "a clean pass without a recorded digest passes");
  Expect(Judge({good, Table(0.5, 40)}, ok.digest).correct,
         "the recorded digest passes; later passes draw other records");

  const OutputCheck perturbed = Table(0.951, 40);
  Expect(Hex64(perturbed.digest()) != ok.digest,
         "a changed cell changes the digest");
  Expect(!Judge({perturbed}, ok.digest).correct,
         "a digest other than the recorded one fails");

  const OutputCheck empty = Table(0.0, 0);
  Expect(!empty.problems().empty(), "a cell backed by zero trials is a problem");
  Expect(empty.rendered().find("n/a") != std::string::npos &&
             empty.rendered().find("0.000") == std::string::npos,
         "an empty cell renders as n/a, never as 0.000");
  Expect(!Judge({empty}, "").correct, "an empty cell fails the run");
  Expect(!Judge({good, empty}, ok.digest).correct,
         "an empty cell in a later pass fails the run");

  Expect(!Judge({Table(NAN, 40)}, "").correct, "a non-finite cell fails");
  Expect(!Judge({Table(1.5, 40)}, "").correct, "an out-of-range cell fails");
  Expect(!Judge({}, "").correct, "a run with no pass fails");
}

}  // namespace

int RunSelfTests() {
  TestPercentiles();
  TestSelfTime();
  TestRatios();
  TestOutputCheck();
  if (failures == 0) std::cout << "self-test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
