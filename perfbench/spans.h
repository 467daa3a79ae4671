#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
uint64_t NowNs();

/// One completed (or still open) span of the benchmark's own code.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Index of the enclosing span in SpanRecorder::spans(), -1 at the root.
  int parent = -1;
};

/// Each span's duration minus the part of it its direct children cover
/// (the union of their intervals, clipped to the span).
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

/// \brief In-memory span recorder for the traced run.
///
/// Spans are opened around the benchmark's calls into the library, on the
/// benchmark's own thread, so they nest as a stack. Nothing is written until
/// the run ends. A disabled recorder records nothing and costs one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int Begin(std::string name);
  /// Closes span `id` (no-op for -1). Spans close innermost first.
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time summed by span name, in seconds.
  std::map<std::string, double> SelfSecondsByName() const;
  /// Chrome trace-event JSON of every span ("ph":"X", microseconds, with
  /// each span's parent in its args); `metadata_json` is an object placed
  /// under "otherData".
  std::string ToChromeTraceJson(const std::string& metadata_json) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a recorder (which may be disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), id_(recorder.Begin(std::move(name))) {}
  ~ScopedSpan() { recorder_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
