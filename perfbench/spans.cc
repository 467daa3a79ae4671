#include "spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "stats.h"

namespace perfbench {

uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin)
          .count());
}

int SpanRecorder::Begin(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t begin = spans[i].start_ns;
    const uint64_t end = std::max(begin, spans[i].end_ns);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = begin;
    for (auto [kid_begin, kid_end] : kids) {
      const uint64_t from = std::max(kid_begin, cursor);
      const uint64_t to = std::min(kid_end, end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = end - begin - covered;
  }
  return self;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByName() const {
  const std::vector<uint64_t> self = SelfTimesNs(spans_);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::string SpanRecorder::ToChromeTraceJson(
    const std::string& metadata_json) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":" +
                    metadata_json + ",\"traceEvents\":[";
  out +=
      "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"perfbench\"}}";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string parent =
        span.parent < 0 ? std::string("")
                        : spans_[static_cast<size_t>(span.parent)].name;
    out += ",\n{\"name\":" + JsonString(span.name) +
           ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":" +
           FullDouble(static_cast<double>(span.start_ns) / 1e3) +
           ",\"dur\":" +
           FullDouble(static_cast<double>(span.end_ns - span.start_ns) / 1e3) +
           ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(span.parent) +
           ",\"parent_name\":" + JsonString(parent) + "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
