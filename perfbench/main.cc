// landmark_perfbench: the repository benchmark (see README.md).
//
//   landmark_perfbench --workload NAME|all [--seed N] [--seconds S]
//                      [--trace 0|1] [--digests FILE] [--out-dir DIR]
//                      [--commit SHA] [--source-digest HEX]
//   landmark_perfbench --self-test
//
// Untraced (--trace 0) it prints the end-to-end metrics of each workload;
// traced (--trace 1) the per-layer metrics. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every output check passed. --out-dir receives the rendered
// result the digest covers and, traced, the Chrome trace of the spans.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "check.h"
#include "spans.h"
#include "stats.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/simd.h"
#include "workloads.h"

namespace perfbench {

int RunSelfTests();  // self_test.cc

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 35.0;
  bool trace = false;
  std::string digests_path;
  std::string out_dir;  // Chrome trace and rendered pass-0 result
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count, base of a ratio, ...
};

/// The result of one workload run, as printed.
struct Report {
  std::string workload;
  bool correct = false;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;  // the JSON metrics (end-to-end or per-layer)
  std::vector<std::string> lines;  // human-readable detail
};

std::string ExpectedDigest(const std::string& path, const std::string& workload,
                           uint64_t seed) {
  if (path.empty()) return "";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    uint64_t recorded_seed = 0;
    if (fields >> name >> recorded_seed >> digest && name == workload &&
        recorded_seed == seed) {
      return digest;
    }
  }
  return "";
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string StampJson(const Args& args, const Workload& workload) {
  return std::string("{") + "\"workload\":" + JsonString(workload.name) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"nproc\":" + std::to_string(ProcessorCount()) +
         ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"engine_workers\":" + std::to_string(workload.workers) +
         ",\"simd_isa\":" +
         JsonString(landmark::simd::SimdLevelName(
             landmark::simd::DetectedLevel())) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"git_commit\":" + JsonString(args.commit) +
         ",\"source_digest\":" + JsonString(args.source_digest) + "}";
}

/// Median over passes of one per-pass quantity.
double MedianOf(const std::vector<PassResult>& passes,
                const std::function<double(const PassResult&)>& get) {
  std::vector<double> values;
  for (const PassResult& p : passes) values.push_back(get(p));
  return Median(values);
}

std::string Samples(size_t n, const char* what) {
  return "median of " + std::to_string(n) + " " + what;
}

std::string Fmt(double value, int digits = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

void AddEndToEnd(const Workload& workload, const std::vector<PassResult>& passes,
                 double first_pass_rss_mib, Report& report) {
  const size_t n = passes.size();
  report.metrics.push_back(
      {"run_s", MedianOf(passes, [](const PassResult& p) { return p.run_s; }),
       "s", Samples(n, "passes")});
  report.metrics.push_back(
      {"setup_s",
       MedianOf(passes, [](const PassResult& p) { return p.setup_s; }), "s",
       Samples(n, "set-ups")});
  report.metrics.push_back(
      {"records_per_s",
       MedianOf(passes,
                [](const PassResult& p) {
                  return static_cast<double>(p.attempted - p.failed) /
                         (p.run_s - p.setup_s);
                }),
       "records/s",
       Samples(n, "passes") + (workload.paper_protocol
                                   ? " (records explained and evaluated)"
                                   : " (completed ExplainOne calls)")});
  std::vector<double> latencies;
  std::string what;
  if (workload.paper_protocol) {
    for (const PassResult& p : passes) latencies.push_back(p.run_s * 1e3);
    what = "protocol passes";
  } else {
    for (const PassResult& p : passes) {
      latencies.insert(latencies.end(), p.call_latency_ms.begin(),
                       p.call_latency_ms.end());
    }
    what = "ExplainOne calls";
  }
  const std::string count = std::to_string(latencies.size()) + " " + what;
  report.metrics.push_back(
      {"latency_p50_ms", Percentile(latencies, 50.0), "ms", count});
  report.metrics.push_back(
      {"latency_p99_ms", Percentile(latencies, 99.0), "ms",
       count + ", " + std::to_string(SamplesBeyond(latencies, 99.0)) +
           " beyond p99"});
  report.metrics.push_back(
      {"peak_rss_mb", first_pass_rss_mib, "MiB",
       "process peak resident set through pass 0; " + Fmt(PeakRssMiB(), 1) +
           " MiB through the last pass"});
}

/// Per-layer metrics present on every workload: the JSON of a traced run.
void AddPerLayer(const std::vector<PassResult>& traced,
                 const std::vector<KernelTiming>& kernels, double overhead,
                 const std::string& overhead_base, Report& report) {
  const std::string n = Samples(traced.size(), "traced passes");
  auto add = [&](const char* name, const char* unit,
                 const std::function<double(const PassResult&)>& get) {
    report.metrics.push_back({name, MedianOf(traced, get), unit, n});
  };
  add("datagen.s", "s", [](const PassResult& p) { return p.datagen_s; });
  add("datagen.pairs", "count",
      [](const PassResult& p) { return double(p.datagen_pairs); });
  add("em.train_s", "s", [](const PassResult& p) { return p.train_s; });
  add("em.train_pairs", "count",
      [](const PassResult& p) { return double(p.train_pairs); });
  add("engine.wall_s", "s", [](const PassResult& p) { return p.engine_s; });
  add("engine.units", "count",
      [](const PassResult& p) { return double(p.engine_units); });
  add("engine.failed_records", "count",
      [](const PassResult& p) { return double(p.failed); });
  for (const KernelTiming& k : kernels) {
    report.metrics.push_back(
        {k.metric, k.per_call, k.unit, std::to_string(k.calls) + " calls"});
  }
  report.metrics.push_back({"trace.overhead", overhead, "ratio", overhead_base});
}

/// The per-layer metrics that exist only where their layer runs, plus the
/// span self-time breakdown: printed, not part of the JSON.
void AddLayerDetail(const Workload& workload,
                    const std::vector<PassResult>& traced,
                    const SpanRecorder& spans, Report& report) {
  auto& out = report.lines;
  const std::string n = "  [" + Samples(traced.size(), "traced passes") + "]";
  // name = median over traced passes of `get`.
  auto add = [&](const char* name, const char* unit,
                 const std::function<double(const PassResult&)>& get) {
    out.push_back(std::string(name) + " = " + FullDouble(MedianOf(traced, get)) +
                  " " + unit + n);
  };
  // Ratios come from one pass so numerator and base stay consistent.
  const EngineTotals& first = traced.front().batch;
  auto ratio = [&](const char* name, Ratio r, const std::string& base) {
    out.push_back(std::string(name) + " = " + r.ToString() +
                  " ratio  [first traced pass: " + base + "]");
  };
  if (workload.paper_protocol) {
    add("em.query_cpu_s", "s", [](const PassResult& p) { return p.batch.query_s; });
    add("em.model_queries", "count",
        [](const PassResult& p) { return double(p.batch.model_queries); });
    ratio("text.token_cache_hit_ratio",
          {double(first.token_cache_hits),
           double(first.token_cache_hits + first.token_cache_misses)},
          "hits / lookups");
    add("core.plan_cpu_s", "s", [](const PassResult& p) { return p.batch.plan_s; });
    add("core.reconstruct_cpu_s", "s",
        [](const PassResult& p) { return p.batch.reconstruct_s; });
    add("core.fit_cpu_s", "s", [](const PassResult& p) { return p.batch.fit_s; });
    ratio("engine.memo_hit_ratio",
          {double(first.cache_hits), double(first.masks)},
          "deduplicated masks / masks");
    add("engine.critical_path_s", "s (summed over batches)",
        [](const PassResult& p) { return p.batch.critical_path_s; });
    const double stage_cpu =
        first.plan_s + first.reconstruct_s + first.query_s + first.fit_s;
    ratio("engine.busy_ratio", {stage_cpu, first.wall_s * double(workload.workers)},
          "stage CPU-s / (engine wall s x " + std::to_string(workload.workers) +
              " workers)");
    add("engine.masks", "count",
        [](const PassResult& p) { return double(p.batch.masks); });
    add("eval.token_removal_s", "s",
        [](const PassResult& p) { return p.eval_token_removal_s; });
    add("eval.attribute_s", "s",
        [](const PassResult& p) { return p.eval_attribute_s; });
    add("eval.interest_s", "s",
        [](const PassResult& p) { return p.eval_interest_s; });
    add("eval.trials", "count",
        [](const PassResult& p) { return double(p.eval_trials); });
    out.push_back("explain CPU split of the first traced pass: query " +
                  Fmt(100 * first.query_s / stage_cpu, 1) + "%, plan " +
                  Fmt(100 * first.plan_s / stage_cpu, 1) + "%, reconstruct " +
                  Fmt(100 * first.reconstruct_s / stage_cpu, 1) + "%, fit " +
                  Fmt(100 * first.fit_s / stage_cpu, 1) + "% of " +
                  Fmt(stage_cpu) + " CPU-s");
  } else {
    add("engine.explain_one_s", "s", [](const PassResult& p) { return p.engine_s; });
    add("engine.explain_one_calls", "count",
        [](const PassResult& p) { return double(p.engine_calls); });
    add("engine.explain_one_units", "count",
        [](const PassResult& p) { return double(p.engine_units); });
  }

  // Self time by span name, per traced pass, as a share of the pass.
  const std::map<std::string, double> self = spans.SelfSecondsByName();
  double total = 0.0;
  for (const PassResult& p : traced) total += p.run_s;
  std::map<std::string, double> by_layer;
  for (const auto& [name, seconds] : self) {
    std::string key = name;
    if (key.rfind("explain/", 0) == 0) key = "explain/*";
    if (key.rfind("dataset/", 0) == 0) key = "dataset/* (sampling, glue)";
    if (key.rfind("workload/", 0) == 0) key = "workload/* (glue)";
    by_layer[key] += seconds;
  }
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, seconds] : by_layer) rows.emplace_back(seconds, name);
  std::sort(rows.rbegin(), rows.rend());
  out.push_back("self time by span (sum over " + std::to_string(traced.size()) +
                " traced passes, share of their " + Fmt(total, 3) + " s):");
  for (const auto& [seconds, name] : rows) {
    out.push_back("  " + name + ": " + Fmt(seconds, 4) + " s (" +
                  Fmt(100.0 * seconds / total, 1) + "%)");
  }
}

/// Writes `content` to <out-dir>/<stem>-seed<N><ext> when --out-dir is set.
void WriteOutput(const Args& args, const std::string& stem,
                 const std::string& ext, const std::string& content,
                 Report& report) {
  if (args.out_dir.empty()) return;
  const std::string path = args.out_dir + "/" + stem + "-seed" +
                           std::to_string(args.seed) + ext;
  std::ofstream file(path, std::ios::binary);
  file << content;
  report.lines.push_back((file ? "wrote " : "could not write ") + path);
}

Report RunWorkload(const Workload& workload, const Args& args) {
  Report report;
  report.workload = workload.name;
  const SeedPlan seeds(args.seed);
  SpanRecorder spans(true);
  SpanRecorder off(false);
  // The traced run keeps a slice of its time for the kernel micro-pass.
  const double micro_budget_s =
      args.trace ? std::clamp(0.1 * args.seconds, 0.5, 3.0) : 0.0;
  const double budget_s = args.seconds - micro_budget_s;
  // A p99 needs ten calls beyond it.
  const size_t min_calls = workload.paper_protocol ? 0 : 1010;
  const size_t min_passes = args.trace ? 2 : 1;

  std::vector<PassResult> untraced, traced;
  std::vector<OutputCheck> checks;
  MicroInputs micro;
  const uint64_t start_ns = NowNs();
  size_t calls = 0;
  double first_pass_rss_mib = 0.0;
  for (size_t pass = 0;; ++pass) {
    // Traced runs interleave untraced and traced passes as U T T U U T ...,
    // so trace.overhead compares passes made under the same conditions
    // and the cold first pass does not favour either side for long.
    const bool traced_pass = args.trace && (pass % 4 == 1 || pass % 4 == 2);
    PassResult result =
        RunPass(workload, seeds, pass, traced_pass ? spans : off,
                traced_pass && traced.empty() ? &micro : nullptr);
    // One pass is one `landmark_cli evaluate`-sized job; later passes only
    // repeat it, so their allocator growth would make the peak depend on
    // how many passes fit into the run.
    if (pass == 0) first_pass_rss_mib = PeakRssMiB();
    report.attempted += result.attempted;
    report.failed += result.failed;
    checks.push_back(result.check);
    if (!traced_pass) calls += result.call_latency_ms.size();
    (traced_pass ? traced : untraced).push_back(std::move(result));

    const double elapsed = static_cast<double>(NowNs() - start_ns) * 1e-9;
    std::vector<double> lengths;
    for (const PassResult& p : untraced) lengths.push_back(p.run_s);
    for (const PassResult& p : traced) lengths.push_back(p.run_s);
    const bool more_time = elapsed + Median(lengths) <= budget_s;
    const bool need_more = untraced.size() + traced.size() < min_passes ||
                           calls < min_calls;
    if (!more_time && !need_more) break;
  }

  const std::string expected =
      ExpectedDigest(args.digests_path, workload.name, args.seed);
  const CheckVerdict verdict = Judge(checks, expected);
  report.correct = verdict.correct;
  report.lines.push_back(
      "digest " + verdict.digest + " (pass 0; " +
      (expected.empty() ? "no digest recorded for this seed"
                        : "recorded " + expected) +
      "; " + std::to_string(checks.size()) + " passes checked)");
  std::string pass_times = "passes (run_s/setup_s):";
  for (const PassResult& p : untraced) {
    pass_times += " " + Fmt(p.run_s, 3) + "/" + Fmt(p.setup_s, 3);
  }
  for (const PassResult& p : traced) {
    pass_times += " traced:" + Fmt(p.run_s, 3) + "/" + Fmt(p.setup_s, 3);
  }
  report.lines.push_back(pass_times);
  report.lines.push_back(
      "drawn pairs left out (no attribute with text on both sides): " +
      std::to_string(untraced.front().excluded_pairs) + " in pass 0");
  for (const std::string& reason : verdict.reasons) {
    report.lines.push_back("CHECK FAILED: " + reason);
  }
  if (!report.correct) report.failed = report.attempted;

  if (!args.trace) {
    AddEndToEnd(workload, untraced, first_pass_rss_mib, report);
  } else {
    const std::vector<KernelTiming> kernels =
        RunKernelMicroPass(micro, micro_budget_s);
    const double traced_run =
        MedianOf(traced, [](const PassResult& p) { return p.run_s; });
    const double untraced_run =
        MedianOf(untraced, [](const PassResult& p) { return p.run_s; });
    const Ratio overhead{traced_run, untraced_run};
    AddPerLayer(traced, kernels, overhead.value(),
                "traced run_s / untraced run_s = " + overhead.ToString() +
                    ", medians of " + std::to_string(traced.size()) + " and " +
                    std::to_string(untraced.size()) + " passes",
                report);
    AddLayerDetail(workload, traced, spans, report);
    WriteOutput(args, "trace-" + workload.name, ".json",
                spans.ToChromeTraceJson(StampJson(args, workload)), report);
  }
  // What the digest covers, for reading a mismatch.
  WriteOutput(args, "result-" + workload.name, ".txt", checks.front().rendered(),
              report);
  report.lines.push_back(
      "failed_fraction = " +
      Ratio{double(report.failed), double(report.attempted)}.ToString() +
      " ratio (failed / attempted records)");
  report.lines.push_back("stamp " + StampJson(args, workload));
  return report;
}

void PrintReport(const Report& report) {
  std::cout << "== " << report.workload << "\n";
  for (const Metric& m : report.metrics) {
    std::cout << m.name << " = " << FullDouble(m.value) << " " << m.unit
              << "  [" << m.note << "]\n";
  }
  for (const std::string& line : report.lines) std::cout << line << "\n";
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].first) +
           ": {\"value\": " + FullDouble(metrics[i].second.value) +
           ", \"unit\": " + JsonString(metrics[i].second.unit) + "}";
  }
  return out + "}}";
}

std::optional<Args> ParseArgs(const landmark::Flags& flags) {
  Args args;
  args.workload = flags.GetString("workload", "");
  const int64_t seed = flags.GetInt("seed", 0);
  args.seconds = flags.GetDouble("seconds", args.seconds);
  const int64_t trace = flags.GetInt("trace", 0);
  args.digests_path = flags.GetString("digests", "");
  args.out_dir = flags.GetString("out-dir", "");
  args.commit = flags.GetString("commit", args.commit);
  args.source_digest = flags.GetString("source-digest", args.source_digest);
  if (args.workload != "all" && FindWorkload(args.workload) == nullptr) {
    std::cerr << "unknown --workload '" << args.workload
              << "' (paper-textual, paper-structured, explain-one or all)\n";
    return std::nullopt;
  }
  if (seed < 0 || !(args.seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::cerr << "need --seed >= 0, --seconds > 0 and --trace 0|1\n";
    return std::nullopt;
  }
  args.seed = static_cast<uint64_t>(seed);
  args.trace = trace == 1;
  return args;
}

int Main(int argc, char** argv) {
  auto flags = landmark::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return 2;
  }
  if (flags->GetBool("self-test", false)) return RunSelfTests();
  std::optional<Args> args = ParseArgs(*flags);
  if (!args) return 2;
  // Info lines would interleave with the report; warnings stay visible.
  landmark::SetLogLevel(landmark::LogLevel::kWarning);

  std::vector<const Workload*> selected;
  for (const Workload& workload : Workloads()) {
    if (args->workload == "all" || args->workload == workload.name) {
      selected.push_back(&workload);
    }
  }
  bool correct = true;
  size_t attempted = 0, failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  for (const Workload* workload : selected) {
    const Report report = RunWorkload(*workload, *args);
    PrintReport(report);
    correct = correct && report.correct;
    attempted += report.attempted;
    failed += report.failed;
    for (const Metric& m : report.metrics) {
      metrics.emplace_back(
          selected.size() == 1 ? m.name : report.workload + "/" + m.name, m);
    }
  }
  std::cout << ResultJson(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
