#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "core/engine/explainer_engine.h"
#include "data/value.h"
#include "spans.h"

namespace perfbench {

/// \brief One named input set of the benchmark. The names, datasets and
/// sizes stay fixed from change to change so numbers stay comparable;
/// README.md says why each workload exists.
struct Workload {
  std::string name;
  /// true: the `landmark_cli evaluate` protocol on every dataset (explain
  /// the sampled records with Single/Double/LIME + Mojito Copy on
  /// non-matches through ExplainBatch, then score Tables 2-4).
  /// false: a closed loop of single-record ExplainOne calls.
  bool paper_protocol = true;
  /// Table-1 dataset codes, generated at their Table-1 size.
  std::vector<std::string> datasets;
  /// paper protocol: records sampled per label and dataset.
  size_t records_per_label = 0;
  /// closed loop: ExplainOne calls per pass.
  size_t calls_per_pass = 0;
  /// Engine worker threads (capped at the machine's processor count).
  size_t workers = 1;
};

const std::vector<Workload>& Workloads();
/// nproc: the processors this process may run on.
size_t ProcessorCount();
/// nullptr when no workload has that name.
const Workload* FindWorkload(const std::string& name);

/// \brief The inputs a benchmark seed selects. Seed 0 is the paper
/// protocol: the Table-1 spec seeds, record-sample seed 7 and explainer
/// seed 42; every other seed re-derives all three from it.
///
/// Every pass of a run regenerates the same datasets, but draws its own
/// records: a run's median then rests on several record samples instead of
/// one, which keeps the seed-to-seed spread of the paper-textual workload
/// (whose per-record cost varies widely) small. Pass 0 draws with the
/// plain sample seed, so pass 0 of seed 0 is exactly the paper protocol.
struct SeedPlan {
  uint64_t seed = 0;
  uint64_t sample_seed = 7;
  uint64_t explainer_seed = 42;

  explicit SeedPlan(uint64_t seed);
  /// Generation seed of a dataset whose Table-1 seed is `table1_seed`.
  uint64_t SpecSeed(uint64_t table1_seed) const;
  /// Record-sample seed of pass `pass`.
  uint64_t PassSampleSeed(size_t pass) const;
};

/// Engine counters summed over the ExplainBatch calls of a pass.
struct EngineTotals {
  size_t masks = 0;
  size_t model_queries = 0;
  size_t cache_hits = 0;
  size_t token_cache_hits = 0;
  size_t token_cache_misses = 0;
  double plan_s = 0.0;         // summed CPU-seconds
  double reconstruct_s = 0.0;  // summed CPU-seconds
  double query_s = 0.0;        // summed CPU-seconds
  double fit_s = 0.0;          // summed CPU-seconds
  double wall_s = 0.0;
  double critical_path_s = 0.0;

  void Add(const landmark::EngineStats& stats);
};

/// Attribute values and token-space sizes taken from a pass, the inputs of
/// the kernel micro-pass.
struct MicroInputs {
  std::vector<std::pair<landmark::Value, landmark::Value>> value_pairs;
  std::vector<size_t> token_space_sizes;
};

/// Everything one pass over a workload measured.
struct PassResult {
  double run_s = 0.0;    // pass start to last result
  double setup_s = 0.0;  // datagen + training + engine construction
  double datagen_s = 0.0;
  size_t datagen_pairs = 0;
  double train_s = 0.0;
  size_t train_pairs = 0;
  /// Records explained and evaluated (one per technique x sampled record),
  /// or ExplainOne calls on the closed loop.
  size_t attempted = 0;
  size_t failed = 0;
  /// Drawn pairs left out because no attribute has text on both sides.
  size_t excluded_pairs = 0;
  /// Wall time inside the engine's entry points (ExplainBatch/ExplainOne).
  double engine_s = 0.0;
  size_t engine_calls = 0;
  /// Explanations returned, one per explain unit.
  size_t engine_units = 0;
  EngineTotals batch;
  std::vector<double> call_latency_ms;  // closed loop only
  double eval_token_removal_s = 0.0;
  double eval_attribute_s = 0.0;
  double eval_interest_s = 0.0;
  size_t eval_trials = 0;
  OutputCheck check;
};

/// Runs pass number `pass` of `workload`. Spans go to `spans` (when
/// enabled); `micro`, when non-null, receives the kernel micro-pass inputs.
PassResult RunPass(const Workload& workload, const SeedPlan& seeds,
                   size_t pass, SpanRecorder& spans, MicroInputs* micro);

/// Per-call cost of one kernel in the micro-pass.
struct KernelTiming {
  std::string metric;  // e.g. "text.levenshtein_ns"
  double per_call = 0.0;
  std::string unit;  // "ns" or "us"
  size_t calls = 0;
};

/// Times ComputeAttributeFeature per feature kind on prepared values and
/// FitSurrogate on 384-sample mask matrices of the recorded token-space
/// sizes, spending about `budget_s` in total.
std::vector<KernelTiming> RunKernelMicroPass(const MicroInputs& inputs,
                                             double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
