#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "core/landmark_explainer.h"
#include "core/sampling.h"
#include "core/surrogate.h"
#include "datagen/magellan.h"
#include "em/features.h"
#include "em/logreg_em_model.h"
#include "eval/evaluation.h"
#include "eval/experiment.h"
#include "util/rng.h"

namespace perfbench {

using namespace landmark;  // NOLINT: benchmark-local

namespace {

// Caps on the micro-pass inputs kept per dataset (or per call on the closed
// loop): enough distinct values for stable per-call costs, few enough that
// the traced run stays small.
constexpr size_t kMicroValuePairsPerDataset = 400;
constexpr size_t kMicroSizesPerDataset = 256;

// The micro-pass's results end here, so its calls cannot be optimised away.
volatile double kernel_sink = 0.0;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Adds the scope's wall time to `*seconds` and records it as a span.
class Timed {
 public:
  Timed(SpanRecorder& spans, std::string name, double* seconds)
      : span_(spans, std::move(name)), seconds_(seconds), start_ns_(NowNs()) {}
  ~Timed() { *seconds_ += static_cast<double>(NowNs() - start_ns_) * 1e-9; }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  ScopedSpan span_;
  double* seconds_;
  uint64_t start_ns_;
};

/// Generates a dataset, trains the matcher and builds the engine: the
/// set-up every dataset of every workload pays.
struct Setup {
  EmDataset dataset;
  std::unique_ptr<LogRegEmModel> model;
  std::unique_ptr<ExplainerEngine> engine;
  MagellanDatasetSpec spec;
};

bool RunSetup(const std::string& code, const SeedPlan& seeds, size_t workers,
              SpanRecorder& spans, PassResult& out, Setup& setup) {
  Result<MagellanDatasetSpec> spec = FindMagellanSpec(code);
  if (!spec.ok()) {
    out.check.AddProblem(code + ": " + spec.status().ToString());
    return false;
  }
  setup.spec = *spec;
  setup.spec.seed = seeds.SpecSeed(spec->seed);
  double engine_init_s = 0.0;
  {
    Timed timed(spans, "datagen", &out.datagen_s);
    Result<EmDataset> dataset = GenerateMagellanDataset(setup.spec);
    if (!dataset.ok()) {
      out.check.AddProblem(code + ": datagen: " + dataset.status().ToString());
      return false;
    }
    setup.dataset = std::move(dataset).ValueOrDie();
  }
  out.datagen_pairs += setup.dataset.size();
  {
    Timed timed(spans, "train", &out.train_s);
    Result<std::unique_ptr<LogRegEmModel>> model =
        LogRegEmModel::Train(setup.dataset);
    if (!model.ok()) {
      out.check.AddProblem(code + ": train: " + model.status().ToString());
      return false;
    }
    setup.model = std::move(model).ValueOrDie();
  }
  out.train_pairs += setup.dataset.size();
  {
    Timed timed(spans, "engine_init", &engine_init_s);
    EngineOptions options;
    options.num_threads = workers;
    setup.engine = std::make_unique<ExplainerEngine>(options);
  }
  out.setup_s += engine_init_s;
  return true;
}

void AddValuePairs(const PairRecord& pair, size_t cap, MicroInputs& micro,
                   size_t& taken) {
  for (size_t a = 0; a < pair.left.num_attributes() && taken < cap; ++a) {
    const Value& left = pair.left.value(a);
    const Value& right = pair.right.value(a);
    if (left.is_null() || right.is_null()) continue;
    micro.value_pairs.emplace_back(left, right);
    ++taken;
  }
}

const char* LabelName(MatchLabel label) {
  return label == MatchLabel::kMatch ? "match" : "non-match";
}

/// Drops the drawn pairs that have no attribute with text on both sides and
/// counts them in `out.excluded_pairs`. The generator makes a few (an
/// entity whose values are all null, or dirty values moved apart): Mojito
/// Copy has nothing to copy there, and Landmark Single nothing to perturb
/// when one entity is empty. The paper protocol skips them as failed
/// records; leaving them out of the draw means no explanation is expected
/// to fail. Keeps the order of `drawn`.
std::vector<size_t> DropUnexplainable(const EmDataset& dataset,
                                      std::vector<size_t> drawn,
                                      PassResult& out) {
  auto has_text = [](const Value& v) {
    return !v.is_null() &&
           v.text().find_first_not_of(" \t\r\n") != std::string::npos;
  };
  const size_t before = drawn.size();
  std::erase_if(drawn, [&](size_t idx) {
    const PairRecord& pair = dataset.pair(idx);
    for (size_t a = 0; a < pair.left.num_attributes(); ++a) {
      if (has_text(pair.left.value(a)) && has_text(pair.right.value(a))) {
        return false;
      }
    }
    return true;
  });
  out.excluded_pairs += before - drawn.size();
  return drawn;
}

void RunPaperPass(const Workload& workload, const SeedPlan& seeds, size_t pass,
                  SpanRecorder& spans, MicroInputs* micro, PassResult& out) {
  ExplainerOptions explainer_options;
  explainer_options.seed = seeds.explainer_seed;
  const std::vector<Technique> techniques = MakeTechniques(explainer_options);

  for (const std::string& code : workload.datasets) {
    ScopedSpan dataset_span(spans, "dataset/" + code);
    Setup setup;
    if (!RunSetup(code, seeds, workload.workers, spans, out, setup)) continue;
    const EmDataset& dataset = setup.dataset;

    // The paper's per-label sample, drawn as ExperimentContext does.
    Rng rng(seeds.PassSampleSeed(pass) ^ setup.spec.seed);
    const std::vector<size_t> match_sample = DropUnexplainable(
        dataset,
        dataset.SampleByLabel(MatchLabel::kMatch, workload.records_per_label,
                              rng),
        out);
    const std::vector<size_t> non_match_sample = DropUnexplainable(
        dataset,
        dataset.SampleByLabel(MatchLabel::kNonMatch,
                              workload.records_per_label, rng),
        out);

    size_t micro_values = 0;
    size_t micro_sizes = 0;
    for (MatchLabel label : {MatchLabel::kMatch, MatchLabel::kNonMatch}) {
      const std::vector<size_t>& sample =
          label == MatchLabel::kMatch ? match_sample : non_match_sample;
      std::vector<const PairRecord*> pairs;
      for (size_t idx : sample) {
        pairs.push_back(&dataset.pair(idx));
        if (micro != nullptr) {
          AddValuePairs(dataset.pair(idx), kMicroValuePairsPerDataset, *micro,
                        micro_values);
        }
      }
      const std::string row = code + " " + LabelName(label);
      for (const Technique& technique : techniques) {
        if (technique.non_match_only && label == MatchLabel::kMatch) continue;
        out.attempted += pairs.size();
        EngineBatchResult batch;
        {
          Timed timed(spans,
                      "explain/" + technique.label + "/" + LabelName(label),
                      &out.engine_s);
          batch = setup.engine->ExplainBatch(*setup.model, pairs,
                                             *technique.explainer);
        }
        ++out.engine_calls;
        out.batch.Add(batch.stats);

        std::vector<ExplainedRecord> records;
        for (size_t i = 0; i < sample.size(); ++i) {
          if (!batch.results[i].ok()) {
            ++out.failed;
            out.check.AddProblem(row + " " + technique.label + ": pair " +
                                 std::to_string(sample[i]) + ": " +
                                 batch.results[i].status().ToString());
            continue;
          }
          ExplainedRecord record;
          record.pair_index = sample[i];
          record.explanations = std::move(batch.results[i]).ValueOrDie();
          out.engine_units += record.explanations.size();
          if (micro != nullptr && !technique.non_match_only) {
            for (const Explanation& e : record.explanations) {
              if (micro_sizes++ < kMicroSizesPerDataset) {
                micro->token_space_sizes.push_back(e.size());
              }
            }
          }
          records.push_back(std::move(record));
        }

        Result<TokenRemovalResult> token = Status::Internal("not run");
        Result<AttributeEvalResult> attribute = Status::Internal("not run");
        Result<InterestResult> interest = Status::Internal("not run");
        {
          Timed timed(spans, "eval/token_removal", &out.eval_token_removal_s);
          token = EvaluateTokenRemoval(*setup.model, *technique.explainer,
                                       dataset, records, TokenRemovalOptions{});
        }
        {
          Timed timed(spans, "eval/attribute", &out.eval_attribute_s);
          attribute =
              EvaluateAttributeCorrelation(*setup.model, dataset, records);
        }
        {
          Timed timed(spans, "eval/interest", &out.eval_interest_s);
          interest = EvaluateInterest(*setup.model, *technique.explainer,
                                      dataset, records, label,
                                      InterestOptions{});
        }
        if (!token.ok() || !attribute.ok() || !interest.ok()) {
          out.failed += records.size();
          out.check.AddProblem(row + " " + technique.label +
                               ": evaluation failed");
          continue;
        }
        out.eval_trials += token->num_trials + attribute->num_explanations +
                           interest->num_explanations;
        const std::string& t = technique.label;
        out.check.AddCell(row, t + " token_acc", token->accuracy,
                          token->num_trials, 0.0, 1.0);
        out.check.AddCell(row, t + " token_mae", token->mae, token->num_trials,
                          0.0, HUGE_VAL);
        out.check.AddCell(row, t + " w_kendall", attribute->mean_weighted_tau,
                          attribute->num_explanations, -1.0, 1.0);
        out.check.AddCell(row, t + " interest", interest->interest,
                          interest->num_explanations, 0.0, 1.0);
      }
    }
  }
}

void RunExplainOnePass(const Workload& workload, const SeedPlan& seeds,
                       size_t pass, SpanRecorder& spans, MicroInputs* micro,
                       PassResult& out) {
  Setup setup;
  {
    ScopedSpan setup_span(spans, "setup");
    if (!RunSetup(workload.datasets.front(), seeds, workload.workers, spans,
                  out, setup)) {
      return;
    }
  }
  const EmDataset& dataset = setup.dataset;
  const Schema& schema = *dataset.entity_schema();
  // The `landmark_cli explain` defaults: technique auto, 384 samples.
  ExplainerOptions options;
  options.seed = seeds.explainer_seed;
  const LandmarkExplainer explainer(GenerationStrategy::kAuto, options);

  Rng rng(seeds.PassSampleSeed(pass) ^ setup.spec.seed);
  const std::vector<size_t> indices = DropUnexplainable(
      dataset,
      rng.SampleWithoutReplacement(
          dataset.size(), std::min(workload.calls_per_pass, dataset.size())),
      out);
  size_t micro_values = 0;
  for (size_t idx : indices) {
    const PairRecord& pair = dataset.pair(idx);
    Result<std::vector<Explanation>> result = Status::Internal("not run");
    const uint64_t start_ns = NowNs();
    {
      ScopedSpan call_span(spans, "call");
      result = setup.engine->ExplainOne(*setup.model, pair, explainer);
    }
    const double seconds = static_cast<double>(NowNs() - start_ns) * 1e-9;
    out.call_latency_ms.push_back(seconds * 1e3);
    out.engine_s += seconds;
    ++out.engine_calls;
    ++out.attempted;
    if (!result.ok()) {
      ++out.failed;
      out.check.AddProblem("pair " + std::to_string(idx) + ": " +
                           result.status().ToString());
      continue;
    }
    out.engine_units += result->size();
    std::string text = "pair " + std::to_string(idx) + "\n";
    for (const Explanation& e : *result) {
      bool finite = std::isfinite(e.model_prediction) &&
                    e.model_prediction >= 0.0 && e.model_prediction <= 1.0;
      for (const TokenWeight& tw : e.token_weights) {
        finite = finite && std::isfinite(tw.weight);
      }
      if (e.token_weights.empty() || !finite) {
        out.check.AddProblem("pair " + std::to_string(idx) + ": " +
                             e.explainer_name +
                             " explanation is empty or non-finite");
      }
      text += e.ToString(schema, 10);
      if (micro != nullptr) micro->token_space_sizes.push_back(e.size());
    }
    out.check.AddText(text);
    if (micro != nullptr) {
      AddValuePairs(pair, kMicroValuePairsPerDataset, *micro, micro_values);
    }
  }
}

}  // namespace

size_t ProcessorCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    const size_t workers = std::min<size_t>(4, ProcessorCount());
    return std::vector<Workload>{
        {.name = "paper-textual",
         .datasets = {"T-AB", "D-DG"},
         .records_per_label = 32,
         .workers = workers},
        {.name = "paper-structured",
         .datasets = {"S-BR", "S-IA", "S-FZ", "S-AG", "S-WA"},
         .records_per_label = 100,  // the paper's sample size
         .workers = workers},
        {.name = "explain-one",
         .paper_protocol = false,
         .datasets = {"S-WA"},
         .calls_per_pass = 400,
         .workers = 1},
    };
  }();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

SeedPlan::SeedPlan(uint64_t seed) : seed(seed) {
  if (seed != 0) {
    sample_seed = SplitMix64(7 ^ SplitMix64(seed));
    explainer_seed = SplitMix64(42 ^ SplitMix64(seed));
  }
}

uint64_t SeedPlan::SpecSeed(uint64_t table1_seed) const {
  return seed == 0 ? table1_seed : SplitMix64(table1_seed ^ SplitMix64(seed));
}

uint64_t SeedPlan::PassSampleSeed(size_t pass) const {
  return pass == 0 ? sample_seed
                   : SplitMix64(sample_seed ^ SplitMix64(uint64_t{pass}));
}

void EngineTotals::Add(const EngineStats& stats) {
  masks += stats.num_masks;
  model_queries += stats.num_model_queries;
  cache_hits += stats.cache_hits;
  token_cache_hits += stats.token_cache_hits;
  token_cache_misses += stats.token_cache_misses;
  plan_s += stats.plan_seconds;
  reconstruct_s += stats.reconstruct_seconds;
  query_s += stats.query_seconds;
  fit_s += stats.fit_seconds;
  wall_s += stats.wall_seconds;
  critical_path_s += stats.critical_path_seconds;
}

PassResult RunPass(const Workload& workload, const SeedPlan& seeds,
                   size_t pass, SpanRecorder& spans, MicroInputs* micro) {
  PassResult out;
  const uint64_t start_ns = NowNs();
  {
    ScopedSpan pass_span(spans, "workload/" + workload.name);
    if (workload.paper_protocol) {
      RunPaperPass(workload, seeds, pass, spans, micro, out);
    } else {
      RunExplainOnePass(workload, seeds, pass, spans, micro, out);
    }
  }
  out.run_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
  // RunSetup already added engine construction.
  out.setup_s += out.datagen_s + out.train_s;
  return out;
}

std::vector<KernelTiming> RunKernelMicroPass(const MicroInputs& inputs,
                                             double budget_s) {
  std::vector<KernelTiming> out;
  TokenCache cache;
  std::vector<std::pair<PreparedValue, PreparedValue>> prepared;
  prepared.reserve(inputs.value_pairs.size());
  for (const auto& [left, right] : inputs.value_pairs) {
    prepared.emplace_back(PrepareValue(left, cache), PrepareValue(right, cache));
  }
  struct Group {
    const char* metric;
    std::vector<AttributeFeatureKind> kinds;
  };
  const std::vector<Group> groups = {
      {"text.monge_elkan_ns", {AttributeFeatureKind::kMongeElkan}},
      {"text.levenshtein_ns", {AttributeFeatureKind::kLevenshtein}},
      {"text.jaro_winkler_ns", {AttributeFeatureKind::kJaroWinkler}},
      {"text.trigram_ns", {AttributeFeatureKind::kTrigram}},
      {"text.token_set_ns",
       {AttributeFeatureKind::kJaccard, AttributeFeatureKind::kOverlap,
        AttributeFeatureKind::kCosine}},
  };
  const uint64_t slice_ns =
      static_cast<uint64_t>(budget_s * 1e9 / (groups.size() + 1));
  double sink = 0.0;  // stored to kernel_sink at the end
  for (const Group& group : groups) {
    KernelTiming timing{group.metric, 0.0, "ns", 0};
    const uint64_t start_ns = NowNs();
    uint64_t elapsed_ns = 0;
    while (!prepared.empty() && elapsed_ns < slice_ns) {
      for (const auto& [left, right] : prepared) {
        for (AttributeFeatureKind kind : group.kinds) {
          sink += ComputeAttributeFeature(kind, left, right);
          ++timing.calls;
        }
      }
      elapsed_ns = NowNs() - start_ns;
    }
    if (timing.calls > 0) {
      timing.per_call =
          static_cast<double>(elapsed_ns) / static_cast<double>(timing.calls);
    }
    out.push_back(timing);
  }

  // FitSurrogate on 384-sample neighbourhoods of the recorded token-space
  // sizes (spread evenly over the recorded list).
  struct Problem {
    MaskMatrix masks;
    std::vector<double> targets;
    std::vector<double> weights;
  };
  constexpr size_t kProblems = 32;
  constexpr size_t kSamples = 384;
  Rng rng(0x5eed);
  std::vector<Problem> problems;
  const std::vector<size_t>& sizes = inputs.token_space_sizes;
  for (size_t i = 0; i < kProblems && !sizes.empty(); ++i) {
    const size_t dim = std::max<size_t>(1, sizes[i * sizes.size() / kProblems]);
    Problem problem;
    problem.masks = SamplePerturbationMaskMatrix(dim, kSamples, rng);
    for (size_t r = 0; r < kSamples; ++r) {
      problem.targets.push_back(rng.NextDouble());
      problem.weights.push_back(KernelWeight(problem.masks.row(r), 0.25));
    }
    problems.push_back(std::move(problem));
  }
  KernelTiming fit{"core.surrogate_fit_us", 0.0, "us", 0};
  const uint64_t start_ns = NowNs();
  uint64_t elapsed_ns = 0;
  while (!problems.empty() && elapsed_ns < slice_ns) {
    for (const Problem& problem : problems) {
      Result<SurrogateFit> result =
          FitSurrogate(problem.masks, problem.targets, problem.weights);
      if (result.ok()) sink += result->weighted_r2;
      ++fit.calls;
    }
    elapsed_ns = NowNs() - start_ns;
  }
  if (fit.calls > 0) {
    fit.per_call = static_cast<double>(elapsed_ns) * 1e-3 /
                   static_cast<double>(fit.calls);
  }
  out.push_back(fit);
  kernel_sink = sink;
  return out;
}

}  // namespace perfbench
