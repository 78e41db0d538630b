#include "rec/model_config.h"

#include <cstdint>
#include <cstdio>

#include "util/fnv.h"

namespace microrec::rec {

std::string_view ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTN:
      return "TN";
    case ModelKind::kCN:
      return "CN";
    case ModelKind::kTNG:
      return "TNG";
    case ModelKind::kCNG:
      return "CNG";
    case ModelKind::kLDA:
      return "LDA";
    case ModelKind::kLLDA:
      return "LLDA";
    case ModelKind::kHDP:
      return "HDP";
    case ModelKind::kHLDA:
      return "HLDA";
    case ModelKind::kBTM:
      return "BTM";
    case ModelKind::kPLSA:
      return "PLSA";
  }
  return "?";
}

Result<ModelKind> ParseModelKind(std::string_view name) {
  for (ModelKind kind :
       {ModelKind::kTN, ModelKind::kCN, ModelKind::kTNG, ModelKind::kCNG,
        ModelKind::kLDA, ModelKind::kLLDA, ModelKind::kHDP, ModelKind::kHLDA,
        ModelKind::kBTM, ModelKind::kPLSA}) {
    if (ModelKindName(kind) == name) return kind;
  }
  return Status::InvalidArgument("unknown model kind: " + std::string(name));
}

std::string_view TaxonomyCategoryName(TaxonomyCategory category) {
  switch (category) {
    case TaxonomyCategory::kContextAgnostic:
      return "context-agnostic";
    case TaxonomyCategory::kLocalContextAware:
      return "local context-aware";
    case TaxonomyCategory::kGlobalContextAware:
      return "global context-aware";
  }
  return "?";
}

TaxonomyCategory CategoryOf(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTN:
    case ModelKind::kCN:
      return TaxonomyCategory::kLocalContextAware;
    case ModelKind::kTNG:
    case ModelKind::kCNG:
      return TaxonomyCategory::kGlobalContextAware;
    default:
      return TaxonomyCategory::kContextAgnostic;
  }
}

bool IsNonparametric(ModelKind kind) {
  return kind == ModelKind::kHDP || kind == ModelKind::kHLDA;
}

bool IsCharacterBased(ModelKind kind) {
  return kind == ModelKind::kCN || kind == ModelKind::kCNG;
}

bool IsTopicModel(ModelKind kind) {
  return CategoryOf(kind) == TaxonomyCategory::kContextAgnostic;
}

std::string_view TopicAggregationName(TopicAggregation aggregation) {
  return aggregation == TopicAggregation::kCentroid ? "Cen." : "Ro.";
}

std::string TopicRunConfig::ToString(ModelKind kind) const {
  std::string out;
  out += std::string(corpus::PoolingName(pooling));
  if (kind == ModelKind::kLDA || kind == ModelKind::kLLDA ||
      kind == ModelKind::kBTM || kind == ModelKind::kPLSA) {
    out += " #T=" + std::to_string(num_topics);
  }
  out += " #I=" + std::to_string(iterations);
  if (alpha >= 0.0) out += " a=" + std::to_string(alpha).substr(0, 4);
  out += " b=" + std::to_string(beta).substr(0, 4);
  if (kind == ModelKind::kHDP || kind == ModelKind::kHLDA) {
    out += " g=" + std::to_string(gamma).substr(0, 3);
  }
  out += " ";
  out += TopicAggregationName(aggregation);
  return out;
}

std::string ModelConfig::ToString() const {
  switch (kind) {
    case ModelKind::kTN:
    case ModelKind::kCN:
      return bag.ToString();
    case ModelKind::kTNG:
    case ModelKind::kCNG:
      return graph.ToString();
    default:
      return std::string(ModelKindName(kind)) + " " + topic.ToString(kind);
  }
}

std::string ModelConfig::Fingerprint() const {
  // The rendered form covers every parameter that affects a run, but bag and
  // graph renderings omit the kind — prefix it so TN/CN (and TNG/CNG) twins
  // with identical parameters stay distinct.
  std::string text(ModelKindName(kind));
  text += '|';
  text += ToString();
  // FNV-1a from its offset basis with the last digit dropped, the basis
  // every snapshot name has been keyed by.
  const uint64_t hash = FnvMix(1469598103934665603ULL, text);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

bool ModelConfig::IsValidForSource(bool source_has_negatives) const {
  switch (kind) {
    case ModelKind::kTN:
    case ModelKind::kCN:
      return bag.IsValidForSource(source_has_negatives);
    case ModelKind::kTNG:
    case ModelKind::kCNG:
      return graph.IsValid();
    default:
      return topic.aggregation != TopicAggregation::kRocchio ||
             source_has_negatives;
  }
}

std::pair<bag::NgramKind, int> ModelConfig::Featurization() const {
  switch (CategoryOf(kind)) {
    case TaxonomyCategory::kLocalContextAware:
      return {bag.kind, bag.n};
    case TaxonomyCategory::kGlobalContextAware:
      return {graph.kind, graph.n};
    case TaxonomyCategory::kContextAgnostic:
      break;
  }
  return {bag::NgramKind::kToken, 1};
}

namespace {

std::vector<ModelConfig> TopicGrid(ModelKind kind) {
  std::vector<ModelConfig> out;
  const std::vector<size_t> topic_counts = {50, 100, 150, 200};
  const std::vector<corpus::Pooling> all_pooling = {
      corpus::Pooling::kNone, corpus::Pooling::kUser,
      corpus::Pooling::kHashtag};
  const std::vector<TopicAggregation> aggs = {TopicAggregation::kCentroid,
                                              TopicAggregation::kRocchio};
  auto push = [&out, kind](TopicRunConfig config) {
    ModelConfig mc;
    mc.kind = kind;
    mc.topic = config;
    out.push_back(mc);
  };
  switch (kind) {
    case ModelKind::kLDA:
    case ModelKind::kLLDA:
      // 4 topic counts x 2 iteration budgets x 3 poolings x 2 aggregations.
      for (size_t topics : topic_counts) {
        for (int iters : {1000, 2000}) {
          for (corpus::Pooling pooling : all_pooling) {
            for (TopicAggregation agg : aggs) {
              TopicRunConfig config;
              config.num_topics = topics;
              config.iterations = iters;
              config.pooling = pooling;
              config.aggregation = agg;
              config.alpha = 50.0 / static_cast<double>(topics);
              config.beta = 0.01;
              push(config);
            }
          }
        }
      }
      break;
    case ModelKind::kBTM:
      // 4 topic counts x 3 poolings x 2 aggregations; 1,000 iters, r=30.
      for (size_t topics : topic_counts) {
        for (corpus::Pooling pooling : all_pooling) {
          for (TopicAggregation agg : aggs) {
            TopicRunConfig config;
            config.num_topics = topics;
            config.iterations = 1000;
            config.pooling = pooling;
            config.aggregation = agg;
            config.alpha = 50.0 / static_cast<double>(topics);
            config.beta = 0.01;
            config.window = 30;
            push(config);
          }
        }
      }
      break;
    case ModelKind::kHDP:
      // 2 betas x 3 poolings x 2 aggregations; alpha = gamma = 1.0.
      for (double beta : {0.1, 0.5}) {
        for (corpus::Pooling pooling : all_pooling) {
          for (TopicAggregation agg : aggs) {
            TopicRunConfig config;
            config.iterations = 1000;
            config.pooling = pooling;
            config.aggregation = agg;
            config.alpha = 1.0;
            config.beta = beta;
            config.gamma = 1.0;
            push(config);
          }
        }
      }
      break;
    case ModelKind::kHLDA:
      // 2 alphas x 2 betas x 2 gammas x 2 aggregations; UP only, 3 levels
      // (NP/HP and deeper trees violated the paper's time constraint).
      for (double alpha : {10.0, 20.0}) {
        for (double beta : {0.1, 0.5}) {
          for (double gamma : {0.5, 1.0}) {
            for (TopicAggregation agg : aggs) {
              TopicRunConfig config;
              config.iterations = 1000;
              config.pooling = corpus::Pooling::kUser;
              config.aggregation = agg;
              config.alpha = alpha;
              config.beta = beta;
              config.gamma = gamma;
              config.levels = 3;
              push(config);
            }
          }
        }
      }
      break;
    default:
      break;
  }
  return out;
}

}  // namespace

std::vector<ModelConfig> EnumerateConfigs(ModelKind kind) {
  std::vector<ModelConfig> out;
  switch (kind) {
    case ModelKind::kTN:
    case ModelKind::kCN: {
      auto kind_of = kind == ModelKind::kTN ? bag::NgramKind::kToken
                                            : bag::NgramKind::kChar;
      for (const bag::BagConfig& config : bag::EnumerateBagConfigs(kind_of)) {
        ModelConfig mc;
        mc.kind = kind;
        mc.bag = config;
        out.push_back(mc);
      }
      break;
    }
    case ModelKind::kTNG:
    case ModelKind::kCNG: {
      auto kind_of = kind == ModelKind::kTNG ? bag::NgramKind::kToken
                                             : bag::NgramKind::kChar;
      for (const graph::GraphConfig& config :
           graph::EnumerateGraphConfigs(kind_of)) {
        ModelConfig mc;
        mc.kind = kind;
        mc.graph = config;
        out.push_back(mc);
      }
      break;
    }
    case ModelKind::kPLSA:
      // Excluded from the grid: every configuration violated the paper's
      // 32 GB memory constraint (Section 4).
      break;
    default:
      out = TopicGrid(kind);
      break;
  }
  return out;
}

std::vector<ModelConfig> FullGrid() {
  std::vector<ModelConfig> out;
  for (ModelKind kind : kEvaluatedModels) {
    auto configs = EnumerateConfigs(kind);
    out.insert(out.end(), configs.begin(), configs.end());
  }
  return out;
}

}  // namespace microrec::rec
