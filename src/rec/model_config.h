// The unified representation-model configuration space: the nine evaluated
// models (plus PLSA), their taxonomy (Figure 1), and the full 223-entry
// parameter grid of Tables 4 and 5.
#ifndef MICROREC_REC_MODEL_CONFIG_H_
#define MICROREC_REC_MODEL_CONFIG_H_

#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bag/bag_config.h"
#include "corpus/pooling.h"
#include "graph/graph_model.h"
#include "util/status.h"

namespace microrec::rec {

/// The representation models of Section 3.2. PLSA is implemented but
/// excluded from the paper's grid (memory constraint); it is kept here for
/// the exclusion-demonstration bench.
enum class ModelKind {
  kTN,
  kCN,
  kTNG,
  kCNG,
  kLDA,
  kLLDA,
  kHDP,
  kHLDA,
  kBTM,
  kPLSA,
};

/// The nine models the paper evaluates, in Figure 3's legend order.
inline constexpr std::array<ModelKind, 9> kEvaluatedModels = {
    ModelKind::kTN,  ModelKind::kCN,   ModelKind::kTNG,
    ModelKind::kCNG, ModelKind::kLDA,  ModelKind::kLLDA,
    ModelKind::kHDP, ModelKind::kHLDA, ModelKind::kBTM};

std::string_view ModelKindName(ModelKind kind);
Result<ModelKind> ParseModelKind(std::string_view name);

// ---- Taxonomy of Figure 1. ----

/// Top-level split: how a model treats n-gram order.
enum class TaxonomyCategory {
  kContextAgnostic,     // topic models
  kLocalContextAware,   // bag models
  kGlobalContextAware,  // graph models
};

std::string_view TaxonomyCategoryName(TaxonomyCategory category);

TaxonomyCategory CategoryOf(ModelKind kind);
/// Nonparametric subcategory (HDP, HLDA): topic count inferred from data.
bool IsNonparametric(ModelKind kind);
/// Character-based subcategory (CN, CNG).
bool IsCharacterBased(ModelKind kind);
bool IsTopicModel(ModelKind kind);

// ---- Topic-model run configuration (Table 4). ----

/// Aggregation of per-tweet topic distributions into a user model.
enum class TopicAggregation { kCentroid, kRocchio };

std::string_view TopicAggregationName(TopicAggregation aggregation);

struct TopicRunConfig {
  size_t num_topics = 50;       // LDA/LLDA/BTM (latent topics for LLDA)
  int iterations = 1000;        // Gibbs sweeps (paper: 1,000 / 2,000)
  corpus::Pooling pooling = corpus::Pooling::kUser;
  TopicAggregation aggregation = TopicAggregation::kCentroid;
  double alpha = -1.0;  // < 0: model default (50/|Z|; 1.0 for HDP)
  double beta = 0.01;
  double gamma = 1.0;   // HDP / HLDA
  int window = 30;      // BTM biterm window for pooled pseudo-documents
  int levels = 3;       // HLDA depth

  std::string ToString(ModelKind kind) const;
};

/// One fully specified configuration of one model.
struct ModelConfig {
  ModelKind kind = ModelKind::kTN;
  bag::BagConfig bag;        // TN / CN
  graph::GraphConfig graph;  // TNG / CNG
  TopicRunConfig topic;      // topic models

  std::string ToString() const;
  /// Stable hex digest of the kind and every parameter (FNV-1a over the
  /// rendered configuration). Keys sweep checkpoint records.
  std::string Fingerprint() const;
  /// Rocchio aggregations are valid only for sources with negatives.
  bool IsValidForSource(bool source_has_negatives) const;
  /// The (gram kind, n) of the corpus gram table this configuration fits
  /// and scores on: its bag or graph configuration's, and (token, 1) for
  /// the topic models, which take the same pre-processed tokens as TN with
  /// n = 1 (Section 4).
  std::pair<bag::NgramKind, int> Featurization() const;
};

/// Enumerates the paper's configuration grid for one model (Tables 4-5):
/// TN 36, CN 21, TNG 9, CNG 9, LDA 48, LLDA 48, BTM 24, HDP 12, HLDA 16.
/// PLSA yields an empty grid (excluded by the memory constraint).
std::vector<ModelConfig> EnumerateConfigs(ModelKind kind);

/// The entire 223-entry grid across the nine evaluated models.
std::vector<ModelConfig> FullGrid();

}  // namespace microrec::rec

#endif  // MICROREC_REC_MODEL_CONFIG_H_
