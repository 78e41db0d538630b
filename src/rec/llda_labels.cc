#include "rec/llda_labels.h"

namespace microrec::rec {

namespace {

// Emoticon families in text::EmoticonClass order (kSmile .. kTongue).
constexpr int kNumEmoticonClasses = 9;

const char* EmoticonClassName(int index) {
  static const char* kNames[kNumEmoticonClasses] = {
      "smile", "frown",   "wink",    "biggrin", "heart",
      "surprise", "awkward", "confused", "tongue"};
  return kNames[index];
}

// Families with a single label (no variations), per Section 4.
bool SingleLabelFamily(int index) {
  auto cls = static_cast<text::EmoticonClass>(index);
  return cls == text::EmoticonClass::kBigGrin ||
         cls == text::EmoticonClass::kHeart ||
         cls == text::EmoticonClass::kSurprise ||
         cls == text::EmoticonClass::kConfused;
}

}  // namespace

uint32_t LldaLabelScheme::AddLabel(const std::string& name) {
  label_names_.push_back(name);
  return static_cast<uint32_t>(num_labels_++);
}

uint32_t LldaLabelScheme::AddVariations(const std::string& base, int count) {
  uint32_t first = static_cast<uint32_t>(num_labels_);
  for (int v = 0; v < count; ++v) {
    AddLabel(base + "-" + std::to_string(v));
  }
  return first;
}

LldaLabelScheme LldaLabelScheme::Build(
    const corpus::TokenizedCorpus& tokenized,
    const std::vector<corpus::TweetId>& train, size_t min_hashtag_count) {
  LldaLabelScheme scheme;

  // Hashtag labels: one per hashtag above the frequency threshold, counted
  // by views into `tokenized`. Label ids follow this map's iteration order,
  // which std::hash keeps the same for view and std::string keys.
  std::unordered_map<std::string_view, size_t> hashtag_counts;
  for (corpus::TweetId id : train) {
    for (const text::TokenView token : tokenized.TokensOf(id)) {
      if (token.type == text::TokenType::kHashtag) {
        ++hashtag_counts[token.text];
      }
    }
  }
  for (const auto& [tag, count] : hashtag_counts) {
    if (count > min_hashtag_count) {
      const std::string name(tag);
      scheme.hashtag_labels_.emplace(name, scheme.AddLabel(name));
    }
  }

  // Emoticon family labels.
  scheme.emoticon_first_.assign(kNumEmoticonClasses, UINT32_MAX);
  scheme.emoticon_variations_.assign(kNumEmoticonClasses, 1);
  for (int cls = 0; cls < kNumEmoticonClasses; ++cls) {
    if (SingleLabelFamily(cls)) {
      scheme.emoticon_first_[cls] = scheme.AddLabel(EmoticonClassName(cls));
      scheme.emoticon_variations_[cls] = 1;
    } else {
      scheme.emoticon_first_[cls] =
          scheme.AddVariations(EmoticonClassName(cls), kNumVariations);
      scheme.emoticon_variations_[cls] = kNumVariations;
    }
  }

  // Question mark and @user labels, both with variations.
  scheme.question_first_ = scheme.AddVariations("question", kNumVariations);
  scheme.mention_first_ = scheme.AddVariations("@user", kNumVariations);
  return scheme;
}

std::vector<uint32_t> LldaLabelScheme::LabelsFor(
    corpus::TweetId id, text::TokenRange tokens,
    const std::string& raw_text) const {
  std::vector<uint32_t> labels;
  auto variation = [id](int count) {
    return static_cast<uint32_t>(id % static_cast<corpus::TweetId>(count));
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    const text::TokenView token = tokens[i];
    switch (token.type) {
      case text::TokenType::kHashtag: {
        auto it = hashtag_labels_.find(token.text);
        if (it != hashtag_labels_.end()) labels.push_back(it->second);
        break;
      }
      case text::TokenType::kEmoticon: {
        auto cls = text::ClassifyEmoticon(token.text);
        if (cls != text::EmoticonClass::kNone) {
          int index = static_cast<int>(cls);
          labels.push_back(emoticon_first_[index] +
                           variation(emoticon_variations_[index]));
        }
        break;
      }
      case text::TokenType::kMention:
        if (i == 0) {
          labels.push_back(mention_first_ + variation(kNumVariations));
        }
        break;
      default:
        break;
    }
  }
  if (question_first_ != UINT32_MAX &&
      raw_text.find('?') != std::string::npos) {
    labels.push_back(question_first_ + variation(kNumVariations));
  }
  return labels;
}

}  // namespace microrec::rec
