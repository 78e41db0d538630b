// Synthetic multilingual vocabulary generation.
//
// The paper's corpus is unobtainable (2009 Twitter sample + full social
// graph), so the experiments run on generated text that reproduces the four
// Twitter challenges: sparsity (short posts, wide vocabulary), noise
// (misspellings — synth/noise.h), multilingualism (ten languages across six
// scripts) and non-standard language (slang, lengthening — synth/noise.h).
//
// The latent structure is a two-level hierarchy: a small set of coarse
// *topics* (sports, music, ...), each split into many fine *subtopics*
// (a specific club, a specific band). User interests and retweet decisions
// live at the subtopic level. This granularity mismatch is what separates
// the model families on the paper's data too: a topic model with |Z| ≤ 200
// can recover the coarse topics but structurally cannot resolve the
// hundreds of fine interest units, while token-matching models key on the
// exact subtopic vocabulary.
//
// Each language gets: (i) function words — for Latin-script languages the
// real characteristic words the language detector keys on; (ii) a shared
// word pool per coarse topic; and (iii) per-subtopic words and multi-word
// expressions (2-4 word collocations, quotes, recurring headlines) whose
// word order carries signal for the context-aware models.
#ifndef MICROREC_SYNTH_LANGUAGE_MODEL_H_
#define MICROREC_SYNTH_LANGUAGE_MODEL_H_

#include <string>
#include <vector>

#include "text/language_detector.h"
#include "util/rng.h"

namespace microrec::synth {

using text::Language;

/// Vocabulary of one (language, topic, subtopic) cell.
struct SubtopicVocabulary {
  std::vector<std::string> words;
  /// Ordered multi-word expressions (2-4 words); emitted as units.
  std::vector<std::vector<std::string>> phrases;
};

/// Vocabulary of one (language, topic) pair: a shared coarse pool plus the
/// fine-grained subtopics.
struct TopicVocabulary {
  std::vector<std::string> shared_words;
  std::vector<SubtopicVocabulary> subtopics;
};

/// Parameters of vocabulary generation.
struct LanguageModelSpec {
  int num_topics = 24;
  int subtopics_per_topic = 24;
  int shared_words_per_topic = 40;
  int words_per_subtopic = 14;
  int phrases_per_subtopic = 5;
  int phrase_len_lo = 2, phrase_len_hi = 4;
  int function_words = 30;
  /// Probability a content word comes from the coarse shared pool rather
  /// than the subtopic vocabulary.
  double shared_word_prob = 0.35;
  /// Zipf exponent for word sampling within a pool.
  double zipf_exponent = 1.05;
  /// Probability that a subtopic word-slot reuses a word from another
  /// subtopic (polysemy): isolated tokens become ambiguous, while ordered
  /// phrases stay unambiguous — as real phrases disambiguate real words.
  double polysemy = 0.12;
};

/// Generated vocabulary and word samplers for one language.
class SyntheticLanguage {
 public:
  /// Deterministically builds the vocabulary for `lang` from `rng`.
  SyntheticLanguage(Language lang, const LanguageModelSpec& spec, Rng* rng);

  Language language() const { return lang_; }

  /// Draws a content word for (topic, subtopic): from the topic's shared
  /// pool with probability shared_word_prob, else from the subtopic pool;
  /// Zipf-distributed within either pool.
  const std::string& SampleWord(int topic, int subtopic, Rng* rng) const;

  /// Draws a subtopic collocation (ordered multi-word expression).
  const std::vector<std::string>& SamplePhrase(int topic, int subtopic,
                                               Rng* rng) const;

  /// Draws a function word (uniform).
  const std::string& SampleFunctionWord(Rng* rng) const;

  /// The coarse hashtag of `topic` (used by hashtag pooling / LLDA labels).
  const std::string& HashtagFor(int topic) const { return hashtags_[topic]; }

  int num_topics() const { return static_cast<int>(topics_.size()); }
  int subtopics_per_topic() const { return spec_.subtopics_per_topic; }

  /// Generates one plausible word in the language's script (exposed for
  /// tests and for mention/URL fabrication).
  static std::string GenerateWord(Language lang, Rng* rng);

 private:
  Language lang_;
  LanguageModelSpec spec_;
  std::vector<TopicVocabulary> topics_;
  std::vector<std::string> function_words_;
  std::vector<std::string> hashtags_;
  std::vector<double> zipf_shared_;  // weights for the shared pools
  std::vector<double> zipf_sub_;     // weights for the subtopic pools
};

}  // namespace microrec::synth

#endif  // MICROREC_SYNTH_LANGUAGE_MODEL_H_
