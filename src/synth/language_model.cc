#include "synth/language_model.h"

#include <array>
#include <cassert>
#include <cmath>

#include "text/unicode.h"

namespace microrec::synth {

namespace {

// Latin syllable inventories with per-language flavour so generated words
// look (and detect) differently across languages.
struct LatinFlavour {
  const char* onsets;  // '|'-separated consonant clusters
  const char* nuclei;  // vowels (UTF-8, '|'-separated)
  const char* codas;   // optional final consonants
};

LatinFlavour FlavourOf(Language lang) {
  switch (lang) {
    case Language::kPortuguese:
      return {"b|c|d|f|g|l|m|n|p|r|s|t|v|br|pr|lh|nh",
              "a|e|i|o|u|ã|õ|á|é|ê|ó", "s|r|m|"};
    case Language::kFrench:
      return {"b|c|d|f|g|j|l|m|n|p|r|s|t|v|ch|br|tr",
              "a|e|i|o|u|é|è|ê|au|ou|eu", "s|t|r|x|"};
    case Language::kGerman:
      return {"b|d|f|g|h|k|l|m|n|r|s|t|w|z|sch|st|br|kr",
              "a|e|i|o|u|ä|ö|ü|ei|au", "n|r|t|g|s|cht|"};
    case Language::kIndonesian:
      return {"b|c|d|g|j|k|l|m|n|p|r|s|t|w|y|ng", "a|e|i|o|u",
              "n|ng|r|k|"};
    case Language::kSpanish:
      return {"b|c|d|f|g|l|m|n|p|r|s|t|v|ñ|ll|tr|dr",
              "a|e|i|o|u|á|é|í|ó", "s|n|r|"};
    default:  // English
      return {"b|c|d|f|g|h|j|k|l|m|n|p|r|s|t|w|th|sh|ch|st|br|tr",
              "a|e|i|o|u|ee|oo|ai|ou", "n|r|t|s|d|ck|ng|"};
  }
}

std::vector<std::string> SplitAlternatives(const char* spec) {
  std::vector<std::string> out;
  std::string current;
  for (const char* p = spec;; ++p) {
    if (*p == '|' || *p == '\0') {
      out.push_back(current);
      current.clear();
      if (*p == '\0') break;
    } else {
      current += *p;
    }
  }
  return out;
}

// One language's syllable inventories, split into their alternatives.
struct Syllables {
  std::vector<std::string> onsets;
  std::vector<std::string> nuclei;
  std::vector<std::string> codas;
};

// Split once per process, for every Language enumerator, not once per word.
const Syllables& SyllablesOf(Language lang) {
  static const std::array<Syllables, text::kNumKnownLanguages + 1> tables =
      [] {
        std::array<Syllables, text::kNumKnownLanguages + 1> out;
        for (size_t l = 0; l < out.size(); ++l) {
          LatinFlavour flavour = FlavourOf(static_cast<Language>(l));
          out[l] = {SplitAlternatives(flavour.onsets),
                    SplitAlternatives(flavour.nuclei),
                    SplitAlternatives(flavour.codas)};
        }
        return out;
      }();
  return tables[static_cast<size_t>(lang)];
}

std::string GenerateLatinWord(Language lang, Rng* rng) {
  const auto& [onsets, nuclei, codas] = SyllablesOf(lang);
  int syllables = 2 + static_cast<int>(rng->UniformU32(3));  // 2-4
  std::string word;
  for (int s = 0; s < syllables; ++s) {
    word += onsets[rng->UniformU32(static_cast<uint32_t>(onsets.size()))];
    word += nuclei[rng->UniformU32(static_cast<uint32_t>(nuclei.size()))];
  }
  word += codas[rng->UniformU32(static_cast<uint32_t>(codas.size()))];
  return word;
}

std::string GenerateScriptWord(uint32_t lo, uint32_t hi, int min_len,
                               int max_len, Rng* rng) {
  int len = min_len +
            static_cast<int>(
                rng->UniformU32(static_cast<uint32_t>(max_len - min_len + 1)));
  std::string word;
  for (int i = 0; i < len; ++i) {
    text::Encode(lo + rng->UniformU32(hi - lo + 1), &word);
  }
  return word;
}

std::string GenerateJapaneseWord(Rng* rng) {
  // Mix hiragana with occasional kanji, as real Japanese does.
  int len = 2 + static_cast<int>(rng->UniformU32(4));
  std::string word;
  for (int i = 0; i < len; ++i) {
    if (rng->Bernoulli(0.25)) {
      text::Encode(0x4E00 + rng->UniformU32(0x500), &word);  // common kanji
    } else {
      text::Encode(0x3042 + rng->UniformU32(0x50), &word);  // hiragana
    }
  }
  return word;
}

std::string GenerateHangulWord(Rng* rng) {
  return GenerateScriptWord(0xAC00, 0xAC00 + 0x800, 1, 3, rng);
}

std::vector<double> ZipfWeights(int size, double exponent) {
  std::vector<double> weights(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) {
    weights[static_cast<size_t>(r)] =
        1.0 / std::pow(static_cast<double>(r + 1), exponent);
  }
  return weights;
}

}  // namespace

std::string SyntheticLanguage::GenerateWord(Language lang, Rng* rng) {
  switch (lang) {
    case Language::kJapanese:
      return GenerateJapaneseWord(rng);
    case Language::kChinese:
      return GenerateScriptWord(0x4E00, 0x4E00 + 0xFFF, 1, 3, rng);
    case Language::kKorean:
      return GenerateHangulWord(rng);
    case Language::kThai:
      return GenerateScriptWord(0xE01, 0xE2E, 3, 6, rng);
    default:
      return GenerateLatinWord(lang, rng);
  }
}

SyntheticLanguage::SyntheticLanguage(Language lang,
                                     const LanguageModelSpec& spec, Rng* rng)
    : lang_(lang), spec_(spec) {
  // Function words: reuse the detector's characteristic words for
  // Latin-script languages; generate native-script ones otherwise.
  for (std::string_view word : text::CharacteristicWords(lang)) {
    function_words_.emplace_back(word);
  }
  while (static_cast<int>(function_words_.size()) < spec.function_words) {
    function_words_.push_back(GenerateWord(lang, rng));
  }

  topics_.resize(static_cast<size_t>(spec.num_topics));
  hashtags_.reserve(static_cast<size_t>(spec.num_topics));
  for (int t = 0; t < spec.num_topics; ++t) {
    TopicVocabulary& topic = topics_[static_cast<size_t>(t)];
    topic.shared_words.reserve(static_cast<size_t>(spec.shared_words_per_topic));
    for (int w = 0; w < spec.shared_words_per_topic; ++w) {
      topic.shared_words.push_back(GenerateWord(lang, rng));
    }
    topic.subtopics.resize(static_cast<size_t>(spec.subtopics_per_topic));
    for (auto& subtopic : topic.subtopics) {
      subtopic.words.reserve(static_cast<size_t>(spec.words_per_subtopic));
      for (int w = 0; w < spec.words_per_subtopic; ++w) {
        subtopic.words.push_back(GenerateWord(lang, rng));
      }
      subtopic.phrases.reserve(static_cast<size_t>(spec.phrases_per_subtopic));
      for (int p = 0; p < spec.phrases_per_subtopic; ++p) {
        int len = spec.phrase_len_lo +
                  static_cast<int>(rng->UniformU32(static_cast<uint32_t>(
                      spec.phrase_len_hi - spec.phrase_len_lo + 1)));
        std::vector<std::string> phrase;
        for (int w = 0; w < len; ++w) {
          phrase.push_back(GenerateWord(lang, rng));
        }
        subtopic.phrases.push_back(std::move(phrase));
      }
    }
    // Hashtags index the *global* coarse-topic space (same tags across
    // languages); ASCII keeps them tokenizer-friendly.
    // Built by append: `"#" + word + ...` trips GCC 12's spurious
    // -Wrestrict (PR105329) depending on inlining context.
    std::string tag = "#";
    tag += GenerateLatinWord(Language::kEnglish, rng);
    tag += std::to_string(t);
    hashtags_.push_back(std::move(tag));
  }

  // Polysemy pass: some subtopic word slots reuse a word from another
  // (earlier) cell, so isolated tokens are ambiguous evidence.
  for (int t = 0; t < spec.num_topics; ++t) {
    for (int s = 0; s < spec.subtopics_per_topic; ++s) {
      if (t == 0 && s == 0) continue;
      for (auto& word : topics_[static_cast<size_t>(t)]
                            .subtopics[static_cast<size_t>(s)]
                            .words) {
        if (!rng->Bernoulli(spec.polysemy)) continue;
        int flat = t * spec.subtopics_per_topic + s;
        int pick = static_cast<int>(rng->UniformU32(static_cast<uint32_t>(flat)));
        const SubtopicVocabulary& other =
            topics_[static_cast<size_t>(pick / spec.subtopics_per_topic)]
                .subtopics[static_cast<size_t>(pick % spec.subtopics_per_topic)];
        word = other.words[rng->UniformU32(
            static_cast<uint32_t>(other.words.size()))];
      }
    }
  }

  zipf_shared_ = ZipfWeights(spec.shared_words_per_topic, spec.zipf_exponent);
  zipf_sub_ = ZipfWeights(spec.words_per_subtopic, spec.zipf_exponent);
}

const std::string& SyntheticLanguage::SampleWord(int topic, int subtopic,
                                                 Rng* rng) const {
  assert(topic >= 0 && topic < num_topics());
  assert(subtopic >= 0 && subtopic < spec_.subtopics_per_topic);
  const TopicVocabulary& pool = topics_[static_cast<size_t>(topic)];
  if (rng->Bernoulli(spec_.shared_word_prob)) {
    size_t rank = rng->Categorical(zipf_shared_);
    return pool.shared_words[rank];
  }
  size_t rank = rng->Categorical(zipf_sub_);
  return pool.subtopics[static_cast<size_t>(subtopic)].words[rank];
}

const std::vector<std::string>& SyntheticLanguage::SamplePhrase(
    int topic, int subtopic, Rng* rng) const {
  const auto& phrases =
      topics_[static_cast<size_t>(topic)]
          .subtopics[static_cast<size_t>(subtopic)]
          .phrases;
  return phrases[rng->UniformU32(static_cast<uint32_t>(phrases.size()))];
}

const std::string& SyntheticLanguage::SampleFunctionWord(Rng* rng) const {
  return function_words_[rng->UniformU32(
      static_cast<uint32_t>(function_words_.size()))];
}

}  // namespace microrec::synth
