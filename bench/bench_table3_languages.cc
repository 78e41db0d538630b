// Table 3 reproduction: the ten most frequent languages in the corpus with
// tweet counts and relative frequencies, via the paper's pipeline — strip
// Twitter entities, pool tweets per user (UP), detect the prevalent
// language of each pseudo-document, and attribute all the user's tweets to
// it (Section 4).
#include <algorithm>
#include <iostream>
#include <map>

#include "bench_util.h"
#include "text/language_detector.h"
#include "text/tokenizer.h"
#include "util/table_writer.h"

using namespace microrec;

int main(int argc, char** argv) {
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  bench::Workbench bench = bench::MakeWorkbench();
  const corpus::Corpus& corpus = bench.corpus();

  text::LanguageDetector detector;
  std::map<text::Language, size_t> tweet_counts;
  size_t total = 0;
  size_t correct_users = 0;

  for (corpus::UserId u = 0; u < corpus.num_users(); ++u) {
    // UP pooling: concatenate the user's cleaned tweets.
    std::string pooled;
    for (corpus::TweetId id : corpus.PostsOf(u)) {
      pooled += text::StripTwitterEntities(corpus.tweet(id).text);
      pooled += ' ';
    }
    text::Language lang = detector.Detect(pooled);
    tweet_counts[lang] += corpus.PostsOf(u).size();
    total += corpus.PostsOf(u).size();
    if (lang == bench.truth.user_language[u]) ++correct_users;
  }

  // Paper reference shares (Table 3).
  const std::map<text::Language, double> paper_share = {
      {text::Language::kEnglish, 82.71},   {text::Language::kJapanese, 3.44},
      {text::Language::kChinese, 1.71},    {text::Language::kPortuguese, 0.70},
      {text::Language::kThai, 0.68},       {text::Language::kFrench, 0.62},
      {text::Language::kKorean, 0.49},     {text::Language::kGerman, 0.24},
      {text::Language::kIndonesian, 0.21}, {text::Language::kSpanish, 0.05},
  };

  std::vector<std::pair<text::Language, size_t>> ranked(tweet_counts.begin(),
                                                        tweet_counts.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  TableWriter table("Table 3 — most frequent languages");
  table.SetHeader({"language", "tweets", "relative freq",
                   "paper relative freq"});
  for (const auto& [lang, count] : ranked) {
    double share = 100.0 * static_cast<double>(count) /
                   static_cast<double>(total);
    auto paper = paper_share.find(lang);
    table.AddRow({std::string(text::LanguageName(lang)),
                  FormatWithCommas(static_cast<int64_t>(count)),
                  bench::F3(share) + "%",
                  paper == paper_share.end()
                      ? "-"
                      : bench::F3(paper->second) + "%"});
  }
  table.RenderText(std::cout);

  std::printf(
      "detector accuracy vs ground truth: %zu/%zu users (%.1f%%)\n",
      correct_users, static_cast<size_t>(corpus.num_users()),
      100.0 * static_cast<double>(correct_users) /
          static_cast<double>(corpus.num_users()));
  return bench::FinishBench(io, "bench_table3_languages");
}
