// Table 2 reproduction: per-user-group corpus statistics — outgoing tweets
// (TR), retweets (R), incoming tweets (E) and followers' tweets (F), each
// with total / min / mean / max per user.
//
// Paper values are absolute counts from the 2009 crawl; the synthetic
// corpus is smaller, so the *shape* to check is the relative structure:
// IS receive far more than they post, IP the reverse, BU balanced.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "corpus/user_types.h"
#include "util/table_writer.h"

using namespace microrec;

namespace {

struct GroupStats {
  long total = 0;
  long min = 0;
  long mean = 0;
  long max = 0;
};

template <typename Fn>
GroupStats Collect(const std::vector<corpus::UserId>& users, Fn count_of) {
  GroupStats stats;
  if (users.empty()) return stats;
  stats.min = count_of(users[0]);
  for (corpus::UserId u : users) {
    long count = count_of(u);
    stats.total += count;
    stats.min = std::min(stats.min, count);
    stats.max = std::max(stats.max, count);
  }
  stats.mean = stats.total / static_cast<long>(users.size());
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  bench::Workbench bench = bench::MakeWorkbench();
  const corpus::Corpus& corpus = bench.corpus();
  const corpus::UserCohort& cohort = bench.stack.cohort();

  struct Row {
    const char* label;
    std::function<long(corpus::UserId)> count_of;
  };
  const std::vector<Row> rows = {
      {"Outgoing tweets (TR)",
       [&](corpus::UserId u) {
         return static_cast<long>(corpus.PostsOf(u).size());
       }},
      {"Retweets (R)",
       [&](corpus::UserId u) {
         return static_cast<long>(corpus.RetweetsOf(u).size());
       }},
      {"Incoming tweets (E)",
       [&](corpus::UserId u) {
         return static_cast<long>(corpus.IncomingOf(u).size());
       }},
      {"Followers' tweets (F)",
       [&](corpus::UserId u) {
         return static_cast<long>(corpus.FollowerTweetsOf(u).size());
       }},
  };

  TableWriter table("Table 2 — statistics for each user group");
  table.SetHeader({"statistic", "IS", "BU", "IP", "All Users"});
  auto add = [&](const std::string& label, auto value_of) {
    table.AddRow({label, value_of(cohort.seekers), value_of(cohort.balanced),
                  value_of(cohort.producers), value_of(cohort.all)});
  };
  auto users_row = [](const std::vector<corpus::UserId>& users) {
    return std::to_string(users.size());
  };
  add("Users", users_row);
  for (const Row& row : rows) {
    auto stats_of = [&](const std::vector<corpus::UserId>& users) {
      return Collect(users, row.count_of);
    };
    add(row.label, [&](const std::vector<corpus::UserId>& users) {
      return FormatWithCommas(stats_of(users).total);
    });
    add("  Minimum per user",
        [&](const std::vector<corpus::UserId>& users) {
          return FormatWithCommas(stats_of(users).min);
        });
    add("  Mean per user", [&](const std::vector<corpus::UserId>& users) {
      return FormatWithCommas(stats_of(users).mean);
    });
    add("  Maximum per user",
        [&](const std::vector<corpus::UserId>& users) {
          return FormatWithCommas(stats_of(users).max);
        });
  }
  table.RenderText(std::cout);

  // Shape check mirrored from the paper: posting-ratio structure.
  TableWriter ratios("Posting ratios (outgoing / incoming, Section 2)");
  ratios.SetHeader({"group", "min", "mean", "max", "paper expectation"});
  auto ratio_row = [&](const char* name,
                       const std::vector<corpus::UserId>& users,
                       const char* expectation) {
    double lo = 1e300, hi = -1e300, sum = 0;
    for (corpus::UserId u : users) {
      double ratio = corpus.PostingRatio(u);
      lo = std::min(lo, ratio);
      hi = std::max(hi, ratio);
      sum += ratio;
    }
    ratios.AddRow({name, bench::F3(lo),
                   bench::F3(sum / static_cast<double>(users.size())),
                   bench::F3(hi), expectation});
  };
  ratio_row("IS", cohort.seekers, "< 0.5 (paper max 0.13)");
  ratio_row("BU", cohort.balanced, "~1 (paper 0.76-1.16)");
  ratio_row("IP", cohort.producers, "> 2 (paper min 2)");
  ratios.RenderText(std::cout);
  return bench::FinishBench(io, "bench_table2_dataset");
}
