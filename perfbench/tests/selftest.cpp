// Self-tests of the benchmark harness: percentile math and the recall
// rules, on hand-checked data. Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(near(perfbench::percentile_sorted(v, 50), 50), "p50 of 1..100");
  expect(near(perfbench::percentile_sorted(v, 99), 99), "p99 of 1..100");
  expect(near(perfbench::percentile_sorted(v, 100), 100), "p100 of 1..100");
  expect(near(perfbench::percentile_sorted({7}, 50), 7), "p50 of one");
  expect(perfbench::percentile_sorted({}, 50) == 0, "empty sample");

  // Highest percentile with at least 10 samples beyond it.
  expect(perfbench::supported_percentile(1000, 99) == 99, "n=1000 -> p99");
  expect(perfbench::supported_percentile(999, 99) == 95, "n=999 -> p95");
  expect(perfbench::supported_percentile(10000, 99.9) == 99.9,
         "n=10000 -> p99.9");
  expect(perfbench::supported_percentile(9999, 99.9) == 99, "n=9999 -> p99");
  expect(perfbench::supported_percentile(200, 99) == 95, "n=200 -> p95");
  expect(perfbench::supported_percentile(100, 99) == 90, "n=100 -> p90");
  expect(perfbench::supported_percentile(20, 99) == 50, "n=20 -> p50");
  expect(perfbench::supported_percentile(19, 99) == 0, "n=19 -> none");

  std::vector<double> shuffled;
  for (int i = 0; i < 1000; ++i) shuffled.push_back((i * 7919) % 1000 + 1);
  const perfbench::Summary s = perfbench::summarize(shuffled);
  expect(s.n == 1000, "summary count");
  expect(near(s.p50, 500), "summary p50");
  expect(s.tail_q == 99 && near(s.tail, 990), "summary p99");
  const perfbench::Summary small = perfbench::summarize({3, 1, 2});
  expect(small.tail_q == 0 && near(small.tail, 3),
         "too few samples: tail is the maximum, flagged by tail_q 0");
}

void test_recall_rules() {
  using perfbench::set_recall;
  using perfbench::topk_rank_recall;
  expect(near(set_recall({1, 2, 3, 4}, {2, 4, 9}), 0.5), "range recall 2/4");
  expect(near(set_recall({}, {1}), 1.0), "nothing expected");
  expect(near(set_recall({5}, {}), 0.0), "nothing returned");

  // Oracle over the base population: distances 1, 2, 4, 8.
  const std::vector<std::pair<double, std::uint64_t>> oracle = {
      {1, 10}, {2, 11}, {4, 12}, {8, 13}};
  // Exact answer: every rank counts.
  expect(near(topk_rank_recall(oracle, oracle), 1.0), "exact top-k");
  // A new (non-base) record closer than the base ones pushes the base
  // hits down a rank; each rank is still no worse than the oracle's.
  expect(near(topk_rank_recall(oracle, {{0.5, 99}, {1, 10}, {2, 11}, {4, 12}}),
              1.0),
         "closer new record keeps every rank");
  // Missing the nearest record: ranks 0..2 read 2, 4, 8 against 1, 2, 4.
  // Rank 3 reads 9 against 8: worse. No rank counts.
  expect(near(topk_rank_recall(oracle, {{2, 11}, {4, 12}, {8, 13}, {9, 14}}),
              0.0),
         "shifted answer counts no rank");
  // Ties count: the same distance with another id is as good.
  expect(near(topk_rank_recall(oracle, {{1, 20}, {2, 11}, {5, 30}, {8, 13}}),
              0.75),
         "tie counts, rank 2 worse");
  // Short answers lose the missing ranks.
  expect(near(topk_rank_recall(oracle, {{1, 10}}), 0.25), "short answer");
  expect(near(topk_rank_recall({}, {}), 1.0), "empty oracle");
}

}  // namespace

int main() {
  test_percentiles();
  test_recall_rules();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
