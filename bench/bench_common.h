// Shared plumbing for the experiment harnesses: store construction,
// latency summaries and fixed-width table printing.
//
// Every bench binary is deterministic (fixed seeds), runs with no
// arguments and prints the corresponding paper table/figure series.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/central_rtree.h"
#include "baseline/dbms.h"
#include "core/ground_truth.h"
#include "core/smartstore.h"
#include "trace/query_gen.h"
#include "trace/synth.h"
#include "util/rng.h"

namespace smartstore::bench {

/// The attribute subset the paper's synthetic complex queries use
/// (Section 5.1's example: last-revision time, read volume, write volume).
inline metadata::AttrSubset complex_query_dims() {
  return metadata::AttrSubset({metadata::Attr::kModificationTime,
                               metadata::Attr::kReadBytes,
                               metadata::Attr::kWriteBytes});
}

/// Default SmartStore configuration used across benches (60 units like the
/// paper's testbed unless a bench sweeps the scale).
inline core::Config default_config(std::size_t units = 60) {
  core::Config cfg;
  cfg.num_units = units;
  cfg.fanout = 8;
  cfg.seed = 42;
  cfg.max_groups_per_query = 4;  // "a single or a minimal number of groups"
  return cfg;
}

struct LatencySummary {
  double mean_s = 0;
  double max_s = 0;
  double total_messages = 0;

  void add(const core::QueryStats& st) {
    mean_s += st.latency_s;
    max_s = std::max(max_s, st.latency_s);
    total_messages += static_cast<double>(st.messages);
    ++n_;
  }
  void finish() {
    if (n_ > 0) mean_s /= static_cast<double>(n_);
  }

 private:
  std::size_t n_ = 0;
};

/// Percentage formatting helper.
inline std::string pct(double x) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f", 100.0 * x);
  return buf;
}

inline void rule(char c = '-', int n = 78) {
  for (int i = 0; i < n; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace smartstore::bench
