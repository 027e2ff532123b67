// Figure 13: on-line multicast vs off-line pre-processing, as a function
// of system scale (Zipf workload): (a) query latency, (b) number of
// internal network messages per query.
#include "bench_common.h"

using namespace smartstore;
using namespace smartstore::bench;
using core::Routing;

int main() {
  std::printf("=== Figure 13: on-line vs off-line queries (Zipf) ===\n\n");
  const auto tr =
      trace::SyntheticTrace::generate(trace::msn_profile(), 2, 37, 8);
  const auto dims = complex_query_dims();

  std::printf("%8s %14s %14s %12s %12s\n", "units", "online(ms)",
              "offline(ms)", "online msg", "offline msg");
  for (const std::size_t units : {20u, 40u, 60u, 80u, 100u}) {
    core::SmartStore store(default_config(units));
    store.build(tr.files());
    store.simulate();  // latency is read in virtual time
    trace::QueryGenerator gen(tr, trace::QueryDistribution::kZipf, 71);

    LatencySummary on, off;
    const int n = 150;
    for (int i = 0; i < n; ++i) {
      // Arrivals spaced 1s apart: uncontended per-query latency (queueing
      // effects are Table 4's subject, not this figure's).
      const double at = static_cast<double>(i);
      if (i % 2 == 0) {
        const auto q = gen.gen_range(dims, 0.05);
        off.add(store.range_query(q, Routing::kOffline, at).stats);
        on.add(store.range_query(q, Routing::kOnline, at).stats);
      } else {
        const auto q = gen.gen_topk(dims, 8);
        off.add(store.topk_query(q, Routing::kOffline, at).stats);
        on.add(store.topk_query(q, Routing::kOnline, at).stats);
      }
    }
    on.finish();
    off.finish();
    std::printf("%8zu %14.3f %14.3f %12.1f %12.1f\n", units, on.mean_s * 1e3,
                off.mean_s * 1e3, on.total_messages / n,
                off.total_messages / n);
  }

  std::printf("\nPaper: the off-line approach (replicated first-level index "
              "vectors +\nLSI pre-processing) significantly reduces both "
              "latency and message count,\nand the gap widens with scale.\n");
  return 0;
}
