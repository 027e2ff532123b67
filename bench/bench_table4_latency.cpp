// Table 4: query latency of DBMS vs non-semantic R-tree vs SmartStore on
// the MSN and EECS traces at TIF = 120 and 160.
//
// Reproduction methodology (see DESIGN.md): each system is built over the
// same synthetic population and serves the same intensified workload on the
// virtual-time cluster. The intensified metadata-op stream (rate scales
// with TIF) runs as background load, interleaved chronologically with the
// query batch: the DBMS serializes D+1 index updates per op on one server,
// the centralized R-tree one multi-dimensional update on one server, while
// SmartStore spreads single-group updates over 60 units. We report the
// mean completion latency per query class.
//
// Absolute seconds depend on the calibrated cost constants; the paper's
// *shape* is the target: DBMS >> R-tree >> SmartStore (the paper reports
// roughly three orders of magnitude DBMS -> SmartStore), all growing
// superlinearly in TIF as the centralized servers saturate.
#include "bench_common.h"

using namespace smartstore;
using namespace smartstore::bench;
using core::Routing;

namespace {

// Per-op service of the background metadata stream on each system's
// update path: the DBMS maintains one B+-tree per attribute plus the name
// index; the centralized R-tree one multi-dimensional insert (MBR updates,
// amortized splits); SmartStore routes to one group and touches one unit.
constexpr double kDbmsOpService = 8.0e-4;
constexpr double kRtreeOpService = 4.0e-4;
constexpr double kSmartOpService = 1.5e-4;
constexpr double kWindow = 10.0;  // seconds of simulated time
constexpr double kBgRatePerTif = 25.0;  // background ops per second per TIF

void run_class(const char* label, int tif, baseline::DbmsStore& dbms,
               baseline::CentralRTreeStore& rtree, core::SmartStore& smart,
               trace::QueryGenerator& gen, const metadata::AttrSubset& dims,
               std::size_t n_queries, int what) {
  // Background stream arrivals, interleaved chronologically with queries
  // (the virtual-time cluster requires non-decreasing arrival order).
  const std::size_t bg_ops =
      static_cast<std::size_t>(kBgRatePerTif * tif * kWindow);
  std::size_t bg_next = 0;
  sim::Cluster& smart_cluster = smart.simulate();
  auto bg_arrival = [&](std::size_t i) {
    return kWindow * static_cast<double>(i) / static_cast<double>(bg_ops);
  };

  LatencySummary ld, lr, ls;
  for (std::size_t i = 0; i < n_queries; ++i) {
    const double at =
        kWindow * static_cast<double>(i) / static_cast<double>(n_queries);
    while (bg_next < bg_ops && bg_arrival(bg_next) <= at) {
      const double t = bg_arrival(bg_next);
      sim::Session d = dbms.cluster().start_session(0, t);
      d.visit(kDbmsOpService);
      sim::Session r = rtree.cluster().start_session(0, t);
      r.visit(kRtreeOpService);
      sim::Session s = smart_cluster.start_session(
          bg_next % smart_cluster.size(), t);
      s.visit(kSmartOpService);
      ++bg_next;
    }
    switch (what) {
      case 0: {
        const auto q = gen.gen_point(0.9);
        ld.add(dbms.point_query(q, at).stats);
        lr.add(rtree.point_query(q, at).stats);
        ls.add(smart.point_query(q, Routing::kOffline, at).stats);
        break;
      }
      case 1: {
        const auto q = gen.gen_range(dims, 0.05);
        ld.add(dbms.range_query(q, at).stats);
        lr.add(rtree.range_query(q, at).stats);
        ls.add(smart.range_query(q, Routing::kOffline, at).stats);
        break;
      }
      default: {
        const auto q = gen.gen_topk(dims, 6);
        ld.add(dbms.topk_query(q, at).stats);
        lr.add(rtree.topk_query(q, at).stats);
        ls.add(smart.topk_query(q, Routing::kOffline, at).stats);
        break;
      }
    }
  }
  ld.finish();
  lr.finish();
  ls.finish();
  std::printf("%-11s %4d %12.3f %12.3f %12.5f %10.0fx\n", label, tif,
              ld.mean_s, lr.mean_s, ls.mean_s, ld.mean_s / ls.mean_s);
}

void run_trace(trace::TraceKind kind) {
  const auto profile = trace::profile_for(kind);
  std::printf("\n--- %s trace ---\n", profile.name.c_str());
  std::printf("%-11s %4s %12s %12s %12s %10s\n", "query", "TIF", "DBMS(s)",
              "R-tree(s)", "SmartStore", "DBMS/Smart");

  for (const int tif : {120, 160}) {
    // Population scales with TIF (sub-trace cloning), compressed for
    // laptop runtimes: tif/40 sub-traces at downscale 10.
    const unsigned gen_tif = static_cast<unsigned>(tif / 40);
    const auto tr = trace::SyntheticTrace::generate(profile, gen_tif, 11, 10);

    const auto dims = complex_query_dims();
    const std::size_t q = static_cast<std::size_t>(tif);

    // Fresh stores per query class so each class queues only behind the
    // background stream, not behind the other classes.
    for (int what = 0; what < 3; ++what) {
      core::SmartStore smart(default_config(60));
      smart.build(tr.files());
      baseline::DbmsStore dbms(60);
      dbms.build(tr.files());
      baseline::CentralRTreeStore rtree(60);
      rtree.build(tr.files());
      trace::QueryGenerator gen(tr, trace::QueryDistribution::kZipf,
                                21 + what);
      static const char* kLabels[3] = {"Point", "Range", "Top-k"};
      run_class(kLabels[what], tif, dbms, rtree, smart, gen, dims, q, what);
    }
  }
}

}  // namespace

int main() {
  std::printf("=== Table 4: point/range/top-k latency, "
              "DBMS vs R-tree vs SmartStore ===\n");
  std::printf("(simulated cluster; absolute values are model-scaled, the "
              "ordering and growth\n with TIF are the reproduced shape)\n");
  run_trace(trace::TraceKind::kMSN);
  run_trace(trace::TraceKind::kEECS);
  return 0;
}
