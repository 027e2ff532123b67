// Figure 14: versioning overhead as a function of the version ratio
// (file modifications aggregated per version): (a) extra space per index
// unit, (b) extra query latency from checking attached versions.
//
// Version ratio 1 is comprehensive versioning (every change seals a
// version, largest space); larger ratios aggregate more changes per
// version. The paper bounds the extra latency at <= 10% of query latency.
#include "bench_common.h"

using namespace smartstore;
using namespace smartstore::bench;
using core::Routing;

int main() {
  std::printf("=== Figure 14: versioning overhead ===\n\n");
  std::printf("%-7s %8s %18s %14s %12s\n", "trace", "ratio",
              "space/idx-unit(B)", "extra lat.%", "versions");

  for (const auto kind : {trace::TraceKind::kMSN, trace::TraceKind::kEECS}) {
    const auto profile = trace::profile_for(kind);
    const auto tr = trace::SyntheticTrace::generate(profile, 2, 41, 8);
    const auto dims = complex_query_dims();

    for (const std::size_t ratio : {1u, 2u, 4u, 8u, 16u, 32u}) {
      auto cfg = default_config(60);
      cfg.version_ratio = ratio;
      // Disable the lazy full refresh so version chains accumulate over
      // the measurement window (reconfiguration would clear them).
      cfg.lazy_update_threshold = 10.0;
      core::SmartStore store(cfg);
      store.build(tr.files());
      store.simulate();  // latency is read in virtual time

      // Update stream: inserts accumulate into versions.
      const auto inserts = tr.make_insert_stream(600, 43);
      for (std::size_t i = 0; i < inserts.size(); ++i)
        store.insert_file(inserts[i], static_cast<double>(i) * 0.01);

      // Extra latency: fraction of complex-query latency spent checking
      // attached versions.
      trace::QueryGenerator gen(tr, trace::QueryDistribution::kZipf, 73);
      double total_lat = 0, version_lat = 0;
      for (int i = 0; i < 150; ++i) {
        const auto q = gen.gen_topk(dims, 8);
        // Arrivals after the insert window, 1s apart: uncontended latency.
        const auto st =
            store.topk_query(q, Routing::kOffline, 100.0 + i).stats;
        total_lat += st.latency_s;
        version_lat += st.version_check_s;
      }

      std::size_t total_versions = 0;
      for (std::size_t g : store.tree().groups()) (void)g, ++total_versions;

      std::printf("%-7s %8zu %18.0f %14s %12.1f\n", profile.name.c_str(),
                  ratio, store.avg_version_bytes_per_group(),
                  pct(version_lat / total_lat).c_str(),
                  store.avg_version_bytes_per_group() > 0
                      ? static_cast<double>(600 / ratio) /
                            static_cast<double>(store.tree().groups().size())
                      : 0.0);
    }
    std::printf("\n");
  }

  std::printf("Paper shape: space falls as the version ratio grows "
              "(fewer, bigger versions);\nextra latency stays under ~10%% "
              "of the query latency.\n");
  return 0;
}
