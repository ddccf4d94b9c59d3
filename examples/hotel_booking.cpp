// The paper's running example (Sec. 5.3): a hotel-booking system with three
// local sites — Qingdao, Shanghai, Xiamen — each storing uncertain hotel
// records ⟨price, distance-to-beach, confidence⟩.  A customer asks for the
// probabilistic skyline over all three cities with threshold q = 0.3.
//
// The databases are built so the local skylines match Table 2a exactly (the
// hidden low-probability records explain the paper's quaternions, see
// tests/paper_example_test.cpp), and the run reproduces the Table 2 trace:
// answers (6,6) -> (8,4) -> (3,8), two queue entries expunged.
#include <cstdio>
#include <string>

#include "core/cluster.hpp"

using namespace dsud;

namespace {

const char* cityOf(SiteId site) {
  switch (site) {
    case 0:
      return "Qingdao";
    case 1:
      return "Shanghai";
    case 2:
      return "Xiamen";
  }
  return "?";
}

std::vector<Dataset> hotelSites() {
  std::vector<Dataset> sites;
  Dataset qingdao(2);
  qingdao.add(10, std::vector<double>{6.0, 6.0}, 0.7);
  qingdao.add(11, std::vector<double>{8.0, 4.0}, 0.8);
  qingdao.add(12, std::vector<double>{3.0, 8.0}, 0.8);
  qingdao.add(100, std::vector<double>{5.9, 5.9}, 1.0 / 14);
  qingdao.add(101, std::vector<double>{7.9, 3.9}, 0.25);
  qingdao.add(102, std::vector<double>{2.9, 7.9}, 0.25);
  qingdao.add(103, std::vector<double>{2.8, 7.8}, 1.0 / 6);
  sites.push_back(std::move(qingdao));

  Dataset shanghai(2);
  shanghai.add(20, std::vector<double>{6.5, 7.0}, 0.8);
  shanghai.add(21, std::vector<double>{4.0, 9.0}, 0.6);
  shanghai.add(22, std::vector<double>{9.0, 5.0}, 0.7);
  shanghai.add(110, std::vector<double>{6.4, 6.9}, 0.1875);
  shanghai.add(111, std::vector<double>{8.9, 4.9}, 1.0 / 7);
  sites.push_back(std::move(shanghai));

  Dataset xiamen(2);
  xiamen.add(30, std::vector<double>{6.4, 7.5}, 0.9);
  xiamen.add(31, std::vector<double>{3.5, 11.0}, 0.7);
  xiamen.add(32, std::vector<double>{10.0, 4.5}, 0.7);
  xiamen.add(120, std::vector<double>{6.3, 7.4}, 1.0 / 9);
  sites.push_back(std::move(xiamen));
  return sites;
}

}  // namespace

int main() {
  std::printf("Hotel booking system: 3 cities, attributes "
              "(price, distance to beach), q = 0.3\n\n");

  InProcCluster cluster(Topology::fromPartitions(hotelSites()));
  QueryConfig config;
  config.q = 0.3;
  config.expunge = ExpungePolicy::kPark;  // the paper's Sec. 5.3 schedule

  QueryOptions options;
  options.progress =
      [](const GlobalSkylineEntry& entry, const ProgressPoint&) {
        std::printf("  -> skyline hotel (%.1f, %.1f) in %s: confidence %.2f, "
                    "global skyline probability %.3f\n",
                    entry.tuple.values[0], entry.tuple.values[1],
                    cityOf(entry.site), entry.tuple.prob,
                    entry.globalSkyProb);
      };

  std::printf("running e-DSUD...\n");
  const QueryResult result =
      cluster.engine().run(Algo::kEdsud, config, options);

  std::printf("\nSKY(H) holds %zu hotels.\n", result.skyline.size());
  std::printf("message bill: %zu To-Server tuples + %zu broadcasts x "
              "(m-1 = 2) = %llu tuples total; %zu candidates expunged "
              "without broadcast\n",
              result.stats.candidatesPulled, result.stats.broadcasts,
              static_cast<unsigned long long>(result.stats.tuplesShipped),
              result.stats.expunged);
  std::printf("(compare Table 2 of the paper: answers (6,6), (8,4), (3,8); "
              "two leftovers expunged)\n");
  return 0;
}
