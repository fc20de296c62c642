#include "graph/generators/social_profiles.h"

#include <cmath>

#include "graph/generators/generators.h"
#include "util/macros.h"

namespace atr {
namespace {

// Base seed; each profile derives its own stream from it plus its index.
constexpr uint64_t kProfileSeed = 0x41545221ull;  // "ATR!"

uint32_t Scaled(uint32_t base, double scale, uint32_t minimum) {
  const double v = static_cast<double>(base) * scale;
  return std::max(minimum, static_cast<uint32_t>(v + 0.5));
}

}  // namespace

std::vector<DatasetSpec> SocialProfileSpecs() {
  return {
      {"college",
       "SNAP CollegeMsg stand-in: small message network; planted dense "
       "groups over an Erdos-Renyi background reproduce its low k_max and "
       "mixed-density structure"},
      {"facebook",
       "SNAP ego-Facebook stand-in: dense friendship circles; Holme-Kim with "
       "high triad closure reproduces its extreme clustering and deep truss "
       "hierarchy"},
      {"brightkite",
       "SNAP Brightkite stand-in: location check-in network; random "
       "geometric graph reproduces its spatially clustered structure"},
      {"gowalla",
       "SNAP Gowalla stand-in: larger location check-in network; random "
       "geometric graph at larger scale"},
      {"youtube",
       "SNAP com-Youtube stand-in: sparse social network with moderate "
       "clustering; Holme-Kim with low triad probability"},
      {"google",
       "SNAP web-Google stand-in: web graph; R-MAT skew reproduces its "
       "hub-dominated degree distribution"},
      {"patents",
       "SNAP cit-Patents stand-in: citation network with low clustering; "
       "preferential attachment with rare triad closure"},
      {"pokec",
       "SNAP soc-Pokec stand-in: large friendship network; Holme-Kim with "
       "moderate triad closure at the largest scale"},
  };
}

Graph MakeSocialProfile(const std::string& name, double scale,
                        uint64_t seed) {
  ATR_CHECK(scale > 0.0 && scale <= 4.0);
  const uint64_t s = seed ^ kProfileSeed;
  if (name == "college") {
    const uint32_t n = Scaled(1900, scale, 200);
    return PlantedCommunitiesGraph(n, /*num_communities=*/n / 30,
                                   /*community_size=*/12, /*p_in=*/0.85,
                                   /*background_edges=*/Scaled(8500, scale, 500),
                                   s + 1);
  }
  if (name == "facebook") {
    return HolmeKimGraph(Scaled(4000, scale, 300), /*edges_per_vertex=*/22,
                         /*triad_probability=*/0.92, s + 2);
  }
  if (name == "brightkite") {
    const uint32_t n = Scaled(20000, scale, 1000);
    const double radius = std::sqrt(2.0 * 4.0 * n / 3.14159265 /
                                    (static_cast<double>(n) * n));
    return RandomGeometricGraph(n, radius, s + 3);
  }
  if (name == "gowalla") {
    const uint32_t n = Scaled(40000, scale, 2000);
    const double radius = std::sqrt(2.0 * 3.6 * n / 3.14159265 /
                                    (static_cast<double>(n) * n));
    return RandomGeometricGraph(n, radius, s + 4);
  }
  if (name == "youtube") {
    return HolmeKimGraph(Scaled(80000, scale, 4000), /*edges_per_vertex=*/3,
                         /*triad_probability=*/0.35, s + 5);
  }
  if (name == "google") {
    const uint32_t n = Scaled(65536, scale, 4096);
    uint32_t bits = 12;
    while ((1u << bits) < n) ++bits;
    return RMatGraph(bits, Scaled(260000, scale, 16000), 0.57, 0.19, 0.19,
                     s + 6);
  }
  if (name == "patents") {
    return HolmeKimGraph(Scaled(100000, scale, 5000), /*edges_per_vertex=*/4,
                         /*triad_probability=*/0.15, s + 7);
  }
  if (name == "pokec") {
    return HolmeKimGraph(Scaled(110000, scale, 5000), /*edges_per_vertex=*/5,
                         /*triad_probability=*/0.55, s + 8);
  }
  ATR_CHECK_MSG(false, ("unknown dataset profile: " + name).c_str());
  return Graph();
}

}  // namespace atr
