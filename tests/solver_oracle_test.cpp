// Differential test: the active-set MaxMinSolver against the dense oracle.
//
// The production solver visits only touched resources and freezes flows
// from per-resource lists, but it must perform every float operation that
// reaches a rate or a utilization in the dense fill's order. So the check is
// bitwise, not approximate, over random instances built to hit the edges:
// zero, sub-epsilon and unbounded capacities; zero and 1e-16 hop costs; a
// hop repeated on one resource; pathless flows; zero, unbounded and tied
// caps; and one workspace reused across instances of different sizes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "max_min_oracle.hpp"
#include "sim/resource.hpp"

namespace spider::sim {
namespace {

struct Instance {
  std::vector<double> capacity;
  std::vector<std::vector<PathHop>> paths;
  std::vector<double> caps;

  std::vector<SolverFlow> flows() const {
    std::vector<SolverFlow> out;
    for (std::size_t f = 0; f < paths.size(); ++f) out.push_back({paths[f], caps[f]});
    return out;
  }
};

/// Which edge cases the generated instances actually exercised.
struct Coverage {
  bool zero_capacity = false;
  bool sub_eps_capacity = false;
  bool near_floor_capacity = false;
  bool unbounded_capacity = false;
  bool zero_cost = false;
  bool tiny_cost = false;
  bool repeated_hop = false;
  bool pathless = false;
  bool zero_cap = false;
  bool unbounded_cap = false;
  bool tied_cap = false;
  bool untouched_resource = false;
};

Instance random_instance(Rng& rng, Coverage& seen) {
  Instance in;
  // Sometimes far more resources than flows touch, as in a full center.
  const std::size_t nr = 1 + rng.uniform_index(rng.chance(0.2) ? 200 : 12);
  for (std::size_t r = 0; r < nr; ++r) {
    const double u = rng.uniform();
    double c = rng.uniform(1.0, 1000.0);
    if (u < 0.06) {
      c = 0.0;
      seen.zero_capacity = true;
    } else if (u < 0.10) {
      c = rng.uniform(0.0, 1e-12);  // below the saturation floor
      seen.sub_eps_capacity = true;
    } else if (u < 0.13) {
      // Just above the floor: even 1e-16-cost hops can drain it.
      c = 1e-12 * rng.uniform(1.0, 1.001);
      seen.near_floor_capacity = true;
    } else if (u < 0.17) {
      c = kUnbounded;
      seen.unbounded_capacity = true;
    } else if (u < 0.32) {
      c = 100.0;  // equal capacities tie saturation steps
    }
    in.capacity.push_back(c);
  }
  const std::size_t nf = rng.uniform_index(40);
  std::vector<char> touched(nr, 0);
  for (std::size_t f = 0; f < nf; ++f) {
    std::vector<PathHop> path;
    if (rng.chance(0.08)) {
      seen.pathless = true;
    } else {
      const std::size_t hops = 1 + rng.uniform_index(5);
      for (std::size_t h = 0; h < hops; ++h) {
        PathHop hop{static_cast<ResourceId>(rng.uniform_index(nr)),
                    rng.uniform(0.5, 4.0)};
        if (!path.empty() && rng.chance(0.1)) {
          hop.resource = path[rng.uniform_index(path.size())].resource;
          seen.repeated_hop = true;
        }
        const double u = rng.uniform();
        if (u < 0.08) {
          hop.cost = 0.0;
          seen.zero_cost = true;
        } else if (u < 0.14) {
          hop.cost = 1e-16;
          seen.tiny_cost = true;
        } else if (u < 0.40) {
          hop.cost = 1.0;
        }
        touched[hop.resource] = 1;
        path.push_back(hop);
      }
    }
    const double u = rng.uniform();
    double cap = rng.uniform(1.0, 500.0);
    if (u < 0.35) {
      cap = kUnbounded;
      seen.unbounded_cap = true;
    } else if (u < 0.45) {
      cap = 0.0;
      seen.zero_cap = true;
    } else if (u < 0.65) {
      // 1e-12 sits exactly on the cap-freeze tolerance while level is 0.
      const double tied[] = {10.0, 25.0, 1e-12};
      cap = tied[rng.uniform_index(3)];
      seen.tied_cap = true;
    }
    in.paths.push_back(std::move(path));
    in.caps.push_back(cap);
  }
  for (const char t : touched) seen.untouched_resource |= !t;
  return in;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(SolverOracle, BitIdenticalToDenseFillOnRandomInstances) {
  constexpr int kInstances = 12000;
  Rng rng(2014);
  Coverage seen;
  MaxMinSolver reused;  // one workspace across every instance size
  SolveResult got;
  int mismatches = 0;
  for (int i = 0; i < kInstances; ++i) {
    const Instance in = random_instance(rng, seen);
    const std::vector<SolverFlow> flows = in.flows();
    const SolveResult want = oracle::dense_max_min(in.capacity, flows);

    reused.solve(in.capacity, flows);
    reused.export_result(in.capacity.size(), got);
    const SolveResult fresh = solve_max_min(in.capacity, flows);
    const bool ok = same_bits(got.rate, want.rate) &&
                    same_bits(got.utilization, want.utilization) &&
                    same_bits(fresh.rate, want.rate) &&
                    same_bits(fresh.utilization, want.utilization);
    if (!ok && ++mismatches <= 3) {
      ADD_FAILURE() << "instance " << i << " (" << in.capacity.size()
                    << " resources, " << flows.size()
                    << " flows) differs from the dense fill";
    }
  }
  EXPECT_EQ(mismatches, 0);

  EXPECT_TRUE(seen.zero_capacity);
  EXPECT_TRUE(seen.sub_eps_capacity);
  EXPECT_TRUE(seen.near_floor_capacity);
  EXPECT_TRUE(seen.unbounded_capacity);
  EXPECT_TRUE(seen.zero_cost);
  EXPECT_TRUE(seen.tiny_cost);
  EXPECT_TRUE(seen.repeated_hop);
  EXPECT_TRUE(seen.pathless);
  EXPECT_TRUE(seen.zero_cap);
  EXPECT_TRUE(seen.unbounded_cap);
  EXPECT_TRUE(seen.tied_cap);
  EXPECT_TRUE(seen.untouched_resource);
}

TEST(SolverOracle, TouchedSetIsExactlyTheResourcesOnSomeHop) {
  // Resource 1 is crossed only at zero cost: it is still touched (FlowNetwork
  // relies on every hop of every flow being in the set); 2 is never crossed.
  const std::vector<double> cap{50.0, 80.0, 10.0, 40.0};
  const std::vector<PathHop> a{{0, 1.0}, {1, 0.0}};
  const std::vector<PathHop> b{{3, 2.0}, {0, 1.0}};
  const std::vector<SolverFlow> flows{{a, kUnbounded}, {b, kUnbounded}, {{}, 5.0}};
  MaxMinSolver s;
  s.solve(cap, flows);
  const std::vector<ResourceId> touched(s.touched().begin(), s.touched().end());
  EXPECT_EQ(touched, (std::vector<ResourceId>{0, 1, 3}));
  EXPECT_EQ(s.utilization().size(), 3u);
  // Resource 3 (2 units per delivered unit) pins b at 20; a takes the rest
  // of resource 0.
  EXPECT_DOUBLE_EQ(s.rates()[0], 30.0);
  EXPECT_DOUBLE_EQ(s.rates()[1], 20.0);
  EXPECT_DOUBLE_EQ(s.rates()[2], 5.0);
  EXPECT_GE(s.iterations(), 1u);

  // Reuse with fewer resources: nothing of the larger instance leaks.
  const std::vector<double> small{30.0};
  const std::vector<PathHop> c{{0, 1.0}};
  const std::vector<SolverFlow> one{{c, kUnbounded}};
  s.solve(small, one);
  EXPECT_EQ(s.touched().size(), 1u);
  EXPECT_DOUBLE_EQ(s.rates()[0], 30.0);
  EXPECT_DOUBLE_EQ(s.utilization()[0], 1.0);
}

}  // namespace
}  // namespace spider::sim
