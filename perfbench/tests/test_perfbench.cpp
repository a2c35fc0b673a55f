// Unit tests of the benchmark's own code: the seeded generator, the
// percentile rule and the span self-time reducer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "gen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pb = perfbench;

namespace {

airfoil::mesh renumbered(std::uint64_t seed) {
    airfoil::mesh m = airfoil::make_mesh({40, 20});
    pb::renumber(m, seed, 16);
    return m;
}

}  // namespace

TEST(Renumber, KeepsCheckMeshCleanAndIsDeterministicPerSeed) {
    for (std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
        auto a = renumbered(seed);
        auto b = renumbered(seed);
        EXPECT_EQ(airfoil::check_mesh(a), "");
        EXPECT_EQ(a.x, b.x);
        EXPECT_EQ(a.pcell, b.pcell);
        EXPECT_EQ(a.pedge, b.pedge);
        EXPECT_EQ(a.pecell, b.pecell);
        EXPECT_EQ(a.pbedge, b.pbedge);
        EXPECT_EQ(a.pbecell, b.pbecell);
        EXPECT_EQ(a.q_init, b.q_init);
    }
    auto a = renumbered(1);
    auto c = renumbered(2);
    auto plain = airfoil::make_mesh({40, 20});
    EXPECT_NE(a.pecell, c.pecell);
    EXPECT_NE(a.pecell, plain.pecell);
}

TEST(Renumber, PermutationStaysInsideItsWindow) {
    pb::rng r(5);
    auto const perm = pb::windowed_permutation(100, 16, r);
    std::vector<int> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < perm.size(); ++i) {
        EXPECT_EQ(sorted[i], static_cast<int>(i));
        EXPECT_EQ(static_cast<std::size_t>(perm[i]) / 16, i / 16);
    }
}

TEST(Arrivals, SeededMonotoneAndInRange) {
    auto a = pb::make_arrivals(500, 100.0, 0.4, 3, 3, 9);
    auto b = pb::make_arrivals(500, 100.0, 0.4, 3, 3, 9);
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].due_s, b[k].due_s);
        EXPECT_EQ(a[k].shape, b[k].shape);
        EXPECT_LT(a[k].shape, 3u);
        EXPECT_LT(a[k].tenant, 3u);
        if (k > 0) {
            EXPECT_GT(a[k].due_s, a[k - 1].due_s);
        }
    }
}

TEST(Percentile, ReportsOnlyWithTenSamplesBeyond) {
    for (double q : {0.9, 0.95}) {
        for (std::size_t n = 1; n <= 400; ++n) {
            std::vector<double> v(n);
            for (std::size_t i = 0; i < n; ++i) {
                v[i] = static_cast<double>(n - i);  // distinct, unsorted
            }
            double const value = pb::quantile(v, q);
            auto const beyond = static_cast<std::size_t>(std::count_if(
                v.begin(), v.end(), [&](double x) { return x > value; }));
            auto const t = pb::tail(v, q);
            EXPECT_EQ(t.has_value(), beyond >= pb::min_tail_samples)
                << "q=" << q << " n=" << n;
            if (t) {
                EXPECT_EQ(*t, value);
            }
            EXPECT_EQ(n >= pb::min_samples_for_tail(q),
                      beyond >= pb::min_tail_samples);
        }
    }
    EXPECT_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(pb::median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(SelfTime, HandBuiltTreeReducesToExpectedSelfTimes) {
    // segment [0,100] > issue [0,10], issue [10,20], fence [20,100];
    // fence > wait [20,50], wait [40,90] (overlapping: union [20,90]).
    std::vector<pb::span> s = {
        {"segment", 1, -1, 0, 100, 1},   {"issue:a", 1, 0, 0, 10, 1},
        {"issue:b", 1, 0, 10, 20, 1},    {"fence", 1, 0, 20, 100, 1},
        {"wait:a", 1, 3, 20, 50, 1},     {"wait:b", 1, 3, 40, 90, 1},
        {"job", 2, -1, 200, 260, 2},     {"segment", 2, 6, 190, 240, 2},
    };
    auto const self = pb::self_times(s);
    EXPECT_DOUBLE_EQ(self[0], 0.0);
    EXPECT_DOUBLE_EQ(self[1], 10.0);
    EXPECT_DOUBLE_EQ(self[2], 10.0);
    EXPECT_DOUBLE_EQ(self[3], 10.0);  // 80 - union(30, 50 overlapping)
    EXPECT_DOUBLE_EQ(self[4], 30.0);
    EXPECT_DOUBLE_EQ(self[5], 50.0);
    EXPECT_DOUBLE_EQ(self[6], 20.0);  // child clipped to [200, 240]
    EXPECT_DOUBLE_EQ(self[7], 50.0);

    auto const by_name = pb::self_time_by_name(s);
    EXPECT_DOUBLE_EQ(by_name.at("segment"), 50.0);
    EXPECT_DOUBLE_EQ(by_name.at("fence"), 10.0);
    EXPECT_DOUBLE_EQ(by_name.at("job"), 20.0);
}
