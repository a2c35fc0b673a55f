#pragma once

// Seeded input generator: a windowed renumbering of a generated Airfoil
// mesh, and the job stream (shapes, tenants, arrival jitter) of the
// service workload. Everything here is a pure function of the seed, so
// the same seed always yields the same inputs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <airfoil/mesh.hpp>

namespace perfbench {

/// splitmix64: small, seedable, and identical on every platform (the
/// standard distributions are not).
class rng {
public:
    explicit rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Uniform in [0, n).
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>(next() % n);
    }

    /// Uniform in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
    std::uint64_t s_;
};

/// A permutation of [0, n) that shuffles indices only inside
/// consecutive windows of `window` entries: new_id[old] stays within
/// the old index's window, so locality is perturbed, not destroyed.
inline std::vector<int> windowed_permutation(std::size_t n,
                                             std::size_t window, rng& r) {
    std::vector<int> perm(n);
    for (std::size_t i = 0; i < n; ++i) {
        perm[i] = static_cast<int>(i);
    }
    for (std::size_t lo = 0; lo < n; lo += window) {
        std::size_t const hi = std::min(n, lo + window);
        for (std::size_t i = hi - 1; i > lo; --i) {  // Fisher-Yates
            std::swap(perm[i], perm[lo + r.below(i - lo + 1)]);
        }
    }
    return perm;
}

namespace detail {

/// Move row `old` of a `dim`-wide table to row perm[old].
template <typename T>
std::vector<T> permute_rows(std::vector<T> const& v, std::size_t dim,
                            std::vector<int> const& perm) {
    std::vector<T> out(v.size());
    for (std::size_t old = 0; old < perm.size(); ++old) {
        std::copy_n(v.begin() + static_cast<std::ptrdiff_t>(old * dim), dim,
                    out.begin() +
                        static_cast<std::ptrdiff_t>(
                            static_cast<std::size_t>(perm[old]) * dim));
    }
    return out;
}

inline void relabel(std::vector<int>& ids, std::vector<int> const& perm) {
    for (int& id : ids) {
        id = perm[static_cast<std::size_t>(id)];
    }
}

}  // namespace detail

/// Renumber the cells, interior edges and nodes of `m` with seeded
/// windowed permutations. Connectivity rows keep their contents (only
/// the labels change), so the edge orientation invariant holds; the
/// result is validated with airfoil::check_mesh and a violation throws.
inline void renumber(airfoil::mesh& m, std::uint64_t seed,
                     std::size_t window) {
    rng r(seed);
    auto const cells = windowed_permutation(m.ncell, window, r);
    auto const edges = windowed_permutation(m.nedge, window, r);
    auto const nodes = windowed_permutation(m.nnode, window, r);

    m.x = detail::permute_rows(m.x, 2, nodes);
    m.q_init = detail::permute_rows(m.q_init, 4, cells);
    m.pcell = detail::permute_rows(m.pcell, 4, cells);
    m.pedge = detail::permute_rows(m.pedge, 2, edges);
    m.pecell = detail::permute_rows(m.pecell, 2, edges);

    detail::relabel(m.pcell, nodes);
    detail::relabel(m.pedge, nodes);
    detail::relabel(m.pbedge, nodes);
    detail::relabel(m.pecell, cells);
    detail::relabel(m.pbecell, cells);

    if (auto err = airfoil::check_mesh(m); !err.empty()) {
        throw std::logic_error("renumbered mesh fails check_mesh: " + err);
    }
}

/// One arrival of the open-loop service stream.
struct arrival {
    double due_s = 0.0;    ///< offset from the stream start
    std::size_t shape = 0;  ///< index into the job mesh shapes
    std::size_t tenant = 0;
};

/// `n` arrivals at `rate` per second: arrival k is due at
/// (k + j_k) / rate with j_k uniform in [-jitter, +jitter) (jitter
/// < 0.5 keeps the schedule monotone); shapes and tenants are drawn
/// uniformly from [0, nshapes) and [0, ntenants).
inline std::vector<arrival> make_arrivals(std::size_t n, double rate,
                                          double jitter,
                                          std::size_t nshapes,
                                          std::size_t ntenants,
                                          std::uint64_t seed) {
    rng r(seed ^ 0x5eed5eed5eed5eedULL);
    std::vector<arrival> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        double const j = (2.0 * r.unit() - 1.0) * jitter;
        out[k].due_s = std::max(0.0, (static_cast<double>(k) + j) / rate);
        out[k].shape = r.below(nshapes);
        out[k].tenant = r.below(ntenants);
    }
    return out;
}

}  // namespace perfbench
