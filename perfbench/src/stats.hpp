#pragma once

// Sample statistics of the benchmark: medians, and tail percentiles
// reported only when at least ten samples lie beyond them.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile.
inline constexpr std::size_t min_tail_samples = 10;

/// Linearly interpolated quantile (Hyndman & Fan type 7) of `v`, for
/// q in [0, 1]. v must be non-empty.
inline double quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    double const pos = q * static_cast<double>(v.size() - 1);
    auto const lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t const hi = std::min(lo + 1, v.size() - 1);
    double const frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
    return quantile(std::move(v), 0.5);
}

/// Samples of an n-sample set that lie beyond its q-quantile: the
/// quantile sits at rank q*(n-1), so n-1-floor(q*(n-1)) ranks follow.
inline std::size_t samples_beyond(std::size_t n, double q) {
    if (n == 0) {
        return 0;
    }
    auto const rank = static_cast<std::size_t>(
        std::floor(q * static_cast<double>(n - 1)));
    return n - 1 - rank;
}

/// The q-quantile, or nothing when fewer than min_tail_samples samples
/// lie beyond it.
inline std::optional<double> tail(std::vector<double> const& v, double q) {
    if (samples_beyond(v.size(), q) < min_tail_samples) {
        return std::nullopt;
    }
    return quantile(v, q);
}

/// Fewest samples for which tail(v, q) reports a value.
inline std::size_t min_samples_for_tail(double q) {
    std::size_t n = 1;
    while (samples_beyond(n, q) < min_tail_samples) {
        ++n;
    }
    return n;
}

}  // namespace perfbench
