#pragma once

// Outside-in span recorder for the traced run: spans around the
// benchmark's own calls into each layer (issue, wait, plan_build,
// segment, job), kept in memory, written at exit as Chrome trace-event
// JSON, and reduced to per-name self times.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One recorded interval. `parent` indexes the enclosing span in the
/// recorder (-1 for a root); every span of one segment or job carries
/// that segment's or job's `id`.
struct span {
    std::string name;
    std::uint64_t id = 0;
    int parent = -1;
    double t0_us = 0.0;
    double t1_us = 0.0;
    std::uint32_t tid = 0;
};

class recorder {
public:
    using clock = std::chrono::steady_clock;

    explicit recorder(std::size_t capacity) : cap_(capacity) {
        spans_.reserve(capacity);
    }

    /// Microseconds since the recorder was created.
    [[nodiscard]] double now_us() const {
        return std::chrono::duration<double, std::micro>(clock::now() -
                                                         origin_)
            .count();
    }

    /// True once `share` of `capacity` spans were recorded; callers
    /// stop tracing then.
    [[nodiscard]] bool full(double share = 1.0) const {
        std::lock_guard lk(mu_);
        return static_cast<double>(spans_.size()) >=
               share * static_cast<double>(cap_);
    }

    /// Open a span starting now; returns its index.
    int open(std::string name, std::uint64_t id, int parent) {
        return add(std::move(name), id, parent, now_us(), -1.0);
    }

    /// Close span `idx` now.
    void close(int idx) { close_at(idx, now_us()); }

    void close_at(int idx, double t1_us) {
        std::lock_guard lk(mu_);
        spans_[static_cast<std::size_t>(idx)].t1_us = t1_us;
    }

    /// Record a span with known bounds; returns its index.
    int add(std::string name, std::uint64_t id, int parent, double t0_us,
            double t1_us) {
        static thread_local std::uint32_t const tid = next_tid();
        std::lock_guard lk(mu_);
        spans_.push_back({std::move(name), id, parent, t0_us, t1_us, tid});
        return static_cast<int>(spans_.size() - 1);
    }

    /// Snapshot of every span recorded so far.
    [[nodiscard]] std::vector<span> spans() const {
        std::lock_guard lk(mu_);
        return spans_;
    }

private:
    static std::uint32_t next_tid() {
        static std::atomic<std::uint32_t> n{0};
        return ++n;
    }

    clock::time_point const origin_ = clock::now();
    std::size_t const cap_;
    mutable std::mutex mu_;
    std::vector<span> spans_;
};

/// Self time of every span: its duration minus the part of its
/// interval covered by the union of its children (clipped to it).
inline std::vector<double> self_times(std::vector<span> const& s) {
    std::vector<std::vector<std::pair<double, double>>> kids(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i].parent >= 0) {
            kids[static_cast<std::size_t>(s[i].parent)].emplace_back(
                s[i].t0_us, s[i].t1_us);
        }
    }
    std::vector<double> out(s.size(), 0.0);
    for (std::size_t i = 0; i < s.size(); ++i) {
        double const a = s[i].t0_us;
        double const b = s[i].t1_us;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double cur_lo = 0.0;
        double cur_hi = -1.0;
        bool open_run = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, a);
            hi = std::min(hi, b);
            if (hi <= lo) {
                continue;
            }
            if (open_run && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open_run) {
                covered += cur_hi - cur_lo;
            }
            cur_lo = lo;
            cur_hi = hi;
            open_run = true;
        }
        if (open_run) {
            covered += cur_hi - cur_lo;
        }
        out[i] = (b - a) - covered;
    }
    return out;
}

/// Total self time per span name (the layer breakdown), microseconds.
inline std::map<std::string, double> self_time_by_name(
    std::vector<span> const& s) {
    auto const self = self_times(s);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        out[s[i].name] += self[i];
    }
    return out;
}

/// Write `s` as a Chrome trace-event JSON file (complete "X" events,
/// loadable by chrome://tracing and Perfetto). Returns false on an I/O
/// error.
inline bool write_chrome_trace(std::vector<span> const& s,
                               std::string const& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < s.size(); ++i) {
        std::string name;
        for (char c : s[i].name) {
            if (c == '"' || c == '\\') {
                name.push_back('\\');
            }
            name.push_back(c);
        }
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%d,\"span\":%zu}}\n",
                     i == 0 ? "" : ",", name.c_str(), s[i].tid, s[i].t0_us,
                     std::max(0.0, s[i].t1_us - s[i].t0_us),
                     static_cast<unsigned long long>(s[i].id), s[i].parent,
                     i);
    }
    std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
    return std::fclose(f) == 0;
}

}  // namespace perfbench
