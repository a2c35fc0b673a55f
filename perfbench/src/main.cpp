// perfbench_airfoil: the end-to-end Airfoil benchmark.
//
//   perfbench_airfoil --workload NAME --seed N --seconds S --trace 0|1
//                     [--trace-out FILE]
//
// Drives the public entry points (airfoil::make_mesh / make_problem /
// run, exec::run_loop, plan_build / plan_get, op2::service::scheduler,
// hpxlite::thread_pool) from one process with the library defaults, and
// prints one line per metric followed by a JSON result line. --trace 0
// reports the end-to-end metrics; --trace 1 is the separate traced run
// that times each layer from outside and writes a Chrome trace.
// See README.md for the workloads and metric definitions.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <airfoil/app.hpp>
#include <hpxlite/runtime.hpp>
#include <op2/comm.hpp>
#include <op2/fault.hpp>
#include <op2/op2.hpp>
#include <op2/service.hpp>

#include "chain.hpp"
#include "gen.hpp"
#include "stats.hpp"
#include "trace.hpp"

extern char** environ;

namespace {

namespace pb = perfbench;
using pool_t = hpxlite::threads::thread_pool;

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------- report

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t n = 0;  // samples behind the value (0 = computed)
};

class report {
public:
    void add(std::string name, double value, std::string unit,
             std::size_t n) {
        rows_.push_back({std::move(name), value, std::move(unit), n});
    }

    void median(std::string const& name, std::vector<double> const& v,
                std::string const& unit) {
        if (v.empty()) {
            throw std::runtime_error(name + ": no samples");
        }
        add(name, pb::median(v), unit, v.size());
    }

    /// Tail percentile of `v`; throws when fewer than ten samples lie
    /// beyond it (the measurement loops collect enough for it).
    void tail(std::string const& name, std::vector<double> const& v,
              double q, std::string const& unit) {
        auto t = pb::tail(v, q);
        if (!t) {
            throw std::runtime_error(name + ": only " +
                                     std::to_string(v.size()) +
                                     " samples, too few for the tail");
        }
        add(name, *t, unit, v.size());
    }

    /// One line per row: name, value, unit and sample count.
    void print_table(char const* tag) const {
        for (auto const& r : rows_) {
            if (r.n > 0) {
                std::printf("%s %-36s %14.6g %-6s n=%zu\n", tag,
                            r.name.c_str(), r.value, r.unit.c_str(), r.n);
            } else {
                std::printf("%s %-36s %14.6g %-6s (computed)\n", tag,
                            r.name.c_str(), r.value, r.unit.c_str());
            }
        }
    }

    [[nodiscard]] std::vector<metric> const& rows() const { return rows_; }

private:
    std::vector<metric> rows_;
};

/// The result line: correct, attempted, failed and every metric.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  std::vector<metric> const& rows) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    char const* sep = "";
    for (auto const& m : rows) {
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), m.value, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

// ------------------------------------------------------------ run guard

/// The first OP2HPX_* or HPXLITE_NUM_THREADS variable in the
/// environment, or "" when the library runs with its defaults.
std::string knob_override() {
    for (char** e = environ; *e != nullptr; ++e) {
        std::string const kv = *e;
        if (kv.rfind("OP2HPX_", 0) == 0 ||
            kv.rfind("HPXLITE_NUM_THREADS=", 0) == 0) {
            return kv;
        }
    }
    return {};
}

// ------------------------------------------------------------- counters

struct usage {
    double cpu_s = 0.0;
    double ctx_switches = 0.0;

    static usage now() {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        auto tv = [](timeval t) {
            return static_cast<double>(t.tv_sec) +
                   static_cast<double>(t.tv_usec) * 1e-6;
        };
        return {tv(ru.ru_utime) + tv(ru.ru_stime),
                static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
    }
};

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// CPU time, context switches, pool tasks, wall time and steps summed
/// over hpx_dataflow solves (hpxlite.* rows).
struct pool_counters {
    double cpu_s = 0.0;
    double ctx = 0.0;
    double tasks = 0.0;
    double wall_s = 0.0;
    double steps = 0.0;
    std::size_t n = 0;

    template <typename F>
    void measure(pool_t& pool, double steps_in, F&& body) {
        auto const u0 = usage::now();
        auto const k0 = pool.tasks_executed();
        double const t0 = now_s();
        body();
        wall_s += now_s() - t0;
        auto const u1 = usage::now();
        cpu_s += u1.cpu_s - u0.cpu_s;
        ctx += u1.ctx_switches - u0.ctx_switches;
        tasks += static_cast<double>(pool.tasks_executed() - k0);
        steps += steps_in;
        ++n;
    }

    void emit(report& r, std::size_t workers) const {
        r.add("hpxlite.cpu_util",
              cpu_s / (wall_s * static_cast<double>(workers)), "1", n);
        r.add("hpxlite.ctx_switches_per_step", ctx / steps, "count", n);
        r.add("hpxlite.tasks_per_step", tasks / steps, "count", n);
    }
};

// --------------------------------------------------------------- oracle

/// Correctness oracle for one mesh and iteration count. The `seq`
/// backend's final q is the reference. The first result of every other
/// configuration must agree with it to 1e-12 relative (the coloured
/// backends add OP_INC contributions in plan order rather than element
/// order, so a few values differ in the last bits); every later result
/// of that configuration must be bitwise-equal to its first one.
class oracle {
public:
    explicit oracle(std::vector<double> seq) : seq_(std::move(seq)) {}

    bool check(std::string const& config, std::vector<double> const& q) {
        auto it = first_.find(config);
        if (it != first_.end()) {
            return q.size() == it->second.size() &&
                   std::memcmp(q.data(), it->second.data(),
                               q.size() * sizeof(double)) == 0;
        }
        if (q.size() != seq_.size()) {
            return false;
        }
        std::size_t differ = 0;
        for (std::size_t i = 0; i < q.size(); ++i) {
            if (!(std::fabs(q[i] - seq_[i]) <=
                  1e-12 * (1.0 + std::fabs(seq_[i])))) {
                return false;
            }
            differ += q[i] != seq_[i] ? 1 : 0;
        }
        std::printf("oracle %-18s within 1e-12 of seq, %zu of %zu values "
                    "not bitwise-equal\n",
                    config.c_str(), differ, q.size());
        first_.emplace(config, q);
        return true;
    }

private:
    std::vector<double> seq_;
    std::map<std::string, std::vector<double>> first_;
};

// ---------------------------------------------------------------- solves

/// A timed configuration of the solver.
struct config {
    char const* name;
    op2::backend be;
    /// Run on a 1-worker pool created for this solve, else on the
    /// default pool. A fresh pool per solve lets the OS place its thread
    /// anew each time: with one long-lived pool the step time switches
    /// between two levels about 40% apart every few seconds, and a
    /// run's median depends on which level dominated.
    bool one_worker;
};

/// Restore the initial state so every solve starts from the same bits:
/// q from the mesh, res zeroed (qold and adt are written before read).
void reset_state(airfoil::problem& p, airfoil::mesh const& m) {
    auto q = p.p_q.view<double>();
    std::copy(m.q_init.begin(), m.q_init.end(), q.begin());
    auto res = p.p_res.view<double>();
    std::fill(res.begin(), res.end(), 0.0);
}

airfoil::app_config make_cfg(config const& c, int niter,
                             pool_t* pool = nullptr) {
    airfoil::app_config cfg;
    cfg.niter = niter;
    cfg.rms_stride = niter;
    cfg.be = c.be;
    cfg.opts.pool = pool;
    return cfg;
}

std::vector<double> seq_reference(airfoil::problem& p,
                                  airfoil::mesh const& m, int niter) {
    reset_state(p, m);
    return airfoil::run(p, make_cfg({"seq", op2::backend::seq, false},
                                    niter))
        .q_final;
}

/// Bytes one outer iteration moves under a compulsory-traffic model:
/// every dat and map a loop touches is streamed once per loop (READ and
/// WRITE move it once, RW and INC twice). Computed from the set sizes,
/// not measured.
double step_bytes(airfoil::mesh const& m) {
    double const nc = static_cast<double>(m.ncell);
    double const ne = static_cast<double>(m.nedge);
    double const nb = static_cast<double>(m.nbedge);
    double const nn = static_cast<double>(m.nnode);
    double const x = nn * 16, q = nc * 32, adt = nc * 8, res = nc * 32;
    double const save_soln = q + q;
    double const adt_calc = nc * 16 + x + q + adt;
    double const res_calc = ne * 16 + x + q + adt + 2 * res;
    double const bres_calc = nb * 16 + x + q + adt + 2 * res;
    double const update = q + q + 2 * res + adt;
    return save_soln + 2 * (adt_calc + res_calc + bres_calc + update);
}

// ---------------------------------------------------------- layer probes

/// op2.plan.*: plan_build of every loop at `nparts` partitions (all of
/// them), its largest colour count, and a warm plan_get.
void plan_probes(airfoil::problem& p, std::size_t nparts, report& r,
                 pb::recorder& rec) {
    double rms = 0.0;
    auto loops = pb::chain_args(p, &rms);
    std::vector<double> get_ns;
    for (auto& l : loops) {
        std::vector<double> build_ms;
        std::size_t colors = 0;
        for (int rep = 0; rep < 3; ++rep) {
            int const s = rec.open("plan_build:" + l.name, 0, -1);
            double const t0 = now_s();
            for (std::size_t part = 0; part < nparts; ++part) {
                auto plan = op2::plan_build(
                    l.set, l.args, op2::plan_desc{0, true, nparts, part});
                colors = std::max(colors, plan.ncolors);
            }
            build_ms.push_back((now_s() - t0) * 1e3);
            rec.close(s);
        }
        r.median("op2.plan.build_ms." + l.name, build_ms, "ms");
        r.add("op2.plan.colors." + l.name, static_cast<double>(colors),
              "count", 0);

        op2::plan_desc const desc{0, true, nparts, 0};
        constexpr int calls = 20000;
        op2::plan_get(l.set, l.args, desc);  // warm
        for (int rep = 0; rep < 5; ++rep) {
            double const t0 = now_s();
            for (int i = 0; i < calls; ++i) {
                op2::plan_get(l.set, l.args, desc);
            }
            get_ns.push_back((now_s() - t0) * 1e9 / calls);
        }
    }
    r.median("op2.plan.get_ns", get_ns, "ns");
}

/// op2.memory.stream_gbps: a triad a = b + 3c split over the pool's
/// workers (one contiguous chunk each), arrays of at least 4x the
/// summed L2 each.
void stream_probe(pool_t& pool, report& r) {
    long const l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    std::size_t const l2sum =
        static_cast<std::size_t>(l2 > 0 ? l2 : (1L << 20)) * pool.size();
    std::size_t const n =
        std::max<std::size_t>(4 * l2sum, std::size_t{32} << 20) /
        sizeof(double);
    std::unique_ptr<double[]> a(new double[n]);
    std::unique_ptr<double[]> b(new double[n]);
    std::unique_ptr<double[]> c(new double[n]);
    std::size_t const w = pool.size();
    auto sweep = [&](auto&& body) {
        std::latch done(static_cast<std::ptrdiff_t>(w));
        for (std::size_t t = 0; t < w; ++t) {
            pool.submit_to(t, [&, t] {
                body(n * t / w, n * (t + 1) / w);
                done.count_down();
            });
        }
        done.wait();
    };
    sweep([&](std::size_t lo, std::size_t hi) {  // first touch
        for (std::size_t i = lo; i < hi; ++i) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
    });
    std::vector<double> gbps;
    for (int rep = 0; rep < 10; ++rep) {
        double const t0 = now_s();
        sweep([&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                a[i] = b[i] + 3.0 * c[i];
            }
        });
        gbps.push_back(3.0 * sizeof(double) * static_cast<double>(n) /
                       (now_s() - t0) / 1e9);
    }
    if (a[n / 2] != 7.0) {
        throw std::logic_error("stream triad computed a wrong value");
    }
    r.median("op2.memory.stream_gbps", gbps, "GB/s");
}

/// Per-loop samples of the traced chain (op2.exec.* rows).
struct traced_samples {
    std::map<std::string, std::vector<double>> issue_us, gap_us, staged_us;
    std::vector<double> fence_ms;
};

/// One solve of `niter` steps issued through the benchmark's own chain,
/// with spans: a segment span; per run_loop call an issue span
/// (hpx_dataflow) or a staged span (synchronous); then a fence span
/// holding one wait span per handle, in issue order, and op_fence_all.
/// Returns the wall time per step in ms.
double traced_solve(airfoil::problem& p, config const& c, int niter,
                    pb::recorder& rec, std::uint64_t id, int parent,
                    traced_samples& ts) {
    op2::loop_options lo;
    lo.backend = op2::to_exec_backend(c.be);
    bool const async = c.be == op2::backend::hpx;
    std::vector<double> rms(static_cast<std::size_t>(niter), 0.0);
    std::vector<std::pair<char const*, op2::exec::loop_handle>> handles;
    auto now = [&] { return rec.now_us(); };
    int const seg = rec.open(std::string("segment:") + c.name, id, parent);
    double const t_seg = now();
    for (int it = 0; it < niter; ++it) {
        pb::issue_step(
            p, lo, &rms[static_cast<std::size_t>(it)], now,
            [&](char const* name, op2::exec::loop_handle h, double t0,
                double t1) {
                if (async) {
                    rec.add(std::string("issue:") + name, id, seg, t0, t1);
                    ts.issue_us[name].push_back(t1 - t0);
                    handles.emplace_back(name, std::move(h));
                } else {
                    rec.add(std::string("staged:") + name, id, seg, t0, t1);
                    ts.staged_us[name].push_back(t1 - t0);
                }
            });
    }
    if (async) {
        int const fence = rec.open("fence", id, seg);
        double const t_fence = now();
        double prev = t_fence;
        for (auto& [name, h] : handles) {
            h.get();
            double const t = now();
            rec.add(std::string("wait:") + name, id, fence, prev, t);
            ts.gap_us[name].push_back(t - prev);
            prev = t;
        }
        op2::op_fence_all();
        rec.close(fence);
        ts.fence_ms.push_back((now() - t_fence) * 1e-3);
    }
    rec.close(seg);
    return (now() - t_seg) * 1e-3 / niter;
}

void emit_traced(report& r, traced_samples const& ts) {
    std::pair<char const*, std::map<std::string, std::vector<double>> const*>
        const families[] = {{"issue_us", &ts.issue_us},
                            {"retire_gap_us", &ts.gap_us},
                            {"staged_us", &ts.staged_us}};
    for (auto const& [family, samples] : families) {
        for (char const* l : pb::loop_names) {
            auto it = samples->find(l);
            r.median(std::string("op2.exec.") + family + "." + l,
                     it == samples->end() ? std::vector<double>{}
                                          : it->second,
                     "us");
        }
    }
    r.median("op2.exec.fence_ms", ts.fence_ms, "ms");
}

/// Per-layer self times of the recorded spans (prefix before ':').
void print_self_times(std::vector<pb::span> const& spans) {
    std::map<std::string, double> layer;
    for (auto const& [name, us] : pb::self_time_by_name(spans)) {
        layer[name.substr(0, name.find(':'))] += us;
    }
    for (auto const& [name, us] : layer) {
        std::printf("self_time %-14s %12.3f ms\n", name.c_str(), us * 1e-3);
    }
    std::printf("trace: %zu spans\n", spans.size());
}

void finish_trace(pb::recorder const& rec, std::string const& path) {
    auto const spans = rec.spans();
    print_self_times(spans);
    if (!path.empty() && !pb::write_chrome_trace(spans, path)) {
        throw std::runtime_error("cannot write " + path);
    }
}

// ------------------------------------------------------------ workloads

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

struct outcome {
    report r;
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

/// Run `body` until `seconds` have passed and `enough()` holds; throws
/// when the samples are still short at the hard deadline.
template <typename Body, typename Enough>
void timed_window(double seconds, Body&& body, Enough&& enough) {
    double const start = now_s();
    double const deadline = start + std::max(2.5 * seconds, 30.0);
    while (now_s() - start < seconds || !enough()) {
        if (now_s() > deadline) {
            throw std::runtime_error("too few samples before the deadline");
        }
        body();
    }
}

/// Time `c` solving `niter` steps from the initial state and check the
/// result; nullopt (counted as failed) on a mismatch or a throw.
std::optional<double> checked_solve(airfoil::problem& p,
                                    airfoil::mesh const& m, config const& c,
                                    int niter, oracle& check,
                                    std::string const& label,
                                    outcome& out) {
    reset_state(p, m);
    ++out.attempted;
    try {
        std::optional<pool_t> one;
        if (c.one_worker) {
            one.emplace(1);
        }
        auto res = airfoil::run(p, make_cfg(c, niter, one ? &*one : nullptr));
        if (check.check(label, res.q_final)) {
            return res.elapsed_s;
        }
        std::printf("FAIL %s: final q differs from the oracle\n",
                    label.c_str());
    } catch (std::exception const& e) {
        std::printf("FAIL %s: %s\n", label.c_str(), e.what());
    }
    ++out.failed;
    return std::nullopt;
}

/// The traced counterpart of checked_solve; returns ms per step.
std::optional<double> checked_traced_solve(
    airfoil::problem& p, airfoil::mesh const& m, config const& c, int niter,
    oracle& check, std::string const& label, pb::recorder& rec,
    std::uint64_t id, traced_samples& ts, outcome& out) {
    reset_state(p, m);
    ++out.attempted;
    try {
        double const step = traced_solve(p, c, niter, rec, id, -1, ts);
        auto q = p.p_q.view<double>();
        if (check.check(label, {q.begin(), q.end()})) {
            return step;
        }
        std::printf("FAIL traced %s: final q differs from the oracle\n",
                    label.c_str());
    } catch (std::exception const& e) {
        std::printf("FAIL traced %s: %s\n", label.c_str(), e.what());
    }
    ++out.failed;
    return std::nullopt;
}

/// Shape of an airfoil_* workload: the mesh, the steps per segment of
/// each configuration, and how often set-up is repeated.
struct airfoil_workload {
    std::size_t nx, ny;
    int steps;     ///< per hpx_dataflow segment (nproc workers)
    int steps_1w;  ///< per hpx_dataflow segment on the 1-worker pool
    int steps_fj;  ///< per staged fork-join segment
    int setup_reps;
};

/// airfoil_paper / airfoil_small: one renumbered mesh, solved in
/// segments on hpx_dataflow at nproc workers, hpx_dataflow at 1 worker
/// and staged fork-join at nproc workers.
void run_airfoil(options const& o, airfoil_workload const& w,
                 outcome& out) {
    std::size_t const nx = w.nx;
    std::size_t const ny = w.ny;
    pool_t& pool = hpxlite::get_pool();
    config const hpx{"hpx_dataflow", op2::backend::hpx, false};
    config const hpx1{"hpx_dataflow_1w", op2::backend::hpx, true};
    config const staged{"staged", op2::backend::fork_join, false};

    // Set-up: make_mesh + make_problem + the first (cold-plan) step,
    // several times; the generator's renumbering is not timed.
    std::vector<double> setup_s, mesh_ms, problem_ms;
    std::unique_ptr<airfoil::mesh> m;
    std::unique_ptr<airfoil::problem> p;
    for (int rep = 0; rep < w.setup_reps; ++rep) {
        p.reset();
        m.reset();
        op2::plan_cache_clear();
        airfoil::mesh_params mp;
        mp.nx = nx;
        mp.ny = ny;
        double const t0 = now_s();
        m = std::make_unique<airfoil::mesh>(airfoil::make_mesh(mp));
        double const t1 = now_s();
        pb::renumber(*m, o.seed, 16);
        double const t2 = now_s();
        p = std::make_unique<airfoil::problem>(airfoil::make_problem(*m));
        double const t3 = now_s();
        airfoil::run(*p, make_cfg(hpx, 1));
        double const t4 = now_s();
        setup_s.push_back((t1 - t0) + (t4 - t2));
        mesh_ms.push_back((t1 - t0) * 1e3);
        problem_ms.push_back((t3 - t2) * 1e3);
    }
    std::printf("mesh %zux%zu: %zu cells, %zu edges, %zu nodes; %d/%d/%d "
                "step(s) per hpx_dataflow/1-worker/staged segment\n",
                nx, ny, m->ncell, m->nedge, m->nnode, w.steps, w.steps_1w,
                w.steps_fj);

    auto steps_of = [&](config const& c) {
        return &c == &hpx ? w.steps : &c == &hpx1 ? w.steps_1w : w.steps_fj;
    };
    std::map<int, oracle> checks;  // by step count
    for (int n : {w.steps, w.steps_1w, w.steps_fj}) {
        if (!checks.contains(n)) {
            checks.emplace(n, oracle(seq_reference(*p, *m, n)));
        }
    }
    auto check_of = [&](config const& c) -> oracle& {
        return checks.at(steps_of(c));
    };
    // Milliseconds per step of one checked segment of `c`.
    auto solve = [&](config const& c) -> std::optional<double> {
        int const n = steps_of(c);
        if (auto t = checked_solve(*p, *m, c, n, check_of(c),
                                   c.name, out)) {
            return *t * 1e3 / n;
        }
        return std::nullopt;
    };
    for (auto const* c : {&hpx, &hpx1, &staged}) {  // warm plans + oracle
        solve(*c);
    }

    report& r = out.r;
    if (!o.trace) {
        std::vector<double> step_hpx, step_1w, step_fj;
        std::size_t const need = pb::min_samples_for_tail(0.9);
        config const* const rotation[] = {&hpx, &hpx, &hpx1, &hpx, &hpx,
                                          &hpx, &staged, &hpx, &hpx};
        std::size_t slot = 0;
        timed_window(
            o.seconds,
            [&] {
                config const& c = *rotation[slot++ % std::size(rotation)];
                if (auto t = solve(c)) {
                    (&c == &hpx ? step_hpx : &c == &hpx1 ? step_1w : step_fj)
                        .push_back(*t);
                }
            },
            [&] {
                return step_hpx.size() >= need && step_1w.size() >= 10 &&
                       step_fj.size() >= 10;
            });
        std::vector<double> seg_hpx;
        double busy_s = 0.0;
        for (double ms : step_hpx) {
            seg_hpx.push_back(ms * w.steps);
            busy_s += ms * w.steps * 1e-3;
        }
        r.median("step_ms.p50", step_hpx, "ms");
        r.tail("step_ms.p90", step_hpx, 0.9, "ms");
        r.median("step_ms_1w.p50", step_1w, "ms");
        r.median("forkjoin_step_ms.p50", step_fj, "ms");
        r.median("setup_s", setup_s, "s");
        r.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
        // A closed-loop user of this workload submits one hpx_dataflow
        // solve (segment) at a time: its jobs are the segments.
        r.add("jobs_per_s", static_cast<double>(seg_hpx.size()) / busy_s,
              "1/s", seg_hpx.size());
        r.median("job_latency_ms.p50", seg_hpx, "ms");
        r.tail("job_latency_ms.p90", seg_hpx, 0.9, "ms");
        return;
    }

    // Traced run: untraced airfoil::run solves interleaved with the same
    // solves reissued through the traced chain; then the plan and
    // memory probes outside the window.
    pb::recorder rec(100000);
    traced_samples ts;
    std::vector<double> step_hpx, step_fj, traced_hpx;
    pool_counters pc;
    std::uint64_t id = 0;
    int slot = 0;
    timed_window(
        o.seconds,
        [&] {
            switch (slot++ % 4) {
                case 0:
                    pc.measure(pool, w.steps, [&] {
                        if (auto t = solve(hpx)) {
                            step_hpx.push_back(*t);
                        }
                    });
                    break;
                case 1:
                    if (!rec.full()) {
                        if (auto t = checked_traced_solve(
                                *p, *m, hpx, w.steps, check_of(hpx),
                                hpx.name, rec, ++id, ts, out)) {
                            traced_hpx.push_back(*t);
                        }
                    }
                    break;
                case 2:
                    if (auto t = solve(staged)) {
                        step_fj.push_back(*t);
                    }
                    break;
                default:
                    if (!rec.full()) {
                        checked_traced_solve(*p, *m, staged, w.steps_fj,
                                             check_of(staged), staged.name,
                                             rec, ++id, ts, out);
                    }
                    break;
            }
        },
        [&] { return traced_hpx.size() >= 10 && step_fj.size() >= 10; });

    r.median("airfoil.make_mesh_ms", mesh_ms, "ms");
    r.median("airfoil.make_problem_ms", problem_ms, "ms");
    plan_probes(*p, pool.size(), r, rec);
    emit_traced(r, ts);
    pc.emit(r, pool.size());
    stream_probe(pool, r);
    double const gbps = r.rows().back().value;
    double const mb = step_bytes(*m) / 1e6;
    r.add("op2.memory.step_mb", mb, "MB", 0);
    r.add("op2.memory.achieved_frac", mb / pb::median(step_hpx) / gbps,
          "1", step_hpx.size());
    r.add("op2.memory.forkjoin_achieved_frac",
          mb / pb::median(step_fj) / gbps, "1", step_fj.size());
    r.add("bench.trace_overhead_frac",
          pb::median(traced_hpx) / pb::median(step_hpx) - 1.0, "1",
          traced_hpx.size());
    finish_trace(rec, o.trace_out);
}

/// service_open: an open-loop stream of small Airfoil jobs from three
/// tenants over three mesh shapes, submitted to op2::service::scheduler
/// (default options) at a fixed rate with seeded jitter.
void run_service(options const& o, outcome& out) {
    constexpr std::size_t shape_nx[] = {30, 60, 120};
    constexpr std::size_t shape_ny = 15;
    constexpr int niter = 10;
    constexpr double rate = 150.0;    // jobs per second
    constexpr double jitter = 0.4;   // of the mean inter-arrival gap
    constexpr double solo_share = 0.5;  // of the window, before the stream
    pool_t& pool = hpxlite::get_pool();
    config const hpx{"hpx_dataflow", op2::backend::hpx, false};
    config const hpx1{"hpx_dataflow_1w", op2::backend::hpx, true};
    config const staged{"staged", op2::backend::fork_join, false};

    struct job_out {
        std::vector<double> q;
        double step_ms = 0.0;
        bool traced = false;
    };
    auto const job_cfg = make_cfg(hpx, niter);
    auto solve_job = [job_cfg](airfoil::mesh const* m, job_out* res) {
        airfoil::problem p = airfoil::make_problem(*m);
        auto r = airfoil::run(p, job_cfg);
        res->q = std::move(r.q_final);
        res->step_ms = r.elapsed_s * 1e3 / niter;
    };

    // Set-up: generate the three meshes, then one cold-plan job per
    // shape through a fresh scheduler; repeated, median reported.
    std::vector<double> setup_s, mesh_ms;
    std::vector<airfoil::mesh> meshes;
    for (int rep = 0; rep < 31; ++rep) {
        meshes.clear();
        double mesh_s = 0.0;
        for (std::size_t s = 0; s < 3; ++s) {
            airfoil::mesh_params mp;
            mp.nx = shape_nx[s];
            mp.ny = shape_ny;
            double const t0 = now_s();
            meshes.push_back(airfoil::make_mesh(mp));
            mesh_s += now_s() - t0;
            pb::renumber(meshes.back(), o.seed + s, 16);
        }
        double const t0 = now_s();
        std::vector<job_out> warm(3);
        {
            op2::service::scheduler sched;
            for (std::size_t s = 0; s < 3; ++s) {
                op2::service::job_desc d;
                d.name = "setup" + std::to_string(s);
                d.program = [&, s] { solve_job(&meshes[s], &warm[s]); };
                sched.submit(std::move(d));
            }
            sched.drain();
        }
        setup_s.push_back(mesh_s + (now_s() - t0));
        mesh_ms.push_back(mesh_s * 1e3);
    }

    // One oracle per shape, and default-context problems for the solo
    // (1-worker and fork-join) segments.
    std::vector<oracle> checks;
    std::vector<airfoil::problem> solo;
    std::vector<double> bytes;
    for (auto const& m : meshes) {
        solo.push_back(airfoil::make_problem(m));
        checks.emplace_back(seq_reference(solo.back(), m, niter));
        bytes.push_back(step_bytes(m));
    }

    // Solo segments on the job meshes, each configuration cycling the
    // shapes: 1 worker in three slots of four (the noisier of the two),
    // fork-join in the fourth, and, traced, the hpx_dataflow chain.
    std::vector<double> step_1w, step_fj, bps_fj;
    pb::recorder rec(100000);
    traced_samples ts;
    std::uint64_t id = 0;
    std::size_t slot = 0;
    timed_window(
        o.seconds * solo_share,
        [&] {
            bool const fj = slot++ % 4 == 3;
            std::size_t const s = (fj ? step_fj : step_1w).size() % 3;
            config const& c = fj ? staged : hpx1;
            std::string const label =
                std::string(c.name) + "#" + std::to_string(s);
            if (o.trace && !rec.full(0.5)) {  // half is left for jobs
                config const& tc = fj ? staged : hpx;
                checked_traced_solve(solo[s], meshes[s], tc, niter,
                                     checks[s],
                                     std::string(tc.name) + "#" +
                                         std::to_string(s),
                                     rec, ++id, ts, out);
            }
            if (auto t = checked_solve(solo[s], meshes[s], c, niter,
                                       checks[s], label, out)) {
                double const ms = *t * 1e3 / niter;
                (fj ? step_fj : step_1w).push_back(ms);
                if (fj) {
                    bps_fj.push_back(bytes[s] / ms);
                }
            }
        },
        [&] { return step_1w.size() >= 30 && step_fj.size() >= 30; });

    // The open-loop stream: arrival k is due at t_start + due_s and is
    // submitted from this thread; jobs run on the pool.
    double const stream_s = o.seconds * (1.0 - solo_share);
    auto const arrivals = pb::make_arrivals(
        static_cast<std::size_t>(rate * stream_s), rate, jitter, 3, 3,
        o.seed);
    std::vector<job_out> results(arrivals.size());
    std::vector<op2::service::job> jobs(arrivals.size());
    std::vector<double> submit_t(arrivals.size());
    std::vector<int> job_span(arrivals.size(), -1);
    pool_counters pc;
    double t_start = 0.0;

    // Check a retired job and free its output; latency runs from when
    // the job was due to its retirement. The submitting thread checks
    // jobs while it waits for the next arrival, so the stream's memory
    // stays bounded; the check is outside every timed interval.
    std::vector<double> latency_ms, step_ms, traced_ms, gen_lag_ms, wait_ms,
        run_ms, loops, bps;
    double last_retire = 0.0;
    std::size_t completed = 0;
    std::size_t checked = 0;
    auto check_job = [&](std::size_t k) {
        auto const& a = arrivals[k];
        auto const jm = jobs[k].metrics();
        double const due = t_start + a.due_s;
        double const retire = submit_t[k] + jm.latency_s;
        if (job_span[k] >= 0) {
            rec.close_at(job_span[k],
                         rec.now_us() - (now_s() - retire) * 1e6);
        }
        gen_lag_ms.push_back((submit_t[k] - due) * 1e3);
        ++out.attempted;
        job_out res = std::move(results[k]);
        results[k] = {};
        if (jobs[k].failed() ||
            !checks[a.shape].check("job#" + std::to_string(a.shape),
                                   res.q)) {
            std::printf("FAIL job %zu\n", k);
            ++out.failed;
            latency_ms.push_back(INFINITY);  // misses every limit
            return;
        }
        ++completed;
        last_retire = std::max(last_retire, retire);
        latency_ms.push_back((retire - due) * 1e3);
        wait_ms.push_back(jm.wait_s * 1e3);
        run_ms.push_back(jm.run_s * 1e3);
        loops.push_back(static_cast<double>(jm.loops_issued));
        if (res.traced) {
            traced_ms.push_back(res.step_ms);
        } else {
            step_ms.push_back(res.step_ms);
            bps.push_back(bytes[a.shape] / res.step_ms);
        }
    };
    auto retired = [&](std::size_t k) {
        auto const st = jobs[k].state();
        return st == op2::service::job_state::completed ||
               st == op2::service::job_state::failed;
    };
    {
        op2::service::scheduler sched;
        pc.measure(pool, static_cast<double>(arrivals.size() * niter), [&] {
            t_start = now_s();
            for (std::size_t k = 0; k < arrivals.size(); ++k) {
                auto const& a = arrivals[k];
                while (checked < k && retired(checked)) {
                    check_job(checked++);
                }
                std::this_thread::sleep_until(
                    std::chrono::steady_clock::time_point(
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(t_start +
                                                          a.due_s))));
                op2::service::job_desc d;
                d.name = "job" + std::to_string(k);
                d.tenant = "tenant" + std::to_string(a.tenant);
                d.est_loops = niter * 9;
                d.est_bytes = meshes[a.shape].ncell * 7 * sizeof(double);
                airfoil::mesh const* m = &meshes[a.shape];
                job_out* res = &results[k];
                if (o.trace && k % 2 == 1 && !rec.full()) {
                    std::uint64_t const jid = ++id;
                    int const js = rec.open("job", jid, -1);
                    job_span[k] = js;
                    d.program = [&rec, &ts, &hpx, niter, m, res, js, jid] {
                        int const ps = rec.open("make_problem", jid, js);
                        airfoil::problem p = airfoil::make_problem(*m);
                        rec.close(ps);
                        res->step_ms =
                            traced_solve(p, hpx, niter, rec, jid, js, ts);
                        auto v = p.p_q.view<double>();
                        res->q.assign(v.begin(), v.end());
                        res->traced = true;
                    };
                } else {
                    d.program = [&solve_job, m, res] { solve_job(m, res); };
                }
                submit_t[k] = now_s();
                jobs[k] = sched.submit(std::move(d));
            }
            sched.drain();
        });
    }
    while (checked < jobs.size()) {
        check_job(checked++);
    }

    std::printf("stream: %zu jobs at %.0f/s over %.2f s, drained at "
                "+%.3f s\n",
                jobs.size(), rate, stream_s, last_retire - t_start);

    report& r = out.r;
    report extra;  // rows that apply to this workload only
    if (!o.trace) {
        r.median("step_ms.p50", step_ms, "ms");
        r.tail("step_ms.p90", step_ms, 0.9, "ms");
        r.median("step_ms_1w.p50", step_1w, "ms");
        r.median("forkjoin_step_ms.p50", step_fj, "ms");
        r.median("setup_s", setup_s, "s");
        r.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
        r.add("jobs_per_s",
              static_cast<double>(completed) / (last_retire - t_start),
              "1/s", completed);
        r.median("job_latency_ms.p50", latency_ms, "ms");
        r.tail("job_latency_ms.p90", latency_ms, 0.9, "ms");
        extra.tail("job_latency_ms.p95", latency_ms, 0.95, "ms");
        extra.print_table("info");
        return;
    }

    std::vector<double> problem_ms;
    for (auto const& s : rec.spans()) {
        if (s.name == "make_problem") {
            problem_ms.push_back((s.t1_us - s.t0_us) * 1e-3);
        }
    }
    r.median("airfoil.make_mesh_ms", mesh_ms, "ms");
    r.median("airfoil.make_problem_ms", problem_ms, "ms");
    plan_probes(solo[1], pool.size(), r, rec);
    emit_traced(r, ts);
    pc.emit(r, pool.size());
    stream_probe(pool, r);
    double const gbps = r.rows().back().value;
    double mean_bytes = 0.0;
    for (auto const& a : arrivals) {
        mean_bytes += bytes[a.shape] / static_cast<double>(arrivals.size());
    }
    r.add("op2.memory.step_mb", mean_bytes / 1e6, "MB", 0);
    r.add("op2.memory.achieved_frac", pb::median(bps) / 1e6 / gbps, "1",
          bps.size());
    r.add("op2.memory.forkjoin_achieved_frac",
          pb::median(bps_fj) / 1e6 / gbps, "1", bps_fj.size());
    r.add("bench.trace_overhead_frac",
          pb::median(traced_ms) / pb::median(step_ms) - 1.0, "1",
          traced_ms.size());

    extra.median("op2.service.wait_ms.p50", wait_ms, "ms");
    extra.tail("op2.service.wait_ms.p95", wait_ms, 0.95, "ms");
    extra.median("op2.service.run_ms.p50", run_ms, "ms");
    extra.tail("op2.service.run_ms.p95", run_ms, 0.95, "ms");
    extra.median("op2.service.loops_per_job", loops, "count");
    extra.tail("bench.gen_lag_ms.p95", gen_lag_ms, 0.95, "ms");
    extra.print_table("info");
    finish_trace(rec, o.trace_out);
}

options parse(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
        std::string const a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(a + " needs a value");
            }
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::stoull(value());
        } else if (a == "--seconds") {
            o.seconds = std::stod(value());
        } else if (a == "--trace") {
            o.trace = value() != "0";
        } else if (a == "--trace-out") {
            o.trace_out = value();
        } else {
            throw std::invalid_argument("unknown argument " + a);
        }
    }
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    options o;
    try {
        o = parse(argc, argv);
    } catch (std::exception const& e) {
        std::fprintf(stderr, "perfbench_airfoil: %s\n", e.what());
        return 2;
    }
    if (auto knob = knob_override(); !knob.empty()) {
        std::fprintf(stderr,
                     "perfbench_airfoil: refusing to run with %s set; the "
                     "benchmark measures the library defaults\n",
                     knob.c_str());
        return 3;
    }

    hpxlite::init();
    int rc = 0;
    try {
        outcome out;
        std::printf("workload %s, seed %llu, %zu worker(s), %s run\n",
                    o.workload.c_str(),
                    static_cast<unsigned long long>(o.seed),
                    hpxlite::get_num_worker_threads(),
                    o.trace ? "traced" : "untraced");
        if (o.workload == "airfoil_paper") {
            run_airfoil(o, {1200, 600, 1, 2, 4, 7}, out);
        } else if (o.workload == "airfoil_small") {
            run_airfoil(o, {60, 30, 10, 10, 10, 101}, out);
        } else if (o.workload == "service_open") {
            run_service(o, out);
        } else {
            throw std::invalid_argument("unknown workload " + o.workload);
        }

        // comm, fault and tune stay inert under the defaults.
        auto& cs = op2::comm::stats();
        bool const comm_idle = cs.packs + cs.exchanges + cs.unpacks +
                                   cs.combines + cs.bytes ==
                               0;
        bool const fault_off = !op2::fault::armed();
        std::printf("inert: comm::stats() zero %s, fault plan disarmed %s\n",
                    comm_idle ? "yes" : "NO", fault_off ? "yes" : "NO");
        out.r.print_table("metric");
        std::printf("metric %-36s %14.6g %-6s n=%zu\n", "fail_ratio",
                    static_cast<double>(out.failed) /
                        static_cast<double>(std::max<std::size_t>(
                            out.attempted, 1)),
                    "1", out.attempted);
        print_result(comm_idle && fault_off && out.failed == 0,
                     out.attempted, out.failed, out.r.rows());
    } catch (std::exception const& e) {
        std::fprintf(stderr, "perfbench_airfoil: %s\n", e.what());
        rc = 1;
    }
    hpxlite::finalize();
    return rc;
}
