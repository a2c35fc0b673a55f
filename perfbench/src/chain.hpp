#pragma once

// The benchmark's own copy of the Airfoil loop chain (paper Fig. 2):
// the five exec::run_loop calls of one outer iteration, issued with the
// public airfoil/kernels.hpp kernels. The traced run wraps spans around
// these calls; the plan probes reuse the same argument lists.

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include <airfoil/app.hpp>
#include <airfoil/kernels.hpp>
#include <op2/op2.hpp>

namespace perfbench {

/// The chain's distinct loops, in issue order within a step.
inline constexpr std::array<char const*, 5> loop_names = {
    "save_soln", "adt_calc", "res_calc", "bres_calc", "update"};

/// Call f(name, set, kernel, args...) for each of the five loops in
/// loop_names order; `rms` is update's OP_INC global.
template <typename F>
void visit_loops(airfoil::problem& p, double* rms, F&& f) {
    using namespace op2;
    namespace k = airfoil::kernels;
    f("save_soln", p.cells, k::save_soln,
      op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_READ),
      op_arg_dat(p.p_qold, -1, OP_ID, 4, "double", OP_WRITE));
    f("adt_calc", p.cells, k::adt_calc,
      op_arg_dat(p.p_x, 0, p.pcell, 2, "double", OP_READ),
      op_arg_dat(p.p_x, 1, p.pcell, 2, "double", OP_READ),
      op_arg_dat(p.p_x, 2, p.pcell, 2, "double", OP_READ),
      op_arg_dat(p.p_x, 3, p.pcell, 2, "double", OP_READ),
      op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_READ),
      op_arg_dat(p.p_adt, -1, OP_ID, 1, "double", OP_WRITE));
    f("res_calc", p.edges, k::res_calc,
      op_arg_dat(p.p_x, 0, p.pedge, 2, "double", OP_READ),
      op_arg_dat(p.p_x, 1, p.pedge, 2, "double", OP_READ),
      op_arg_dat(p.p_q, 0, p.pecell, 4, "double", OP_READ),
      op_arg_dat(p.p_q, 1, p.pecell, 4, "double", OP_READ),
      op_arg_dat(p.p_adt, 0, p.pecell, 1, "double", OP_READ),
      op_arg_dat(p.p_adt, 1, p.pecell, 1, "double", OP_READ),
      op_arg_dat(p.p_res, 0, p.pecell, 4, "double", OP_INC),
      op_arg_dat(p.p_res, 1, p.pecell, 4, "double", OP_INC));
    f("bres_calc", p.bedges, k::bres_calc,
      op_arg_dat(p.p_x, 0, p.pbedge, 2, "double", OP_READ),
      op_arg_dat(p.p_x, 1, p.pbedge, 2, "double", OP_READ),
      op_arg_dat(p.p_q, 0, p.pbecell, 4, "double", OP_READ),
      op_arg_dat(p.p_adt, 0, p.pbecell, 1, "double", OP_READ),
      op_arg_dat(p.p_res, 0, p.pbecell, 4, "double", OP_INC),
      op_arg_dat(p.p_bound, -1, OP_ID, 1, "int", OP_READ));
    f("update", p.cells, k::update,
      op_arg_dat(p.p_qold, -1, OP_ID, 4, "double", OP_READ),
      op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_WRITE),
      op_arg_dat(p.p_res, -1, OP_ID, 4, "double", OP_RW),
      op_arg_dat(p.p_adt, -1, OP_ID, 1, "double", OP_READ),
      op_arg_gbl(rms, 1, "double", OP_INC));
}

/// One loop's iteration set and argument list (for the plan probes).
struct loop_args {
    std::string name;
    op2::op_set set;
    std::vector<op2::op_arg> args;
};

inline std::vector<loop_args> chain_args(airfoil::problem& p, double* rms) {
    std::vector<loop_args> out;
    visit_loops(p, rms, [&](char const* name, op2::op_set const& set,
                            auto /*kernel*/, auto... args) {
        out.push_back({name, set, {args...}});
    });
    return out;
}

/// Issue one outer iteration on `lo.backend`: save_soln, then two
/// (adt_calc, res_calc, bres_calc, update) rounds, exactly as
/// airfoil::run does. `on_issue(name, handle, t0_us, t1_us)` observes
/// every run_loop call; `now_us` timestamps it.
template <typename Now, typename OnIssue>
void issue_step(airfoil::problem& p, op2::loop_options const& lo,
                double* rms, Now&& now_us, OnIssue&& on_issue) {
    auto issue = [&](char const* name, op2::op_set const& set,
                     auto kernel, auto... args) {
        double const t0 = now_us();
        auto h = op2::exec::run_loop(lo, name, set, kernel, args...);
        on_issue(name, std::move(h), t0, now_us());
    };
    auto only = [&](bool save) {
        return [&, save](char const* name, op2::op_set const& set,
                         auto kernel, auto... args) {
            if ((name == std::string_view("save_soln")) == save) {
                issue(name, set, kernel, args...);
            }
        };
    };
    visit_loops(p, rms, only(true));
    for (int round = 0; round < 2; ++round) {
        visit_loops(p, rms, only(false));
    }
}

}  // namespace perfbench
