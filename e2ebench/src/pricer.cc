#include "pricer.hh"

#include <algorithm>
#include <cmath>

#include "power/power_model.hh"
#include "thermal/stack.hh"
#include "thermal/thermal_model.hh"

namespace e2e {

namespace engine = m3d::engine;
namespace search = m3d::search;

bool
objectiveInRange(const search::Objectives &o, std::string *why)
{
    const double ambient_c = m3d::LayerStack{}.ambient_c;
    if (!std::isfinite(o.frequency) || o.frequency <= 0.0)
        *why = "frequency not positive";
    else if (!std::isfinite(o.epi) || o.epi <= 0.0)
        *why = "energy per instruction not positive";
    else if (!std::isfinite(o.peak_c) || o.peak_c <= ambient_c)
        *why = "peak temperature not above ambient";
    else if (!(o.yield >= 0.0 && o.yield <= 1.0))
        *why = "yield outside [0, 1]";
    else
        return true;
    return false;
}

TracedPricer::TracedPricer(engine::Evaluator &ev,
                           const search::SearchSpace &space,
                           std::vector<m3d::WorkloadProfile> apps,
                           int grid, Tracer &tracer,
                           std::uint64_t parent)
    : ev_(ev), space_(space), apps_(std::move(apps)), grid_(grid),
      tracer_(tracer), parent_(parent)
{
}

search::BatchPricer
TracedPricer::pricer()
{
    return [this](const std::vector<search::Point> &pts,
                  const std::function<void(std::size_t,
                                           const search::Objectives &)>
                      &hook) { return price(pts, hook); };
}

std::vector<search::Objectives>
TracedPricer::price(
    const std::vector<search::Point> &pts,
    const std::function<void(std::size_t, const search::Objectives &)>
        &hook)
{
    const std::uint64_t op = ++work_.pricer_calls;
    work_.designs_priced += pts.size();
    Scope call(tracer_, "search.pricer", parent_, op);
    call.count("designs", static_cast<double>(pts.size()));

    // enginePricer decodes every point, memo hits included.
    std::vector<m3d::CoreDesign> designs;
    {
        Scope s(tracer_, "search.decode", call.id(), op);
        designs.reserve(pts.size());
        for (const search::Point &p : pts)
            designs.push_back(search::decodeCore(space_, p, ev_));
    }

    std::vector<search::Objectives> out(pts.size());
    std::vector<bool> hit(pts.size(), false);
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const auto it = memo_.find(pts[i]);
        if (it != memo_.end()) {
            out[i] = it->second;
            hit[i] = true;
            ++work_.memo_hits;
        } else {
            missing.push_back(i);
        }
    }
    if (hook) {
        for (std::size_t i = 0; i < pts.size(); ++i) {
            if (hit[i])
                hook(i, out[i]);
        }
    }
    if (missing.empty())
        return out;
    work_.designs_computed += missing.size();

    engine::BatchRunRequest breq;
    breq.runs.reserve(missing.size() * apps_.size());
    for (const std::size_t i : missing) {
        for (const m3d::WorkloadProfile &app : apps_) {
            m3d::RunRequest rr;
            rr.kind = m3d::RunKind::Single;
            rr.design = designs[i];
            rr.app = app;
            rr.budget = ev_.options().budget;
            rr.path = ev_.options().trace_path;
            breq.runs.push_back(std::move(rr));
        }
    }
    engine::BatchRunResult bres;
    {
        Scope s(tracer_, "engine.submit", call.id(), op);
        bres = ev_.submit(breq);
        const engine::BatchStats st = ev_.lastBatchStats();
        s.count("runs", static_cast<double>(breq.runs.size()));
        s.count("run_hits", static_cast<double>(st.run.hits));
        s.count("run_misses", static_cast<double>(st.run.misses));
        s.count("ops_replayed",
                static_cast<double>(st.run.misses) *
                    static_cast<double>(ev_.options().budget.warmup +
                                        ev_.options().budget.measured));
    }

    // ObjectiveEvaluator::compute, per design, across the pool; each
    // slot is written by exactly one task.
    std::vector<Work> slot(missing.size());
    {
        Scope stage(tracer_, "search.objectives", call.id(), op);
        const std::uint64_t stage_id = stage.id();
        ev_.parallelFor(missing.size(), [&](std::size_t m) {
            const std::size_t i = missing[m];
            const m3d::CoreDesign &d = designs[i];
            search::Objectives obj;
            obj.frequency = d.frequency;
            double energy_j = 0.0;
            double instructions = 0.0;
            std::vector<std::map<std::string, double>> powers;
            powers.reserve(apps_.size());
            {
                Scope s(tracer_, "power.block", stage_id, op);
                m3d::PowerModel pm(d);
                for (std::size_t a = 0; a < apps_.size(); ++a) {
                    const m3d::AppRun &r =
                        bres.runs[m * apps_.size() + a].single;
                    if (r.sim.ipc() > d.issue_width)
                        ++slot[m].ipc_violations;
                    energy_j += r.energyJ();
                    instructions += static_cast<double>(r.sim.instructions);
                    powers.push_back(pm.blockPower(r.sim.activity, r.seconds));
                }
            }
            {
                Scope s(tracer_, "thermal.solve", stage_id, op);
                m3d::SolverConfig solver_cfg;
                solver_cfg.threads = 1;
                const m3d::ThermalModel tm(d, grid_, solver_cfg);
                for (const m3d::ThermalResult &th : tm.solveMany(powers)) {
                    obj.peak_c = std::max(obj.peak_c, th.peak_c);
                    ++slot[m].thermal_solves;
                    slot[m].thermal_sweeps +=
                        static_cast<std::uint64_t>(th.solver.iterations);
                    if (!th.solver.converged)
                        ++slot[m].unconverged;
                }
                s.count("solves", static_cast<double>(slot[m].thermal_solves));
                s.count("sweeps", static_cast<double>(slot[m].thermal_sweeps));
            }
            obj.epi = energy_j / instructions;
            out[i] = obj;
            if (hook)
                hook(i, out[i]);
        });
    }
    for (const Work &w : slot) {
        work_.thermal_solves += w.thermal_solves;
        work_.thermal_sweeps += w.thermal_sweeps;
        work_.unconverged += w.unconverged;
        work_.ipc_violations += w.ipc_violations;
    }
    for (const std::size_t i : missing)
        memo_.emplace(pts[i], out[i]);
    return out;
}

} // namespace e2e
