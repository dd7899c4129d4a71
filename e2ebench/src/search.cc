/**
 * @file
 * The cold design-space search executor.
 *
 * Each entry of the spec's "searches" list is one cold search: both
 * process-wide trace registries are dropped, then set-up builds a
 * fresh Evaluator, the Table 11 DesignFactory through it, and the
 * application traces (the set-up time), and the priced phase runs one
 * runSearch() over coreSpace().  Every pricer call is timed from
 * outside, every priced objective is range-checked, and after the
 * priced phase each priced design's application runs are re-read from
 * the engine cache (pure hits) to check IPC against the issue width.
 *
 * A traced run prices each search twice, cold both times: through the
 * production enginePricer, then through TracedPricer (pricer.hh).
 * The two search documents must be byte-identical; the wall-clock
 * difference is the tracing overhead.
 */

#include <algorithm>
#include <iostream>
#include <memory>

#include "arch/replay_mem.hh"
#include "bench.hh"
#include "core/design.hh"
#include "pricer.hh"
#include "search/search_json.hh"
#include "workload/trace_buffer.hh"

namespace e2e {

using m3d::report::Json;
namespace engine = m3d::engine;
namespace search = m3d::search;

namespace {

/** The spec's fixed pricing configuration. */
struct SearchSpec
{
    int threads = 2;
    std::uint64_t instructions = 20000;
    int thermal_grid = 32;
    std::string strategy = "evolve";
    std::size_t budget = 64;
    std::size_t population = 16;
    std::string corrupt; ///< "objective": falsify one priced value
};

/** One cold search of the spec. */
struct SearchCase
{
    std::uint64_t strategy_seed = 7;
    std::uint64_t trace_seed = 42;
};

/** Everything one cold search produced. */
struct Outcome
{
    double setup_s = 0.0;
    double priced_ms = 0.0;
    std::vector<Result::Sample> calls;
    std::string digest;
    std::size_t evaluated = 0;
    Work work;
    engine::CacheStats runs;       ///< run-cache traffic, priced phase
    engine::CacheStats partitions; ///< partition-cache traffic
    std::uint64_t capture_ops = 0;
    std::uint64_t capture_bytes = 0;
};

engine::CacheStats
since(const engine::CacheStats &now, const engine::CacheStats &then)
{
    engine::CacheStats d;
    d.hits = now.hits - then.hits;
    d.misses = now.misses - then.misses;
    return d;
}

Json
num(double v)
{
    return Json::number(v);
}

/** ObjectiveEvaluator's default mix, spelled out so set-up can capture
 * exactly the traces the priced phase replays. */
std::vector<m3d::WorkloadProfile>
pricedApps()
{
    return {m3d::WorkloadLibrary::byName("Gcc"),
            m3d::WorkloadLibrary::byName("Mcf"),
            m3d::WorkloadLibrary::byName("Gamess")};
}

/**
 * One cold set-up from empty trace registries: a fresh Evaluator, the
 * DesignFactory through it, and the priced apps' traces.  Returns the
 * evaluator; *seconds receives the set-up time.
 */
std::unique_ptr<engine::Evaluator>
coldSetup(const SearchSpec &spec, const SearchCase &c, Tracer &tr,
          double *seconds)
{
    m3d::TraceRegistry::global().clear();
    m3d::MemLevelRegistry::global().clear();

    engine::EvalOptions eopts;
    eopts.threads = spec.threads;
    eopts.budget.measured = spec.instructions;
    eopts.budget.seed = c.trace_seed;
    const std::int64_t t0 = nowNs();
    std::unique_ptr<engine::Evaluator> ev;
    Scope setup(tr, "setup", 0, 0);
    {
        Scope s(tr, "engine.evaluator", setup.id(), 0);
        ev = std::make_unique<engine::Evaluator>(eopts);
    }
    {
        Scope s(tr, "core.factory", setup.id(), 0);
        (void)engine::designFactory(*ev);
    }
    for (const m3d::WorkloadProfile &app : pricedApps()) {
        Scope s(tr, "workload.capture", setup.id(), 0);
        (void)m3d::TraceRegistry::global().acquire(
            app, eopts.budget.seed, /*thread_id=*/0,
            eopts.budget.warmup + eopts.budget.measured);
    }
    *seconds = static_cast<double>(nowNs() - t0) / 1e9;
    return ev;
}

/** One cold search; `traced` prices through TracedPricer. */
Outcome
runCase(const SearchSpec &spec, const SearchCase &c, bool traced,
        Tracer &tracer, Result &res)
{
    Outcome o;
    const std::vector<m3d::WorkloadProfile> apps = pricedApps();
    Tracer off(false);
    Tracer &tr = traced ? tracer : off;
    const std::unique_ptr<engine::Evaluator> ev =
        coldSetup(spec, c, tr, &o.setup_s);
    o.capture_ops = m3d::TraceRegistry::global().totalOps();
    o.capture_bytes = m3d::TraceRegistry::global().totalBytes();

    const search::SearchSpace space = search::coreSpace();
    search::ObjectiveConfig ocfg;
    ocfg.apps = apps;
    ocfg.thermal_grid = spec.thermal_grid;
    search::StrategyOptions sopts;
    sopts.seed = c.strategy_seed;
    sopts.budget = spec.budget;
    sopts.population = spec.population;

    const engine::CacheStats runs0 = ev->cache().runStats();
    const engine::CacheStats parts0 = ev->cache().partitionStats();
    search::ObjectiveEvaluator objectives(*ev, ocfg);
    std::vector<search::Point> priced_points;
    search::SearchResult result;
    const std::int64_t p0 = nowNs();
    {
        Scope root(tr, "search.run", 0, 0);
        TracedPricer traced_pricer(*ev, space, apps, spec.thermal_grid,
                                   tr, root.id());
        const search::BatchPricer inner =
            traced ? traced_pricer.pricer()
                   : search::enginePricer(space, objectives);
        const search::BatchPricer timed =
            [&](const std::vector<search::Point> &pts,
                const std::function<void(std::size_t,
                                         const search::Objectives &)>
                    &hook) {
                const std::int64_t c0 = nowNs();
                std::vector<search::Objectives> out = inner(pts, hook);
                const double ms =
                    static_cast<double>(nowNs() - c0) / 1e6;
                const double n = static_cast<double>(pts.size());
                o.calls.push_back({ms / n, n});
                ++o.work.pricer_calls;
                if (spec.corrupt == "objective" &&
                    o.work.pricer_calls == 2)
                    out.front().epi = -out.front().epi;
                for (const search::Objectives &obj : out) {
                    ++res.attempted;
                    ++o.work.designs_priced;
                    std::string why;
                    if (!objectiveInRange(obj, &why))
                        res.fail("search: " + why);
                }
                priced_points.insert(priced_points.end(), pts.begin(),
                                     pts.end());
                return out;
            };
        result = search::runSearch(space, spec.strategy, sopts, timed,
                                   search::coreBaselinePoint(space));
        if (traced) {
            const Work &w = traced_pricer.work();
            o.work.designs_computed = w.designs_computed;
            o.work.memo_hits = w.memo_hits;
            o.work.thermal_solves = w.thermal_solves;
            o.work.thermal_sweeps = w.thermal_sweeps;
            o.work.unconverged = w.unconverged;
            o.work.ipc_violations = w.ipc_violations;
        }
    }
    o.priced_ms = static_cast<double>(nowNs() - p0) / 1e6;
    o.evaluated = result.evaluated;
    o.runs = since(ev->cache().runStats(), runs0);
    o.partitions = since(ev->cache().partitionStats(), parts0);
    if (!traced) {
        const search::ObjectiveStats st = objectives.stats();
        o.work.designs_computed = st.memo_misses;
        o.work.memo_hits = st.memo_hits;

        // Post-window check: every priced design's runs, re-read from
        // the engine cache, must respect the core's issue width.
        std::sort(priced_points.begin(), priced_points.end());
        priced_points.erase(
            std::unique(priced_points.begin(), priced_points.end()),
            priced_points.end());
        std::vector<engine::SingleJob> jobs;
        for (const search::Point &p : priced_points) {
            const m3d::CoreDesign d = search::decodeCore(space, p, *ev);
            for (const m3d::WorkloadProfile &app : apps)
                jobs.push_back({d, app});
        }
        const std::vector<m3d::AppRun> runs = ev->runBatch(jobs);
        for (std::size_t j = 0; j < runs.size(); ++j) {
            if (runs[j].sim.ipc() > jobs[j].design.issue_width)
                ++o.work.ipc_violations;
        }
    }
    if (o.work.unconverged > 0)
        res.fail("search: unconverged thermal solve");
    if (o.work.ipc_violations > 0)
        res.fail("search: IPC above issue width");

    o.digest = digest(search::searchResultJson(space, spec.strategy,
                                               sopts, result, ocfg)
                          .dump());
    return o;
}

} // namespace

int
searchMain(const RunArgs &args)
{
    const Json &j = args.spec;
    SearchSpec spec;
    spec.threads = static_cast<int>(specUint(j, "threads", 2));
    spec.instructions = specUint(j, "instructions", 20000);
    spec.thermal_grid =
        static_cast<int>(specUint(j, "thermal_grid", 32));
    spec.strategy = specString(j, "strategy", "evolve");
    spec.budget = specUint(j, "budget", 64);
    spec.population = specUint(j, "population", 16);
    spec.corrupt = specString(j, "corrupt", "");
    std::vector<SearchCase> cases;
    if (const Json *list = j.find("searches");
        list != nullptr && list->isArray()) {
        for (const Json &c : list->elements())
            cases.push_back({specUint(c, "strategy_seed", 7),
                             specUint(c, "trace_seed", 42)});
    }
    if (cases.empty()) {
        std::cerr << "m3d_e2ebench: spec has no searches\n";
        return 1;
    }

    const bool traced = !args.trace_path.empty();
    Tracer tracer(traced);
    Result res;
    Work total;
    std::uint64_t evaluated = 0, capture_ops = 0;
    engine::CacheStats runs, parts;
    Json digests = Json::array(), per_search = Json::array();
    for (const SearchCase &c : cases) {
        const Outcome o = runCase(spec, c, false, tracer, res);
        Json obs = Json::object();
        if (traced) {
            const Outcome t = runCase(spec, c, true, tracer, res);
            ++res.attempted;
            if (t.digest != o.digest)
                res.fail("search: traced result differs from untraced");
            // Only the traced pass sees the thermal work; every other
            // count is identical between the two passes.
            total.thermal_solves += t.work.thermal_solves;
            total.thermal_sweeps += t.work.thermal_sweeps;
            obs.set("traced_priced_ms", num(t.priced_ms));
        }
        res.setup_s.push_back(o.setup_s);
        res.samples.insert(res.samples.end(), o.calls.begin(),
                           o.calls.end());
        digests.push(Json::string(o.digest));
        total.pricer_calls += o.work.pricer_calls;
        total.designs_priced += o.work.designs_priced;
        total.designs_computed += o.work.designs_computed;
        total.memo_hits += o.work.memo_hits;
        evaluated += o.evaluated;
        runs.hits += o.runs.hits;
        runs.misses += o.runs.misses;
        parts.hits += o.partitions.hits;
        parts.misses += o.partitions.misses;
        capture_ops += o.capture_ops;

        obs.set("setup_s", num(o.setup_s));
        obs.set("priced_ms", num(o.priced_ms));
        obs.set("designs", num(static_cast<double>(
                               o.work.designs_priced)));
        obs.set("capture_mb", num(static_cast<double>(o.capture_bytes) /
                                  (1024.0 * 1024.0)));
        per_search.push(std::move(obs));
    }
    res.observed.set("searches", std::move(per_search));

    // Further cold set-ups without a search, so setup_s is the median
    // of at least "setup_reps" samples.
    const std::size_t setup_reps = specUint(j, "setup_reps", 0);
    Tracer off(false);
    for (std::size_t i = 0; res.setup_s.size() < setup_reps; ++i) {
        double seconds = 0.0;
        (void)coldSetup(spec, cases[i % cases.size()], off, &seconds);
        res.setup_s.push_back(seconds);
    }

    const auto count = [](std::uint64_t v) {
        return num(static_cast<double>(v));
    };
    Json &ex = res.exact;
    ex.set("searches", count(cases.size()));
    ex.set("pricer_calls", count(total.pricer_calls));
    ex.set("designs_priced", count(total.designs_priced));
    ex.set("designs_computed", count(total.designs_computed));
    ex.set("objective_memo_hits", count(total.memo_hits));
    ex.set("points_evaluated", count(evaluated));
    ex.set("engine_runs", count(runs.lookups()));
    ex.set("run_cache_hits", count(runs.hits));
    ex.set("run_cache_misses", count(runs.misses));
    ex.set("ops_replayed",
           count(runs.misses *
                 (m3d::SimBudget{}.warmup + spec.instructions)));
    ex.set("partition_cache_hits", count(parts.hits));
    ex.set("partition_cache_misses", count(parts.misses));
    ex.set("capture_ops", count(capture_ops));
    if (traced) {
        ex.set("thermal_solves", count(total.thermal_solves));
        ex.set("thermal_sweeps", count(total.thermal_sweeps));
    }
    ex.set("result_digests", std::move(digests));

    if (traced && !tracer.write(args.trace_path)) {
        std::cerr << "m3d_e2ebench: cannot write '" << args.trace_path
                  << "'\n";
        return 1;
    }
    if (!res.write(args.out_path, peakRssMb())) {
        std::cerr << "m3d_e2ebench: cannot write '" << args.out_path
                  << "'\n";
        return 1;
    }
    return 0;
}

} // namespace e2e
