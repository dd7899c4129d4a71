/**
 * @file
 * The daemon executor and its open-loop request generator.
 *
 * Set-up starts an in-process service::Server on a scratch socket and
 * warms its DesignFactory with one eval request; it is repeated
 * "setup_reps" times from cold registries and the last server serves
 * the window.  The window is driven by a separate generator process
 * (this binary's `generate` mode) that replays the spec's schedule
 * open loop: request i is due at its "at_ms" offset, whichever of the
 * spec's connections is free sends it, and its latency runs from the
 * due time, so a stall also delays the requests queued behind it.
 *
 * After the window every response is checked byte for byte against
 * an in-process evaluation of the same request (eval runs and sweeps
 * through one Evaluator, searches through runSearch exactly as
 * Server::handleSearch configures them).  A traced run performs that
 * re-evaluation under spans - capture, submit, power, thermal, search
 * - which is what the per-layer numbers of this workload measure: the
 * work the window asked for, priced in-process, next to the
 * client-side latency of each request type.
 */

#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "arch/replay_mem.hh"
#include "bench.hh"
#include "core/design.hh"
#include "pricer.hh"
#include "search/search_json.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "workload/trace_buffer.hh"

extern char **environ;

namespace e2e {

using m3d::report::Json;
namespace engine = m3d::engine;
namespace search = m3d::search;
namespace service = m3d::service;

namespace {

/** One generator record: what came back for request `index`. */
struct Record
{
    std::size_t index = 0;
    double send_ms = 0.0; ///< relative to the schedule origin
    double done_ms = 0.0;
    bool transport_ok = false;
    std::string response; ///< the response document, re-rendered
};

Json
num(double v)
{
    return Json::number(v);
}

const std::vector<Json> &
scheduleOf(const Json &spec)
{
    static const std::vector<Json> none;
    const Json *list = spec.find("requests");
    return list != nullptr && list->isArray() ? list->elements() : none;
}

std::string
requestType(const Json &req)
{
    const std::string type = specString(req, "type", "");
    if (type == "eval") {
        const Json *runs = req.find("runs");
        if (runs != nullptr && runs->isArray() &&
            !runs->elements().empty() &&
            specString(runs->elements().front(), "kind", "") == "multi")
            return "multi";
    }
    return type;
}

bool
writeRecords(const std::string &path, std::int64_t origin_ns,
             const std::vector<Record> &recs)
{
    std::ofstream out(path, std::ios::binary);
    out << origin_ns << '\n';
    for (const Record &r : recs) {
        out << r.index << ' ' << Json::formatNumber(r.send_ms) << ' '
            << Json::formatNumber(r.done_ms) << ' '
            << (r.transport_ok ? 1 : 0) << ' ' << r.response.size()
            << '\n'
            << r.response << '\n';
    }
    return static_cast<bool>(out);
}

bool
readRecords(const std::string &path, std::int64_t *origin_ns,
            std::vector<Record> *recs)
{
    std::ifstream in(path, std::ios::binary);
    std::string header;
    if (!std::getline(in, header))
        return false;
    *origin_ns = std::stoll(header);
    while (std::getline(in, header)) {
        std::istringstream h(header);
        Record r;
        int ok = 0;
        std::size_t len = 0;
        if (!(h >> r.index >> r.send_ms >> r.done_ms >> ok >> len))
            return false;
        r.transport_ok = ok != 0;
        r.response.resize(len);
        in.read(r.response.data(), static_cast<std::streamsize>(len));
        in.get(); // the record's trailing newline
        if (!in)
            return false;
        recs->push_back(std::move(r));
    }
    return true;
}

/** The daemon's design-name table (Server::ensureFactory's forms). */
std::unordered_map<std::string, m3d::CoreDesign>
designsByName(const m3d::DesignFactory &f)
{
    std::unordered_map<std::string, m3d::CoreDesign> map;
    const auto add = [&map](const m3d::CoreDesign &d) {
        std::string lower = d.name;
        for (char &c : lower)
            c = static_cast<char>(std::tolower(c));
        map.emplace(lower, d);
        std::replace(lower.begin(), lower.end(), ' ', '-');
        map.emplace(lower, d);
    };
    for (const m3d::CoreDesign &d : f.singleCoreDesigns())
        add(d);
    for (const m3d::CoreDesign &d : f.multicoreDesigns())
        add(d);
    add(f.m3dHetNaive());
    add(f.m3dHetAgg());
    add(f.m3dHetW());
    add(f.m3dHet2x());
    map.emplace("m3d-het-naive", f.m3dHetNaive());
    map.emplace("m3d-het-agg", f.m3dHetAgg());
    return map;
}

bool
appByName(const std::string &name, m3d::WorkloadProfile *out)
{
    for (const auto &suite : {m3d::WorkloadLibrary::spec2006(),
                              m3d::WorkloadLibrary::splash2parsec()}) {
        for (const m3d::WorkloadProfile &p : suite) {
            if (p.name == name) {
                *out = p;
                return true;
            }
        }
    }
    return false;
}

bool
techByName(const std::string &name, m3d::Technology *out)
{
    if (name == "m3d-het")
        *out = m3d::Technology::m3dHetero();
    else if (name == "m3d-iso")
        *out = m3d::Technology::m3dIso();
    else if (name == "tsv3d")
        *out = m3d::Technology::tsv3D();
    else
        return false;
    return true;
}

/**
 * In-process reference answers for every distinct request of the
 * window; see the file comment.  Each expected value is the rendered
 * result member of the response ("results" elements or "result").
 */
class Reference
{
  public:
    Reference(int threads, Tracer &tracer, Result &res)
        : threads_(threads), tracer_(tracer), res_(res)
    {
        engine::EvalOptions eopts;
        eopts.threads = threads;
        ev_ = std::make_unique<engine::Evaluator>(eopts);
        Scope s(tracer_, "core.factory", 0, 0);
        factory_ = std::make_unique<m3d::DesignFactory>(
            engine::designFactory(*ev_));
        names_ = designsByName(*factory_);
    }

    /**
     * Price every distinct eval run and sweep structure: single-core
     * runs and sweeps in one submit, multicore runs in a second one,
     * so the first submit's time per replayed op is the replay
     * kernel's alone.
     */
    void prepare(const std::vector<Json> &schedule)
    {
        engine::BatchRunRequest batch[2]; // [0] single + sweeps, [1] multi
        std::vector<std::string> run_keys[2], part_keys;
        for (const Json &item : schedule) {
            const Json *req = item.find("request");
            const std::string type = specString(*req, "type", "");
            if (type == "eval") {
                for (const Json &r : req->find("runs")->elements()) {
                    const std::string key = r.dump();
                    m3d::RunRequest rr;
                    if (runs_.count(key) != 0 || !runRequest(r, &rr))
                        continue;
                    runs_[key] = "";
                    const int b = rr.kind == m3d::RunKind::Multi ? 1 : 0;
                    run_keys[b].push_back(key);
                    batch[b].runs.push_back(std::move(rr));
                }
            } else if (type == "sweep") {
                m3d::Technology tech;
                if (!techByName(specString(*req, "tech", ""), &tech))
                    continue;
                for (const Json &s : req->find("structures")->elements()) {
                    const std::string key =
                        specString(*req, "tech", "") + "/" + s.asString();
                    if (parts_.count(key) != 0)
                        continue;
                    for (const m3d::ArrayConfig &c :
                         m3d::CoreStructures::all()) {
                        if (c.name != s.asString())
                            continue;
                        parts_[key] = "";
                        part_keys.push_back(key);
                        batch[0].partitions.push_back(
                            {tech, c, m3d::PartitionKind::None});
                    }
                }
            }
        }
        {
            // Capture the single-core traces first so the submit span
            // below is replay only (multicore runs capture inside).
            Scope s(tracer_, "workload.capture", 0, 0);
            for (const m3d::RunRequest &rr : batch[0].runs)
                (void)m3d::TraceRegistry::global().acquire(
                    rr.app, rr.budget.seed, 0,
                    rr.budget.warmup + rr.budget.measured);
        }
        for (int b = 0; b < 2; ++b) {
            engine::BatchRunResult out;
            {
                Scope s(tracer_, "engine.submit", 0, 0);
                out = ev_->submit(batch[b]);
                const engine::BatchStats st = ev_->lastBatchStats();
                std::uint64_t ops = 0;
                for (const m3d::RunRequest &rr : batch[b].runs) {
                    if (rr.kind == m3d::RunKind::Single)
                        ops += rr.budget.warmup + rr.budget.measured;
                }
                s.count("runs", static_cast<double>(batch[b].runs.size()));
                s.count("run_hits", static_cast<double>(
                                        st.run.hits + st.multi.hits));
                s.count("run_misses", static_cast<double>(
                                          st.run.misses + st.multi.misses));
                s.count("ops_replayed", static_cast<double>(ops));
            }
            for (std::size_t i = 0; i < run_keys[b].size(); ++i) {
                const m3d::RunResult &r = out.runs[i];
                if (r.kind == m3d::RunKind::Single &&
                    r.single.sim.ipc() > batch[b].runs[i].design.issue_width)
                    res_.fail("daemon: IPC above issue width");
                runs_[run_keys[b][i]] = service::runResultJson(r).dump();
            }
            for (std::size_t i = 0; i < out.partitions.size(); ++i)
                parts_[part_keys[i]] =
                    service::partitionResultJson(out.partitions[i]).dump();
        }
    }

    /** Thermal work of the traced search re-evaluations. */
    const Work &work() const { return work_; }

    /** The expected rendering of `req`'s result member(s). */
    std::vector<std::string> expected(const Json &req)
    {
        const std::string type = specString(req, "type", "");
        std::vector<std::string> out;
        if (type == "eval") {
            for (const Json &r : req.find("runs")->elements())
                out.push_back(runs_[r.dump()]);
        } else if (type == "sweep") {
            for (const Json &s : req.find("structures")->elements())
                out.push_back(
                    parts_[specString(req, "tech", "") + "/" +
                           s.asString()]);
        } else if (type == "search") {
            const std::string key = req.dump();
            auto it = searches_.find(key);
            if (it == searches_.end())
                it = searches_.emplace(key, searchResult(req)).first;
            out.push_back(it->second);
        }
        return out;
    }

  private:
    bool runRequest(const Json &r, m3d::RunRequest *rr) const
    {
        rr->kind = specString(r, "kind", "single") == "multi"
            ? m3d::RunKind::Multi
            : m3d::RunKind::Single;
        const auto it = names_.find(specString(r, "design", ""));
        if (it == names_.end() ||
            !appByName(specString(r, "app", ""), &rr->app))
            return false;
        rr->design = it->second;
        rr->budget.warmup = specUint(r, "warmup", rr->budget.warmup);
        rr->budget.measured = specUint(r, "measured", rr->budget.measured);
        rr->budget.seed = specUint(r, "seed", rr->budget.seed);
        rr->path = ev_->options().trace_path;
        return true;
    }

    /** Server::handleSearch's configuration, in-process. */
    std::string searchResult(const Json &req)
    {
        const std::string strategy = specString(req, "strategy", "");
        engine::EvalOptions eopts;
        eopts.threads = threads_;
        eopts.budget.measured = specUint(req, "instructions", 60000);
        const std::uint64_t op = ++searches_run_;
        engine::Evaluator local(eopts);
        {
            // The server copies its whole partition + objective cache
            // into the private evaluator and back on every search; so
            // does this, under a span, on a cache grown the same way.
            Scope s(tracer_, "service.cache_copy", 0, op);
            std::stringstream warm;
            ev_->cache().savePartitions(warm);
            local.cache().loadPartitions(warm);
        }
        const search::SearchSpace space = search::coreSpace();
        search::ObjectiveConfig ocfg;
        ocfg.thermal_grid =
            static_cast<int>(specUint(req, "thermal_grid", 32));
        search::StrategyOptions sopts;
        sopts.seed = specUint(req, "seed", 7);
        sopts.budget = specUint(req, "budget", 16);
        sopts.population = specUint(req, "population", 16);

        search::ObjectiveEvaluator objectives(local, ocfg);
        auto root = std::make_unique<Scope>(tracer_, "search.run", 0, op);
        TracedPricer traced(local, space,
                            {m3d::WorkloadLibrary::byName("Gcc"),
                             m3d::WorkloadLibrary::byName("Mcf"),
                             m3d::WorkloadLibrary::byName("Gamess")},
                            ocfg.thermal_grid, tracer_, root->id());
        if (tracer_.enabled()) {
            Scope s(tracer_, "workload.capture", root->id(), op);
            for (const char *app : {"Gcc", "Mcf", "Gamess"})
                (void)m3d::TraceRegistry::global().acquire(
                    m3d::WorkloadLibrary::byName(app), eopts.budget.seed,
                    0, eopts.budget.warmup + eopts.budget.measured);
        }
        const search::BatchPricer pricer =
            tracer_.enabled() ? traced.pricer()
                              : search::enginePricer(space, objectives);
        const search::BatchPricer checked =
            [&](const std::vector<search::Point> &pts,
                const std::function<void(std::size_t,
                                         const search::Objectives &)>
                    &hook) {
                std::vector<search::Objectives> out = pricer(pts, hook);
                for (const search::Objectives &o : out) {
                    std::string why;
                    if (!objectiveInRange(o, &why))
                        res_.fail("daemon search: " + why);
                }
                return out;
            };
        const search::SearchResult result = search::runSearch(
            space, strategy, sopts, checked,
            search::coreBaselinePoint(space));
        root.reset();
        {
            Scope s(tracer_, "service.cache_copy", 0, op);
            std::stringstream merge;
            local.cache().savePartitions(merge);
            ev_->cache().loadPartitions(merge);
        }
        work_.thermal_solves += traced.work().thermal_solves;
        work_.thermal_sweeps += traced.work().thermal_sweeps;
        if (traced.work().unconverged > 0)
            res_.fail("daemon search: unconverged thermal solve");
        if (traced.work().ipc_violations > 0)
            res_.fail("daemon search: IPC above issue width");
        return search::searchResultJson(space, strategy, sopts, result,
                                        ocfg)
            .dump();
    }

  private:
    const int threads_;
    Tracer &tracer_;
    Result &res_;
    std::unique_ptr<engine::Evaluator> ev_;
    std::unique_ptr<m3d::DesignFactory> factory_;
    std::unordered_map<std::string, m3d::CoreDesign> names_;
    std::unordered_map<std::string, std::string> runs_, parts_,
        searches_;
    std::uint64_t searches_run_ = 0;
    Work work_;
};

/** The rendered result member(s) of one response document. */
std::vector<std::string>
renderedResults(const Json &resp)
{
    std::vector<std::string> out;
    if (const Json *r = resp.find("results"); r && r->isArray()) {
        for (const Json &e : r->elements())
            out.push_back(e.dump());
    } else if (const Json *s = resp.find("result")) {
        out.push_back(s->dump());
    }
    return out;
}

bool
spawnGenerator(const RunArgs &args, const std::string &socket,
               const std::string &out, pid_t *pid)
{
    std::vector<std::string> argv_s = {
        args.self_exe, "generate", "--spec", args.spec_path,
        "--socket",    socket,     "--out",  out};
    std::vector<char *> argv;
    for (std::string &s : argv_s)
        argv.push_back(s.data());
    argv.push_back(nullptr);
    return ::posix_spawn(pid, args.self_exe.c_str(), nullptr, nullptr,
                         argv.data(), environ) == 0;
}

} // namespace

int
generatorMain(const std::string &spec_path, const std::string &socket,
              const std::string &out_path)
{
    Json spec;
    std::string err;
    if (!readJson(spec_path, &spec, &err)) {
        std::cerr << "generator: " << err << "\n";
        return 1;
    }
    // Never outlive the executor that spawned us.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const std::vector<Json> &schedule = scheduleOf(spec);
    const int conns =
        std::max<int>(1, static_cast<int>(specUint(spec, "connections", 2)));
    std::vector<std::unique_ptr<service::Client>> clients;
    for (int i = 0; i < conns; ++i) {
        clients.push_back(std::make_unique<service::Client>());
        if (!clients.back()->connect(socket, &err)) {
            std::cerr << "generator: " << err << "\n";
            return 1;
        }
    }

    std::vector<Record> recs(schedule.size());
    std::atomic<std::size_t> next{0};
    const std::int64_t origin = nowNs();
    const auto rel = [origin] {
        return static_cast<double>(nowNs() - origin) / 1e6;
    };
    std::vector<std::thread> threads;
    for (int ci = 0; ci < conns; ++ci) {
        threads.emplace_back([&, ci] {
            service::Client &c = *clients[static_cast<std::size_t>(ci)];
            for (std::size_t i = next.fetch_add(1); i < schedule.size();
                 i = next.fetch_add(1)) {
                const Json &item = schedule[i];
                // Sleep to just before the due time, then spin, so the
                // timer's wake-up slack does not become request latency.
                const std::int64_t due_ns =
                    origin + static_cast<std::int64_t>(
                                 specNumber(item, "at_ms", 0.0) * 1e6);
                std::this_thread::sleep_until(
                    std::chrono::steady_clock::time_point(
                        std::chrono::nanoseconds(due_ns - 200000)));
                while (nowNs() < due_ns) {
                }
                Record &r = recs[i];
                r.index = i;
                r.send_ms = rel();
                Json resp;
                std::string cerr_;
                r.transport_ok =
                    c.connected() &&
                    c.call(*item.find("request"), &resp, &cerr_);
                r.done_ms = rel();
                r.response = r.transport_ok ? resp.dump() : cerr_;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return writeRecords(out_path, origin, recs) ? 0 : 1;
}

int
daemonMain(const RunArgs &args)
{
    const Json &spec = args.spec;
    const int threads = static_cast<int>(specUint(spec, "threads", 2));
    const double limit_ms = specNumber(spec, "latency_limit_ms", 10000.0);
    const double measure_from_ms = specNumber(spec, "measure_from_ms", 0.0);
    const std::size_t setup_reps =
        std::max<std::uint64_t>(1, specUint(spec, "setup_reps", 3));
    const std::string socket = specString(spec, "socket", "m3dd.sock");
    const std::string corrupt = specString(spec, "corrupt", "");
    const std::vector<Json> &schedule = scheduleOf(spec);
    const Json *warm = spec.find("warm");
    if (schedule.empty() || warm == nullptr) {
        std::cerr << "m3d_e2ebench: daemon spec needs requests and warm\n";
        return 1;
    }
    const bool traced = !args.trace_path.empty();
    Tracer tracer(traced);
    Result res;

    // --- Set-up: server start + warm factory, cold each time --------
    service::ServerOptions sopts;
    sopts.socket_path = socket;
    sopts.threads = threads;
    std::unique_ptr<service::Server> server;
    std::vector<double> factory_ms;
    for (std::size_t rep = 0; rep < setup_reps; ++rep) {
        if (server) {
            server->stop();
            server.reset();
        }
        m3d::TraceRegistry::global().clear();
        m3d::MemLevelRegistry::global().clear();
        std::remove(socket.c_str());
        const std::int64_t t0 = nowNs();
        server = std::make_unique<service::Server>(sopts);
        std::string err;
        if (!server->start(&err)) {
            std::cerr << "m3d_e2ebench: daemon failed to start: " << err
                      << "\n";
            return 1;
        }
        const std::int64_t t1 = nowNs();
        service::Client c;
        Json resp;
        if (!c.connect(socket, &err) || !c.callChecked(*warm, &resp, &err)) {
            std::cerr << "m3d_e2ebench: warm request failed: " << err
                      << "\n";
            return 1;
        }
        const std::int64_t t2 = nowNs();
        res.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
        factory_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    }

    // --- Window: the generator process replays the schedule ----------
    const service::ServerStats s0 = server->stats();
    engine::EvalCache &cache = server->evaluator().cache();
    const engine::CacheStats run0 = cache.runStats();
    const engine::CacheStats multi0 = cache.multiStats();
    const std::string records_path = args.out_path + ".records";
    pid_t pid = 0;
    if (!spawnGenerator(args, socket, records_path, &pid)) {
        std::cerr << "m3d_e2ebench: cannot spawn the generator\n";
        return 1;
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const service::ServerStats s1 = server->stats();
    const engine::CacheStats run1 = cache.runStats();
    const engine::CacheStats multi1 = cache.multiStats();
    const std::size_t entries = cache.partitionEntries() +
                                cache.runEntries() + cache.multiEntries() +
                                cache.objectiveEntries();
    const std::uint64_t capture_bytes =
        m3d::TraceRegistry::global().totalBytes();
    server->stop();
    server.reset();
    std::remove(socket.c_str());
    std::vector<Record> recs;
    std::int64_t origin_ns = 0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !readRecords(records_path, &origin_ns, &recs) ||
        recs.size() != schedule.size()) {
        std::cerr << "m3d_e2ebench: the generator failed\n";
        return 1;
    }
    std::remove(records_path.c_str());

    // --- Checks against in-process evaluation ------------------------
    // Cold registries, so a traced re-evaluation pays capture again.
    m3d::TraceRegistry::global().clear();
    m3d::MemLevelRegistry::global().clear();
    Reference ref(threads, tracer, res);
    ref.prepare(schedule);
    bool corrupted = false;
    std::map<std::string, std::uint64_t> by_type;
    std::uint64_t runs_requested = 0;
    Json lag = Json::array();
    for (const Record &r : recs) {
        const Json &item = schedule[r.index];
        const Json &req = *item.find("request");
        const std::string type = requestType(req);
        ++by_type[type];
        if (const Json *runs = req.find("runs"))
            runs_requested += runs->elements().size();
        const double due = specNumber(item, "at_ms", 0.0);
        double latency = r.done_ms - due;
        lag.push(num(r.send_ms - due));
        ++res.attempted;

        std::string why;
        Json resp;
        std::string perr;
        if (!r.transport_ok) {
            why = "transport: " + r.response;
        } else if (!Json::parse(r.response, &resp, &perr)) {
            why = "unparsable response";
        } else if (const Json *ok = resp.find("ok");
                   ok == nullptr || !ok->isBool() || !ok->asBool()) {
            why = "error response";
        } else {
            std::vector<std::string> got = renderedResults(resp);
            if (corrupt == "response" && !corrupted && !got.empty()) {
                got.front().back() = got.front().back() == 'x' ? 'y' : 'x';
                corrupted = true;
            }
            if (got != ref.expected(req))
                why = "response differs from in-process";
            else if (latency > limit_ms)
                why = "latency limit missed";
        }
        if (!why.empty()) {
            res.fail("daemon " + type + ": " + why);
            latency = std::max(latency, limit_ms);
        }
        // Requests due before "measure_from_ms" fill the caches: they
        // are checked like every other but not timed.
        if (due >= measure_from_ms)
            res.samples.push_back({latency, 1.0});
    }

    // Client-side request spans: due -> sent (generator lag) and
    // sent -> answered (service time).  steady_clock is the system
    // monotonic clock, so the generator's origin shares our time base.
    if (traced) {
        for (const Record &r : recs) {
            const Json &item = schedule[r.index];
            const std::string type = requestType(*item.find("request"));
            const double due = specNumber(item, "at_ms", 0.0);
            const auto ns = [origin_ns](double ms) {
                return origin_ns + static_cast<std::int64_t>(ms * 1e6);
            };
            tracer.add("service.request", 0, r.index + 1, ns(due),
                       ns(r.done_ms));
            tracer.add("service.lag", 0, r.index + 1, ns(due),
                       ns(r.send_ms));
            tracer.add("service." + type, 0, r.index + 1, ns(r.send_ms),
                       ns(r.done_ms));
        }
    }

    const auto count = [](std::uint64_t v) {
        return num(static_cast<double>(v));
    };
    Json &ex = res.exact;
    ex.set("requests", count(recs.size()));
    for (const auto &[type, n] : by_type)
        ex.set("requests_" + type, count(n));
    ex.set("runs_requested", count(runs_requested));
    ex.set("run_cache_misses", count(run1.misses - run0.misses));
    ex.set("multi_cache_misses", count(multi1.misses - multi0.misses));
    ex.set("searches_served", count(s1.searches - s0.searches));
    if (traced) {
        ex.set("thermal_solves", count(ref.work().thermal_solves));
        ex.set("thermal_sweeps", count(ref.work().thermal_sweeps));
    }

    Json &obs = res.observed;
    obs.set("runs_coalesced", count(s1.runs_coalesced - s0.runs_coalesced));
    obs.set("runs_submitted", count(s1.runs_submitted - s0.runs_submitted));
    obs.set("drains", count(s1.drains - s0.drains));
    obs.set("run_cache_hits", count((run1.hits - run0.hits) +
                                    (multi1.hits - multi0.hits)));
    obs.set("partitions_coalesced",
            count(s1.partitions_coalesced - s0.partitions_coalesced));
    obs.set("server_errors", count(s1.errors - s0.errors));
    obs.set("cache_entries", count(entries));
    obs.set("capture_mb", num(static_cast<double>(capture_bytes) /
                              (1024.0 * 1024.0)));
    Json fms = Json::array();
    for (const double v : factory_ms)
        fms.push(num(v));
    obs.set("factory_ms", std::move(fms));
    obs.set("lag_ms", std::move(lag));

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
