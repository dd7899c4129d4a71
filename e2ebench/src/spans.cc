#include "spans.hh"

#include <chrono>
#include <fstream>
#include <utility>

#include "report/json.hh"

namespace e2e {

namespace {

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Tracer::record(Span span)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
Tracer::add(const std::string &name, std::uint64_t parent,
            std::uint64_t op, std::int64_t start_ns,
            std::int64_t end_ns, std::map<std::string, double> counts)
{
    if (!enabled_)
        return;
    Span s;
    s.name = name;
    s.id = nextId();
    s.parent = parent;
    s.op = op;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.thread = threadNumber();
    s.counts = std::move(counts);
    record(std::move(s));
}

bool
Tracer::write(const std::string &path) const
{
    using m3d::report::Json;
    std::vector<Span> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        all = spans_;
    }
    std::int64_t origin = 0;
    for (const Span &s : all) {
        if (origin == 0 || s.start_ns < origin)
            origin = s.start_ns;
    }
    Json events = Json::array();
    for (const Span &s : all) {
        Json args = Json::object();
        args.set("id", Json::number(static_cast<double>(s.id)));
        args.set("parent",
                 Json::number(static_cast<double>(s.parent)));
        args.set("op", Json::number(static_cast<double>(s.op)));
        for (const auto &[key, value] : s.counts)
            args.set(key, Json::number(value));
        Json e = Json::object();
        e.set("name", Json::string(s.name));
        e.set("cat", Json::string(s.name.substr(0, s.name.find('.'))));
        e.set("ph", Json::string("X"));
        e.set("ts", Json::number(
                        static_cast<double>(s.start_ns - origin) / 1e3));
        e.set("dur", Json::number(
                         static_cast<double>(s.end_ns - s.start_ns) /
                         1e3));
        e.set("pid", Json::number(1));
        e.set("tid", Json::number(s.thread));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json::string("ms"));
    std::ofstream out(path);
    if (!out.is_open())
        return false;
    doc.write(out);
    return static_cast<bool>(out);
}

Scope::Scope(Tracer &tracer, const char *name, std::uint64_t parent,
             std::uint64_t op)
    : tracer_(tracer)
{
    if (!tracer_.enabled())
        return;
    span_.name = name;
    span_.id = tracer_.nextId();
    span_.parent = parent;
    span_.op = op;
    span_.thread = threadNumber();
    span_.start_ns = nowNs();
}

Scope::~Scope()
{
    if (!tracer_.enabled())
        return;
    span_.end_ns = nowNs();
    tracer_.record(std::move(span_));
}

} // namespace e2e
